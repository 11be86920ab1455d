"""Classical bivariate distributions and the entropy obstruction.

Classically a zero-entropy joint distribution forces zero marginal
entropies, so no classical state combines a pure joint with maximally mixed
marginals.  That is one inequality, H12 >= max(h1, h2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import entropy_of_spectrum

TABLE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Bivariate probability table; rows are variable 1, columns variable 2."""

    table: np.ndarray

    def __post_init__(self):
        t = np.array(self.table, dtype=float)
        if t.ndim != 2:
            raise ValueError(f"joint table must be 2-D, got ndim {t.ndim}")
        if t.min() < -TABLE_TOL:
            raise ValueError(f"joint table has negative mass {t.min():.3e}")
        total = t.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"joint table mass {total!r} is not 1")
        t = np.clip(t, 0.0, None)
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    @property
    def marginal_1(self) -> np.ndarray:
        return self.table.sum(axis=1)

    @property
    def marginal_2(self) -> np.ndarray:
        return self.table.sum(axis=0)


def shannon_entropies(joint: JointDistribution) -> tuple[float, float, float]:
    """Marginal and joint entropies (h1, h2, H12) in nats."""
    h1 = entropy_of_spectrum(joint.marginal_1)
    h2 = entropy_of_spectrum(joint.marginal_2)
    return h1, h2, entropy_of_spectrum(joint.table)


def classical_origin_infeasible(joint: JointDistribution) -> float:
    """H12 - max(h1, h2): the smaller conditional entropy, >= 0 for every table.

    Nonnegative conditional entropy means H12 >= max(h1, h2), so a pure
    joint (H12 = 0) forces h1 = h2 = 0 and no classical state has a pure
    joint with mixed marginals.  With I = h1 + h2 - H12 the cap
    I <= min(h1, h2) is the same inequality: min(h1, h2) - I is this gap.
    """
    h1, h2, h12 = shannon_entropies(joint)
    return h12 - max(h1, h2)


def random_joint_distribution(n1: int, n2: int, rng) -> JointDistribution:
    """Uniform (flat-Dirichlet) random table on an n1 x n2 alphabet."""
    flat = rng.dirichlet(np.ones(n1 * n2))
    return JointDistribution(flat.reshape(n1, n2))
