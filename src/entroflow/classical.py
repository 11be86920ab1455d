"""Classical bivariate distributions and the entropy obstruction certificate.

Classically a zero-entropy joint distribution forces zero marginal
entropies, so no classical state combines a pure joint with maximally mixed
marginals.  The certificate below pins that down quantitatively: whenever
H12 <= eta the marginal entropy sum is capped by 2 * eta, and mutual
information never exceeds either marginal entropy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import entropy_of_spectrum

TABLE_TOL = 1e-12
CHECK_SLACK = 1e-12


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ShannonSummary:
    h1: float
    h2: float
    joint: float
    mutual_information: float
    conditional_1_given_2: float


def shannon_entropies(joint: JointDistribution) -> ShannonSummary:
    """Marginal, joint, mutual and conditional entropies in nats."""
    h1 = entropy_of_spectrum(joint.marginal_1)
    h2 = entropy_of_spectrum(joint.marginal_2)
    h12 = entropy_of_spectrum(joint.table)
    return ShannonSummary(
        h1=h1,
        h2=h2,
        joint=h12,
        mutual_information=h1 + h2 - h12,
        conditional_1_given_2=h12 - h2,
    )


@dataclass(frozen=True)
class ObstructionCertificate:
    """Witness that near-zero joint entropy forces near-zero marginals."""

    eta: float
    joint_entropy: float
    h1: float
    h2: float
    marginal_sum: float
    bound: float
    applicable: bool
    is_point_mass: bool
    marginal_bound_holds: bool
    mutual_information: float
    mutual_information_capped: bool
    conditional_nonnegative: bool

    @property
    def holds(self) -> bool:
        checks = [self.mutual_information_capped, self.conditional_nonnegative]
        if self.applicable:
            checks.append(self.marginal_bound_holds)
        return all(checks)


def classical_origin_infeasible(joint: JointDistribution, eta: float = 0.0) -> ObstructionCertificate:
    """Certificate that a joint with H12 <= eta cannot have mixed marginals.

    The marginal cap is h1 + h2 <= 2 * eta (each marginal entropy is at most
    the joint entropy), so bound(0) = 0: a point mass has h1 = h2 = 0.  The
    certificate also records the classical caps I <= min(h1, h2) and
    H(1|2) >= 0, which any quantum state violating them escapes.
    """
    if eta < 0.0:
        raise ValueError(f"eta must be nonnegative, got {eta}")
    s = shannon_entropies(joint)
    applicable = s.joint <= eta + CHECK_SLACK
    bound = 2.0 * eta
    marginal_sum = s.h1 + s.h2
    point_mass = bool(joint.table.max() >= 1.0 - 1e-9)
    return ObstructionCertificate(
        eta=eta,
        joint_entropy=s.joint,
        h1=s.h1,
        h2=s.h2,
        marginal_sum=marginal_sum,
        bound=bound,
        applicable=applicable,
        is_point_mass=point_mass,
        marginal_bound_holds=bool(marginal_sum <= bound + CHECK_SLACK),
        mutual_information=s.mutual_information,
        mutual_information_capped=bool(
            s.mutual_information <= min(s.h1, s.h2) + CHECK_SLACK
        ),
        conditional_nonnegative=bool(s.conditional_1_given_2 >= -CHECK_SLACK),
    )


def bernoulli_chart(p: float) -> tuple[float, float]:
    """Natural parameter and log-partition of a Bernoulli(p) variable.

    theta = log(p / (1 - p)) and psi = log(1 + e^theta), evaluated stably.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    theta = float(np.log(p) - np.log1p(-p))
    psi = float(np.logaddexp(0.0, theta))
    return theta, psi


def random_joint_distribution(n1: int, n2: int, rng) -> JointDistribution:
    """Uniform (flat-Dirichlet) random table on an n1 x n2 alphabet."""
    flat = rng.dirichlet(np.ones(n1 * n2))
    return JointDistribution(flat.reshape(n1, n2))
