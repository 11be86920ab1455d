"""Density matrices, von Neumann entropy, and reference states.

The reference family here is the GHZ pure state on n >= 2 equal factors
(for n = 2 the maximally entangled state), whose marginals are maximally
mixed, together with its full-rank regularisation by mixing with the
maximally mixed state (which leaves every marginal exactly maximally mixed).
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedShapeError
from .operators import as_shape, is_hermitian, marginals, require_hermitian

# Spectrum floor: eigenvalues in [EIG_CLIP_FLOOR, 0) are treated as exact
# zeros; anything below is an invariant violation, not round-off.
EIG_CLIP_FLOOR = -1e-10
# Smallest eigenvalue a state or marginal must exceed before its logarithm is
# taken (chart inversion, modular generator, constraint gradient); at or
# below it those raise BoundaryStateError.
FULL_RANK_FLOOR = 1e-12


def entropy_of_spectrum(w) -> float:
    """Shannon entropy of an eigenvalue vector in nats, with 0 log 0 = 0."""
    w = np.asarray(w, dtype=float)
    if w.min() < EIG_CLIP_FLOOR:
        raise ValueError(f"eigenvalue {w.min():.3e} below the round-off floor {EIG_CLIP_FLOOR}")
    w = w[w > 0.0]
    return float(-(w @ np.log(w)))


def von_neumann_entropy(rho) -> float:
    """Entropy -tr(rho log rho) in nats of a density matrix."""
    rho = require_hermitian(rho, name="density matrix")
    return entropy_of_spectrum(np.linalg.eigvalsh(rho))


def lme_origin(shape) -> np.ndarray:
    """GHZ pure state |Phi><Phi| with Phi = sum_k |k...k> / sqrt(q).

    Defined for n >= 2 subsystems of equal local dimension q; every marginal
    is exactly I/q, and for n = 2 Phi is the maximally entangled state
    sum_j |jj> / sqrt(q).  Other layouts raise UnsupportedShapeError.
    """
    shape = as_shape(shape)
    if shape.n_subsystems < 2 or len(set(shape.dims)) != 1:
        raise UnsupportedShapeError(
            f"GHZ origin needs two or more subsystems of equal dimension, got {shape.dims}"
        )
    q, d = shape.dims[0], shape.total_dim
    psi = np.zeros(d, dtype=complex)
    psi[np.arange(q) * ((d - 1) // (q - 1))] = 1.0 / np.sqrt(q)
    return np.outer(psi, psi.conj())


def regularized_origin(shape, eps: float) -> np.ndarray:
    """(1 - eps) * origin + eps * I/d: full rank, marginals still I/q exactly."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    rho = lme_origin(shape)
    d = rho.shape[0]
    return (1.0 - eps) * rho + eps * np.eye(d, dtype=complex) / d


def marginal_entropies(rho, shape) -> np.ndarray:
    """Subsystem entropies h(rho_i) in nats; one eigvalsh per group of equal dimension."""
    shape = as_shape(shape)
    margs = marginals(rho, shape)
    out = np.empty(len(margs))
    for di in set(shape.dims):
        group = [i for i, dj in enumerate(shape.dims) if dj == di]
        A = np.array([margs[i] for i in group])
        for i, ok in zip(group, is_hermitian(A)):
            if not ok:
                raise ValueError(f"marginal {i} is not Hermitian or not finite")
        out[group] = _stack_entropies(0.5 * (A + A.conj().transpose(0, 2, 1)))
    return out


def _stack_entropies(A) -> np.ndarray:
    """h of each matrix of the Hermitian stack A, from one eigvalsh, with
    0 log 0 = 0; an eigenvalue below EIG_CLIP_FLOOR raises ValueError."""
    w = np.linalg.eigvalsh(A)
    if w.min() < EIG_CLIP_FLOOR:
        raise ValueError(f"eigenvalue {w.min():.3e} below the round-off floor {EIG_CLIP_FLOOR}")
    p = np.where(w > 0.0, w, 1.0)  # 0 log 0 = 0
    return -(p * np.log(p)).sum(axis=1)


def multi_information(rho, shape) -> float:
    """Total correlation sum_i h(rho_i) - H(rho); zero iff a product state."""
    shape = as_shape(shape)
    return float(marginal_entropies(rho, shape).sum() - von_neumann_entropy(rho))


def gibbs_state(H, beta: float) -> np.ndarray:
    """exp(-beta H) / Z for Hermitian H, computed through the spectrum.

    The exponent is shifted to the most populated level before scaling, so
    it is <= 0; a beta too large for the gaps overflows it to -inf, which
    exp takes to an exact 0 (a rank-deficient state, not NaN).
    """
    w, U = np.linalg.eigh(require_hermitian(H, name="generator"))
    with np.errstate(over="ignore"):
        x = -beta * (w - (w[0] if beta >= 0 else w[-1]))
    p = np.exp(x)
    p /= p.sum()
    rho = (U * p) @ U.conj().T
    return 0.5 * (rho + rho.conj().T)


def random_hermitian(d: int, rng) -> np.ndarray:
    """GUE-like random Hermitian matrix with unit entry scale."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2.0


def random_density_matrix(d: int, rng) -> np.ndarray:
    """Ginibre-induced random state."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    w = g @ g.conj().T
    w /= np.trace(w).real
    return 0.5 * (w + w.conj().T)
