"""Modular generators of marginals and thermal-family diagnostics.

The modular generator of a full-rank marginal is K_i = -log rho_i, so the
marginal entropy is its own expectation value, h(rho_i) = tr(rho_i K_i),
and the constraint functional equals the total modular energy.  Note the
sign relative to the family chart: the family generator K(theta) satisfies
-log rho = psi I - K(theta).

A marginal is "Gibbs-locked" to a local Hamiltonian when K_i matches
beta H + const; the residual after fitting beta measures how far the actual
marginal is from that thermal form.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundaryStateError
from .operators import marginals, require_hermitian
from .states import FULL_RANK_FLOOR, gibbs_state, marginal_entropies

GENERATOR_TRIVIAL_TOL = 1e-12


def modular_hamiltonian(rho_i) -> np.ndarray:
    """K_i = -log rho_i for a full-rank marginal."""
    w, U = np.linalg.eigh(require_hermitian(rho_i, name="marginal"))
    if w[0] <= FULL_RANK_FLOOR:
        raise BoundaryStateError(
            f"marginal eigenvalue {w[0]:.3e} at or below {FULL_RANK_FLOOR}; "
            "modular generator undefined"
        )
    K = (U * -np.log(w)) @ U.conj().T
    return 0.5 * (K + K.conj().T)


def modular_energy_sum(rho, shape) -> float:
    """sum_i tr(rho_i K_i); equal to the marginal entropy sum."""
    total = 0.0
    for rho_i in marginals(rho, shape):
        total += float(np.real(np.trace(rho_i @ modular_hamiltonian(rho_i))))
    return total


def gibbs_entropy_derivative(generator, beta: float) -> float:
    """d h / d beta = -beta var(H) along the thermal family exp(-beta H) / Z.

    Zero exactly at beta = 0 (any generator leaves h stationary at the
    maximally mixed state) and nonpositive for beta >= 0.
    """
    H = require_hermitian(generator, name="generator")
    rho = gibbs_state(H, beta)
    mean = float(np.real(np.trace(rho @ H)))
    second = float(np.real(np.trace(rho @ H @ H)))
    return -beta * (second - mean * mean)


def _traceless(X: np.ndarray) -> np.ndarray:
    d = X.shape[0]
    return X - (np.trace(X) / d) * np.eye(d, dtype=X.dtype)


def gibbs_lock_residual(rho_i, H_local) -> tuple[float, float]:
    """Best thermal match of a marginal to a local generator.

    Minimises |K_i - beta H - c(beta) I|_F over beta (the identity component
    is projected out, which fixes c).  Returns (beta_star, residual); the
    residual is zero iff the marginal is exactly Gibbs with respect to
    H_local.  With T and K the traceless parts of H_local and K_i the
    objective |K - beta T|^2 is quadratic in beta, so
    beta_star = Re<T, K> / |T|^2 in closed form.
    """
    H_local = require_hermitian(H_local, name="local generator")
    T = _traceless(H_local)
    t_norm = float(np.linalg.norm(T))
    if t_norm < GENERATOR_TRIVIAL_TOL:
        raise ValueError("local generator is a multiple of the identity; beta is unidentifiable")
    K = _traceless(modular_hamiltonian(rho_i))
    beta_star = float(np.real(np.vdot(T, K))) / t_norm**2
    return beta_star, float(np.linalg.norm(K - beta_star * T))


def total_modular_consistency(rho, shape) -> float:
    """|modular energy sum - marginal entropy sum|, an exact-identity gauge."""
    return abs(modular_energy_sum(rho, shape) - float(marginal_entropies(rho, shape).sum()))
