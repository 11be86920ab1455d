"""Matrix exponential family and its BKM (Kubo-Mori) geometry.

States are parametrised as rho(theta) = exp(K(theta) - psi(theta) I) with
K(theta) = sum_a theta_a F_a over a traceless orthonormal Hermitian basis
and psi = log tr exp(K).  Mean parameters are mu_a = tr(rho F_a), the BKM
metric is the Hessian of psi, and the entropy gradient is -G theta.

The sign convention matters: K(theta) is the *family* generator.  The
modular generator of a state is -log rho = psi I - K(theta); see the
``modular`` module.  Keep the two distinct.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BoundaryStateError
from .operators import OperatorBasis, _readonly, exp_divided_difference, require_hermitian
from .states import FULL_RANK_FLOOR

# Underflow guard: below this the state is numerically rank deficient.
STATE_UNDERFLOW_FLOOR = 1e-250


@dataclass(frozen=True, eq=False)
class ExpFamilyPoint:
    """Immutable snapshot of one family member and its local geometry: the
    family generator K(theta), log partition psi, state rho with its
    eigendecomposition and mean parameters mu, computed at construction, and
    the m x m BKM metric G, computed on first access of ``metric``."""

    theta: np.ndarray
    basis: OperatorBasis
    generator: np.ndarray
    psi: float
    rho: np.ndarray
    mu: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @property
    def entropy(self) -> float:
        return float(self.psi - self.theta @ self.mu)

    @cached_property
    def metric(self) -> np.ndarray:
        """Full BKM metric G (Hessian of psi), computed on first access.

        G_ab = sum_jk k(p_j, p_k) (F~_a)_jk conj((F~_b)_jk) with F~ the centred
        basis elements in the eigenbasis of rho and k the BKM kernel, Hermitian
        in (j, k): G = V V^T over the upper triangle of the BKM rows, sqrt(2)
        off the diagonal, filled one chunk of rotated elements at a time.
        """
        k = bkm_kernel_matrix(self.eigvals)
        upper = np.repeat(np.triu(np.ones(k.shape, dtype=bool)).ravel(), 2)  # Re, Im per entry
        V = np.empty((self.basis.size, np.count_nonzero(upper)))
        for chunk, R in self.basis.rotated(self.eigvecs):
            V[chunk] = _bkm_rows(R, np.sqrt(k + np.triu(k, 1)), self.mu[chunk])[:, upper]
        return _readonly(V @ V.T)


def _check_theta(theta, basis: OperatorBasis) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (basis.size,):
        raise ValueError(f"theta shape {theta.shape} does not match basis size {basis.size}")
    if not np.isfinite(theta).all():
        raise ValueError("theta must be finite")
    return theta


def _log_sum_exp(w: np.ndarray) -> float:
    """log sum exp(w) for an ascending spectrum, shifted by its top entry.

    Same result as scipy.special.logsumexp at a fraction of its per-call
    overhead, which dominated a small chart point.
    """
    top = w[-1]
    return float(top + np.log1p(np.exp(w[:-1] - top).sum()))


def _spectrum(K: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """psi, the spectrum p of rho = exp(K - psi I) and its eigenvectors, from one eigh."""
    w, U = np.linalg.eigh(K)  # K is exactly Hermitian (OperatorBasis.combine)
    psi = _log_sum_exp(w)
    p = np.exp(w - psi)
    if p[0] <= STATE_UNDERFLOW_FLOOR:
        raise BoundaryStateError(f"state eigenvalue {p[0]:.3e} underflowed")
    return psi, p, U


def bkm_kernel_matrix(p) -> np.ndarray:
    """BKM kernel k(p_j, p_k) = (p_j - p_k) / (log p_j - log p_k) on a spectrum.

    This is the first divided difference of exp at w = log p, so it is
    ``exp_divided_difference(log p)``: cancellation-free at every spacing,
    with the limit value p on the diagonal and at equal pairs.
    """
    p = np.asarray(p, dtype=float)
    if p.min() <= STATE_UNDERFLOW_FLOOR:
        raise BoundaryStateError(
            f"spectrum entry {p.min():.3e} underflowed; state is numerically rank deficient"
        )
    return exp_divided_difference(np.log(p))


def make_point(theta, basis: OperatorBasis) -> ExpFamilyPoint:
    """The family point at natural parameters ``theta`` (length ``basis.size``)
    in the chart of ``basis``: a frozen snapshot carrying K, psi, rho, mu and
    the eigendecomposition of rho; the BKM metric is computed on first access.
    """
    theta = _check_theta(theta, basis)
    K = basis.combine(theta)
    psi, p, U = _spectrum(K)
    rho = (U * p) @ U.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return ExpFamilyPoint(
        theta=_readonly(theta.copy()),
        basis=basis,
        generator=_readonly(K),
        psi=psi,
        rho=_readonly(rho),
        mu=_readonly(basis.coordinates(rho)),
        eigvals=_readonly(p),
        eigvecs=_readonly(U),
    )


def _bkm_rows(R: np.ndarray, root_k: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Rows Y_a = sqrt(k) (R_a - mu_a I) as real views, shape (n, 2 d^2).

    R is the C-contiguous (n, d, d) stack U^dag F_a U in the eigenbasis U of
    rho and ``root_k`` the square root of the BKM kernel k on its spectrum, so
    G_ab = Y_a . Y_b and G = Y Y^T is exactly symmetric.
    """
    n, d, _ = R.shape
    Y = R * root_k
    Y.reshape(n, -1)[:, :: d + 1] -= mu[:, None] * np.diagonal(root_k)
    return Y.view(float).reshape(n, -1)


def state_from_params(theta, basis: OperatorBasis) -> np.ndarray:
    """rho(theta) = exp(K(theta) - psi I)."""
    return make_point(theta, basis).rho


def params_from_state(rho, basis: OperatorBasis) -> np.ndarray:
    """Invert the chart: theta_a = tr(F_a log rho).

    The state must be comfortably full rank (smallest eigenvalue above
    FULL_RANK_FLOOR); rank-deficient input is rejected rather than clipped.
    """
    rho = require_hermitian(rho, name="density matrix")
    w, U = np.linalg.eigh(rho)
    if w[0] <= FULL_RANK_FLOOR:
        raise BoundaryStateError(
            f"state eigenvalue {w[0]:.3e} at or below {FULL_RANK_FLOOR}; chart inversion rejected"
        )
    L = (U * np.log(w)) @ U.conj().T
    return basis.coordinates(L)
