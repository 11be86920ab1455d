"""Marginal-entropy constraint geometry on the exponential family.

The constraint functional is C(theta) = sum_i h(rho_i), the sum of marginal
entropies, globally capped by C_max = sum_i log d_i.  This module provides
its exact gradient and Hessian, the marginal-preserving tangent space ker M
and the stiffness spectrum that separates soft (marginal-preserving) from
stiff (marginal-moving) directions.

There is one projection route, the local-block identity: (G v)_a =
tr(F_a d rho[v]), and the local elements L of the product basis span the
traceless operators of every subsystem, so M v = 0 iff (G v)_L = 0.  ker M
is therefore the G-orthogonal complement of the local axes e_L, and every
use of it (the flow's projection, the kernel basis) is one solve with the
|L| x |L| local metric block G_LL (``_solve_local_block``).  The marginal
Jacobian M itself is never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BoundaryStateError, FullyConstrainedError, NumericalDegeneracyError
from .expfamily import (
    ExpFamilyPoint,
    _centred_rotation,
    bkm_kernel_matrix,
    state_derivatives,
)
from .operators import (
    OperatorBasis,
    embed_local,
    exp_divided_difference,
    exp_second_divided_difference,
    marginals,
    partial_trace_stack,
)
from .states import entropy_of_spectrum

PROJECTOR_COND_MAX = 1e12
MARGINAL_EIG_FLOOR = 1e-12
SOFT_MODE_TOL = 1e-6


@dataclass(frozen=True)
class ConstraintGeometry:
    """Constraint data at one family point.

    ``kernel`` holds one column e_C - e_L G_LL^{-1} G_LC per correlation
    element C.  The columns span ker M but are not orthonormal; at
    theta = 0, where G = I/d, they are the correlation axes e_C (their local
    entries are round-off in G_LC, below 1e-16).
    ``hessian`` is None unless requested at construction: it costs
    O(m d^3 + m^2 d^2) and the flow integrator never needs it.
    """

    point: ExpFamilyPoint
    value: float
    grad: np.ndarray
    kernel: np.ndarray
    hessian: np.ndarray | None


def _local_sector(basis: OperatorBasis) -> np.ndarray:
    """Indices L of the local basis elements; raises when ker M is trivial."""
    local = basis.local_sector
    if local.size == basis.size:
        raise FullyConstrainedError(
            "marginal-preserving tangent space is trivial for this constraint set"
        )
    return local


def _solve_local_block(block: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """G_LL^{-1} rhs for a vector or the columns of a matrix ``rhs``.

    One symmetric eigensolve gives both the solve and the condition number:
    G_LL is a Gram matrix, so its 2-norm condition number is lam_max / lam_min,
    and a non-positive lam_min (round-off at a singular block) counts as inf.
    Raises NumericalDegeneracyError when it exceeds PROJECTOR_COND_MAX.
    """
    lam, V = np.linalg.eigh(block)
    cond = lam[-1] / lam[0] if lam[0] > 0 else math.inf
    if not np.isfinite(cond) or cond > PROJECTOR_COND_MAX:
        raise NumericalDegeneracyError(
            f"local metric block condition {cond:.3e} exceeds {PROJECTOR_COND_MAX:.1e}"
        )
    return V @ ((rhs.T @ V) / lam).T


def constraint_max(shape) -> float:
    return float(np.sum(np.log(shape.dims)))


def marginal_entropy_sum(point: ExpFamilyPoint) -> float:
    """C(theta) = sum_i h(rho_i)."""
    return sum(
        entropy_of_spectrum(np.linalg.eigvalsh(rho_i))
        for rho_i in marginals(point.rho, point.basis.shape)
    )


def marginal_eigh(point: ExpFamilyPoint) -> list[tuple[np.ndarray, np.ndarray]]:
    """Eigendecomposition (w, U) of every marginal, eigenvalues ascending.

    Raises BoundaryStateError when a marginal eigenvalue is at or below
    MARGINAL_EIG_FLOOR: the marginal logarithms behind the constraint
    gradient are not trustworthy there.
    """
    out = []
    for i, rho_i in enumerate(marginals(point.rho, point.basis.shape)):
        w, U = np.linalg.eigh(rho_i)
        if w[0] <= MARGINAL_EIG_FLOOR:
            raise BoundaryStateError(
                f"marginal {i} eigenvalue {w[0]:.3e} at or below {MARGINAL_EIG_FLOOR}"
            )
        out.append((w, U))
    return out


def _marginal_logs(point: ExpFamilyPoint) -> list[np.ndarray]:
    return [(U * np.log(w)) @ U.conj().T for w, U in marginal_eigh(point)]


def constraint_gradient(point: ExpFamilyPoint) -> np.ndarray:
    """Exact gradient a_b = -tr(Lambda d rho / d theta_b), Lambda = sum_i log rho_i (x) I.

    d rho / d theta_b = Dexp_A[F~_b] with A = K - psi I and F~_b = F_b - mu_b I,
    and the Daleckii-Krein derivative is self-adjoint, so with X = Dexp_A[Lambda]
    a_b = -tr(X F_b) + mu_b tr(X): one derivative in the eigenbasis of rho and
    one ``coordinates`` product, O(d^3 + m d^2).  Vanishes identically
    wherever every marginal is maximally mixed.
    """
    shape = point.basis.shape
    Lam = sum(embed_local(L, i, shape) for i, L in enumerate(_marginal_logs(point)))
    U = point.eigvecs
    phi = exp_divided_difference(np.log(point.eigvals))
    X = U @ ((U.conj().T @ Lam @ U) * phi) @ U.conj().T
    return np.real(np.trace(X)) * point.mu - point.basis.coordinates(X)


def _kernel(point: ExpFamilyPoint) -> np.ndarray:
    """Columns e_C - e_L G_LL^{-1} G_LC, one per non-local element C: (G N)_L = 0."""
    m = point.basis.size
    local = _local_sector(point.basis)
    other = point.basis.correlation_indices()
    G = point.metric
    N = np.zeros((m, other.size))
    N[other, np.arange(other.size)] = 1.0
    N[local] = -_solve_local_block(G[np.ix_(local, local)], G[np.ix_(local, other)])
    return N


def constraint_geometry(
    point: ExpFamilyPoint,
    *,
    include_hessian: bool = False,
) -> ConstraintGeometry:
    """Bundle C, its gradient, a basis of ker M and optionally the Hessian.

    Raises FullyConstrainedError for a single-subsystem basis and
    NumericalDegeneracyError when cond(G_LL) exceeds PROJECTOR_COND_MAX.
    """
    return ConstraintGeometry(
        point=point,
        value=marginal_entropy_sum(point),
        grad=constraint_gradient(point),
        kernel=_kernel(point),
        hessian=constraint_hessian(point) if include_hessian else None,
    )


def constraint_hessian(point: ExpFamilyPoint) -> np.ndarray:
    """Exact Hessian of C from second-order Daleckii-Krein divided differences.

    With A = K - psi I, F~_a = F_a - mu_a I and Lambda = sum_i log rho_i (x) I
    on the other factors,

        Hess C_ab = -tr(Lambda d_a d_b rho) - sum_i tr(Dlog(rho_i)[d_a rho_i] d_b rho_i),
        d_a d_b rho = D^2 exp(A)[F~_a, F~_b] - G_ab rho.

    In the eigenbasis of rho, with w = log p, tr(Lambda D^2 exp[F~_a, F~_b])
    = T_ab + T_ba where T_ab = sum_jlk (F~_a)_jl f[w_j, w_l, w_k]
    Lambda~_kj (F~_b)_lk and f are the second divided differences of exp;
    this costs O(m d^3 + m^2 d^2).  The divided differences of log are 1/k
    with k the BKM kernel, so the marginal sum is Re(Y Y^dag) with rows
    Y_b = V_i^dag (d_b rho_i) V_i / sqrt(k(lambda_i)).  Marginals at or below
    MARGINAL_EIG_FLOOR raise BoundaryStateError (``marginal_eigh``).
    """
    shape = point.basis.shape
    m = point.basis.size
    D = state_derivatives(point)
    H = np.zeros((m, m))
    Lam = np.zeros((point.dim, point.dim), dtype=complex)
    trace_lam_rho = 0.0
    for i, (lam, V) in enumerate(marginal_eigh(point)):
        log_lam = np.log(lam)
        Lam += embed_local((V * log_lam) @ V.conj().T, i, shape)
        trace_lam_rho += float(lam @ log_lam)
        Y = V.conj().T @ partial_trace_stack(D, shape, i) @ V / np.sqrt(bkm_kernel_matrix(lam))
        Y = Y.reshape(m, -1)
        H -= np.real(Y @ Y.conj().T)

    U = point.eigvecs
    Lam_t = U.conj().T @ Lam @ U
    Fc = _centred_rotation(point, slice(None)).transpose(1, 0, 2)
    # W[j, l, k] = f[w_j, w_l, w_k] Lambda~_kj; Z[l, a, k] = sum_j (F~_a)_jl W[j, l, k]
    W = exp_second_divided_difference(np.log(point.eigvals)) * Lam_t.T[:, None, :]
    Z = np.matmul(Fc.transpose(2, 0, 1), W.transpose(1, 0, 2))
    T = Z.transpose(1, 0, 2).reshape(m, -1) @ Fc.reshape(m, -1).T
    H -= np.real(T + T.T)
    H += trace_lam_rho * point.metric
    return 0.5 * (H + H.T)


def second_order_admissibility(point: ExpFamilyPoint, v, hessian=None) -> float:
    """Quadratic form v^T (Hess C) v; at saturation admissible velocities make it 0.

    Negative values mean the direction strictly loses marginal entropy at
    second order; at a saturated point (every marginal maximally mixed) the
    form is negative semidefinite and vanishes exactly on ker M.
    """
    v = np.asarray(v, dtype=float)
    if hessian is None:
        hessian = constraint_hessian(point)
    return float(v @ hessian @ v)


def stiffness_spectrum(point: ExpFamilyPoint, hessian=None):
    """Generalised eigenproblem -(Hess C) v = lambda G v, ascending.

    Rayleigh quotients kappa(v) = -v^T Hess C v / v^T G v measure how hard
    the constraint curvature resists a unit-metric move along v.  Returns
    (eigenvalues, eigenvectors); eigenvectors are G-orthonormal columns.
    """
    if hessian is None:
        hessian = constraint_hessian(point)
    return scipy.linalg.eigh(-hessian, point.metric)


def stiffness_rayleigh(point: ExpFamilyPoint, v, hessian=None) -> float:
    v = np.asarray(v, dtype=float)
    if hessian is None:
        hessian = constraint_hessian(point)
    return float(-(v @ hessian @ v) / (v @ point.metric @ v))


def soft_mode_count(eigenvalues, tol: float = SOFT_MODE_TOL) -> int:
    """Number of stiffness eigenvalues indistinguishable from zero."""
    return int(np.sum(np.abs(np.asarray(eigenvalues)) < tol))
