"""Marginal-entropy constraint geometry on the exponential family.

The constraint functional is C(theta) = sum_i h(rho_i), the sum of marginal
entropies, globally capped by C_max = sum_i log d_i.  This module provides
its exact gradient and Hessian, the Jacobian of the marginal map, the
marginal-preserving tangent space ker M, the metric projector onto it, and
the stiffness spectrum that separates soft (marginal-preserving) from stiff
(marginal-moving) directions.
"""

from __future__ import annotations

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
    embed_local,
    exp_second_divided_difference,
    hermitian_vec,
    marginals,
    partial_trace_stack,
)
from .states import entropy_of_spectrum

# Singular values below KERNEL_RCOND * sigma_max count as zero rows of M.
KERNEL_RCOND = 1e-8
PROJECTOR_COND_MAX = 1e12
MARGINAL_EIG_FLOOR = 1e-12
SOFT_MODE_TOL = 1e-6


@dataclass(frozen=True)
class ConstraintGeometry:
    """Constraint data at one family point.

    ``hessian`` is None unless requested at construction: it costs
    O(m d^3 + m^2 d^2) and the flow integrator never needs it.
    """

    point: ExpFamilyPoint
    value: float
    grad: np.ndarray
    jacobian: np.ndarray
    kernel: np.ndarray
    projector: np.ndarray
    hessian: np.ndarray | None


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
    """Exact gradient a_b = -sum_i tr[log rho_i . tr_{-i}(d rho / d theta_b)].

    Vanishes identically wherever every marginal is maximally mixed.
    """
    return _gradient_from(point, state_derivatives(point))


def _gradient_from(point: ExpFamilyPoint, D: np.ndarray) -> np.ndarray:
    shape = point.basis.shape
    logs = _marginal_logs(point)
    a = np.zeros(point.basis.size)
    for i in range(shape.n_subsystems):
        P = partial_trace_stack(D, shape, i)
        a -= np.real(np.einsum("bij,ji->b", P, logs[i]))
    return a


def marginal_jacobian(point: ExpFamilyPoint) -> np.ndarray:
    """Jacobian M of the marginal map in norm-preserving real coordinates.

    Row block i holds the Hermitian-vec coordinates of
    tr_{-i}(d rho / d theta_b); M v = 0 therefore means the velocity v moves
    no marginal.  Shape (sum_i d_i^2, m).
    """
    return _jacobian_from(point, state_derivatives(point))


def _jacobian_from(point: ExpFamilyPoint, D: np.ndarray) -> np.ndarray:
    shape = point.basis.shape
    blocks = []
    for i in range(shape.n_subsystems):
        P = partial_trace_stack(D, shape, i)
        blocks.append(hermitian_vec(P))
    return np.concatenate(blocks, axis=1).T


def kernel_basis(M: np.ndarray, rcond: float = KERNEL_RCOND) -> np.ndarray:
    """Orthonormal basis N of ker M via SVD with threshold rcond * sigma_max.

    Raises FullyConstrainedError when the kernel is trivial (single global
    system: every direction moves the only 'marginal', the state itself).
    """
    N = scipy.linalg.null_space(M, rcond=rcond)
    if N.shape[1] == 0:
        raise FullyConstrainedError(
            "marginal-preserving tangent space is trivial for this constraint set"
        )
    return N


def marginal_projector(point: ExpFamilyPoint, N: np.ndarray) -> np.ndarray:
    """G-orthogonal projector onto span(N):  P = N (N^T G N)^{-1} N^T G.

    Idempotent and G-self-adjoint by construction, and M P = 0 whenever N
    spans ker M.  This kernel-basis form is used at every point, interior
    or saturated; it needs no pseudoinverse of the (rank-deficient) row
    space of M.
    """
    G = point.metric
    A = N.T @ G @ N
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > PROJECTOR_COND_MAX:
        raise NumericalDegeneracyError(
            f"projector Gram matrix condition {cond:.3e} exceeds {PROJECTOR_COND_MAX:.1e}"
        )
    return N @ np.linalg.solve(A, N.T @ G)


def constraint_geometry(
    point: ExpFamilyPoint,
    *,
    include_hessian: bool = False,
    rcond: float = KERNEL_RCOND,
) -> ConstraintGeometry:
    """Bundle C, its gradient, M, ker M and the projector at one point.

    This is the analysis and reference geometry; the flow integrator uses
    the local-block identity of ``flow.local_block_projection`` instead.
    """
    D = state_derivatives(point)
    M = _jacobian_from(point, D)
    N = kernel_basis(M, rcond=rcond)
    proj = marginal_projector(point, N)
    hess = constraint_hessian(point, derivatives=D) if include_hessian else None
    return ConstraintGeometry(
        point=point,
        value=marginal_entropy_sum(point),
        grad=_gradient_from(point, D),
        jacobian=M,
        kernel=N,
        projector=proj,
        hessian=hess,
    )


def constraint_hessian(point: ExpFamilyPoint, *, derivatives=None) -> np.ndarray:
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
    ``derivatives`` is the ``state_derivatives`` stack of ``point`` when the
    caller already holds it.
    """
    shape = point.basis.shape
    m = point.basis.size
    D = state_derivatives(point) if derivatives is None else derivatives
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
