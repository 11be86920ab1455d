"""Marginal-entropy constraint geometry on the exponential family.

The constraint functional is C(theta) = sum_i h(rho_i), the sum of marginal
entropies, globally capped by C_max = sum_i log d_i.  This module provides
its exact gradient, a finite-difference Hessian, the Jacobian of the
marginal map, the marginal-preserving tangent space ker M, the metric
projector onto it, and the stiffness spectrum that separates soft
(marginal-preserving) from stiff (marginal-moving) directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BoundaryStateError, FullyConstrainedError, NumericalDegeneracyError
from .expfamily import ExpFamilyPoint, make_point, state_derivatives
from .operators import hermitian_eig, hermitian_vec, partial_trace, partial_trace_stack
from .states import entropy_of_spectrum

# Singular values below KERNEL_RCOND * sigma_max count as zero rows of M.
KERNEL_RCOND = 1e-8
PROJECTOR_COND_MAX = 1e12
MARGINAL_EIG_FLOOR = 1e-12
HESSIAN_STEP_SCALE = 1e-4
SOFT_MODE_TOL = 1e-6


@dataclass(frozen=True)
class ConstraintGeometry:
    """Constraint data at one family point.

    ``hessian`` is None unless requested at construction: the
    finite-difference Hessian costs hundreds of gradient evaluations and the
    flow integrator only needs the projector.
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
    shape = point.basis.shape
    total = 0.0
    for i in range(shape.n_subsystems):
        w = np.linalg.eigvalsh(partial_trace(point.rho, shape, i))
        total += entropy_of_spectrum(w)
    return total


def marginal_eigh(point: ExpFamilyPoint) -> list[tuple[np.ndarray, np.ndarray]]:
    """Eigendecomposition (w, U) of every marginal, eigenvalues ascending.

    Raises BoundaryStateError when a marginal eigenvalue is at or below
    MARGINAL_EIG_FLOOR: the marginal logarithms behind the constraint
    gradient are not trustworthy there.
    """
    shape = point.basis.shape
    out = []
    for i in range(shape.n_subsystems):
        w, U = hermitian_eig(partial_trace(point.rho, shape, i))
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
    hessian_step_scale: float = HESSIAN_STEP_SCALE,
) -> ConstraintGeometry:
    """Bundle C, its gradient, M, ker M and the projector at one point.

    This is the analysis and reference geometry; the flow integrator uses
    the local-block identity of ``flow.local_block_projection`` instead.
    """
    D = state_derivatives(point)
    M = _jacobian_from(point, D)
    N = kernel_basis(M, rcond=rcond)
    proj = marginal_projector(point, N)
    hess = (
        constraint_hessian(point, step_scale=hessian_step_scale)
        if include_hessian
        else None
    )
    return ConstraintGeometry(
        point=point,
        value=marginal_entropy_sum(point),
        grad=_gradient_from(point, D),
        jacobian=M,
        kernel=N,
        projector=proj,
        hessian=hess,
    )


def constraint_hessian(
    point: ExpFamilyPoint, *, step_scale: float = HESSIAN_STEP_SCALE, order: int = 4
) -> np.ndarray:
    """Hessian of C by central finite differences of the analytic gradient.

    Step h = step_scale * max(1, |theta|); the result is symmetrised.  The
    default five-point stencil has O(h^4) truncation error, which keeps the
    soft (null) part of the spectrum clean enough to separate from stiff
    directions even at small regularisations.
    """
    theta = point.theta
    basis = point.basis
    m = basis.size
    h = step_scale * max(1.0, float(np.linalg.norm(theta)))

    def grad_at(t):
        return constraint_gradient(make_point(t, basis))

    H = np.empty((m, m))
    for b in range(m):
        e = np.zeros(m)
        e[b] = h
        if order == 2:
            col = (grad_at(theta + e) - grad_at(theta - e)) / (2.0 * h)
        elif order == 4:
            col = (
                grad_at(theta - 2.0 * e)
                - 8.0 * grad_at(theta - e)
                + 8.0 * grad_at(theta + e)
                - grad_at(theta + 2.0 * e)
            ) / (12.0 * h)
        else:
            raise ValueError(f"unsupported stencil order {order}")
        H[:, b] = col
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
