"""Reference projection route, kept as a test oracle.

The library builds ker M from the local metric block alone
(``entroflow.constraint``).  This module keeps the dense route it replaced:
the marginal Jacobian M in Hermitian-vec coordinates, an orthonormal SVD
kernel N of M, the G-orthogonal projector N (N^T G N)^{-1} N^T G, the
gradient read from the ``state_derivatives`` stack, and the velocity
helpers built on that projector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from entroflow import (
    ExpFamilyPoint,
    FlowConfig,
    FullyConstrainedError,
    NumericalDegeneracyError,
    StationaryPointError,
    assemble_local_generator,
    reversible_velocity,
    state_derivatives,
)
from entroflow.constraint import PROJECTOR_COND_MAX, _marginal_logs
from entroflow.flow import DEFAULT_RATE_MIN
from entroflow.operators import partial_trace_stack

# Singular values below KERNEL_RCOND * sigma_max count as zero rows of M.
KERNEL_RCOND = 1e-8


def hermitian_vec(X) -> np.ndarray:
    """Real coordinates of a Hermitian matrix preserving the Frobenius norm.

    Layout: the d real diagonal entries, then sqrt(2) * Re of the strict
    upper triangle, then sqrt(2) * Im of the strict upper triangle.  Applies
    along the last two axes, so stacks of matrices are handled batchwise.
    """
    X = np.asarray(X, dtype=complex)
    d = X.shape[-1]
    iu, ju = np.triu_indices(d, k=1)
    idx = np.arange(d)
    diag = np.real(X[..., idx, idx])
    upper = X[..., iu, ju]
    root2 = np.sqrt(2.0)
    return np.concatenate(
        [diag, root2 * np.real(upper), root2 * np.imag(upper)], axis=-1
    )


def stack_gradient(point: ExpFamilyPoint) -> np.ndarray:
    """a_b = -sum_i tr[log rho_i . tr_{-i}(d rho / d theta_b)] from the derivative stack."""
    D = state_derivatives(point)
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
    D = state_derivatives(point)
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


@dataclass(frozen=True)
class ReferenceGeometry:
    """M, its orthonormal SVD kernel N and the dense projector at one point."""

    point: ExpFamilyPoint
    jacobian: np.ndarray
    kernel: np.ndarray
    projector: np.ndarray


def reference_geometry(point: ExpFamilyPoint, rcond: float = KERNEL_RCOND) -> ReferenceGeometry:
    M = marginal_jacobian(point)
    N = kernel_basis(M, rcond=rcond)
    return ReferenceGeometry(
        point=point, jacobian=M, kernel=N, projector=marginal_projector(point, N)
    )


def dissipative_velocity(point: ExpFamilyPoint, geometry: ReferenceGeometry) -> np.ndarray:
    """Projected steepest-entropy-ascent field v = -P theta (game time)."""
    return -(geometry.projector @ point.theta)


def entropy_production_rate(point: ExpFamilyPoint, geometry: ReferenceGeometry) -> float:
    """dH/dtau along the projected field: theta^T G P theta >= 0."""
    theta = point.theta
    return float(theta @ point.metric @ (geometry.projector @ theta))


def entropy_time_velocity(
    point: ExpFamilyPoint,
    geometry: ReferenceGeometry,
    c: float = 1.0,
    rate_min: float = DEFAULT_RATE_MIN,
) -> np.ndarray:
    """Field rescaled so that dH/dt = c exactly.

    Raises StationaryPointError when the production rate is at or below
    ``rate_min``: entropy time is not a valid clock at a stationary point.
    """
    rate = entropy_production_rate(point, geometry)
    if rate <= rate_min:
        raise StationaryPointError(
            f"entropy production rate {rate:.3e} at or below rate_min {rate_min:.1e}"
        )
    return (c / rate) * dissipative_velocity(point, geometry)


def combined_velocity(
    point: ExpFamilyPoint, geometry: ReferenceGeometry, config: FlowConfig
) -> np.ndarray:
    """Combined reversible + dissipative field in entropy time.

    dtheta/dt = (c / rate) (-P theta + ad_xi theta); the reversible term
    contributes nothing to dH/dt, which stays exactly c.
    """
    rate = entropy_production_rate(point, geometry)
    if rate <= config.rate_min:
        raise StationaryPointError(
            f"entropy production rate {rate:.3e} at or below rate_min {config.rate_min:.1e}"
        )
    v = dissipative_velocity(point, geometry)
    if config.xi_parts:
        xi = assemble_local_generator(point.basis.shape, config.xi_parts)
        v = v + config.reversible_rate * reversible_velocity(point, xi)
    return (config.c / rate) * v
