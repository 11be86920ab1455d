"""Marginal-entropy constraint geometry on the exponential family.

The constraint functional is C(theta) = sum_i h(rho_i), the sum of marginal
entropies, globally capped by C_max = sum_i log d_i.  This module provides
its exact gradient and Hessian, the marginal-preserving tangent space ker M
and the stiffness spectrum that separates soft (marginal-preserving) from
stiff (marginal-moving) directions.

There is one projection route, the local-block identity: (G v)_a =
tr(F_a d rho[v]), and the local elements L span the traceless operators of
every subsystem, so M v = 0 iff (G v)_L = 0.  ker M is the G-orthogonal
complement of the local axes e_L, and every use of it is one solve with the
local metric block G_LL (``_solve_local_block``).  C depends on theta only
through mu_L, so its gradient is G g, g = dC/dmu_L, and its Hessian reads
every marginal derivative d_a rho_i from the local columns of G; one centred
direction (``_centred_direction``) serves both, and M is never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import BoundaryStateError, FullyConstrainedError, NumericalDegeneracyError
from .expfamily import ExpFamilyPoint, bkm_kernel_matrix
from .operators import OperatorBasis, exp_second_divided_difference, marginals
from .states import FULL_RANK_FLOOR

PROJECTOR_COND_MAX = 1e12
SOFT_MODE_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class ConstraintGeometry:
    """Constraint data at one family point.

    ``hessian`` is None unless requested at construction: it costs
    O(m d^3 + m^2 d^2) and the flow integrator never needs it.
    """

    point: ExpFamilyPoint
    value: float
    grad: np.ndarray
    hessian: np.ndarray | None

    @cached_property
    def kernel(self) -> np.ndarray:
        """A basis of ker M, built on first read: one column
        e_C - e_L G_LL^{-1} G_LC per correlation element C.

        The columns span ker M but are not orthonormal; their number is
        ``basis.correlation_indices().size``.  At theta = 0, where G = I/d,
        they are the correlation axes e_C (their local entries are round-off
        in G_LC, below 1e-16).
        """
        return _kernel(self.point)


def _local_blocks(basis: OperatorBasis) -> tuple[np.ndarray, ...]:
    """Indices L_i of the local elements of every subsystem i.

    ker M and the Hessian read the marginal derivatives from the local
    columns of G, which holds only when the L_i span the traceless operators
    of subsystem i: being orthonormal, they must number d_i^2 - 1.  Raises
    ValueError otherwise.
    """
    for i, (L_i, d_i) in enumerate(zip(basis.local_blocks, basis.shape.dims)):
        if L_i.size != d_i * d_i - 1:
            raise ValueError(
                f"subsystem {i} has {L_i.size} local elements; spanning its "
                f"traceless operators needs {d_i * d_i - 1}"
            )
    return basis.local_blocks


def _local_sector(basis: OperatorBasis) -> np.ndarray:
    """Indices L of every local element (``_local_blocks`` checks they span);
    raises FullyConstrainedError when ker M is trivial."""
    _local_blocks(basis)
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


def marginal_eigh(point: ExpFamilyPoint) -> list[tuple[np.ndarray, np.ndarray]]:
    """Eigendecomposition (w, U) of every marginal, eigenvalues ascending.

    Raises BoundaryStateError when a marginal eigenvalue is at or below
    FULL_RANK_FLOOR: the marginal logarithms behind the constraint
    gradient are not trustworthy there.
    """
    out = []
    for i, rho_i in enumerate(marginals(point.rho, point.basis.shape)):
        w, U = np.linalg.eigh(rho_i)
        if w[0] <= FULL_RANK_FLOOR:
            raise BoundaryStateError(
                f"marginal {i} eigenvalue {w[0]:.3e} at or below {FULL_RANK_FLOOR}"
            )
        out.append((w, U))
    return out


def _centred_direction(point: ExpFamilyPoint, spectra) -> np.ndarray:
    """v_t = U^dag (K(g) - (g . mu) I) U in the eigenbasis U of rho, g = dC/dmu.

    C depends on theta only through mu_L: rho_i = I/d_i + sum_{alpha in L_i}
    mu_alpha tr_{-i} F_alpha (``_local_marginals``), so g_alpha = -tr(log rho_i
    tr_{-i} F_alpha) on L and 0 elsewhere.  With Lambda = sum_i log rho_i (x) I,
    U v_t U^dag = tr(rho Lambda) I - Lambda; Lambda's identity part never enters.
    Local elements that do not span raise ValueError (``_local_blocks``).
    """
    basis = point.basis
    g = np.zeros(basis.size)
    for i, ((w, V), L_i) in enumerate(zip(spectra, _local_blocks(basis))):
        traces = _local_marginals(basis, i, L_i).reshape(L_i.size, -1)
        g[L_i] = -(traces.conj() @ ((V * np.log(w)) @ V.conj().T).ravel()).real
    U = point.eigvecs
    return U.conj().T @ (basis.combine(g) - (g @ point.mu) * np.eye(point.dim)) @ U


def constraint_gradient(point: ExpFamilyPoint, *, direction=None) -> np.ndarray:
    """Exact gradient dC/dtheta = G g by the chain rule through mu_L (``_centred_direction``).

    (G g)_b = tr(F_b Dexp_A[F~(g)]) with A = K - psi I and F~(g) = K(g) - (g . mu) I.
    A has the eigenpairs (log p, U) of rho, and the divided differences of exp
    on log p are the BKM kernel k, so G g = coordinates(U (v_t o k) U^dag): one
    product, O(d^3 + m d^2), with no m x m metric.  Vanishes identically
    wherever every marginal is maximally mixed (g = 0).  Local elements that do
    not span raise ValueError.  ``direction`` is v_t if the caller has it.
    """
    if direction is None:
        direction = _centred_direction(point, marginal_eigh(point))
    U = point.eigvecs
    return point.basis.coordinates(U @ (direction * bkm_kernel_matrix(point.eigvals)) @ U.conj().T)


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


def constraint_geometry(point: ExpFamilyPoint, *, include_hessian: bool = False) -> ConstraintGeometry:
    """Bundle C, its gradient and optionally the Hessian; ker M on first read.

    One ``marginal_eigh`` and one centred direction (``_centred_direction``)
    serve C, the gradient and the Hessian.  Local elements that do not span
    raise ValueError.  Reading ``kernel`` raises FullyConstrainedError for a
    single-subsystem basis and NumericalDegeneracyError when cond(G_LL)
    exceeds PROJECTOR_COND_MAX.
    """
    spectra = marginal_eigh(point)
    v_t = _centred_direction(point, spectra)
    return ConstraintGeometry(
        point=point,
        value=-sum(float(w @ np.log(w)) for w, _ in spectra),
        grad=constraint_gradient(point, direction=v_t),
        hessian=(
            constraint_hessian(point, spectra=spectra, direction=v_t) if include_hessian else None
        ),
    )


def _local_marginals(basis: OperatorBasis, i: int, L_i: np.ndarray) -> np.ndarray:
    """tr_{-i} F_alpha for the local elements alpha in L_i of subsystem i.

    F_alpha is lambda_alpha on factor i and I/sqrt(d_j) on every other j, and
    tr(I/sqrt(d_j)) = sqrt(d_j), so tr_{-i} F_alpha = sqrt(d / d_i) lambda_alpha.
    """
    scale = math.sqrt(basis.shape.total_dim / basis.shape.dims[i])
    return scale * basis.factors[i][[basis.elements[a][i] for a in L_i]]


def constraint_hessian(point: ExpFamilyPoint, *, spectra=None, direction=None) -> np.ndarray:
    """Exact Hessian of C by the chain rule through mu_L.

    C = c(mu_L) with dmu/dtheta = G and d^2 mu_alpha / dtheta_a dtheta_b =
    tr(F_alpha d_a d_b rho), so with g = dc/dmu (``_centred_direction``)

        Hess C = G_{:L} (d^2 c) G_{L:} + tr(v d_a d_b rho),  v = K(g) - (g . mu) I,
        d_a d_b rho = D^2 exp(A)[F~_a, F~_b] - G_ab rho,

    with A = K - psi I and F~_a = F_a - mu_a I; tr(rho v) = 0 drops the G_ab
    term.  In the eigenbasis of rho, with w = log p and v_t = U^dag v U,
    tr(v D^2 exp[F~_a, F~_b]) = T_ab + T_ba where T_ab = sum_lk Z_a[l, k]
    (F~_b)_lk, Z_a[l, k] = sum_j (F~_a)_jl f[w_j, w_l, w_k] (v_t)_kj and f are
    the second divided differences of exp; per chunk of rotated elements, the
    rows of T are Re T_ab = coordinates(U Z_a^T U^dag)_b - mu_b Re tr Z_a.
    d^2 c = -sum_i Dlog(rho_i) on the directions tr_{-i} F_alpha
    (``_local_marginals``); the divided differences of log are 1/k with k the
    BKM kernel, so that term is -G_{:L_i} Q_i G_{L_i:} with Q_i = Re(Y Y^dag)
    over the rows Y_alpha = V_i^dag (tr_{-i} F_alpha) V_i / sqrt(k(lambda_i)).
    At saturation (every rho_i = I/d_i) g = 0 and Q_i = d I, so Hess C =
    -d G_{:L} G_{L:}, whose kernel is ker M.  Marginals at or below
    FULL_RANK_FLOOR raise BoundaryStateError (``marginal_eigh``, or ``spectra``
    from it); local elements that do not span raise ValueError (``_local_blocks``).
    ``direction`` is v_t if the caller has it.
    """
    basis = point.basis
    m = basis.size
    G = point.metric
    H = np.zeros((m, m))
    spectra = spectra or marginal_eigh(point)
    for i, ((lam, V), L_i) in enumerate(zip(spectra, _local_blocks(basis))):
        Y = V.conj().T @ _local_marginals(basis, i, L_i) @ V / np.sqrt(bkm_kernel_matrix(lam))
        Y = Y.reshape(L_i.size, -1)
        G_i = G[:, L_i]
        H -= G_i @ np.real(Y @ Y.conj().T) @ G_i.T

    U, d = point.eigvecs, point.dim
    if direction is None:
        direction = _centred_direction(point, spectra)
    # W[j, l, k] = f[w_j, w_l, w_k] (v_t)_kj; Z[l, a, k] = sum_j (F~_a)_jl W[j, l, k]
    W = exp_second_divided_difference(np.log(point.eigvals)) * direction.T[:, None, :]
    T = np.empty((m, m))
    for chunk, Fc in basis.rotated(U):
        Fc.reshape(len(Fc), -1)[:, :: d + 1] -= point.mu[chunk, None]  # U^dag F~_a U
        Z = np.matmul(Fc.transpose(2, 0, 1), W.transpose(1, 0, 2))
        X = U.conj() @ (Z.reshape(-1, d) @ U.T).reshape(d, -1)  # X[q, a, p] = (U Z_a^T U^dag)_pq
        X = X.reshape(d, -1, d).transpose(1, 2, 0)
        T[chunk] = basis.coordinates(X) - np.outer(np.trace(Z, axis1=0, axis2=2).real, point.mu)
    H += T + T.T
    return 0.5 * (H + H.T)


def stiffness_spectrum(point: ExpFamilyPoint, hessian: np.ndarray):
    """Generalised eigenproblem -(Hess C) v = lambda G v, ascending.

    Rayleigh quotients kappa(v) = -v^T Hess C v / v^T G v measure how hard
    the constraint curvature resists a unit-metric move along v.  Returns
    (eigenvalues, eigenvectors); eigenvectors are G-orthonormal columns.
    ``hessian`` is ``constraint_hessian(point)``, computed once by the caller.
    """
    return scipy.linalg.eigh(-hessian, point.metric)


def soft_mode_count(eigenvalues, tol: float = SOFT_MODE_TOL) -> int:
    """Number of stiffness eigenvalues indistinguishable from zero."""
    return int(np.sum(np.abs(np.asarray(eigenvalues)) < tol))
