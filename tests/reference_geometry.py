"""Reference geometry routes, kept as test oracles.

The library builds ker M and the constraint Hessian from the local columns
of the metric alone (``entroflow.constraint``).  This module keeps the dense
routes they replaced: the m x d x d stack d rho / d theta
(``state_derivatives``) and its partial traces, the marginal Jacobian M in
Hermitian-vec coordinates, an orthonormal SVD kernel N of M, the
G-orthogonal projector N (N^T G N)^{-1} N^T G, the gradient and the Hessian
read from the derivative stack, and the velocity helpers built on that
projector, and the full vector G theta from all m coordinates.

It also keeps the integrator's former routes: the pushforward of -i[xi, rho]
(``reversible_velocity``, which checks its d x d generator for a
correlation part, ``require_local``), stepped in the lab frame together with
the dissipative field on every coordinate (``lab_frame_endpoint``); the d x d
generator xi = sum_i xi_i (x) I (``assemble_local_generator``) and the
samples turned into the lab frame as coordinates(V K(theta_k) V^dag) with
V = e^(-i xi tau_k) (``lab_frame_dense``); and the
eigen-route exp and log of a Hermitian matrix (``matrix_function``) that the
divided differences and the Frechet derivative of exp are checked against.

The library's former constraint routes are kept too: the Frechet derivative
of exp from its own eigendecomposition (``frechet_exp``, with
``hermitian_eig``) and the constraint gradient built on it
(``frechet_gradient``); the cached 0/1 matrix taking the entries of X to those
of every marginal (``marginal_map``), the partial traces it gives
(``map_marginals``) and the local marginals tr_{-i} F_alpha read as the stack
rows times its row block (``map_local_marginals``).

``embed_local`` is the former library embedding I x .. x op x .. x I of
one subsystem's operator, a loop of np.kron.

``kron_product_basis`` is the former construction of ``product_basis``: the
Gell-Mann matrices built one by one, and a loop of np.kron over every
element, with the sector label of each.  ``kron_stack`` is the same loop
over the factors of any ``OperatorBasis``: the m x d x d stack the library
no longer forms, and the former stack routes of ``coordinates``
(``stack_coordinates``) and K(theta) (``stack_generator``) read it.

The stepped integrator's stage kernel, P theta and the rate by the
local-block route from the eigenpairs of rho alone (``stage_kernel``), is
reached at a chart point through ``local_block_projection``.
"""

from __future__ import annotations

import functools
import itertools
import math
import string
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp

from entroflow import (
    ExpFamilyPoint,
    FlowConfig,
    FullyConstrainedError,
    NumericalDegeneracyError,
    as_shape,
    bkm_kernel_matrix,
    exp_divided_difference,
    exp_second_divided_difference,
    make_point,
)
from entroflow.constraint import (
    PROJECTOR_COND_MAX,
    _local_sector,
    _solve_local_block,
    marginal_eigh,
)
from entroflow.expfamily import _bkm_rows
from entroflow.flow import DEFAULT_RATE_MIN
from entroflow.operators import require_hermitian

# Singular values below KERNEL_RCOND * sigma_max count as zero rows of M.
KERNEL_RCOND = 1e-8
# Relative norm of a generator's correlation part above which it is not local.
LOCALITY_TOL = 1e-10


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


def gell_mann_list(d: int) -> list[np.ndarray]:
    """The generalised Gell-Mann matrices of one factor, one array each:
    symmetric pairs (j<k), antisymmetric pairs (j<k), then diagonals."""
    out = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / np.sqrt(2.0)
            out.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j / np.sqrt(2.0)
            m[k, j] = 1j / np.sqrt(2.0)
            out.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -float(l)
        out.append(m / np.sqrt(l * (l + 1)))
    return out


def kron_product_basis(shape) -> tuple[np.ndarray, tuple[str, ...]]:
    """The (m, d, d) stack of ``product_basis`` and its sector labels, one
    np.kron loop per element: supports by size, then lexicographic choices
    of local Gell-Mann matrices with I/sqrt(d_i) elsewhere."""
    shape = as_shape(shape)
    n = shape.n_subsystems
    local = [gell_mann_list(d) for d in shape.dims]
    idents = [np.eye(d, dtype=complex) / np.sqrt(d) for d in shape.dims]
    supports: list[tuple[int, ...]] = [(i,) for i in range(n)]
    for size in range(2, n + 1):
        supports.extend(itertools.combinations(range(n), size))
    elements, labels = [], []
    for support in supports:
        label = f"local:{support[0]}" if len(support) == 1 else "corr:" + ",".join(map(str, support))
        for combo in itertools.product(*(range(len(local[i])) for i in support)):
            picks = dict(zip(support, combo))
            op = np.eye(1, dtype=complex)
            for i in range(n):
                op = np.kron(op, local[i][picks[i]] if i in picks else idents[i])
            elements.append(op)
            labels.append(label)
    return np.stack(elements), tuple(labels)


@functools.lru_cache(maxsize=32)
def kron_stack(basis) -> np.ndarray:
    """The (m, d, d) elements of any ``OperatorBasis``, one np.kron loop over
    each element's factors (read-only); for ``product_basis(shape)`` it is
    bitwise the stack of ``kron_product_basis(shape)``."""
    out = []
    for e in basis.elements:
        op = np.eye(1, dtype=complex)
        for d_i, F, j in zip(basis.shape.dims, basis.factors, e):
            op = np.kron(op, F[j] if j >= 0 else np.eye(d_i, dtype=complex) / np.sqrt(d_i))
        out.append(op)
    stack = np.stack(out)
    stack.flags.writeable = False
    return stack


def stack_coordinates(basis, X) -> np.ndarray:
    """Re tr(F_a X) for every element, as one real product over the
    interleaved view of ``kron_stack`` (the library's former route)."""
    X = np.ascontiguousarray(X, dtype=complex)
    return kron_stack(basis).view(float).reshape(basis.size, -1) @ X.view(float).ravel()


def stack_generator(theta, basis) -> np.ndarray:
    """K(theta) = sum_a theta_a F_a from one real GEMV on the interleaved view
    of ``kron_stack`` (the library's former route)."""
    d = basis.shape.total_dim
    rows = kron_stack(basis).view(float).reshape(basis.size, -1)
    return (theta @ rows).view(complex).reshape(d, d)


def stack_bkm_rows(point: ExpFamilyPoint) -> np.ndarray:
    """The BKM rows Y_a = sqrt(k) (U^dag F_a U - mu_a I) of every element at
    once, rotated from ``kron_stack``, as real (m, 2 d^2) rows: G = Y Y^T."""
    U = point.eigvecs
    R = U.conj().T @ kron_stack(point.basis) @ U
    return _bkm_rows(R, np.sqrt(bkm_kernel_matrix(point.eigvals)), point.mu)


def stack_metric(point: ExpFamilyPoint) -> np.ndarray:
    """G = Y Y^T over ``stack_bkm_rows`` (the library's former route)."""
    Y = stack_bkm_rows(point)
    return Y @ Y.T


def hermitian_eig(A):
    """Eigendecomposition of (A + A^dag)/2, eigenvalues ascending."""
    A = np.asarray(A, dtype=complex)
    return np.linalg.eigh(0.5 * (A + A.conj().T))


def frechet_exp(A, E) -> np.ndarray:
    """Directional derivative of the matrix exponential at Hermitian A.

    Returns d/ds exp(A + s E) at s = 0.  A must be Hermitian; E may be any
    complex matrix (the derivative is linear in E).
    """
    w, U = hermitian_eig(A)
    Et = U.conj().T @ np.asarray(E, dtype=complex) @ U
    return U @ (Et * exp_divided_difference(w)) @ U.conj().T


def embed_local(op, index: int, shape) -> np.ndarray:
    """Embed a single-subsystem operator as I x .. x op x .. x I."""
    shape = as_shape(shape)
    op = np.asarray(op, dtype=complex)
    if not 0 <= index < shape.n_subsystems:
        raise ValueError(f"subsystem index {index} out of range for {shape.dims}")
    if op.shape != (shape.dims[index], shape.dims[index]):
        raise ValueError(
            f"operator shape {op.shape} does not match subsystem {index} "
            f"dimension {shape.dims[index]}"
        )
    out = np.eye(1, dtype=complex)
    for i, d in enumerate(shape.dims):
        out = np.kron(out, op if i == index else np.eye(d, dtype=complex))
    return out


def kron_log_sum(shape, spectra) -> np.ndarray:
    """Lambda = sum_i log rho_i (x) I as a sum of ``embed_local`` Kronecker
    products, from the marginal spectra of ``marginal_eigh``."""
    return sum(embed_local((U * np.log(w)) @ U.conj().T, i, shape) for i, (w, U) in enumerate(spectra))


def frechet_gradient(point: ExpFamilyPoint) -> np.ndarray:
    """a_b = -tr(X F_b) + mu_b tr(X) with X = Dexp_{K - psi I}[Lambda] from
    ``frechet_exp``, which diagonalises K - psi I again."""
    Lam = kron_log_sum(point.basis.shape, marginal_eigh(point))
    X = frechet_exp(point.generator - point.psi * np.eye(point.dim), Lam)
    return np.real(np.trace(X)) * point.mu - point.basis.coordinates(X)


@functools.lru_cache(maxsize=None)
def marginal_map(shape) -> np.ndarray:
    """0/1 matrix taking the flat entries of X to those of every marginal.

    Row block i (d_i^2 rows) sums X[(a, j, b), (a, k, b)] over the other
    factors a, b into entry (j, k) of tr_{-i} X.
    """
    d = shape.total_dim
    blocks = []
    for i, di in enumerate(shape.dims):
        r = np.arange(d).reshape(math.prod(shape.dims[:i]), di, -1)
        cols = r[:, :, None, :] * d + r[:, None, :, :]
        rows = np.broadcast_to(np.arange(di * di).reshape(1, di, di, 1), cols.shape)
        block = np.zeros((di * di, d * d))
        block[rows, cols] = 1.0
        blocks.append(block)
    return np.concatenate(blocks)


def _map_block(shape, i: int) -> np.ndarray:
    """Row block i of ``marginal_map``: the d_i^2 rows of tr_{-i}."""
    start = sum(dj * dj for dj in shape.dims[:i])
    return marginal_map(shape)[start : start + shape.dims[i] ** 2]


def map_marginals(X, shape) -> list[np.ndarray]:
    """tr_{-i} X for every i from ``marginal_map``: one real product per row
    block with the interleaved real view of X."""
    shape = as_shape(shape)
    pairs = np.ascontiguousarray(X, dtype=complex).view(float).reshape(-1, 2)
    return [
        (_map_block(shape, i) @ pairs).view(complex).reshape(di, di)
        for i, di in enumerate(shape.dims)
    ]


def map_local_marginals(basis, i: int) -> np.ndarray:
    """tr_{-i} F_alpha for the local elements alpha of subsystem i: their
    stack rows times row block i of ``marginal_map``."""
    L_i = basis.local_blocks[i]
    d_i = basis.shape.dims[i]
    rows = kron_stack(basis)[L_i].reshape(L_i.size, -1)
    return (rows @ _map_block(basis.shape, i).T).reshape(-1, d_i, d_i)


def matrix_function(A, f, *, positive: bool = False) -> np.ndarray:
    """f applied to the spectrum of the Hermitian matrix A.

    With ``positive`` the spectrum must be strictly positive (the domain of
    log); otherwise ValueError.
    """
    w, U = hermitian_eig(A)
    if positive and w[0] <= 0.0:
        raise ValueError(f"matrix function needs a positive spectrum, min eigenvalue {w[0]:.3e}")
    out = (U * np.asarray(f(w), dtype=float)) @ U.conj().T
    return 0.5 * (out + out.conj().T)


def _centred_rotation(point: ExpFamilyPoint) -> np.ndarray:
    """U^dag F_a U - mu_a I for every element, shape (m, d, d)."""
    U = point.eigvecs
    R = U.conj().T @ kron_stack(point.basis) @ U
    idx = np.arange(point.dim)
    R[:, idx, idx] -= point.mu[:, None]
    return R


def stage_kernel(theta, basis, p, U) -> tuple[np.ndarray, float]:
    """P theta and the rate at the eigenpairs (p, U) of rho(theta), the kernel
    that the stepped integrator evaluated at every stage.

    One batched product rotates the local elements and K_C = sum_C theta_C F_C,
    R = U^dag F U.  The local diagonals give mu_L = p . diag R_a and
    g_L = (G theta)_L = (p c) . diag R_a with c = log p - <log p>, and one pass
    of BKM rows sqrt(k) (R - mu I) gives the local rows Y and, last, the row z
    of K_C: G_LL = Y Y^T and (P theta)_L = theta_L - G_LL^{-1} g_L.  The rate
    theta_C^T (G_CC - G_CL G_LL^{-1} G_LC) theta_C is |z - Y^T G_LL^{-1} Y z|^2.
    """
    local = _local_sector(basis)
    proj = theta.copy()
    proj[local] = 0.0
    F = np.concatenate([kron_stack(basis)[local], stack_generator(proj, basis)[None]])
    logp = np.log(p)
    c = logp - p @ logp
    R = U.conj().T @ F @ U
    diag = np.diagonal(R, axis1=1, axis2=2).real
    rows = _bkm_rows(R, np.sqrt(bkm_kernel_matrix(p)), diag @ p)
    Y, z = rows[:-1], rows[-1]
    rhs = np.column_stack([diag[:-1] @ (p * c), Y @ z])
    coeffs, corr_coeffs = _solve_local_block(Y @ Y.T, rhs).T
    resid = z - corr_coeffs @ Y
    proj[local] = theta[local] - coeffs
    return proj, float(resid @ resid)


def local_block_projection(point: ExpFamilyPoint) -> tuple[np.ndarray, float]:
    """P theta and the production rate theta^T G P theta, without M, N or G.

    (G v)_a = tr(F_a d rho[v]), and the local elements L of the product
    basis span the traceless operators of every subsystem, so M v = 0 iff
    (G v)_L = 0: ker M is the G-orthogonal complement of the local axes e_L,
    and P theta = theta - e_L G_LL^{-1} (G theta)_L (``stage_kernel`` at the
    point's eigenpairs).  The tests check it against the dense projector
    N (N^T G N)^{-1} N^T G on an SVD kernel N of M.

    Raises FullyConstrainedError for a single subsystem and
    NumericalDegeneracyError when cond(G_LL) exceeds PROJECTOR_COND_MAX.
    """
    return stage_kernel(point.theta, point.basis, point.eigvals, point.eigvecs)


def state_derivatives(point: ExpFamilyPoint) -> np.ndarray:
    """Stack of partial derivatives d rho / d theta_b, shape (m, d, d).

    Each derivative is the directional derivative of exp at K - psi I along
    F_b - mu_b I, evaluated in the eigenbasis of rho via the divided
    difference kernel of exp (equal to the BKM kernel on the spectrum).
    """
    U = point.eigvecs
    phi = exp_divided_difference(np.log(point.eigvals))
    D = U @ (_centred_rotation(point) * phi) @ U.conj().T
    return 0.5 * (D + D.conj().transpose(0, 2, 1))


def metric_theta(point: ExpFamilyPoint) -> np.ndarray:
    """G theta without forming G, in O(m d^2), as the library computed it.

    (G theta)_a = tr(F_a X) with X = U diag(p (w - <w>)) U^dag, the
    covariance of F_a with K(theta) under rho: K commutes with rho, so the
    BKM kernel meets only its diagonal k(p_j, p_j) = p_j.  Here w - <w> is
    computed as log p - <log p>, which differs from it by psi only.
    """
    p = point.eigvals
    U = point.eigvecs
    logp = np.log(p)
    X = (U * (p * (logp - p @ logp))) @ U.conj().T
    return point.basis.coordinates(X)


def partial_trace_stack(ops, shape, keep: int) -> np.ndarray:
    """Partial trace applied along the first axis of a stack of operators."""
    shape = as_shape(shape)
    n = shape.n_subsystems
    ops = np.asarray(ops, dtype=complex)
    m = ops.shape[0]
    if n == 1:
        return ops.copy()
    row = list(string.ascii_lowercase[:n])
    col = list(row)
    col[keep] = string.ascii_lowercase[n]
    subscripts = f"z{''.join(row)}{''.join(col)}->z{row[keep]}{col[keep]}"
    return np.einsum(subscripts, ops.reshape((m,) + shape.dims + shape.dims))


def stack_hessian(point: ExpFamilyPoint) -> np.ndarray:
    """Hess C with every marginal derivative read from the derivative stack.

    Same formula as ``constraint_hessian``, except that the rows
    V_i^dag (d_b rho_i) V_i / sqrt(k(lambda_i)) come from the partial traces
    of ``state_derivatives`` instead of the local columns of G, and that G
    (``stack_metric``) and T_ab come from the whole rotated stack at once.
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
    Fc = _centred_rotation(point)
    # W[j, l, k] = f[w_j, w_l, w_k] Lambda~_kj; Z[l, a, k] = sum_j (F~_a)_jl W[j, l, k]
    W = exp_second_divided_difference(np.log(point.eigvals)) * Lam_t.T[:, None, :]
    Z = np.matmul(Fc.transpose(2, 0, 1), W.transpose(1, 0, 2))
    T = Z.transpose(1, 0, 2).reshape(m, -1) @ Fc.reshape(m, -1).T
    H -= np.real(T + T.T)
    H += trace_lam_rho * stack_metric(point)
    return 0.5 * (H + H.T)


def stack_gradient(point: ExpFamilyPoint) -> np.ndarray:
    """a_b = -sum_i tr[log rho_i . tr_{-i}(d rho / d theta_b)] from the derivative stack."""
    D = state_derivatives(point)
    shape = point.basis.shape
    logs = [(U * np.log(w)) @ U.conj().T for w, U in marginal_eigh(point)]
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
    space of M.  With G = Y Y^T (``stack_bkm_rows``) and B = Y^T N,
    (N^T G N)^{-1} N^T G = B^+ Y^T is solved by least squares on B, whose
    condition number is the square root of cond(N^T G N).
    """
    Y = stack_bkm_rows(point)
    B = Y.T @ N
    cond = np.linalg.cond(B) ** 2
    if not np.isfinite(cond) or cond > PROJECTOR_COND_MAX:
        raise NumericalDegeneracyError(
            f"projector Gram matrix condition {cond:.3e} exceeds {PROJECTOR_COND_MAX:.1e}"
        )
    return N @ np.linalg.lstsq(B, Y.T, rcond=None)[0]


def assemble_local_generator(shape, parts) -> np.ndarray:
    """Build xi = sum_i xi_i (x) I_rest from (subsystem, block) pairs."""
    shape = as_shape(shape)
    d = shape.total_dim
    xi = np.zeros((d, d), dtype=complex)
    for index, block in parts:
        block = require_hermitian(block, name=f"xi block for subsystem {index}")
        xi += embed_local(block, index, shape)
    return xi


def require_local(basis, xi) -> np.ndarray:
    """xi as a Hermitian d x d matrix; ValueError if it has a correlation part."""
    xi = require_hermitian(xi, name="reversible generator")
    d = basis.shape.total_dim
    if xi.shape != (d, d):
        raise ValueError(f"generator shape {xi.shape} does not match state {(d, d)}")
    defect = float(np.linalg.norm(basis.coordinates(xi)[basis.correlation_indices()]))
    if defect > LOCALITY_TOL * max(1.0, float(np.linalg.norm(xi))):
        raise ValueError(f"generator has a correlation-sector component of norm {defect:.3e}")
    return xi


def lab_frame_dense(theta, tau, basis, xi_parts) -> np.ndarray:
    """Rows theta_k at game times tau_k in the lab frame, by d x d matrices:
    coordinates(V K(theta_k) V^dag), V = W diag(e^(-i w tau_k)) W^dag from the
    eigenpairs of the assembled xi = W diag(w) W^dag."""
    w, W = np.linalg.eigh(require_local(basis, assemble_local_generator(basis.shape, xi_parts)))
    lab = np.empty_like(theta)
    for k, (row, tau_k) in enumerate(zip(theta, tau)):
        V = (W * np.exp(-1j * tau_k * w)) @ W.conj().T
        lab[k] = basis.coordinates(V @ stack_generator(row, basis) @ V.conj().T)
    return lab


def reversible_velocity(point: ExpFamilyPoint, xi) -> np.ndarray:
    """Pushforward of the unitary flow d rho = -i [xi, rho] to natural params.

    xi must be local (a sum of single-subsystem terms, identity shifts
    allowed); anything else is rejected with ValueError (``require_local``).  The
    unitary flow conjugates log rho = K - psi I and leaves psi fixed, so the
    velocity is the chart coordinates of -i [xi, K]; it equals the solution
    of G dtheta = w with w_a = tr(-i [xi, rho] F_a), conserves the entropy
    exactly, and conserves every marginal spectrum.  -i[xi, K] = -i(A - A^dag)
    with A = xi K is the Hermitian part of -2i A, and the coordinates read
    only the Hermitian part, so one product suffices.
    """
    xi = require_local(point.basis, xi)
    return point.basis.coordinates(-2j * (xi @ point.generator))


def lab_frame_endpoint(theta0, basis, config, *, clock, duration, kind, tol=1e-13):
    """(theta, tau, t) at the end of a run, lab frame, stepping every coordinate.

    The field is the one ``integrate`` stepped before it advanced only
    (theta_L, t) in game time and applied the reversible sector as a rotation
    of the samples: on the game clock theta' = -P theta + coords(-i[xi, K])
    (no -P theta for "reversible", no xi term for "dissipative") and
    t' = rate / c; on the entropy clock both are scaled by c / rate, with
    tau' = c / rate.  DOP853 at rtol = atol = ``tol`` runs to ``duration``.
    """
    xi = assemble_local_generator(basis.shape, config.xi_parts)
    m = basis.size

    def field(_, y):
        point = make_point(y[:m], basis)
        v = np.zeros(m) if kind == "dissipative" else reversible_velocity(point, xi)
        rate = 0.0
        if kind != "reversible":
            proj, rate = local_block_projection(point)
            v = v - proj
        if clock == "game":
            return np.append(v, rate / config.c)
        scale = config.c / rate
        return np.append(scale * v, scale)

    y0 = np.append(theta0, 0.0)
    sol = solve_ivp(field, (0.0, duration), y0, method="DOP853", rtol=tol, atol=tol)
    assert sol.success, sol.message
    end = sol.y[:, -1]
    tau, t = (duration, end[m]) if clock == "game" else (end[m], duration)
    return end[:m], tau, t


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

    Raises ValueError when the production rate is at or below ``rate_min``:
    entropy time is not a valid clock at a stationary point.
    """
    rate = entropy_production_rate(point, geometry)
    if rate <= rate_min:
        raise ValueError(
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
        raise ValueError(
            f"entropy production rate {rate:.3e} at or below rate_min {config.rate_min:.1e}"
        )
    v = dissipative_velocity(point, geometry)
    if config.xi_parts:
        xi = assemble_local_generator(point.basis.shape, config.xi_parts)
        v = v + reversible_velocity(point, xi)
    return (config.c / rate) * v
