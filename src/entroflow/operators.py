"""Hermitian operator algebra on multipartite systems.

Tensor products, partial traces, spectral matrix functions, directional
derivatives of the matrix exponential, and orthonormal traceless operator
bases.  Operators are plain complex numpy arrays; subsystem 0 is always the
slowest-varying Kronecker factor.
"""

from __future__ import annotations

import functools
import itertools
import math
import string
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, UnsupportedShapeError

HERMITICITY_TOL = 1e-12
TRACELESS_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-10
# Spread of an eigenvalue triple at or below which second divided differences
# of exp switch from the difference quotient to their Taylor series.
SECOND_DIVIDED_DIFFERENCE_SERIES_SPREAD = 1e-3

_LETTERS = string.ascii_lowercase


@dataclass(frozen=True)
class SubsystemShape:
    """Local dimensions of a multipartite system; their product is the total."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) == 0:
            raise UnsupportedShapeError("shape needs at least one subsystem")
        if any(d < 2 for d in dims):
            raise UnsupportedShapeError(f"local dimensions must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @cached_property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)


def as_shape(shape) -> SubsystemShape:
    """Coerce a dims sequence (or SubsystemShape) to a SubsystemShape."""
    if isinstance(shape, SubsystemShape):
        return shape
    return SubsystemShape(tuple(shape))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def hermiticity_defect(A):
    """max |A - A^dag| entrywise, per matrix of a stack; NaN at a non-finite entry."""
    A = np.asarray(A)
    with np.errstate(invalid="ignore"):  # inf - inf
        return np.abs(A - np.swapaxes(A, -1, -2).conj()).max(axis=(-2, -1))


def is_hermitian(A, tol: float = HERMITICITY_TOL):
    return hermiticity_defect(A) <= tol


def require_hermitian(A, tol: float = HERMITICITY_TOL, name: str = "operator") -> np.ndarray:
    """Validate hermiticity entrywise and return the symmetrised copy."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {A.shape}")
    defect = hermiticity_defect(A)
    if not defect <= tol:  # a NaN defect (non-finite entry) fails too
        raise ValueError(f"{name} is not Hermitian or not finite (defect {defect:.3e} > {tol:.1e})")
    return 0.5 * (A + A.conj().T)


def tensor_product(A, B) -> np.ndarray:
    """Kronecker product with the first factor slowest-varying."""
    return np.kron(np.asarray(A, dtype=complex), np.asarray(B, dtype=complex))


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


def _ptrace_subscripts(n: int, keep: int) -> str:
    row = list(_LETTERS[:n])
    col = list(row)
    kept_col = _LETTERS[n]
    col[keep] = kept_col
    return f"z{''.join(row)}{''.join(col)}->z{row[keep]}{kept_col}"


@functools.lru_cache(maxsize=None)
def _marginal_map(shape: SubsystemShape) -> np.ndarray:
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
    return _readonly(np.concatenate(blocks))


def marginals(X, shape) -> list[np.ndarray]:
    """The reduced operators tr_{-i} X of every subsystem i.

    One real product of the cached 0/1 map (``_marginal_map``) with the
    interleaved real view of X; works for any square operator.
    """
    shape = as_shape(shape)
    X = np.asarray(X, dtype=complex)
    d = shape.total_dim
    if X.shape != (d, d):
        raise ValueError(f"operator shape {X.shape} does not match total dim {d}")
    if shape.n_subsystems == 1:
        return [X.copy()]
    pairs = np.ascontiguousarray(X).view(float).reshape(-1, 2)
    flat = (_marginal_map(shape) @ pairs).view(complex)
    out, start = [], 0
    for di in shape.dims:
        out.append(flat[start : start + di * di].reshape(di, di))
        start += di * di
    return out


def partial_trace(rho, shape, keep: int) -> np.ndarray:
    """Reduced operator on subsystem ``keep``, tracing out all others.

    Works for any square operator and any number of subsystems; ``keep`` is
    an index into ``shape.dims``.
    """
    shape = as_shape(shape)
    if not 0 <= keep < shape.n_subsystems:
        raise ValueError(f"keep={keep} out of range for {shape.dims}")
    return marginals(rho, shape)[keep]


def partial_trace_stack(ops, shape, keep: int) -> np.ndarray:
    """Partial trace applied along the first axis of a stack of operators."""
    shape = as_shape(shape)
    n = shape.n_subsystems
    ops = np.asarray(ops, dtype=complex)
    m = ops.shape[0]
    if n == 1:
        return ops.copy()
    resh = ops.reshape((m,) + shape.dims + shape.dims)
    return np.einsum(_ptrace_subscripts(n, keep), resh)


def hermitian_eig(A):
    """Eigendecomposition of (A + A^dag)/2, eigenvalues ascending."""
    A = np.asarray(A, dtype=complex)
    return np.linalg.eigh(0.5 * (A + A.conj().T))


def matrix_function(A, f, *, positive: bool = False) -> np.ndarray:
    """Apply a scalar function to a Hermitian matrix through its spectrum.

    Parameters
    ----------
    A : array_like
        Hermitian matrix.
    f : callable
        Vectorised scalar function applied to the eigenvalues.
    positive : bool
        When True the spectrum must be strictly positive; violations raise
        :class:`DomainError`.
    """
    w, U = hermitian_eig(A)
    if positive and w[0] <= 0.0:
        raise DomainError(f"matrix function needs a positive spectrum, min eigenvalue {w[0]:.3e}")
    fw = np.asarray(f(w), dtype=float)
    out = (U * fw) @ U.conj().T
    return 0.5 * (out + out.conj().T)


def matrix_exp(A) -> np.ndarray:
    return matrix_function(A, np.exp)


def matrix_log(A) -> np.ndarray:
    return matrix_function(A, np.log, positive=True)


def matrix_power(A, exponent: float) -> np.ndarray:
    needs_pd = not float(exponent).is_integer()
    return matrix_function(A, lambda w: w ** exponent, positive=needs_pd)


def _exp_pair_difference(x, y) -> np.ndarray:
    """(e^x - e^y) / (x - y) elementwise, as e^{(x+y)/2} sinh(delta/2) / (delta/2).

    The sinh form has no cancellation at any spacing delta = x - y and takes
    the limit value e^x at delta = 0.
    """
    half = 0.5 * (x - y)
    ratio = np.ones_like(half)
    nz = half != 0.0
    ratio[nz] = np.sinh(half[nz]) / half[nz]
    return np.exp(0.5 * (x + y)) * ratio


def exp_divided_difference(w) -> np.ndarray:
    """First divided differences of exp over a real spectrum.

    Entry (j, k) is (e^{w_j} - e^{w_k}) / (w_j - w_k), evaluated in the
    cancellation-free form e^{(w_j+w_k)/2} sinh(delta/2) / (delta/2); the
    diagonal is e^{w_j}.
    """
    w = np.asarray(w, dtype=float)
    return _exp_pair_difference(w[:, None], w[None, :])


def exp_second_divided_difference(w) -> np.ndarray:
    """Second divided differences f[w_j, w_l, w_k] of exp, shape (d, d, d).

    Each triple is sorted to lo <= mid <= hi.  A spread hi - lo above
    SECOND_DIVIDED_DIFFERENCE_SERIES_SPREAD takes the quotient
    (f[mid, hi] - f[lo, mid]) / (hi - lo) of first divided differences;
    tighter triples, including exactly degenerate ones, take the series
    e^mid * sum_k h_k(a, b) / (k + 2)! to k = 4, with h_k the complete
    homogeneous polynomials of the offsets a = lo - mid, b = hi - mid.
    """
    w = np.asarray(w, dtype=float)
    lo, mid, hi = np.sort(
        np.broadcast_arrays(w[:, None, None], w[None, :, None], w[None, None, :]), axis=0
    )
    spread = hi - lo
    far = spread > SECOND_DIVIDED_DIFFERENCE_SERIES_SPREAD
    out = np.empty_like(spread)
    out[far] = (
        _exp_pair_difference(mid[far], hi[far]) - _exp_pair_difference(lo[far], mid[far])
    ) / spread[far]

    near = ~far
    a, b = lo[near] - mid[near], hi[near] - mid[near]
    h = np.ones_like(a)
    series = np.full_like(a, 0.5)
    for k, factorial in ((1, 6.0), (2, 24.0), (3, 120.0), (4, 720.0)):
        h = a * h + b**k
        series += h / factorial
    out[near] = np.exp(mid[near]) * series
    return out


def frechet_exp(A, E) -> np.ndarray:
    """Directional derivative of the matrix exponential at Hermitian A.

    Returns d/ds exp(A + s E) at s = 0.  A must be Hermitian; E may be any
    complex matrix (the derivative is linear in E).
    """
    w, U = hermitian_eig(A)
    Et = U.conj().T @ np.asarray(E, dtype=complex) @ U
    return U @ (Et * exp_divided_difference(w)) @ U.conj().T


def commutator(A, B) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    return A @ B - B @ A


def gell_mann_basis(d: int) -> list[np.ndarray]:
    """Generalised Gell-Mann matrices for one factor, tr(F_a F_b) = delta_ab.

    Ordering: symmetric off-diagonal pairs (j<k), antisymmetric pairs (j<k),
    then the d-1 diagonal elements.
    """
    if d < 2:
        raise UnsupportedShapeError(f"need local dimension >= 2, got {d}")
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


@dataclass(frozen=True)
class OperatorBasis:
    """Orthonormal set of traceless Hermitian operators with sector tags.

    ``stack`` has shape (m, d, d).  ``sector_labels[a]`` is "local:i" when
    element a acts nontrivially on subsystem i alone, otherwise "corr:..."
    listing the supporting subsystems.
    """

    shape: SubsystemShape
    stack: np.ndarray
    sector_labels: tuple[str, ...]

    def __post_init__(self):
        stack = np.asarray(self.stack, dtype=complex)
        d = self.shape.total_dim
        if stack.ndim != 3 or stack.shape[1:] != (d, d):
            raise ValueError(f"basis stack shape {stack.shape} does not match dim {d}")
        if len(self.sector_labels) != stack.shape[0]:
            raise ValueError("sector_labels length must match the number of elements")
        herm = np.max(np.abs(stack - stack.conj().transpose(0, 2, 1)))
        if herm > HERMITICITY_TOL:
            raise ValueError(f"basis elements must be Hermitian (defect {herm:.3e})")
        traces = np.abs(np.trace(stack, axis1=1, axis2=2))
        if traces.max() > TRACELESS_TOL:
            raise ValueError(f"basis elements must be traceless (max |tr| {traces.max():.3e})")
        m = stack.shape[0]
        flat = stack.reshape(m, -1)
        gram = np.real(flat @ flat.conj().T)
        defect = np.max(np.abs(gram - np.eye(m)))
        if defect > ORTHONORMALITY_TOL:
            raise ValueError(f"basis is not orthonormal (Gram defect {defect:.3e})")
        object.__setattr__(self, "stack", _readonly(stack))
        object.__setattr__(self, "sector_labels", tuple(self.sector_labels))

    @property
    def size(self) -> int:
        return self.stack.shape[0]

    @cached_property
    def real_rows(self) -> np.ndarray:
        """The stack as an (m, 2 d^2) real array: each F_a with Re and Im interleaved.

        A copy-free view.  For Hermitian F_a, (F_a)_kj = conj((F_a)_jk), so
        Re tr(F_a X) = sum_jk (Re (F_a)_jk Re X_jk + Im (F_a)_jk Im X_jk) is the
        real dot product of row a with the same view of any complex X; and
        theta @ real_rows is the same view of K(theta).
        """
        return self.stack.view(float).reshape(self.size, -1)

    def coordinates(self, X) -> np.ndarray:
        """Re tr(F_a X) for every element, as one real product over the stack.

        For traceless Hermitian X these are its expansion coefficients; for a
        state they are the mean parameters.  Only the Hermitian part of X
        enters.
        """
        X = np.ascontiguousarray(X, dtype=complex)
        return self.real_rows @ X.view(float).ravel()

    @cached_property
    def local_sector(self) -> np.ndarray:
        """Indices of the local elements, every subsystem (read-only)."""
        return _readonly(self.local_indices())

    @cached_property
    def _local_side_by_side(self) -> np.ndarray:
        return _readonly(_side_by_side(self.stack[self.local_sector]))

    def side_by_side(self, index) -> np.ndarray:
        """Elements selected by ``index`` side by side, shape (d, n d).

        Entry (j, a d + i) is (F_a)_ji, so one GEMM by a d x d matrix from the
        left acts on every element, and the product reshaped to (d n, d) takes
        a second GEMM from the right.  The layout of ``local_sector`` (pass
        that array itself) is built once per basis; other selections are laid
        out per call.
        """
        if index is self.local_sector:
            return self._local_side_by_side
        return _side_by_side(self.stack[index])

    @property
    def elements(self) -> tuple[np.ndarray, ...]:
        return tuple(self.stack[a] for a in range(self.size))

    def local_indices(self, subsystem: int | None = None) -> np.ndarray:
        if subsystem is None:
            mask = [lbl.startswith("local:") for lbl in self.sector_labels]
        else:
            mask = [lbl == f"local:{subsystem}" for lbl in self.sector_labels]
        return np.flatnonzero(mask)

    def correlation_indices(self) -> np.ndarray:
        return np.flatnonzero([lbl.startswith("corr") for lbl in self.sector_labels])


def _side_by_side(stack: np.ndarray) -> np.ndarray:
    n, d, _ = stack.shape
    return np.ascontiguousarray(stack.transpose(1, 0, 2)).reshape(d, n * d)


@functools.lru_cache(maxsize=None)
def product_basis(shape) -> OperatorBasis:
    """Full traceless orthonormal product basis for a multipartite shape.

    Elements are tensor products of local Gell-Mann matrices on a support
    set S and normalised identities I/sqrt(d_i) elsewhere.  Singleton
    supports give the local sectors; larger supports the correlation
    sector.  For a single subsystem this is just the Gell-Mann basis.
    """
    shape = as_shape(shape)
    n = shape.n_subsystems
    local = [gell_mann_basis(d) for d in shape.dims]
    idents = [np.eye(d, dtype=complex) / np.sqrt(d) for d in shape.dims]

    supports: list[tuple[int, ...]] = [(i,) for i in range(n)]
    for size in range(2, n + 1):
        supports.extend(itertools.combinations(range(n), size))

    elements = []
    labels = []
    for support in supports:
        label = (
            f"local:{support[0]}"
            if len(support) == 1
            else "corr:" + ",".join(str(i) for i in support)
        )
        choices = [range(len(local[i])) for i in support]
        for combo in itertools.product(*choices):
            picks = dict(zip(support, combo))
            op = np.eye(1, dtype=complex)
            for i in range(n):
                factor = local[i][picks[i]] if i in picks else idents[i]
                op = np.kron(op, factor)
            elements.append(op)
            labels.append(label)
    stack = np.stack(elements)
    return OperatorBasis(shape=shape, stack=stack, sector_labels=tuple(labels))
