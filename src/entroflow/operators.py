"""Hermitian operator algebra on multipartite systems.

Marginals (partial traces), divided differences of exp, and orthonormal
traceless operator bases.  Operators are plain complex numpy
arrays; subsystem 0 is always the slowest-varying Kronecker factor.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UnsupportedShapeError

HERMITICITY_TOL = 1e-12
TRACELESS_TOL = 1e-12
ORTHONORMALITY_TOL = 1e-10
# Spread of an eigenvalue triple at or below which second divided differences
# of exp switch from the difference quotient to their Taylor series.
SECOND_DIVIDED_DIFFERENCE_SERIES_SPREAD = 1e-3
# Bytes of basis elements that OperatorBasis.rotated forms at a time.
ROTATION_CHUNK_BYTES = 1 << 18


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


def is_hermitian(A):
    return hermiticity_defect(A) <= HERMITICITY_TOL


def require_hermitian(A, name: str = "operator") -> np.ndarray:
    """Validate hermiticity entrywise and return the symmetrised copy."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {A.shape}")
    defect = hermiticity_defect(A)
    if not defect <= HERMITICITY_TOL:  # a NaN defect (non-finite entry) fails too
        raise ValueError(
            f"{name} is not Hermitian or not finite (defect {defect:.3e} > {HERMITICITY_TOL:.1e})"
        )
    return 0.5 * (A + A.conj().T)


def marginals(X, shape) -> list[np.ndarray]:
    """The reduced operators tr_{-i} X of every subsystem i, as fresh arrays.

    One einsum per subsystem traces X, viewed as (a, d_i, b) x (a, d_i, b)
    with a and b the dimensions before and after factor i, over a and b;
    works for any square operator.
    """
    shape = as_shape(shape)
    X = np.asarray(X, dtype=complex)
    d = shape.total_dim
    if X.shape != (d, d):
        raise ValueError(f"operator shape {X.shape} does not match total dim {d}")
    out = []
    for i, di in enumerate(shape.dims):
        a, b = math.prod(shape.dims[:i]), math.prod(shape.dims[i + 1 :])
        out.append(np.einsum("ajbakb->jk", X.reshape(a, di, b, a, di, b)))
    return out


def _exp_pair_difference(x, y) -> np.ndarray:
    """(e^x - e^y) / (x - y) elementwise, as e^{(x+y)/2} sinh(delta/2) / (delta/2).

    The sinh form has no cancellation at any spacing delta = x - y and takes
    the limit value e^x at delta = 0.
    """
    half = 0.5 * (x - y)
    ratio = np.ones_like(half)
    np.divide(np.sinh(half), half, out=ratio, where=half != 0.0)
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


def gell_mann_basis(d: int) -> np.ndarray:
    """Generalised Gell-Mann matrices for one factor, tr(F_a F_b) = delta_ab.

    A (d^2 - 1, d, d) stack: symmetric off-diagonal pairs (j<k),
    antisymmetric pairs (j<k), then the d-1 diagonal elements.
    """
    if d < 2:
        raise UnsupportedShapeError(f"need local dimension >= 2, got {d}")
    j, k = np.triu_indices(d, 1)
    sym, anti = np.arange(j.size), np.arange(j.size, 2 * j.size)
    out = np.zeros((d * d - 1, d, d), dtype=complex)
    out[sym, j, k] = out[sym, k, j] = 1.0 / np.sqrt(2.0)
    out[anti, j, k], out[anti, k, j] = -1j / np.sqrt(2.0), 1j / np.sqrt(2.0)
    for l in range(1, d):
        diag = np.append(np.ones(l), -float(l)).astype(complex) / np.sqrt(l * (l + 1))
        out[2 * j.size + l - 1, range(l + 1), range(l + 1)] = diag
    return out


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """Orthonormal traceless Hermitian Kronecker products, with sector tags.

    Element a is the product over subsystems i of ``factors[i][elements[a][i]]``,
    each ``factors[i]`` a (k_i, d_i, d_i) stack; index -1 stands for I/sqrt(d_i).
    Its support, the i with index >= 0, sets its sector label: "local:i" for i
    alone, otherwise "corr:..." listing them.

    As tr(A x B) = tr A tr B, the products are Hermitian, traceless and
    orthonormal when each factor stack is, no index tuple repeats and none is
    all -1; only these are checked.  Factor entries are at most 1 in modulus,
    so factor defects within the tolerances bound the products' hermiticity
    and Gram defects by (1 + tol)^n - 1 ~ n tol, and |tr| by TRACELESS_TOL sqrt(d).
    """

    shape: SubsystemShape
    factors: tuple[np.ndarray, ...]
    elements: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        dims = self.shape.dims
        factors = tuple(_readonly(np.array(F, dtype=complex)) for F in self.factors)
        if [F.shape[1:] for F in factors] != [(d_i, d_i) for d_i in dims]:
            shapes = [F.shape for F in factors]
            raise ValueError(f"factor stacks {shapes} are not one (k_i, d_i, d_i) per {dims}")
        for F in factors:
            # NaN fails every test, so a non-finite entry (NaN or inf defect) stops here.
            herm = hermiticity_defect(F).max(initial=0.0)
            if not herm <= HERMITICITY_TOL:
                raise ValueError(f"basis elements must be Hermitian and finite (defect {herm:.3e})")
            trace = np.abs(np.trace(F, axis1=1, axis2=2)).max(initial=0.0)
            if not trace <= TRACELESS_TOL:
                raise ValueError(f"basis elements must be traceless (max |tr| {trace:.3e})")
            flat = F.reshape(len(F), -1)
            gram = np.abs(flat @ flat.conj().T - np.eye(len(F))).max(initial=0.0)
            if not gram <= ORTHONORMALITY_TOL:
                raise ValueError(f"basis is not orthonormal (Gram defect {gram:.3e})")
        elements = tuple(tuple(int(j) for j in e) for e in self.elements)
        for e in elements:
            if len(e) != len(dims) or not all(-1 <= j < len(F) for j, F in zip(e, factors)):
                raise ValueError(f"element {e} needs an index in [-1, k_i) for each subsystem")
        if len(set(elements)) != len(elements):
            raise ValueError("basis is not orthonormal (an element repeats)")
        if not elements or (-1,) * len(dims) in elements:
            raise ValueError("basis needs at least one element, none all -1 (the identity)")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "elements", elements)

    @cached_property
    def _supports(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(i for i, j in enumerate(e) if j >= 0) for e in self.elements)

    @property
    def sector_labels(self) -> tuple[str, ...]:
        joined = (",".join(map(str, s)) for s in self._supports)
        return tuple(f"corr:{j}" if "," in j else f"local:{j}" for j in joined)

    @property
    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def _layout(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...], np.ndarray]:
        """The factor stacks with I/sqrt(d_i) first, and the element tuples
        plus one, per factor and as flat indices into the grid of products."""
        eyes = (np.eye(d_i, dtype=complex)[None] / np.sqrt(d_i) for d_i in self.shape.dims)
        padded = tuple(_readonly(np.concatenate(pair)) for pair in zip(eyes, self.factors))
        tuples = np.array(self.elements).T + 1
        flat = np.ravel_multi_index(tuples, [len(E) for E in padded])
        return padded, tuple(map(_readonly, tuples)), _readonly(flat)

    def products(self, index) -> np.ndarray:
        """The (n, d, d) elements at ``index`` (a slice or indices), one broadcast
        product per factor: the bits of a loop of np.kron over the elements."""
        padded, tuples, _ = self._layout
        out = np.ones((len(tuples[0][index]), 1, 1), dtype=complex)
        for E, t in zip(padded, tuples):
            r, q = out.shape[1], E.shape[1]
            out = (out[:, :, None, :, None] * E[t[index], None, :, None]).reshape(-1, r * q, r * q)
        return out

    def rotated(self, U):
        """Yield (chunk, U^dag F_a U for a in chunk) over chunks of at most
        ROTATION_CHUNK_BYTES, each a fresh C-contiguous array; as F_a is
        Hermitian, U^dag F U = (F U)^dag U takes two flat products per chunk."""
        d = len(U)
        step = max(1, ROTATION_CHUNK_BYTES // (16 * d * d))
        for chunk in (slice(start, start + step) for start in range(0, self.size, step)):
            FU = (self.products(chunk).reshape(-1, d) @ U).reshape(-1, d, d)
            yield chunk, (FU.transpose(0, 2, 1).reshape(-1, d) @ U.conj()).reshape(-1, d, d).conj()

    def coordinates(self, X) -> np.ndarray:
        """Re tr(F_a X) for every element, for X of shape (..., d, d).

        For traceless Hermitian X these are its expansion coefficients; for a
        state they are the mean parameters; only the Hermitian part of X enters.
        With X's axes ordered (column, row) per factor, batch last, each factor
        contracts the leading pair in one product and appends its element axis.
        """
        padded, _, flat = self._layout
        n, X = self.shape.n_subsystems, np.asarray(X, dtype=complex)
        T = X.reshape((-1,) + self.shape.dims * 2)
        batch, T = len(T), T.transpose(*(a for i in range(1, n + 1) for a in (n + i, i)), 0)
        for E in padded:
            T = T.reshape(E[0].size, -1).T @ E.reshape(len(E), -1).T
        return T.reshape(batch, -1).real[:, flat].reshape(X.shape[:-2] + (self.size,))

    def combine(self, theta) -> np.ndarray:
        """K(theta) = sum_a theta_a F_a: theta on the grid of ``_layout``, each
        factor's element axis replaced by its (row, column) pair in one product.
        Symmetrised, so exactly Hermitian and an eigensolver may skip that."""
        padded, _, flat = self._layout
        n, d = self.shape.n_subsystems, self.shape.total_dim
        T = np.zeros(math.prod(len(E) for E in padded))
        T[flat] = theta
        for E in padded:
            T = T.reshape(len(E), -1).T @ E.reshape(len(E), -1)
        T = T.reshape(tuple(d_i for d_i in self.shape.dims for _ in (0, 1)))
        K = T.transpose(*range(0, 2 * n, 2), *range(1, 2 * n, 2)).reshape(d, d)
        return 0.5 * (K + K.conj().T)

    @cached_property
    def local_sector(self) -> np.ndarray:
        """Indices of the local elements, every subsystem (read-only)."""
        return _readonly(self.local_indices())

    @cached_property
    def local_blocks(self) -> tuple[np.ndarray, ...]:
        """Indices of the local elements of each subsystem (read-only)."""
        return tuple(_readonly(self.local_indices(i)) for i in range(self.shape.n_subsystems))

    @cached_property
    def local_traces(self) -> tuple[np.ndarray, ...]:
        """Per subsystem i, the read-only (|L_i|, d_i, d_i) stack tr_{-i} F_alpha =
        sqrt(d/d_i) lambda_alpha over its local elements L_i (``local_blocks``),
        as F_alpha is lambda_alpha on factor i and I/sqrt(d_j), of trace
        sqrt(d_j), on every other j.  A state's marginals rho_i = I/d_i +
        sum_{alpha in L_i} mu_alpha tr_{-i} F_alpha need the L_i to span the
        traceless operators of subsystem i, d_i^2 - 1 orthonormal elements;
        raises ValueError where they do not."""
        out = []
        for i, (L_i, d_i) in enumerate(zip(self.local_blocks, self.shape.dims)):
            if L_i.size != d_i * d_i - 1:
                raise ValueError(
                    f"subsystem {i} has {L_i.size} local elements; spanning its "
                    f"traceless operators needs {d_i * d_i - 1}"
                )
            scale = math.sqrt(self.shape.total_dim / d_i)
            out.append(_readonly(scale * self.factors[i][[self.elements[a][i] for a in L_i]]))
        return tuple(out)

    @cached_property
    def _marginal_layout(self) -> tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per local dimension q, ascending: q, its subsystems, the positions of
        their local elements in ``local_sector`` and their ``local_traces``
        flattened, read-only; raises the ValueError of ``local_traces``."""
        traces, position = self.local_traces, {a: k for k, a in enumerate(self.local_sector)}
        layout = []
        for q in sorted(set(self.shape.dims)):
            members = [i for i, d_i in enumerate(self.shape.dims) if d_i == q]
            pos = [[position[a] for a in self.local_blocks[i]] for i in members]
            stack = [traces[i].reshape(q * q - 1, -1) for i in members]
            layout.append((q, *(_readonly(np.array(a)) for a in (members, pos, stack))))
        return tuple(layout)

    def local_marginals(self, mu_local) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per local dimension q, its subsystems i and the (n_q, q, q) stack of
        their marginals rho_i = I/q + sum_{alpha in L_i} mu_alpha tr_{-i} F_alpha,
        from local mean parameters ``mu_local`` (``local_sector`` order) in one product."""
        return [
            (members, (mu_local[pos][:, None, :] @ traces).reshape(-1, q, q) + np.eye(q) / q)
            for q, members, pos, traces in self._marginal_layout
        ]

    def local_indices(self, subsystem: int | None = None) -> np.ndarray:
        return np.flatnonzero([len(s) == 1 and subsystem in (None, *s) for s in self._supports])

    def correlation_indices(self) -> np.ndarray:
        return np.flatnonzero([len(s) > 1 for s in self._supports])


def product_basis(shape) -> OperatorBasis:
    """Full traceless orthonormal product basis for a multipartite shape.

    Gell-Mann matrices on each support set S, by size then in order, with
    I/sqrt(d_i) elsewhere: the local sectors, then the correlation sector.
    Cached per ``SubsystemShape``, so every spelling of one shape (list,
    tuple or SubsystemShape) returns the same object.
    """
    return _product_basis(as_shape(shape))


@functools.lru_cache(maxsize=None)
def _product_basis(shape: SubsystemShape) -> OperatorBasis:
    n, dims = shape.n_subsystems, shape.dims
    supports = [s for size in range(1, n + 1) for s in itertools.combinations(range(n), size)]
    choices = [[range(d * d - 1) if i in s else [-1] for i, d in enumerate(dims)] for s in supports]
    elements = tuple(e for c in choices for e in itertools.product(*c))
    return OperatorBasis(shape, tuple(gell_mann_basis(d) for d in dims), elements)
