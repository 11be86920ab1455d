"""Operator-algebra layer: partial-trace index oracles, matrix functions,
divided differences, and the Fréchet derivative of exp that the constraint
gradient was built on (now a test oracle)."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from entroflow import (
    OperatorBasis,
    UnsupportedShapeError,
    as_shape,
    exp_divided_difference,
    exp_second_divided_difference,
    gell_mann_basis,
    product_basis,
    random_hermitian,
)
from entroflow import operators
from entroflow.operators import is_hermitian, marginals, require_hermitian
from tests.reference_geometry import (
    embed_local,
    frechet_exp,
    gell_mann_list,
    hermitian_vec,
    kron_product_basis,
    kron_stack,
    map_marginals,
    matrix_function,
)

FD_STEP = 1e-5
FRECHET_REL_TOL = 1e-8


def exp_log_roundtrip(A):
    return matrix_function(matrix_function(A, np.exp), np.log, positive=True)


def ptrace_oracle_keep0(rho, d1, d2):
    out = np.zeros((d1, d1), dtype=complex)
    for i in range(d1):
        for j in range(d1):
            for k in range(d2):
                out[i, j] += rho[i * d2 + k, j * d2 + k]
    return out


def ptrace_oracle_keep1(rho, d1, d2):
    out = np.zeros((d2, d2), dtype=complex)
    for k in range(d2):
        for l in range(d2):
            for i in range(d1):
                out[k, l] += rho[i * d2 + k, i * d2 + l]
    return out


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
@pytest.mark.parametrize("entries", [[(1, 1)], [(0, 1), (1, 0)]])
def test_require_hermitian_rejects_non_finite_entries(bad, entries):
    """A NaN defect must fail the tolerance test, not slip past a `>`."""
    A = np.eye(3, dtype=complex)
    for index in entries:
        A[index] = bad
    assert not is_hermitian(A)
    with pytest.raises(ValueError, match="xi block .* not finite"):
        require_hermitian(A, name="xi block")


def test_partial_trace_bell_state():
    from entroflow import lme_origin

    shape = as_shape([3, 3])
    rho = lme_origin(shape)
    np.testing.assert_allclose(marginals(rho, shape)[1], np.eye(3) / 3, atol=1e-14)
    np.testing.assert_allclose(marginals(rho, shape)[0], np.eye(3) / 3, atol=1e-14)


def test_partial_trace_product_state(rng):
    from entroflow import random_density_matrix

    rho_a = random_density_matrix(2, rng)
    rho_b = random_density_matrix(3, rng)
    shape = as_shape([2, 3])
    got = marginals(np.kron(rho_a, rho_b), shape)[0]
    np.testing.assert_allclose(got, rho_a, atol=1e-13)


def test_partial_trace_index_summation_oracle(rng):
    from entroflow import random_density_matrix

    shape = as_shape([2, 2])
    for _ in range(5):
        rho = random_density_matrix(4, rng)
        np.testing.assert_allclose(
            marginals(rho, shape)[0], ptrace_oracle_keep0(rho, 2, 2), atol=1e-14
        )
        np.testing.assert_allclose(
            marginals(rho, shape)[1], ptrace_oracle_keep1(rho, 2, 2), atol=1e-14
        )


def test_partial_trace_preserves_trace_and_linearity(rng):
    from entroflow import random_density_matrix

    shape = as_shape([3, 2])
    rho = random_density_matrix(6, rng)
    sigma = random_density_matrix(6, rng)
    assert abs(np.trace(marginals(rho, shape)[0]) - 1.0) < 1e-12
    mix = 0.3 * rho + 0.7 * sigma
    np.testing.assert_allclose(
        marginals(mix, shape)[1],
        0.3 * marginals(rho, shape)[1] + 0.7 * marginals(sigma, shape)[1],
        atol=1e-13,
    )


def test_partial_trace_kills_commutator_with_traced_local_generator(rng):
    """tr_2 of [I ⊗ xi_2, rho] vanishes: the generator acts only on the
    factor being traced out."""
    from entroflow import random_density_matrix

    shape = as_shape([3, 3])
    rho = random_density_matrix(9, rng)
    xi2 = embed_local(random_hermitian(3, rng), 1, shape)
    np.testing.assert_allclose(
        marginals(xi2 @ rho - rho @ xi2, shape)[0], np.zeros((3, 3)), atol=1e-13
    )


@pytest.mark.parametrize("dims", [[2], [2, 3], [3, 3], [2, 2, 2], [2, 2, 2, 2], [8, 8]])
def test_marginals_match_the_map_route(dims, rng):
    """The reshape-and-trace marginals against the former product of a 0/1
    map with the entries of X, on a general complex X; no result is a view
    of X, with one subsystem too."""
    shape = as_shape(dims)
    d = shape.total_dim
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    got = marginals(X, shape)
    ref = map_marginals(X, shape)
    assert len(got) == len(ref) == shape.n_subsystems
    for g, r in zip(got, ref):
        assert np.abs(g - r).max() <= 1e-14 * np.abs(X).max()
        assert not np.shares_memory(g, X)


def test_matrix_exp_zero_is_identity():
    np.testing.assert_allclose(matrix_function(np.zeros((4, 4)), np.exp), np.eye(4), atol=1e-14)


def test_matrix_log_diagonal_roundtrip():
    A = np.diag([1.0, 2.0]).astype(complex)
    np.testing.assert_allclose(exp_log_roundtrip(A), A, atol=1e-13)


def test_matrix_log_rejects_non_positive():
    with pytest.raises(ValueError):
        matrix_function(np.diag([1.0, -0.5]).astype(complex), np.log, positive=True)
    with pytest.raises(ValueError):
        matrix_function(np.diag([1.0, 0.0]).astype(complex), np.sqrt, positive=True)


def test_exp_no_homomorphism_when_noncommuting(rng):
    A = random_hermitian(3, rng)
    B = random_hermitian(3, rng)
    eA, eB = matrix_function(A, np.exp), matrix_function(B, np.exp)
    gap = np.linalg.norm(matrix_function(A + B, np.exp) - eA @ eB)
    assert gap > 1e-3
    # commuting pair: polynomials of one matrix
    C = A @ A - 0.4 * A
    gap_c = np.linalg.norm(matrix_function(A + C, np.exp) - eA @ matrix_function(C, np.exp))
    assert gap_c < 1e-12


def test_exp_log_roundtrip_diagonal_full_range():
    # commuting case is exact over the whole advertised spectral window
    w = np.linspace(-20.0, 20.0, 11)
    A = np.diag(w).astype(complex)
    np.testing.assert_allclose(exp_log_roundtrip(A), A, atol=1e-10)


def test_exp_log_roundtrip_dense_bounded_spread(rng):
    # dense Hermitian inputs with spectra inside [-6, 6]
    for _ in range(10):
        A = 2.0 * random_hermitian(6, rng)
        A *= 6.0 / max(6.0, np.abs(np.linalg.eigvalsh(A)).max())
        err = np.abs(exp_log_roundtrip(A) - A).max()
        assert err < 1e-10 * max(1.0, np.abs(A).max())


def test_exp_log_roundtrip_conditioning_wall(rng):
    """Dense spectra spanning ~36 nats cannot round-trip at 1e-10: the
    eigensolver's absolute error scale is eps * e^{max eigenvalue}, which
    swamps e^{min eigenvalue}.  Pin the breakdown so it is visible."""
    A = random_hermitian(8, rng)
    w, U = np.linalg.eigh(A)
    w = (w - w.min()) / (w.max() - w.min()) * 36.0 - 18.0
    A = (U * w) @ U.conj().T
    A = 0.5 * (A + A.conj().T)
    try:
        err = np.abs(exp_log_roundtrip(A) - A).max()
    except ValueError:
        return  # exp(A) lost numerical positivity: the honest failure mode
    assert err > 1e-8


def test_exp_divided_difference_limits():
    w = np.array([0.3, 0.3 + 1e-16, -1.0])
    table = exp_divided_difference(w)
    # coincident pair takes the limit value e^w
    assert abs(table[0, 1] - np.exp(0.3)) < 1e-12
    # well-separated pair is the plain divided difference
    expect = (np.exp(0.3) - np.exp(-1.0)) / (0.3 + 1.0)
    assert abs(table[0, 2] - expect) < 1e-13
    assert np.allclose(np.diag(table), np.exp(w))


def test_exp_divided_difference_close_pairs_opitz_oracle():
    # pairs 1e-10..1e-2 apart: no cancellation in (e^x - e^y) / (x - y)
    w = np.array([-2.0, -2.0 + 1e-10, -1.0, -1.0 + 1e-6, 0.5, 0.5 + 1e-2])
    B = np.zeros((w.size, w.size, 2, 2))
    B[..., 0, 0] = w[:, None]
    B[..., 1, 1] = w[None, :]
    B[..., 0, 1] = 1.0
    ref = scipy.linalg.expm(B.reshape(-1, 2, 2))[:, 0, 1].reshape(w.size, w.size)
    assert np.max(np.abs(exp_divided_difference(w) - ref) / ref) <= 1e-13


def opitz_second_divided_difference(w):
    """f[w_j, w_l, w_k] of exp as the (0, 2) entry of expm of the bidiagonal
    [[w_j, 1, 0], [0, w_l, 1], [0, 0, w_k]] (Opitz)."""
    d = w.size
    B = np.zeros((d, d, d, 3, 3))
    B[..., 0, 0] = w[:, None, None]
    B[..., 1, 1] = w[None, :, None]
    B[..., 2, 2] = w[None, None, :]
    B[..., 0, 1] = B[..., 1, 2] = 1.0
    return scipy.linalg.expm(B.reshape(-1, 3, 3))[:, 0, 2].reshape(d, d, d)


@pytest.mark.parametrize("gap", [0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 2e-3, 1e-2])
def test_exp_second_divided_difference_opitz_oracle(gap, rng):
    """Distinct, exactly degenerate (gap 0) and near-degenerate spectra whose
    triples fall on both sides of the series/quotient switch."""
    base = np.sort(rng.normal(size=3)) * 2.0
    w = np.sort(np.concatenate([base, base[:2] + gap, [base[0] + 2.0 * gap]]))
    ref = opitz_second_divided_difference(w)
    got = exp_second_divided_difference(w)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-11


def test_exp_second_divided_difference_regularised_origin_spectrum():
    # one dominant eigenvalue over an 8-fold degenerate floor, as at the
    # regularised two-qutrit origin
    w = np.log(np.array([0.9] + [0.1 / 8.0] * 8))
    ref = opitz_second_divided_difference(w)
    got = exp_second_divided_difference(w)
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-11
    np.testing.assert_allclose(got[1, 1, 1], np.exp(w[1]) / 2.0, rtol=1e-14)


def test_frechet_exp_at_zero(rng):
    E = random_hermitian(4, rng)
    np.testing.assert_allclose(frechet_exp(np.zeros((4, 4)), E), E, atol=1e-13)


def test_frechet_exp_commuting_case(rng):
    A = random_hermitian(3, rng)
    E = 0.7 * A + 0.1 * A @ A  # commutes with A
    np.testing.assert_allclose(frechet_exp(A, E), matrix_function(A, np.exp) @ E, atol=1e-11)


def test_frechet_exp_linearity(rng):
    A = random_hermitian(3, rng)
    E1 = random_hermitian(3, rng)
    E2 = random_hermitian(3, rng)
    lhs = frechet_exp(A, 2.0 * E1 - 0.5 * E2)
    rhs = 2.0 * frechet_exp(A, E1) - 0.5 * frechet_exp(A, E2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_frechet_exp_finite_difference_oracle(rng):
    for _ in range(10):
        A = random_hermitian(3, rng)
        E = random_hermitian(3, rng)
        forward = matrix_function(A + FD_STEP * E, np.exp)
        backward = matrix_function(A - FD_STEP * E, np.exp)
        fd = (forward - backward) / (2 * FD_STEP)
        got = frechet_exp(A, E)
        rel = np.linalg.norm(got - fd) / np.linalg.norm(fd)
        assert rel <= FRECHET_REL_TOL


def test_frechet_exp_adjoint_identity(rng):
    # d/ds exp(A + s[A,E])|_0 = [exp(A), E]; the direction [A,E] is
    # anti-Hermitian, so this also exercises non-Hermitian directions.
    for _ in range(5):
        A = random_hermitian(4, rng)
        E = random_hermitian(4, rng)
        lhs = frechet_exp(A, A @ E - E @ A)
        expA = matrix_function(A, np.exp)
        rhs = expA @ E - E @ expA
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(rhs))


def test_matrix_function_general_scalar(rng):
    A = random_hermitian(5, rng)
    w, U = np.linalg.eigh(A)
    got = matrix_function(A, np.tanh)
    np.testing.assert_allclose(got, (U * np.tanh(w)) @ U.conj().T, atol=1e-13)


def test_hermitian_vec_preserves_frobenius_norm(rng):
    for d in (2, 3, 5):
        X = random_hermitian(d, rng)
        v = hermitian_vec(X)
        assert v.shape == (d * d,)
        assert abs(np.linalg.norm(v) - np.linalg.norm(X)) < 1e-12


def test_hermitian_vec_batch(rng):
    Xs = np.stack([random_hermitian(3, rng) for _ in range(4)])
    V = hermitian_vec(Xs)
    assert V.shape == (4, 9)
    np.testing.assert_allclose(V[2], hermitian_vec(Xs[2]), atol=1e-14)


def test_gell_mann_basis_orthonormal():
    for d in (2, 3, 4):
        mats = gell_mann_basis(d)
        assert len(mats) == d * d - 1
        assert mats.tobytes() == np.stack(gell_mann_list(d)).tobytes()
        for a, Fa in enumerate(mats):
            assert np.abs(Fa - Fa.conj().T).max() < 1e-14
            assert abs(np.trace(Fa)) < 1e-14
            for b, Fb in enumerate(mats):
                gram = np.trace(Fa @ Fb).real
                assert abs(gram - (1.0 if a == b else 0.0)) < 1e-12


@pytest.mark.parametrize(
    "dims", [[2], [3], [2, 2], [2, 3], [3, 3], [2, 2, 2], [2, 2, 2, 2], [3, 3, 3]]
)
def test_product_basis_sector_structure(dims):
    """The sector sizes, and every element built from the factors
    (``products``): bitwise the np.kron loop's, with its sector labels, and
    a Hilbert-Schmidt Gram matrix equal to the identity."""
    basis = product_basis(dims)
    local_sizes = [d * d - 1 for d in dims]
    assert basis.size == math.prod(dims) ** 2 - 1
    assert [len(basis.local_indices(i)) for i in range(len(dims))] == local_sizes
    assert len(basis.correlation_indices()) == basis.size - sum(local_sizes)
    stack, labels = kron_product_basis(dims)
    built = basis.products(np.arange(basis.size))
    assert built.shape == stack.shape
    assert built.tobytes() == stack.tobytes() == kron_stack(basis).tobytes()
    assert basis.sector_labels == labels
    flat = built.reshape(basis.size, -1)
    gram = np.real(flat @ flat.conj().T)
    np.testing.assert_allclose(gram, np.eye(basis.size), atol=1e-10)


def test_product_basis_forms_no_stack():
    """At [8,8] (m = 4095) the basis has no m x d x d stack, nor a view of
    one, and neither construction, the sector indices nor ``coordinates``
    allocate a tenth of its 256 MiB (tracemalloc peak).  Built past the
    per-shape cache, so that no other test's use shows here."""
    assert not any(hasattr(OperatorBasis, name) for name in ("stack", "real_rows"))
    tracemalloc.start()
    try:
        basis = operators._product_basis.__wrapped__(as_shape([8, 8]))
        assert basis.local_sector.size == 126 and len(basis.local_blocks) == 2
        assert basis.correlation_indices().size == 3969
        basis.coordinates(np.eye(64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**28 / 10
    assert not {"stack", "real_rows"} & set(vars(basis))


def test_product_basis_is_cached_per_shape():
    """The list, tuple and SubsystemShape spellings of one shape share one basis."""
    basis = product_basis(as_shape([2, 2]))
    assert product_basis([2, 2]) is basis
    assert product_basis((2, 2)) is basis


def test_product_basis_single_system():
    basis = product_basis(as_shape([3]))
    assert basis.size == 8
    assert set(basis.sector_labels) == {"local:0"}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
@pytest.mark.parametrize("index", [(0, 0), (0, 1)])
def test_operator_basis_rejects_non_finite_entries(bad, index):
    """A non-finite factor entry fails validation with a ValueError and no warning."""
    factor = np.diag([1.0, -1.0]).astype(complex)[None] / np.sqrt(2.0)
    factor[(0, *index)] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="Hermitian and finite"):
            OperatorBasis(as_shape([2]), (factor,), ((0,),))


QUBIT = gell_mann_basis(2)


@pytest.mark.parametrize(
    "dims, factors, elements, match",
    [
        ([2], (np.array([[[0.0, 1.0], [0.0, 0.0]]]),), ((0,),), "Hermitian and finite"),
        ([2], (np.eye(2)[None] / np.sqrt(2.0),), ((0,),), "traceless"),
        ([2], (2.0 * QUBIT,), ((0,),), "not orthonormal"),
        ([2], (QUBIT[[0, 0]],), ((0,), (1,)), "not orthonormal"),
        ([2], (QUBIT,), ((0,), (1,), (0,)), "repeats"),
        ([2, 2], (QUBIT, QUBIT), ((0, -1), (-1, -1)), "none all -1"),
        ([2], (QUBIT,), (), "at least one element"),
        ([2], (QUBIT,), ((3,),), r"index in \[-1, k_i\)"),
        ([2], (QUBIT,), ((-2,),), r"index in \[-1, k_i\)"),
        ([2, 2], (QUBIT, QUBIT), ((0,),), r"index in \[-1, k_i\)"),
        ([2, 2], (QUBIT,), ((0,),), r"not one \(k_i, d_i, d_i\)"),
        ([3], (QUBIT,), ((0,),), r"not one \(k_i, d_i, d_i\)"),
        ([2], (QUBIT[0],), ((0,),), r"not one \(k_i, d_i, d_i\)"),
    ],
)
def test_operator_basis_refuses_invalid_factors(dims, factors, elements, match):
    """Each condition that keeps the Kronecker products from being an
    orthonormal traceless Hermitian set is refused with a ValueError."""
    with pytest.raises(ValueError, match=match):
        OperatorBasis(as_shape(dims), factors, elements)


def test_as_shape_rejects_bad_dims():
    with pytest.raises(UnsupportedShapeError):
        as_shape([1, 3])
    with pytest.raises(UnsupportedShapeError):
        as_shape([])
