"""Operator-algebra layer: tensor/partial-trace index oracles, matrix
functions, divided differences and the Fréchet derivative of exp."""

import numpy as np
import pytest
import scipy.linalg

from entroflow import (
    DomainError,
    UnsupportedShapeError,
    as_shape,
    commutator,
    embed_local,
    exp_divided_difference,
    exp_second_divided_difference,
    frechet_exp,
    gell_mann_basis,
    matrix_exp,
    matrix_function,
    matrix_log,
    matrix_power,
    partial_trace,
    product_basis,
    random_hermitian,
    tensor_product,
)
from entroflow.operators import is_hermitian, require_hermitian
from tests.reference_geometry import hermitian_vec

FD_STEP = 1e-5
FRECHET_REL_TOL = 1e-8


def kron_oracle(A, B):
    # brute-force entry formula (A⊗B)_{(ik),(jl)} = A_ij B_kl
    da, db = A.shape[0], B.shape[0]
    out = np.empty((da * db, da * db), dtype=complex)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                for l in range(db):
                    out[i * db + k, j * db + l] = A[i, j] * B[k, l]
    return out


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


def test_tensor_product_identity():
    assert np.allclose(tensor_product(np.eye(2), np.eye(3)), np.eye(6))


def test_tensor_product_entry_formula(rng):
    for da, db in ((2, 2), (2, 3), (3, 3)):
        A = random_hermitian(da, rng)
        B = random_hermitian(db, rng)
        np.testing.assert_allclose(tensor_product(A, B), kron_oracle(A, B), atol=1e-14)


def test_tensor_product_associative_and_trace(rng):
    A, B, C = (random_hermitian(d, rng) for d in (2, 3, 2))
    left = tensor_product(tensor_product(A, B), C)
    right = tensor_product(A, tensor_product(B, C))
    np.testing.assert_allclose(left, right, atol=1e-13)
    AB = tensor_product(A, B)
    assert abs(np.trace(AB) - np.trace(A) * np.trace(B)) < 1e-12


def test_partial_trace_bell_state():
    from entroflow import lme_origin

    shape = as_shape([3, 3])
    rho = lme_origin(shape)
    np.testing.assert_allclose(partial_trace(rho, shape, 1), np.eye(3) / 3, atol=1e-14)
    np.testing.assert_allclose(partial_trace(rho, shape, 0), np.eye(3) / 3, atol=1e-14)


def test_partial_trace_product_state(rng):
    from entroflow import random_density_matrix

    rho_a = random_density_matrix(2, rng)
    rho_b = random_density_matrix(3, rng)
    shape = as_shape([2, 3])
    got = partial_trace(tensor_product(rho_a, rho_b), shape, 0)
    np.testing.assert_allclose(got, rho_a, atol=1e-13)


def test_partial_trace_index_summation_oracle(rng):
    from entroflow import random_density_matrix

    shape = as_shape([2, 2])
    for _ in range(5):
        rho = random_density_matrix(4, rng)
        np.testing.assert_allclose(
            partial_trace(rho, shape, 0), ptrace_oracle_keep0(rho, 2, 2), atol=1e-14
        )
        np.testing.assert_allclose(
            partial_trace(rho, shape, 1), ptrace_oracle_keep1(rho, 2, 2), atol=1e-14
        )


def test_partial_trace_preserves_trace_and_linearity(rng):
    from entroflow import random_density_matrix

    shape = as_shape([3, 2])
    rho = random_density_matrix(6, rng)
    sigma = random_density_matrix(6, rng)
    assert abs(np.trace(partial_trace(rho, shape, 0)) - 1.0) < 1e-12
    mix = 0.3 * rho + 0.7 * sigma
    np.testing.assert_allclose(
        partial_trace(mix, shape, 1),
        0.3 * partial_trace(rho, shape, 1) + 0.7 * partial_trace(sigma, shape, 1),
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
        partial_trace(commutator(xi2, rho), shape, 0), np.zeros((3, 3)), atol=1e-13
    )


def test_matrix_exp_zero_is_identity():
    np.testing.assert_allclose(matrix_exp(np.zeros((4, 4))), np.eye(4), atol=1e-14)


def test_matrix_log_diagonal_roundtrip():
    A = np.diag([1.0, 2.0]).astype(complex)
    np.testing.assert_allclose(matrix_log(matrix_exp(A)), A, atol=1e-13)


def test_matrix_log_rejects_non_positive():
    with pytest.raises(DomainError):
        matrix_log(np.diag([1.0, -0.5]).astype(complex))
    with pytest.raises(DomainError):
        matrix_power(np.diag([1.0, 0.0]).astype(complex), 0.5)


def test_exp_no_homomorphism_when_noncommuting(rng):
    A = random_hermitian(3, rng)
    B = random_hermitian(3, rng)
    gap = np.linalg.norm(matrix_exp(A + B) - matrix_exp(A) @ matrix_exp(B))
    assert gap > 1e-3
    # commuting pair: polynomials of one matrix
    C = A @ A - 0.4 * A
    gap_c = np.linalg.norm(matrix_exp(A + C) - matrix_exp(A) @ matrix_exp(C))
    assert gap_c < 1e-12


def test_exp_log_roundtrip_diagonal_full_range():
    # commuting case is exact over the whole advertised spectral window
    w = np.linspace(-20.0, 20.0, 11)
    A = np.diag(w).astype(complex)
    np.testing.assert_allclose(matrix_log(matrix_exp(A)), A, atol=1e-10)


def test_exp_log_roundtrip_dense_bounded_spread(rng):
    # dense Hermitian inputs with spectra inside [-6, 6]
    for _ in range(10):
        A = random_hermitian(6, rng, scale=2.0)
        A *= 6.0 / max(6.0, np.abs(np.linalg.eigvalsh(A)).max())
        err = np.abs(matrix_log(matrix_exp(A)) - A).max()
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
        err = np.abs(matrix_log(matrix_exp(A)) - A).max()
    except DomainError:
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
    np.testing.assert_allclose(frechet_exp(A, E), matrix_exp(A) @ E, atol=1e-11)


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
        fd = (matrix_exp(A + FD_STEP * E) - matrix_exp(A - FD_STEP * E)) / (2 * FD_STEP)
        got = frechet_exp(A, E)
        rel = np.linalg.norm(got - fd) / np.linalg.norm(fd)
        assert rel <= FRECHET_REL_TOL


def test_frechet_exp_adjoint_identity(rng):
    # d/ds exp(A + s[A,E])|_0 = [exp(A), E]; the direction [A,E] is
    # anti-Hermitian, so this also exercises non-Hermitian directions.
    for _ in range(5):
        A = random_hermitian(4, rng)
        E = random_hermitian(4, rng)
        lhs = frechet_exp(A, commutator(A, E))
        rhs = commutator(matrix_exp(A), E)
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
        for a, Fa in enumerate(mats):
            assert np.abs(Fa - Fa.conj().T).max() < 1e-14
            assert abs(np.trace(Fa)) < 1e-14
            for b, Fb in enumerate(mats):
                gram = np.trace(Fa @ Fb).real
                assert abs(gram - (1.0 if a == b else 0.0)) < 1e-12


def test_product_basis_sector_structure():
    shape = as_shape([3, 3])
    basis = product_basis(shape)
    assert basis.size == 80
    assert len(basis.local_indices(0)) == 8
    assert len(basis.local_indices(1)) == 8
    assert len(basis.correlation_indices()) == 64
    labels = set(basis.sector_labels)
    assert labels == {"local:0", "local:1", "corr:0,1"}
    # Hilbert-Schmidt Gram matrix of the full stack
    flat = basis.stack.reshape(80, -1)
    gram = np.real(flat @ flat.conj().T)
    np.testing.assert_allclose(gram, np.eye(80), atol=1e-10)


def test_product_basis_single_system():
    basis = product_basis(as_shape([3]))
    assert basis.size == 8
    assert set(basis.sector_labels) == {"local:0"}


def test_as_shape_rejects_bad_dims():
    with pytest.raises(UnsupportedShapeError):
        as_shape([1, 3])
    with pytest.raises(UnsupportedShapeError):
        as_shape([])
