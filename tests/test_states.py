"""Density matrices, entropies, and the entangled origin."""

import numpy as np
import pytest

from entroflow import (
    BoundaryStateError,
    UnsupportedShapeError,
    as_shape,
    gibbs_state,
    lme_origin,
    marginal_entropies,
    modular_hamiltonian,
    multi_information,
    params_from_state,
    product_basis,
    random_density_matrix,
    regularized_origin,
    von_neumann_entropy,
)
from entroflow.operators import marginals

LOG3 = np.log(3.0)


def test_entropy_reference_values():
    shape = as_shape([3, 3])
    origin = lme_origin(shape)
    assert abs(von_neumann_entropy(origin)) < 1e-12
    assert abs(von_neumann_entropy(np.eye(3) / 3) - LOG3) < 1e-12
    assert abs(von_neumann_entropy(np.eye(9) / 9) - 2 * LOG3) < 1e-12


def test_lme_origin_q3_vector_form():
    shape = as_shape([3, 3])
    rho = lme_origin(shape)
    phi = np.zeros(9)
    phi[[0, 4, 8]] = 1.0 / np.sqrt(3.0)  # (|00> + |11> + |22>)/sqrt(3)
    np.testing.assert_allclose(rho, np.outer(phi, phi), atol=1e-14)
    h = marginal_entropies(rho, shape)
    np.testing.assert_allclose(h, [LOG3, LOG3], atol=1e-12)


def test_lme_origin_q2():
    shape = as_shape([2, 2])
    rho = lme_origin(shape)
    assert abs(von_neumann_entropy(rho)) < 1e-12
    np.testing.assert_allclose(marginals(rho, shape)[0], np.eye(2) / 2, atol=1e-14)


def test_lme_origin_rejects_unsupported_shapes():
    for dims in ([2, 3], [2, 2, 3], [3]):
        with pytest.raises(UnsupportedShapeError):
            lme_origin(as_shape(dims))


@pytest.mark.parametrize("dims", [[2, 2, 2], [2, 2, 2, 2], [3, 3, 3]])
def test_lme_origin_is_ghz(dims):
    """sum_k |k...k> / sqrt(q): pure, every marginal exactly I/q."""
    shape = as_shape(dims)
    q = dims[0]
    rho = lme_origin(shape)
    phi = np.zeros(shape.total_dim)
    for k in range(q):
        phi[np.ravel_multi_index((k,) * len(dims), dims)] = 1.0 / np.sqrt(q)
    np.testing.assert_allclose(rho, np.outer(phi, phi), atol=1e-14)
    for rho_i in marginals(rho, shape):
        np.testing.assert_allclose(rho_i, np.eye(q) / q, atol=1e-14)


def test_regularized_origin_spectrum_and_marginals():
    shape = as_shape([3, 3])
    for eps in (0.01, 0.05, 0.3):
        rho = regularized_origin(shape, eps)
        w = np.sort(np.linalg.eigvalsh(rho))
        np.testing.assert_allclose(w[:8], np.full(8, eps / 9), atol=1e-14)
        assert abs(w[-1] - (1 - eps + eps / 9)) < 1e-14
        h = marginal_entropies(rho, shape)
        np.testing.assert_allclose(h, [LOG3, LOG3], atol=1e-12)
    with pytest.raises(ValueError):
        regularized_origin(shape, 0.0)
    with pytest.raises(ValueError):
        regularized_origin(shape, 1.0)


def test_regularized_origin_purity_decreasing():
    shape = as_shape([3, 3])
    states = [regularized_origin(shape, e) for e in np.linspace(0.05, 0.95, 10)]
    values = [np.trace(rho @ rho).real for rho in states]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_multi_information_reference_values(rng):
    shape = as_shape([3, 3])
    assert abs(multi_information(lme_origin(shape), shape) - 2 * LOG3) < 1e-12
    assert abs(multi_information(np.eye(9) / 9, shape)) < 1e-12
    prod = np.kron(random_density_matrix(3, rng), random_density_matrix(3, rng))
    assert abs(multi_information(prod, shape)) < 1e-10


def test_multi_information_nonnegative(rng):
    shape = as_shape([2, 3])
    for _ in range(50):
        rho = random_density_matrix(6, rng)
        assert multi_information(rho, shape) >= -1e-10


def test_marginal_entropy_bounded_by_log_dim(rng):
    shape = as_shape([3, 2])
    for _ in range(50):
        rho = random_density_matrix(6, rng)
        h1, h2 = marginal_entropies(rho, shape)
        assert h1 <= LOG3 + 1e-10
        assert h2 <= np.log(2.0) + 1e-10


def test_negative_conditional_entropy_at_origin():
    # H_{A|B} = H_{AB} - h_B = -log q < 0 for the entangled origin
    shape = as_shape([3, 3])
    rho = lme_origin(shape)
    h_cond = von_neumann_entropy(rho) - marginal_entropies(rho, shape)[1]
    assert h_cond < 0
    assert abs(h_cond + LOG3) < 1e-12


def test_gibbs_state_closed_form():
    H = np.diag([1.0, -1.0]).astype(complex)
    for beta in (0.7, 0.0, -0.7):
        rho = gibbs_state(H, beta)
        z = np.exp(-beta) + np.exp(beta)
        np.testing.assert_allclose(
            np.diag(rho).real, [np.exp(-beta) / z, np.exp(beta) / z], atol=1e-14
        )


@pytest.mark.parametrize("beta, level", [(1e308, 0), (-1e308, 2)])
def test_gibbs_state_at_extreme_beta_is_the_pure_level(beta, level):
    """A beta that overflows the exponent gives the pure extreme level, not NaN
    and no overflow warning (the suite turns RuntimeWarning into an error)."""
    H = np.diag([-2.0, 0.5, 3.0]).astype(complex)
    expected = np.zeros((3, 3))
    expected[level, level] = 1.0
    np.testing.assert_array_equal(gibbs_state(H, beta), expected)


def test_state_log_rejects_boundary():
    """Both routes that take the log of a state reject one at the full-rank floor."""
    rho = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(BoundaryStateError):
        params_from_state(rho, product_basis(as_shape([2])))
    with pytest.raises(BoundaryStateError):
        modular_hamiltonian(rho)
