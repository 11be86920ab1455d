"""Modular generators of marginals, thermal locking, and the thermal family.

Oracles for the beta fit, which the library solves in closed form: the
objective |K - beta T|_F^2 (traceless parts) is quadratic, so the optimum is
beta = Re<T, K> / |T|^2 (``beta_fit_oracle``), and off the thermal family
the residual must grow on both sides of the returned beta.
"""

import warnings

import numpy as np
import pytest

from entroflow import (
    BoundaryStateError,
    FlowConfig,
    as_shape,
    gibbs_entropy_derivative,
    gibbs_lock_residual,
    gibbs_state,
    integrate,
    marginal_entropies,
    modular_energy_sum,
    modular_hamiltonian,
    params_from_state,
    random_density_matrix,
    random_hermitian,
    regularized_origin,
    state_from_params,
    total_modular_consistency,
    von_neumann_entropy,
)
from entroflow.operators import marginals

LOG3 = np.log(3.0)


def _traceless(X):
    d = X.shape[0]
    return X - (np.trace(X) / d) * np.eye(d, dtype=X.dtype)


def beta_fit_oracle(rho_i, H_local):
    K = _traceless(np.asarray(modular_hamiltonian(rho_i)))
    T = _traceless(np.asarray(H_local, dtype=complex))
    return float(np.real(np.vdot(T, K))) / float(np.real(np.vdot(T, T)))


def test_modular_hamiltonian_of_maximally_mixed():
    for d in (2, 3, 4):
        K = modular_hamiltonian(np.eye(d) / d)
        np.testing.assert_allclose(K, np.log(d) * np.eye(d), atol=1e-12)


def test_modular_hamiltonian_of_gibbs_state(rng):
    H = random_hermitian(3, rng)
    log_z = np.log(np.exp(-0.9 * np.linalg.eigvalsh(H)).sum())
    K = modular_hamiltonian(gibbs_state(H, 0.9))
    np.testing.assert_allclose(K, 0.9 * H + log_z * np.eye(3), atol=1e-10)


def test_modular_hamiltonian_roundtrip(rng):
    import scipy.linalg

    rho = random_density_matrix(4, rng)
    K = modular_hamiltonian(rho)
    back = scipy.linalg.expm(-K)
    back = back / np.trace(back)
    np.testing.assert_allclose(back, rho, atol=1e-12)


def test_modular_hamiltonian_rejects_rank_deficient():
    with pytest.raises(BoundaryStateError):
        modular_hamiltonian(np.diag([1.0, 0.0, 0.0]))


def test_modular_energy_equals_marginal_entropy_sum(rng):
    shape = as_shape([3, 3])
    assert abs(modular_energy_sum(regularized_origin(shape, 0.1), shape) - 2 * LOG3) < 1e-10
    assert abs(modular_energy_sum(np.eye(9) / 9, shape) - 2 * LOG3) < 1e-10
    for _ in range(20):
        rho = random_density_matrix(9, rng)
        assert total_modular_consistency(rho, shape) < 1e-10
        expect = float(marginal_entropies(rho, shape).sum())
        assert abs(modular_energy_sum(rho, shape) - expect) < 1e-10


def test_modular_energy_along_trajectory(qutrit_pair):
    shape, basis = qutrit_pair
    theta0 = params_from_state(regularized_origin(shape, 0.05), basis)
    traj = integrate(theta0, basis, FlowConfig(), clock="game", duration=1.5)
    for k in range(traj.n_samples):
        rho = state_from_params(traj.theta[k], basis)
        assert abs(modular_energy_sum(rho, shape) - traj.C[k]) < 1e-10


def test_beta_recovery_on_planted_thermal_marginal(rng):
    for beta in (0.7, -0.4, 2.1):
        H = random_hermitian(3, rng)
        rho_i = gibbs_state(H, beta)
        beta_star, resid = gibbs_lock_residual(rho_i, H)
        assert abs(beta_star - beta) <= 1e-8
        assert resid <= 1e-9
        assert abs(beta_star - beta_fit_oracle(rho_i, H)) <= 1e-8


def test_beta_zero_at_maximally_mixed(rng):
    H = random_hermitian(3, rng)
    beta_star, resid = gibbs_lock_residual(np.eye(3) / 3, H)
    assert abs(beta_star) <= 1e-8
    assert resid <= 1e-8


def test_beta_fit_matches_quadratic_oracle_off_family(rng):
    """Even where the residual cannot vanish the fit must still return the
    least-squares beta."""
    shape = as_shape([3, 3])
    for _ in range(5):
        rho_i = marginals(random_density_matrix(9, rng), shape)[0]
        H = random_hermitian(3, rng)
        beta_star, resid = gibbs_lock_residual(rho_i, H)
        assert resid > 1e-6  # a random marginal is not thermal for a random H
        assert abs(beta_star - beta_fit_oracle(rho_i, H)) <= 1e-7
        K = _traceless(modular_hamiltonian(rho_i))
        T = _traceless(H)
        for beta in (beta_star - 1e-3, beta_star + 1e-3):
            assert np.linalg.norm(K - beta * T) > resid


def test_beta_fit_rejects_trivial_generator():
    with pytest.raises(ValueError):
        gibbs_lock_residual(np.eye(3) / 3, 2.3 * np.eye(3))


def test_gibbs_entropy_derivative_closed_form():
    sz = np.diag([1.0, -1.0])
    assert gibbs_entropy_derivative(sz, 0.0) == 0.0
    for beta in (0.3, 1.0, 2.5, -0.8):
        expect = -beta / np.cosh(beta) ** 2
        assert abs(gibbs_entropy_derivative(sz, beta) - expect) <= 1e-12


def test_gibbs_entropy_derivative_matches_fd(rng):
    H = random_hermitian(4, rng)
    delta = 1e-5
    for beta in (0.0, 0.6, 1.7):
        fd = (
            von_neumann_entropy(gibbs_state(H, beta + delta))
            - von_neumann_entropy(gibbs_state(H, beta - delta))
        ) / (2 * delta)
        assert abs(gibbs_entropy_derivative(H, beta) - fd) <= 1e-7


def test_gibbs_entropy_monotone_for_positive_beta(rng):
    H = random_hermitian(3, rng)
    betas = np.linspace(0.0, 3.0, 16)
    h = [von_neumann_entropy(gibbs_state(H, b)) for b in betas]
    assert np.all(np.diff(h) < 0)


def test_gibbs_family_state_invariants(rng):
    H = random_hermitian(4, rng)
    rho = gibbs_state(H, 1.3)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.linalg.norm(rho - rho.conj().T) < 1e-14
    assert np.linalg.eigvalsh(rho)[0] > 0
    w, U = np.linalg.eigh(H)
    p = np.exp(-1.3 * w) / np.exp(-1.3 * w).sum()
    np.testing.assert_allclose(rho, (U * p) @ U.conj().T, rtol=0, atol=1e-12)


def test_gibbs_family_log_partition_at_large_beta():
    # Z = e^800 + e^-200 + e^-1200 overflows a float; the derivative never
    # forms Z, so it runs without a warning and vanishes with the variance
    # of the pure ground level.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        deriv = gibbs_entropy_derivative(np.diag([-2.0, 0.5, 3.0]), 400.0)
    assert deriv == 0.0

