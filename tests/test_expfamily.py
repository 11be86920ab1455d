"""Matrix exponential family chart: psi, mu, BKM metric, entropy gradient.

Finite-difference oracles read only the log-partition psi of each point, so
the metric and gradient formulas are checked against an independent route.
"""

import numpy as np
import pytest
import scipy.linalg

from entroflow import (
    BoundaryStateError,
    OperatorBasis,
    as_shape,
    bkm_kernel_matrix,
    gibbs_state,
    make_point,
    marginal_entropies,
    params_from_state,
    product_basis,
    random_density_matrix,
    regularized_origin,
    state_from_params,
    von_neumann_entropy,
)
from tests.reference_geometry import kron_stack, metric_theta

PSI_FD_STEP = 3e-4
MU_FD_STEP = 1e-5
GRAD_FD_STEP = 1e-5


def fd_gradient_psi(theta, basis, h=MU_FD_STEP):
    m = len(theta)
    out = np.empty(m)
    for a in range(m):
        e = np.zeros(m)
        e[a] = h
        out[a] = (make_point(theta + e, basis).psi - make_point(theta - e, basis).psi) / (2 * h)
    return out


def fd_hessian_psi(theta, basis, h=PSI_FD_STEP):
    m = len(theta)
    H = np.empty((m, m))

    def psi(t):
        return make_point(t, basis).psi

    base = psi(theta)
    for a in range(m):
        ea = np.zeros(m)
        ea[a] = h
        H[a, a] = (psi(theta + ea) - 2 * base + psi(theta - ea)) / h**2
        for b in range(a + 1, m):
            eb = np.zeros(m)
            eb[b] = h
            H[a, b] = H[b, a] = (
                psi(theta + ea + eb)
                - psi(theta + ea - eb)
                - psi(theta - ea + eb)
                + psi(theta - ea - eb)
            ) / (4 * h**2)
    return H


def qubit_sigma_z_basis():
    sz = np.diag([1.0, -1.0]).astype(complex) / np.sqrt(2.0)
    return OperatorBasis(as_shape([2]), (sz[None],), ((0,),))


def test_log_partition_at_zero():
    for dims in ([2], [3], [3, 3]):
        basis = product_basis(as_shape(dims))
        d = basis.shape.total_dim
        assert abs(make_point(np.zeros(basis.size), basis).psi - np.log(d)) < 1e-14


def test_log_partition_qubit_closed_form():
    basis = qubit_sigma_z_basis()
    for s in (-2.0, 0.3, 5.0):
        got = make_point(np.array([s]), basis).psi
        assert abs(got - np.log(2 * np.cosh(s / np.sqrt(2)))) < 1e-12


def test_log_partition_overflow_guard():
    """psi is shifted by the top eigenvalue of K, so it stays exact where
    exp(K) alone loses the small levels.  K is traceless, so a top eigenvalue
    past the float64 range of exp puts the bottom of the state below
    STATE_UNDERFLOW_FLOOR: the chart refuses it instead of returning inf."""
    basis = product_basis(as_shape([3]))
    theta = np.zeros(8)
    theta[7] = 300.0  # K = diag(1, 1, -2) * 300 / sqrt(6)
    top = 300.0 / np.sqrt(6.0)
    psi = make_point(theta, basis).psi
    assert abs(psi - (top + np.log(2.0 + np.exp(-3.0 * top)))) <= 1e-12 * top
    theta[7] = 900.0  # naive trace-exp overflows float64
    with pytest.raises(BoundaryStateError):
        make_point(theta, basis)


def test_log_partition_convexity(rng):
    basis = product_basis(as_shape([2, 2]))
    for _ in range(20):
        t1 = rng.normal(size=15)
        t2 = rng.normal(size=15)
        mid = make_point(0.5 * t1 + 0.5 * t2, basis).psi
        assert mid <= 0.5 * make_point(t1, basis).psi + 0.5 * make_point(t2, basis).psi + 1e-12


def test_state_from_params_at_zero():
    basis = product_basis(as_shape([3]))
    np.testing.assert_allclose(state_from_params(np.zeros(8), basis), np.eye(3) / 3, atol=1e-14)


def test_chart_roundtrip_random_states(rng):
    basis = product_basis(as_shape([2, 2]))
    for _ in range(10):
        # mixed toward I/4 for conditioning
        rho = 0.8 * random_density_matrix(4, rng) + 0.2 * np.eye(4) / 4
        theta = params_from_state(rho, basis)
        rho_back = state_from_params(theta, basis)
        rel = np.linalg.norm(rho_back - rho) / np.linalg.norm(rho)
        assert rel <= 1e-9


def test_regularized_origin_marginals_through_chart():
    shape = as_shape([3, 3])
    basis = product_basis(shape)
    theta = params_from_state(regularized_origin(shape, 0.05), basis)
    h = marginal_entropies(state_from_params(theta, basis), shape)
    np.testing.assert_allclose(h, np.log(3.0), atol=1e-9)


def test_params_from_state_identity_and_boundary():
    basis = product_basis(as_shape([2]))
    np.testing.assert_allclose(params_from_state(np.eye(2) / 2, basis), np.zeros(3), atol=1e-12)
    with pytest.raises(BoundaryStateError):
        params_from_state(np.diag([1.0, 0.0]).astype(complex), basis)


def test_params_of_gibbs_qubit():
    # rho ∝ exp(-beta sigma_z) in the full qubit basis: theta = (0, 0, -sqrt(2) beta)
    basis = product_basis(as_shape([2]))
    beta = 0.8
    sz = np.diag([1.0, -1.0]).astype(complex)
    theta = params_from_state(gibbs_state(sz, beta), basis)
    np.testing.assert_allclose(theta, [0.0, 0.0, -np.sqrt(2.0) * beta], atol=1e-12)
    # round-trip closes
    np.testing.assert_allclose(state_from_params(theta, basis), gibbs_state(sz, beta), atol=1e-12)


def test_near_pure_parameters_diverge():
    shape = as_shape([3, 3])
    basis = product_basis(shape)
    theta = params_from_state(regularized_origin(shape, 1e-6), basis)
    assert np.linalg.norm(theta) > 10.0
    grad = -metric_theta(make_point(theta, basis))
    # metric degeneracy: gradient stays small though theta diverges
    assert np.linalg.norm(grad) < 1e-3


def test_mean_params_fd_oracle(rng):
    for dims in ([2], [3], [2, 2]):
        basis = product_basis(as_shape(dims))
        theta = rng.normal(size=basis.size) * 0.6
        mu = make_point(theta, basis).mu
        np.testing.assert_allclose(mu, fd_gradient_psi(theta, basis), atol=1e-8)


def test_mean_params_qubit_closed_form():
    basis = qubit_sigma_z_basis()
    for s in (-1.5, 0.2, 2.0):
        mu = make_point(np.array([s]), basis).mu
        assert abs(mu[0] - np.tanh(s / np.sqrt(2)) / np.sqrt(2)) < 1e-12


def test_point_invariants(rng):
    basis = product_basis(as_shape([2, 2]))
    theta = rng.normal(size=15) * 0.5
    pt = make_point(theta, basis)
    assert abs(np.trace(pt.rho) - 1.0) < 1e-10
    mu_direct = np.real(np.einsum("aij,ji->a", kron_stack(basis), pt.rho))
    np.testing.assert_allclose(pt.mu, mu_direct, atol=1e-10)
    assert np.abs(pt.metric - pt.metric.T).max() < 1e-10
    assert np.linalg.eigvalsh(pt.metric).min() > 0.0
    with pytest.raises(ValueError):
        pt.theta[0] = 99.0  # snapshot arrays are read-only


def test_metric_at_origin_is_identity_over_d():
    for dims in ([2], [3], [3, 3]):
        basis = product_basis(as_shape(dims))
        d = basis.shape.total_dim
        G = make_point(np.zeros(basis.size), basis).metric
        np.testing.assert_allclose(G, np.eye(basis.size) / d, atol=1e-12)


def test_metric_fd_hessian_oracle(rng):
    for dims in ([2], [3], [2, 2]):
        basis = product_basis(as_shape(dims))
        for _ in range(3):
            theta = rng.normal(size=basis.size) * 0.6
            pt = make_point(theta, basis)
            H = fd_hessian_psi(theta, basis)
            rel = np.linalg.norm(H - pt.metric) / np.linalg.norm(pt.metric)
            assert rel <= 1e-6


def test_metric_frechet_consistency(rng):
    """Two routes to G: the divided-difference Gram form inside make_point
    and tr(F_a dρ/dθ_b) with dρ from the Fréchet derivative."""
    from tests.reference_geometry import state_derivatives

    basis = product_basis(as_shape([2, 2]))
    theta = rng.normal(size=15) * 0.7
    pt = make_point(theta, basis)
    D = state_derivatives(pt)
    G_trace = np.real(np.einsum("aij,bji->ab", kron_stack(basis), D))
    assert np.abs(G_trace - pt.metric).max() <= 1e-9


def test_metric_boundary_error():
    basis = product_basis(as_shape([2]))
    theta = np.array([0.0, 0.0, 2000.0])  # exp underflows one eigenvalue to 0
    with pytest.raises(BoundaryStateError):
        make_point(theta, basis)


def test_entropy_and_gradient_reference_point():
    basis = product_basis(as_shape([3, 3]))
    point = make_point(np.zeros(80), basis)
    H, grad = point.entropy, -metric_theta(point)
    assert abs(H - np.log(9.0)) < 1e-12
    assert np.abs(grad).max() < 1e-12


def test_entropy_matches_spectral_entropy(rng):
    basis = product_basis(as_shape([2, 2]))
    theta = rng.normal(size=15) * 0.8
    pt = make_point(theta, basis)
    assert abs(pt.entropy - von_neumann_entropy(pt.rho)) < 1e-10


def test_entropy_gradient_fd_oracle(rng):
    for dims in ([3], [2, 2]):
        basis = product_basis(as_shape(dims))
        for _ in range(3):
            theta = rng.normal(size=basis.size) * 0.6
            grad = -metric_theta(make_point(theta, basis))
            fd = np.empty(basis.size)
            for a in range(basis.size):
                e = np.zeros(basis.size)
                e[a] = GRAD_FD_STEP
                fd[a] = (
                    make_point(theta + e, basis).entropy - make_point(theta - e, basis).entropy
                ) / (2 * GRAD_FD_STEP)
            np.testing.assert_allclose(grad, fd, atol=1e-7)


def test_entropy_concave_near_chart_origin(rng):
    """Concavity of H in theta is a local property: the Hessian at 0 is
    -G(0) < 0 but the chart-coordinate Hessian turns indefinite at scale
    ~1 (the 1-d family already shows this closed-form).  Checked inside
    the ball where it holds."""
    basis = product_basis(as_shape([3]))
    for _ in range(20):
        t1 = rng.normal(size=8) * 0.5
        t2 = rng.normal(size=8) * 0.5
        lam = rng.uniform(0.2, 0.8)
        h_mid = make_point(lam * t1 + (1 - lam) * t2, basis).entropy
        h_ends = lam * make_point(t1, basis).entropy + (1 - lam) * make_point(t2, basis).entropy
        assert h_mid >= h_ends - 1e-12


def test_entropy_concave_in_state_argument(rng):
    # the coordinate-free statement holds globally: mixing states raises entropy
    for _ in range(20):
        r1 = random_density_matrix(6, rng)
        r2 = random_density_matrix(6, rng)
        lam = rng.uniform(0.1, 0.9)
        mid = von_neumann_entropy(lam * r1 + (1 - lam) * r2)
        assert mid >= lam * von_neumann_entropy(r1) + (1 - lam) * von_neumann_entropy(r2) - 1e-12


def test_metric_degeneracy_witness():
    """Minimum BKM eigenvalue decreases monotonically as the origin
    regularisation is removed."""
    shape = as_shape([3, 3])
    basis = product_basis(shape)
    minims = []
    for eps in (0.3, 0.1, 0.03, 0.01):
        theta = params_from_state(regularized_origin(shape, eps), basis)
        minims.append(np.linalg.eigvalsh(make_point(theta, basis).metric).min())
    assert all(a > b for a, b in zip(minims, minims[1:]))
    assert minims[-1] > 0.0  # still PD at finite eps


def test_commutative_reduction_to_classical_covariance(rng):
    """Mutually commuting sufficient statistics: G must equal the classical
    covariance matrix of the diagonal statistics."""
    d = 3
    f1 = np.diag([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    f2 = np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    basis = OperatorBasis(as_shape([d]), (np.stack([f1, f2]).astype(complex),), ((0,), (1,)))
    theta = rng.normal(size=2)
    pt = make_point(theta, basis)
    # the family stays diagonal, so the populations sit on the diagonal
    rho_diag = np.diag(pt.rho).real
    stats = np.stack([np.diag(f1).real, np.diag(f2).real])
    mean = stats @ rho_diag
    cov = (stats * rho_diag) @ stats.T - np.outer(mean, mean)
    np.testing.assert_allclose(pt.metric, cov, atol=1e-10)


def test_bkm_kernel_close_pairs_opitz_oracle():
    """k(p_j, p_k) is the first divided difference of exp at w = log p: the
    (0, 1) entry of expm([[w_j, 1], [0, w_k]]).  Pairs 1e-11..1e-3 apart,
    where the quotient (p_j - p_k) / (log p_j - log p_k) loses digits."""
    p = np.array([0.2, 0.2 * (1 + 1e-11), 0.3, 0.3 * (1 + 1e-7), 0.1, 0.1 * (1 + 1e-3)])
    p /= p.sum()
    w = np.log(p)
    B = np.zeros((w.size, w.size, 2, 2))
    B[..., 0, 0] = w[:, None]
    B[..., 1, 1] = w[None, :]
    B[..., 0, 1] = 1.0
    ref = scipy.linalg.expm(B.reshape(-1, 2, 2))[:, 0, 1].reshape(w.size, w.size)
    assert np.max(np.abs(bkm_kernel_matrix(p) - ref) / ref) <= 1e-12
