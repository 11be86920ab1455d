"""Acceptance gate: nine numbered end-to-end checks, each with explicit
numeric tolerances and a wall-clock budget.

Every test prints one ``acceptance k/9 ... PASS`` line (visible under
``pytest -s``); an assertion failure in test k is the corresponding FAIL.
The same numbering is documented in the README.
"""

import time

import numpy as np
import scipy.linalg
from scipy.special import logsumexp

from entroflow import (
    FlowConfig,
    as_shape,
    classical_origin_infeasible,
    constraint_geometry,
    constraint_max,
    entropy_time_fit,
    gibbs_entropy_derivative,
    gibbs_lock_residual,
    gibbs_state,
    integrate,
    lme_origin,
    make_point,
    marginal_entropies,
    modular_hamiltonian,
    multi_information,
    params_from_state,
    product_basis,
    random_density_matrix,
    random_hermitian,
    random_joint_distribution,
    regularized_origin,
    shannon_entropies,
    soft_mode_count,
    state_from_params,
    stiffness_spectrum,
    von_neumann_entropy,
)
from entroflow.operators import marginals
from tests.reference_geometry import kron_stack, metric_theta, state_derivatives
from tests.test_expfamily import fd_hessian_psi

LOG3 = np.log(3.0)
EPS = 0.05


def _report(k, name, dt, budget, detail):
    print(f"acceptance {k}/9 {name}: PASS ({dt:.2f}s < {budget:.0f}s; {detail})")


def test_acceptance_1_origin_invariants():
    t0 = time.monotonic()
    shape = as_shape([3, 3])
    rho = lme_origin(shape)
    H = von_neumann_entropy(rho)
    h = marginal_entropies(rho, shape)
    cmax = constraint_max(shape)
    info = multi_information(rho, shape)
    assert abs(H) <= 1e-10
    assert np.abs(h - LOG3).max() <= 1e-10
    assert abs(cmax - 2 * LOG3) <= 1e-10
    assert abs(info - 2 * LOG3) <= 1e-10
    dt = time.monotonic() - t0
    assert dt < 1.0
    _report(1, "entangled-origin invariants", dt, 1, f"H={H:.1e}, I={info:.12f}")


def test_acceptance_2_classical_entropy_caps():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    slack = 1e-12
    violations = 0
    worst_excess = -np.inf
    worst_conditional = np.inf
    for _ in range(10_000):
        n1 = int(rng.integers(2, 6))
        n2 = int(rng.integers(2, 6))
        j = random_joint_distribution(n1, n2, rng)
        h1, h2, h12 = shannon_entropies(j)
        cond_x = h12 - h2
        cond_y = h12 - h1
        excess = h1 + h2 - h12 - min(h1, h2)
        gap = classical_origin_infeasible(j)
        assert gap == min(cond_x, cond_y)
        worst_excess = max(worst_excess, excess)
        worst_conditional = min(worst_conditional, gap)
        if gap < -slack or excess > slack:
            violations += 1
    assert violations == 0
    dt = time.monotonic() - t0
    assert dt < 10.0
    _report(
        2,
        "classical conditional/mutual caps",
        dt,
        10,
        f"10000 tables, worst excess {worst_excess:.1e}, worst conditional {worst_conditional:.1e}",
    )


def test_acceptance_3_metric_dual_route():
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    worst_fd = 0.0
    worst_consistency = 0.0
    for dims, count in (([2], 17), ([3], 17), ([2, 2], 16)):
        basis = product_basis(as_shape(dims))
        for _ in range(count):
            point = make_point(rng.normal(size=basis.size) * 0.5, basis)
            G = point.metric
            fd = fd_hessian_psi(point.theta, basis)
            worst_fd = max(worst_fd, np.linalg.norm(G - fd) / np.linalg.norm(G))
            D = state_derivatives(point)
            direct = np.einsum("aij,bji->ab", kron_stack(basis), D).real
            worst_consistency = max(worst_consistency, np.abs(direct - G).max())
    assert worst_fd <= 1e-6
    assert worst_consistency <= 1e-9
    dt = time.monotonic() - t0
    assert dt < 30.0
    _report(
        3,
        "curvature = metric, two routes",
        dt,
        30,
        f"50 points, FD rel {worst_fd:.1e}, route gap {worst_consistency:.1e}",
    )


def _batched_spectral_entropy(Ks):
    """Entropy of exp(K)/tr exp(K) for a stack of generators, via spectra:
    H = log Z - sum_k p_k w_k with p = softmax(w)."""
    w = np.linalg.eigvalsh(Ks)
    logZ = logsumexp(w, axis=-1)
    p = np.exp(w - logZ[..., None])
    return logZ - (p * w).sum(axis=-1)


def test_acceptance_4_entropy_gradient():
    t0 = time.monotonic()
    rng = np.random.default_rng(4)
    shape = as_shape([3, 3])
    basis = product_basis(shape)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        theta = rng.normal(size=80) * 0.4
        point = make_point(theta, basis)
        grad = -metric_theta(point)
        # K is linear in theta, so K(theta + h e_a) = K + h F_a for every a
        # at once; the FD oracle then needs two batched eigh calls per point.
        K = point.generator
        fd = (
            _batched_spectral_entropy(K[None] + h * kron_stack(basis))
            - _batched_spectral_entropy(K[None] - h * kron_stack(basis))
        ) / (2 * h)
        worst = max(worst, np.abs(grad - fd).max())
    assert worst <= 1e-7
    dt = time.monotonic() - t0
    assert dt < 10.0
    _report(4, "entropy gradient vs finite differences", dt, 10, f"50 points, max gap {worst:.1e}")


def test_acceptance_5_game_flow_saturates():
    t0 = time.monotonic()
    shape = as_shape([3, 3])
    basis = product_basis(shape)
    theta0 = params_from_state(regularized_origin(shape, EPS), basis)
    traj = integrate(theta0, basis, FlowConfig(rate_min=1e-8), clock="game", duration=15.0)
    assert traj.status == "stationary"
    assert traj.rate[-1] < 1e-8
    c_drift = np.abs(traj.C - 2 * LOG3).max()
    assert c_drift <= 1e-6
    rho_end = state_from_params(traj.theta[-1], basis)
    marg_dist = max(
        np.linalg.norm(marginals(rho_end, shape)[i] - np.eye(3) / 3) for i in (0, 1)
    )
    assert marg_dist <= 1e-6
    dt = time.monotonic() - t0
    assert dt < 120.0
    _report(
        5,
        "game-clock flow to stationarity",
        dt,
        120,
        f"C drift {c_drift:.1e}, final marginal gap {marg_dist:.1e}",
    )


def test_acceptance_6_entropy_clock_linearity():
    t0 = time.monotonic()
    shape = as_shape([3, 3])
    basis = product_basis(shape)
    rho0 = regularized_origin(shape, EPS)
    theta0 = params_from_state(rho0, basis)
    traj = integrate(
        theta0, basis, FlowConfig(c=1.0, rate_min=1e-10), clock="entropy", duration=3.0
    )
    assert traj.status == "stationary"
    slope, _, r2 = entropy_time_fit(traj)
    assert abs(slope - 1.0) <= 1e-4
    assert r2 > 1 - 1e-8
    assert abs(traj.H[0] - von_neumann_entropy(rho0)) <= 1e-9
    assert traj.H[-1] < 2 * LOG3
    assert 2 * LOG3 - traj.H[-1] <= 1e-6
    dt = time.monotonic() - t0
    assert dt < 120.0
    _report(
        6,
        "entropy-clock linearity",
        dt,
        120,
        f"slope-1={slope - 1.0:.1e}, 1-R2={1 - r2:.1e}, top gap {2 * LOG3 - traj.H[-1]:.1e}",
    )


def test_acceptance_7_origin_second_order_geometry():
    t0 = time.monotonic()
    shape = as_shape([3, 3])
    basis = product_basis(shape)
    details = []
    for eps in (0.1, 0.03, 0.01):
        theta = params_from_state(regularized_origin(shape, eps), basis)
        point = make_point(theta, basis)
        geom = constraint_geometry(point, include_hessian=True)
        grad_norm = float(np.linalg.norm(geom.grad))
        assert grad_norm <= 1e-8
        max_eig = float(np.linalg.eigvalsh(geom.hessian)[-1])
        assert max_eig <= 1e-6
        evals, evecs = stiffness_spectrum(point, geom.hessian)
        kdim = geom.kernel.shape[1]
        soft = soft_mode_count(evals)
        assert soft == kdim == 64
        angle = float(scipy.linalg.subspace_angles(evecs[:, :kdim], geom.kernel).max())
        assert angle < 1e-3
        details.append(f"eps={eps}: |a|={grad_norm:.1e}, angle={angle:.1e}")
    dt = time.monotonic() - t0
    assert dt < 300.0
    _report(7, "second-order admissibility at the origin", dt, 300, "; ".join(details))


def test_acceptance_8_reversible_and_combined_conservation():
    t0 = time.monotonic()
    shape = as_shape([3, 3])
    basis = product_basis(shape)
    rng = np.random.default_rng(8)
    parts = ((0, random_hermitian(3, rng)), (1, random_hermitian(3, rng)))

    theta0 = rng.normal(size=80) * 0.15
    rev_cfg = FlowConfig(atol=1e-10, rtol=1e-10, xi_parts=parts)
    rev = integrate(theta0, basis, rev_cfg, clock="game", duration=2.0, kind="reversible")
    assert rev.status == "completed"
    h_drift = float(np.abs(rev.H - rev.H[0]).max())
    marg_drift = float(np.abs(rev.marginals - rev.marginals[0]).max())
    assert h_drift <= 1e-8
    assert marg_drift <= 1e-8

    theta_origin = params_from_state(regularized_origin(shape, EPS), basis)
    gen_cfg = FlowConfig(c=1.0, rate_min=1e-8, xi_parts=parts)
    gen = integrate(theta_origin, basis, gen_cfg, clock="entropy", duration=3.0, kind="combined")
    assert gen.status == "stationary"
    gen_c_drift = float(np.abs(gen.C - 2 * LOG3).max())
    assert gen_c_drift <= 1e-6
    rho_end = state_from_params(gen.theta[-1], basis)
    marg_dist = max(
        np.linalg.norm(marginals(rho_end, shape)[i] - np.eye(3) / 3) for i in (0, 1)
    )
    assert marg_dist <= 1e-6
    slope, _, r2 = entropy_time_fit(gen)
    assert abs(slope - 1.0) <= 1e-4
    assert r2 > 1 - 1e-8
    dt = time.monotonic() - t0
    assert dt < 120.0
    _report(
        8,
        "reversible/combined sector conservation",
        dt,
        120,
        f"reversible H drift {h_drift:.1e}, marginal drift {marg_drift:.1e}; "
        f"combined C drift {gen_c_drift:.1e}, slope-1={slope - 1.0:.1e}",
    )


def test_acceptance_9_modular_identities():
    t0 = time.monotonic()
    shape = as_shape([3, 3])
    rng = np.random.default_rng(9)

    worst_identity = 0.0
    for _ in range(100):
        rho = random_density_matrix(9, rng)
        for i in (0, 1):
            rho_i = marginals(rho, shape)[i]
            gap = abs(
                von_neumann_entropy(rho_i)
                - float(np.real(np.trace(rho_i @ modular_hamiltonian(rho_i))))
            )
            worst_identity = max(worst_identity, gap)
    assert worst_identity <= 1e-10

    worst_beta = 0.0
    for _ in range(20):
        H = random_hermitian(3, rng)
        beta = float(rng.uniform(0.1, 2.0))
        beta_star, _ = gibbs_lock_residual(gibbs_state(H, beta), H)
        worst_beta = max(worst_beta, abs(beta_star - beta))
    assert worst_beta <= 1e-6

    sz = np.diag([1.0, -1.0])
    worst_deriv = 0.0
    for beta in np.linspace(0.0, 2.0, 21):
        expect = -beta / np.cosh(beta) ** 2
        worst_deriv = max(worst_deriv, abs(gibbs_entropy_derivative(sz, beta) - expect))
    assert worst_deriv <= 1e-7

    dt = time.monotonic() - t0
    assert dt < 10.0
    _report(
        9,
        "modular energy and thermal locking",
        dt,
        10,
        f"identity gap {worst_identity:.1e}, beta gap {worst_beta:.1e}, "
        f"derivative gap {worst_deriv:.1e}",
    )
