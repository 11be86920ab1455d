"""Flow layer: velocity fields, the adaptive integrator, and the exact
two-qutrit ray solution.

Closed-form oracle used throughout: from the regularised origin the radial
direction is fixed by the projector at every point of the ray, so game time
acts by pure exponential decay, theta(tau) = exp(-tau) * theta0, and every
trajectory quantity follows from the one-parameter spectrum
(e^{s c}, 1, ..., 1)/(e^{s c} + 8) with s = exp(-tau), c = log(p1/p2).
"""

import numpy as np
import pytest
from scipy.optimize import brentq

import entroflow.flow
from entroflow import (
    ConservationError,
    DegenerateProjectionError,
    FlowConfig,
    FullyConstrainedError,
    NonLocalGeneratorError,
    NumericalDegeneracyError,
    StationaryPointError,
    StiffRegionError,
    assemble_local_generator,
    constraint_geometry,
    entropy_time_fit,
    as_shape,
    commutator,
    integrate,
    local_block_projection,
    make_point,
    metric_theta,
    params_from_state,
    partial_trace,
    product_basis,
    random_hermitian,
    regularized_origin,
    reversible_velocity,
    state_derivatives,
    state_from_params,
    tensor_product,
)
from tests.conftest import origin_point
from tests.reference_geometry import (
    combined_velocity,
    dissipative_velocity,
    entropy_production_rate,
    entropy_time_velocity,
    marginal_jacobian,
    reference_geometry,
)

EPS = 0.05
LOG3 = np.log(3.0)


def ray_constant(eps):
    p1 = 1.0 - 8.0 * eps / 9.0
    return np.log(p1 / (eps / 9.0)), p1


def ray_entropy(s, eps):
    c, _ = ray_constant(eps)
    z = np.exp(s * c)
    return np.log(z + 8.0) - s * c * z / (z + 8.0)


def ray_rate(s, eps):
    c, _ = ray_constant(eps)
    z = np.exp(s * c)
    p = z / (z + 8.0)
    return s**2 * c**2 * p * (1.0 - p)


@pytest.fixture(scope="module")
def ray_runs(qutrit_pair):
    shape, basis = qutrit_pair
    theta0 = params_from_state(regularized_origin(shape, EPS), basis)
    cfg = FlowConfig()
    game = integrate(theta0, basis, cfg, clock="game", duration=3.0)
    entropy = integrate(theta0, basis, cfg, clock="entropy", duration=1.9)
    return theta0, game, entropy


def test_dissipative_velocity_identities(qutrit_pair, rng):
    shape, basis = qutrit_pair
    pt = make_point(rng.normal(size=80) * 0.2, basis)
    geom = reference_geometry(pt)
    v = dissipative_velocity(pt, geom)
    np.testing.assert_allclose(v, -(geom.projector @ pt.theta), atol=1e-12)
    assert np.abs(geom.jacobian @ v).max() < 1e-8
    rate = entropy_production_rate(pt, geom)
    assert rate >= -1e-12
    # rate is the G-norm^2 of the projected direction
    pv = geom.projector @ pt.theta
    assert abs(rate - pv @ pt.metric @ pv) < 1e-10


def test_rate_matches_fd_along_flow(qutrit_pair, rng):
    shape, basis = qutrit_pair
    theta = rng.normal(size=80) * 0.2
    pt = make_point(theta, basis)
    geom = reference_geometry(pt)
    v = dissipative_velocity(pt, geom)
    rate = entropy_production_rate(pt, geom)
    h = 1e-5
    fd = (make_point(theta + h * v, basis).entropy - make_point(theta - h * v, basis).entropy) / (
        2 * h
    )
    assert abs(fd - rate) <= 1e-6 * max(1.0, abs(rate))


def test_zero_theta_is_stationary(qutrit_pair):
    shape, basis = qutrit_pair
    pt = make_point(np.zeros(80), basis)
    geom = reference_geometry(pt)
    assert np.linalg.norm(dissipative_velocity(pt, geom)) < 1e-14
    assert entropy_production_rate(pt, geom) < 1e-14
    with pytest.raises(StationaryPointError):
        entropy_time_velocity(pt, geom, 1.0, 1e-10)


def test_local_sector_theta_is_exactly_stationary(qutrit_pair, rng):
    """Product points: a purely local K makes u^T G theta = tr(K d rho[u])
    vanish for every marginal-preserving u, so the projection of theta is
    exactly zero."""
    shape, basis = qutrit_pair
    theta = np.zeros(80)
    for idx in basis.local_indices():
        theta[idx] = 0.3 * rng.normal()
    pt = make_point(theta, basis)
    geom = reference_geometry(pt)
    v = dissipative_velocity(pt, geom)
    assert np.linalg.norm(v) <= 1e-10 * np.linalg.norm(theta)
    traj = integrate(theta, basis, FlowConfig(), clock="game", duration=1.0)
    assert traj.status == "stationary"
    assert traj.n_samples == 1


def test_entropy_time_velocity_is_scaled_dissipative(qutrit_pair, rng):
    shape, basis = qutrit_pair
    pt = make_point(rng.normal(size=80) * 0.3, basis)
    geom = reference_geometry(pt)
    c = 1.7
    v_t = entropy_time_velocity(pt, geom, c, 1e-10)
    rate = entropy_production_rate(pt, geom)
    np.testing.assert_allclose(v_t, (c / rate) * dissipative_velocity(pt, geom), atol=1e-12)


def test_reversible_velocity_identities(qutrit_pair, rng):
    shape, basis = qutrit_pair
    pt = origin_point(shape, basis, EPS)
    # identity component of xi generates nothing
    v0 = reversible_velocity(pt, np.eye(9, dtype=complex) * 0.7)
    assert np.linalg.norm(v0) < 1e-10
    # nonlocal generators are rejected
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    lam = np.zeros((3, 3))
    lam[:2, :2] = sx
    with pytest.raises(NonLocalGeneratorError):
        reversible_velocity(pt, tensor_product(lam, lam))


def test_reversible_velocity_pushforward(qutrit_pair, rng):
    shape, basis = qutrit_pair
    pt = make_point(rng.normal(size=80) * 0.2, basis)
    xi = assemble_local_generator(
        shape, ((0, random_hermitian(3, rng)), (1, random_hermitian(3, rng)))
    )
    v = reversible_velocity(pt, xi)
    # mapped back to state space the velocity is the commutator flow
    drho = np.einsum("b,bij->ij", v, state_derivatives(pt))
    target = -1j * (xi @ pt.rho - pt.rho @ xi)
    assert np.linalg.norm(drho - target) <= 1e-8 * max(1.0, np.linalg.norm(target))
    # entropy is flat along the reversible field
    assert abs((-(pt.metric @ pt.theta)) @ v) <= 1e-9 * max(1.0, np.linalg.norm(v))


def test_reversible_step_preserves_origin_marginals(qutrit_pair):
    """An Euler step along the reversible field moves the marginals only at
    second order in the step size: any first-order leak would show up as
    linear scaling here."""
    shape, basis = qutrit_pair
    pt = origin_point(shape, basis, EPS)
    lam3 = np.diag([1.0, -1.0, 0.0]).astype(complex)
    xi = assemble_local_generator(shape, ((0, lam3),))
    v = reversible_velocity(pt, xi)

    def drift(h):
        rho_step = state_from_params(pt.theta + h * v, basis)
        return max(
            np.linalg.norm(partial_trace(rho_step, shape, i) - np.eye(3) / 3) for i in (0, 1)
        )

    d3, d4 = drift(1e-3), drift(1e-4)
    assert d4 <= 1e-8
    assert 50.0 <= d3 / d4 <= 200.0


def test_combined_velocity_reduces_and_orthogonality(qutrit_pair, rng):
    shape, basis = qutrit_pair
    pt = origin_point(shape, basis, EPS)
    geom = reference_geometry(pt)
    cfg0 = FlowConfig(c=1.3)
    np.testing.assert_allclose(
        combined_velocity(pt, geom, cfg0),
        entropy_time_velocity(pt, geom, 1.3, cfg0.rate_min),
        atol=1e-12,
    )
    # G-orthogonality of the projected direction against any projector residual
    P, G = geom.projector, pt.metric
    for _ in range(5):
        x = rng.normal(size=80)
        resid = (P @ pt.theta) @ G @ (x - P @ x)
        assert abs(resid) <= 1e-10 * np.linalg.norm(x)


def regularised_correlated_state(shape, eps):
    """The regularised origin for [q, q]; otherwise (1 - eps)|GHZ><GHZ| + eps I/d
    with GHZ = (|0..0> + |1..1>)/sqrt(2), a full-rank correlated start."""
    if shape.n_subsystems == 2 and shape.dims[0] == shape.dims[1]:
        return regularized_origin(shape, eps)
    d = shape.total_dim
    psi = np.zeros(d)
    psi[[0, np.ravel_multi_index((1,) * shape.n_subsystems, shape.dims)]] = 1.0 / np.sqrt(2.0)
    return (1.0 - eps) * np.outer(psi, psi) + eps * np.eye(d) / d


@pytest.mark.parametrize("start", ["random", "origin"])
@pytest.mark.parametrize("dims", [[3, 3], [2, 3], [2, 2, 2], [2, 2, 2, 2]])
def test_local_block_field_matches_geometry_oracle(dims, start, rng):
    """The matrix-free field of integrate against the reference geometry:
    P theta, the production rate, G theta and the reversible velocity (whose
    oracle is the G solve of the pushforward), and M P theta = 0."""
    shape = as_shape(dims)
    basis = product_basis(shape)
    if start == "random":
        theta = rng.normal(size=basis.size) * 0.3
    else:
        theta = params_from_state(regularised_correlated_state(shape, EPS), basis)
    pt = make_point(theta, basis)
    geom = reference_geometry(pt)

    proj, rate = local_block_projection(pt)
    assert np.abs(proj - geom.projector @ theta).max() <= 1e-12
    assert abs(rate - entropy_production_rate(pt, geom)) <= 1e-12
    assert np.abs(metric_theta(pt) - pt.metric @ theta).max() <= 1e-12
    assert np.linalg.norm(marginal_jacobian(pt) @ proj) <= 1e-12

    xi = assemble_local_generator(
        shape, [(i, random_hermitian(q, rng)) for i, q in enumerate(shape.dims)]
    )
    w = basis.coordinates(-1j * commutator(xi, pt.rho))
    assert np.abs(reversible_velocity(pt, xi) - np.linalg.solve(pt.metric, w)).max() <= 1e-12


def test_integrate_rejects_correlated_generator(qutrit_pair, monkeypatch):
    """integrate checks the assembled generator's locality once, up front.

    Blocks from ``xi_parts`` always assemble to a local generator, so the
    assembly is swapped for a correlated one to reach the check."""
    shape, basis = qutrit_pair
    lam = np.zeros((3, 3))
    lam[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
    monkeypatch.setattr(
        entroflow.flow, "assemble_local_generator", lambda shape, parts: tensor_product(lam, lam)
    )
    theta0 = origin_point(shape, basis, EPS).theta
    cfg = FlowConfig(xi_parts=((0, lam),))
    for kind, clock in (("reversible", "game"), ("combined", "entropy")):
        with pytest.raises(NonLocalGeneratorError):
            integrate(theta0, basis, cfg, clock=clock, duration=0.1, kind=kind)


def test_integrate_single_system_fully_constrained():
    basis = product_basis(as_shape([3]))
    theta0 = np.full(basis.size, 0.1)
    with pytest.raises(FullyConstrainedError):
        integrate(theta0, basis, FlowConfig(), clock="game", duration=0.1)
    with pytest.raises(FullyConstrainedError):
        local_block_projection(make_point(theta0, basis))


def test_local_block_projection_rejects_degenerate_block():
    """A nearly pure local factor makes G_LL ill-conditioned beyond
    PROJECTOR_COND_MAX; the projection refuses rather than solving it."""
    basis = product_basis(as_shape([2, 2]))
    theta = np.zeros(basis.size)
    theta[basis.local_indices(0)[-1]] = 30.0
    with pytest.raises(NumericalDegeneracyError):
        local_block_projection(make_point(theta, basis))


def test_ray_game_run_matches_closed_form(qutrit_pair, ray_runs):
    shape, basis = qutrit_pair
    theta0, game, _ = ray_runs
    assert game.status == "completed"
    assert np.all(np.diff(game.tau) > 0)
    norm0 = np.linalg.norm(theta0)
    for k in range(game.n_samples):
        s = np.exp(-game.tau[k])
        assert np.linalg.norm(game.theta[k] - s * theta0) <= 1e-6 * norm0
        assert abs(game.H[k] - ray_entropy(s, EPS)) <= 1e-6
        assert abs(game.rate[k] - ray_rate(s, EPS)) <= 1e-6
    # dissipative monotonicity, conservation, and decaying rate
    assert np.all(np.diff(game.H) > 0)
    assert np.abs(game.C - 2 * LOG3).max() <= 1e-6
    assert game.rate[-1] < game.rate[0]


def test_ray_entropy_run_linear_and_aux_clock(qutrit_pair, ray_runs):
    theta0, _, ent = ray_runs
    assert ent.status == "completed"
    slope, intercept, r2 = entropy_time_fit(ent)
    assert abs(slope - 1.0) <= 1e-4
    assert r2 > 1 - 1e-8
    # the auxiliary clock must reproduce t = (H - H0)/c along the run
    np.testing.assert_allclose(ent.t, ent.H - ent.H[0], atol=1e-6)
    # and game time is recovered as the auxiliary variable
    assert np.all(np.diff(ent.tau) > 0)


def test_entropy_run_traces_the_same_ray(qutrit_pair, ray_runs):
    """Reparametrisation consistency: the entropy-clock run must trace the
    identical curve as game time, theta(t) = s * theta0 with s recovered by
    inverting the closed-form entropy profile at each sampled H level."""
    theta0, _, ent = ray_runs
    norm0 = np.linalg.norm(theta0)
    for k in range(ent.n_samples):
        s = brentq(lambda s: ray_entropy(s, EPS) - ent.H[k], 1e-12, 1.5, xtol=1e-14)
        assert np.linalg.norm(ent.theta[k] - s * theta0) <= 1e-5 * norm0


def test_kernel_start_stays_on_manifold(qutrit_pair, rng):
    shape, basis = qutrit_pair
    geom0 = constraint_geometry(make_point(np.zeros(80), basis))
    v = geom0.kernel @ rng.normal(size=64)
    theta0 = 1e-3 * v / np.linalg.norm(v)
    traj = integrate(theta0, basis, FlowConfig(), clock="game", duration=2.0)
    assert traj.status == "completed"
    assert np.all(np.diff(traj.H) >= 0)
    assert np.abs(traj.C - traj.C[0]).max() <= 1e-6
    for th in traj.theta[:: max(1, traj.n_samples // 8)]:
        rho = state_from_params(th, basis)
        for i in (0, 1):
            assert np.linalg.norm(partial_trace(rho, shape, i) - np.eye(3) / 3) <= 1e-6


def test_integrate_status_max_steps(qutrit_pair):
    shape, basis = qutrit_pair
    theta0 = origin_point(shape, basis, EPS).theta
    traj = integrate(theta0, basis, FlowConfig(max_steps=5), clock="game", duration=50.0)
    assert traj.status == "max_steps"
    assert traj.n_samples == 6  # initial sample plus five accepted steps


def test_integrate_conservation_abort(qutrit_pair, rng):
    shape, basis = qutrit_pair
    geom0 = constraint_geometry(make_point(np.zeros(80), basis))
    v = geom0.kernel @ rng.normal(size=64)
    theta0 = 0.5 * v / np.linalg.norm(v)
    cfg = FlowConfig(atol=1e-3, rtol=1e-3, conservation_tol=1e-14)
    with pytest.raises(ConservationError) as exc_info:
        integrate(theta0, basis, cfg, clock="game", duration=3.0)
    partial = exc_info.value.trajectory
    assert partial is not None and partial.n_samples >= 1


def test_integrate_stiff_region_signal(qutrit_pair):
    """With the stationarity threshold pushed to zero the entropy-time
    vector field genuinely blows up at the terminal boundary, and the
    step-size underflow must surface as a stiff-region error."""
    shape, basis = qutrit_pair
    theta0 = origin_point(shape, basis, EPS).theta
    cfg = FlowConfig(rate_min=1e-280, max_steps=100000)
    with pytest.raises(StiffRegionError) as exc_info:
        integrate(theta0, basis, cfg, clock="entropy", duration=3.0)
    partial = exc_info.value.trajectory
    assert partial is not None
    assert partial.H[-1] > 2 * LOG3 - 1e-4  # failure happens at the boundary


def classic_factor(err_norm):
    return min(5.0, max(0.2, 0.9 * max(err_norm, 1e-16) ** -0.2))


@pytest.mark.parametrize("err_norm", [0.0, 1e-20, 1e-6, 0.01, 0.3, 0.5, 0.9, 1.0])
def test_step_factor_without_history_is_classic(err_norm):
    assert entroflow.flow._step_factor(err_norm, 0.1, None) == classic_factor(err_norm)


def test_step_factor_never_exceeds_classic(rng):
    for _ in range(500):
        err_norm = 10.0 ** rng.uniform(-18, 0)
        h = 10.0 ** rng.uniform(-12, 0)
        prev = (10.0 ** rng.uniform(-12, 0), max(10.0 ** rng.uniform(-18, 0), 1e-2))
        factor = entroflow.flow._step_factor(err_norm, h, prev)
        assert 0.2 <= factor <= 5.0
        assert factor <= classic_factor(err_norm)


@pytest.mark.parametrize("err_norm", [0.05, 0.5, 0.9])
def test_step_factor_geometric_history(err_norm):
    """A step 0.7 times the last one at the same error predicts a further
    0.7 shrink on top of the classic factor."""
    h_prev = 0.02
    factor = entroflow.flow._step_factor(err_norm, 0.7 * h_prev, (h_prev, err_norm))
    assert factor == pytest.approx(0.7 * classic_factor(err_norm), rel=1e-14)


def test_integrate_counts_steps_on_entropy_clock_approach(qutrit_pair):
    """The default entropy-clock run steepens geometrically towards the
    boundary; the predictive step control keeps rejections rare there."""
    shape, basis = qutrit_pair
    theta0 = origin_point(shape, basis, EPS).theta
    traj = integrate(theta0, basis, FlowConfig(), clock="entropy", duration=10.0)
    stats = traj.summary()["integrator"]
    assert traj.status == "stationary"
    failed = sum(stats["failed_stages"].values())
    attempts = stats["accepted"] + stats["rejected"] + failed
    assert stats["accepted"] == traj.n_samples - 1
    assert stats["rejected"] <= 10
    assert stats["rhs_evals"] <= 6 * attempts + 1
    assert 0.0 < stats["h_min"] <= stats["h_max"]
    assert 0.0 <= stats["last_err_norm"] <= 1.0


def test_integrate_counts_failed_stages_by_cause(qutrit_pair, monkeypatch):
    """A stage that meets the marginal floor or a non-positive production
    rate cuts its attempt short; each attempt is counted under its cause."""
    shape, basis = qutrit_pair
    theta0 = origin_point(shape, basis, EPS).theta
    real = entroflow.flow._project
    calls = []

    def failing(point, local):
        calls.append(None)
        if len(calls) == 3:
            raise entroflow.flow.BoundaryStateError("forced marginal floor")
        proj, rate = real(point, local)
        return proj, 0.0 if len(calls) == 10 else rate

    monkeypatch.setattr(entroflow.flow, "_project", failing)
    traj = integrate(theta0, basis, FlowConfig(), clock="entropy", duration=0.5)
    stats = traj.integrator
    assert traj.status == "completed"
    assert stats["failed_stages"] == {"stationary": 1, "boundary": 1}
    assert stats["rhs_evals"] == len(calls)
    assert stats["rhs_evals"] < 6 * (stats["accepted"] + stats["rejected"] + 2) + 1


def test_flow_config_accepts_one_zero_tolerance():
    FlowConfig(atol=0.0)
    FlowConfig(rtol=0.0)


def test_pure_relative_tolerance_has_no_zero_over_zero(qutrit_pair):
    """atol = 0 gives the 36 entries of the origin's theta that are exactly 0
    (and the clock) a zero error scale.  A zero error there meets the
    tolerance, so the error norm stays finite (it used to be 0/0 = NaN, with a
    RuntimeWarning); the round-off-sized field on those entries still defeats
    pure relative control, and the run ends as a stiff region."""
    shape, basis = qutrit_pair
    theta0 = origin_point(shape, basis, EPS).theta
    assert np.sum(theta0 == 0.0) == 36
    with pytest.raises(StiffRegionError) as exc_info:
        integrate(theta0, basis, FlowConfig(atol=0.0), clock="game", duration=0.5)
    stats = exc_info.value.trajectory.integrator
    assert stats["rejected"] > 0
    assert stats["last_err_norm"] is not None and np.isfinite(stats["last_err_norm"])


def test_integrate_conservation_monitors_each_subsystem(qutrit_pair, monkeypatch):
    """Opposite drifts in two marginals leave their sum fixed; the monitor
    must still abort on the subsystem that moved."""
    shape, basis = qutrit_pair
    theta0 = origin_point(shape, basis, EPS).theta
    real = entroflow.flow.marginal_entropies
    delta = 1e-5
    calls = []

    def drifting(rho, shape):
        h = real(rho, shape)
        calls.append(None)
        return h if len(calls) == 1 else h + np.array([delta, -delta])

    monkeypatch.setattr(entroflow.flow, "marginal_entropies", drifting)
    cfg = FlowConfig(conservation_tol=1e-6)
    with pytest.raises(ConservationError) as exc_info:
        integrate(theta0, basis, cfg, clock="game", duration=0.5)
    partial = exc_info.value.trajectory
    assert partial.status == "conservation"
    assert partial.n_samples == 2
    assert np.ptp(partial.C) <= 1e-12  # the sum alone would not have seen it


def test_integrate_degenerate_projection_keeps_trajectory(qutrit_pair, monkeypatch):
    shape, basis = qutrit_pair
    theta0 = origin_point(shape, basis, EPS).theta
    real = entroflow.flow._project
    calls = []

    def failing(point, local):
        calls.append(None)
        if len(calls) > 20:
            raise NumericalDegeneracyError("forced degenerate block")
        return real(point, local)

    monkeypatch.setattr(entroflow.flow, "_project", failing)
    with pytest.raises(DegenerateProjectionError) as exc_info:
        integrate(theta0, basis, FlowConfig(), clock="game", duration=1.0)
    assert isinstance(exc_info.value, NumericalDegeneracyError)
    partial = exc_info.value.trajectory
    assert partial.n_samples >= 1
    assert partial.status == "degenerate"


def test_integrate_argument_validation(qutrit_pair):
    shape, basis = qutrit_pair
    theta0 = origin_point(shape, basis, EPS).theta
    with pytest.raises(ValueError):
        integrate(theta0, basis, FlowConfig(), clock="affine", duration=1.0)
    with pytest.raises(ValueError):
        integrate(theta0, basis, FlowConfig(), clock="game", duration=1.0, kind="nonsense")
    with pytest.raises(ValueError):
        # reversible runs need a generator
        integrate(theta0, basis, FlowConfig(), clock="game", duration=1.0, kind="reversible")
    with pytest.raises(ValueError):
        integrate(theta0, basis, FlowConfig(), clock="entropy", duration=1.0, kind="reversible")
    with pytest.raises(ValueError):
        integrate(theta0, basis, FlowConfig(), clock="game", duration=float("nan"))
    for clock in ("entropy", "game"):
        # an infinite duration would make the step-size floor infinite and
        # end the run as "completed" after one sample
        with pytest.raises(ValueError, match="finite"):
            integrate(theta0, basis, FlowConfig(), clock=clock, duration=float("inf"))


def test_affine_time_degenerates_toward_the_origin(qutrit_pair):
    """Entropy time to H = 1 nat stays at most 1/c from any regularised origin,
    while the game (affine) time needed keeps growing as eps falls.  Starts
    with eps <= 1e-8 lie past the flow's clear radius, so both guard paths run.
    Measured tau_end: 0.717, 1.235, 1.574, 1.827, 2.028."""
    shape, basis = qutrit_pair
    cfg = FlowConfig()
    tau_end = []
    for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
        theta0 = params_from_state(regularized_origin(shape, eps), basis)
        H0 = make_point(theta0, basis).entropy
        traj = integrate(theta0, basis, cfg, clock="entropy", duration=1.0 - H0)
        assert traj.status == "completed"
        assert abs(traj.H[-1] - H0 - cfg.c * traj.t[-1]) <= 1e-6
        tau_end.append(traj.tau[-1])
    assert np.all(np.diff(tau_end) > 0), tau_end


def test_reversible_run_conserves_everything(qutrit_pair, rng):
    shape, basis = qutrit_pair
    parts = ((0, random_hermitian(3, rng)), (1, random_hermitian(3, rng)))
    theta0 = rng.normal(size=80) * 0.1
    cfg = FlowConfig(xi_parts=parts, atol=1e-9, rtol=1e-9)
    traj = integrate(theta0, basis, cfg, clock="game", duration=0.8, kind="reversible")
    assert traj.status == "completed"
    assert np.abs(traj.H - traj.H[0]).max() <= 1e-8
    assert np.abs(traj.marginals - traj.marginals[0]).max() <= 1e-8
    # unitary pushforward oracle for the endpoint
    import scipy.linalg

    xi = assemble_local_generator(shape, parts)
    U = scipy.linalg.expm(-1j * xi * traj.tau[-1])
    rho0 = state_from_params(theta0, basis)
    pred = params_from_state(U @ rho0 @ U.conj().T, basis)
    assert np.linalg.norm(traj.theta[-1] - pred) <= 1e-6


def test_combined_run_keeps_entropy_law(qutrit_pair, rng):
    shape, basis = qutrit_pair
    parts = ((0, random_hermitian(3, rng)), (1, random_hermitian(3, rng)))
    theta0 = origin_point(shape, basis, EPS).theta
    cfg = FlowConfig(xi_parts=parts)
    traj = integrate(theta0, basis, cfg, clock="entropy", duration=1.2, kind="combined")
    assert traj.status == "completed"
    slope, _, r2 = entropy_time_fit(traj)
    assert abs(slope - 1.0) <= 1e-4
    assert r2 > 1 - 1e-8
    assert np.abs(traj.C - 2 * LOG3).max() <= 1e-6
    assert np.abs(traj.marginals - LOG3).max() <= 1e-6


def test_trajectory_csv_and_theta_records(qutrit_pair, ray_runs, tmp_path):
    _, game, _ = ray_runs
    path = tmp_path / "run.csv"
    game.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "step,tau,t,H,C,h_0,h_1,rate,theta_norm,status"
    assert len(lines) == game.n_samples + 1
    assert lines[-1].endswith(",completed")
    assert all(line.endswith(",ok") for line in lines[1:-1])
    # --bits rescaling touches entropic columns only
    path_bits = tmp_path / "run_bits.csv"
    game.write_csv(path_bits, bits=True)
    row = lines[1].split(",")
    row_bits = path_bits.read_text().strip().split("\n")[1].split(",")
    assert abs(float(row_bits[3]) - float(row[3]) / np.log(2.0)) < 1e-12
    assert row_bits[1] == row[1]  # tau is not an entropy
    rec = game.theta_records()
    assert rec["status"] == "completed"
    assert len(rec["samples"]) == game.n_samples


def test_assemble_local_generator(qutrit_pair, rng):
    shape, basis = qutrit_pair
    x0 = random_hermitian(3, rng)
    x1 = random_hermitian(3, rng)
    xi = assemble_local_generator(shape, ((0, x0), (1, x1)))
    expect = np.kron(x0, np.eye(3)) + np.kron(np.eye(3), x1)
    np.testing.assert_allclose(xi, expect, atol=1e-14)
    with pytest.raises(ValueError):
        assemble_local_generator(shape, ((2, x0),))
