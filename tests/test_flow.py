"""Flow layer: velocity fields, the solved curve of ``integrate``, and the
exact isotropic-line solution.

Closed-form oracle used throughout: regularized_origin(eps) on [q, q] is
invariant under every U (x) conj(U), and so is the flow, so K(theta) stays
s F with F = |psi><psi| - I/d.  F has zero partial traces and the local part
of G theta vanishes, so game time acts by pure exponential decay,
theta(tau) = exp(-tau) * theta0, and every trajectory quantity follows from
the one-parameter spectrum (e^s, 1, ..., 1)/(e^s + d - 1) with
s = s0 exp(-tau), s0 = log(1 + d (1 - eps) / eps).
"""

from functools import reduce

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq

import entroflow.flow
from entroflow import (
    ConservationError,
    DegenerateProjectionError,
    FlowConfig,
    FullyConstrainedError,
    NumericalDegeneracyError,
    constraint_geometry,
    entropy_time_fit,
    as_shape,
    integrate,
    make_point,
    marginal_entropies,
    multi_information,
    params_from_state,
    product_basis,
    random_hermitian,
    regularized_origin,
    state_from_params,
)
from entroflow.operators import OperatorBasis, marginals
from entroflow.flow import DEFAULT_RATE_MIN, SAMPLES, _lab_frame
from tests.conftest import origin_point
from tests.reference_geometry import (
    assemble_local_generator,
    combined_velocity,
    dissipative_velocity,
    entropy_production_rate,
    entropy_time_velocity,
    kron_stack,
    lab_frame_dense,
    lab_frame_endpoint,
    local_block_projection,
    marginal_jacobian,
    metric_theta,
    reference_geometry,
    reversible_velocity,
    stack_generator,
    state_derivatives,
)

EPS = 0.05
LOG3 = np.log(3.0)


def line_s0(d, eps):
    """s0 with K(theta0) = s0 F at regularized_origin(eps), total dimension d."""
    return np.log1p(d * (1.0 - eps) / eps)


def line_entropy(s, d):
    """H(s) = log(e^s + d - 1) - s e^s / (e^s + d - 1), the entropy at K = s F."""
    z = np.exp(s)
    return np.log(z + d - 1.0) - s * z / (z + d - 1.0)


def ray_constant(eps):
    p1 = 1.0 - 8.0 * eps / 9.0
    return np.log(p1 / (eps / 9.0)), p1


def ray_entropy(s, eps):
    return line_entropy(s * ray_constant(eps)[0], 9.0)


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
    with pytest.raises(ValueError, match="rate_min"):
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
    # the oracle's locality check rejects a correlated generator
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    lam = np.zeros((3, 3))
    lam[:2, :2] = sx
    with pytest.raises(ValueError, match="correlation-sector component"):
        reversible_velocity(pt, np.kron(lam, lam))


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
            np.linalg.norm(marginals(rho_step, shape)[i] - np.eye(3) / 3) for i in (0, 1)
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


def test_rate_keeps_the_square_law(qutrit_pair):
    """Near a product state the rate is quadratic in the correlation part:
    along theta_L + s delta, delta in the correlation sector, the even part
    (rate(s) + rate(-s)) / (2 s^2) has no O(s) term, so its value at s = 1e-6
    equals the one at s = 1e-4 to O(s^2).  The sum-of-squares rate holds that
    to 4.1e-8 relative; theta^T G theta - g_L . G_LL^{-1} g_L, a difference of
    O(1) terms, was 4.7e-6 off at s = 1e-6 (rate 4.6e-12)."""
    shape, basis = qutrit_pair
    rng = np.random.default_rng(3)
    base = np.zeros(basis.size)
    base[basis.local_sector] = rng.normal(size=basis.local_sector.size)
    delta = np.zeros(basis.size)
    delta[basis.correlation_indices()] = rng.normal(size=basis.correlation_indices().size)

    def even_part(s):
        rates = [local_block_projection(make_point(base + x * delta, basis))[1] for x in (s, -s)]
        return sum(rates) / (2 * s * s)

    assert even_part(1e-6) == pytest.approx(even_part(1e-4), rel=1e-6)
    assert local_block_projection(make_point(base, basis))[1] == 0.0


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
    w = basis.coordinates(-1j * (xi @ pt.rho - pt.rho @ xi))
    assert np.abs(reversible_velocity(pt, xi) - np.linalg.solve(pt.metric, w)).max() <= 1e-12


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


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("eps", [1e-2, 1e-6])
def test_isotropic_line_matches_closed_form(q, eps):
    """theta = theta0 e^-tau and H = H(s0 e^-tau) under both clocks, each read
    at the tau it records.  theta_C = e^-tau theta0_C is exact on the solved
    curve, so only the local entries (round-off of the chart inversion here)
    and the Newton tolerance are left.  Measured: theta <= 4.1e-9 relative
    and H <= 2.3e-11 on both clocks.  On [2, 2] the entropy clock meets the
    maximum log 4 first."""
    d = q * q
    basis = product_basis(as_shape([q, q]))
    s0 = line_s0(d, eps)
    theta0 = params_from_state(regularized_origin([q, q], eps), basis)
    assert abs(np.linalg.norm(theta0) - s0 * np.sqrt(1.0 - 1.0 / d)) <= 1e-10 * s0
    reaches_max = line_entropy(s0, d) + 1.5 > np.log(d)
    for clock, status, tol in (
        ("game", "completed", 1e-7),
        ("entropy", "stationary" if reaches_max else "completed", 1e-5),
    ):
        traj = integrate(theta0, basis, FlowConfig(), clock=clock, duration=1.5)
        assert traj.status == status
        decay = np.exp(-traj.tau)
        gap = np.linalg.norm(traj.theta - decay[:, None] * theta0, axis=1)
        assert np.max(gap / (decay * np.linalg.norm(theta0))) <= tol
        assert np.max(np.abs(traj.H - line_entropy(s0 * decay, d))) <= tol


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
            assert np.linalg.norm(marginals(rho, shape)[i] - np.eye(3) / 3) <= 1e-6


def test_integrate_status_max_steps(qutrit_pair):
    """No run ends on a step count: the game-clock run that a cap of five
    steps once cut short ("max_steps") is solved on its grid to the
    stationary stop, and ``max_steps`` is no longer a setting."""
    shape, basis = qutrit_pair
    theta0 = origin_point(shape, basis, EPS).theta
    traj = integrate(theta0, basis, FlowConfig(), clock="game", duration=50.0)
    assert traj.status == "stationary"
    assert traj.n_samples == SAMPLES + 1
    with pytest.raises(TypeError):
        FlowConfig(max_steps=5)


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


def test_integrate_tiny_rate_min_reaches_the_top(qutrit_pair):
    """With the stationarity threshold pushed to 1e-280 the entropy clock still
    ends "stationary" at the maximum 2 log 3.  C(theta0) - rate_min / 4 rounds
    to C(theta0), so the stop lands H on the top to 1e-14; the rate, a sum of
    squares in theta_C = e^(-tau) theta_C(0) with no round-off floor, is then
    brought below rate_min by one step along its tail law e^(-2 tau).
    Measured: rate 5.0e-281 at tau = 323, H_end equal to 2 log 3, and t_end
    2.5e-11 (the default run's rate_min / 4) from the default run's."""
    shape, basis = qutrit_pair
    theta0 = origin_point(shape, basis, EPS).theta
    default, tiny = (
        integrate(theta0, basis, FlowConfig(rate_min=rate_min), clock="entropy", duration=3.0)
        for rate_min in (DEFAULT_RATE_MIN, 1e-280)
    )
    assert default.status == tiny.status == "stationary"
    assert tiny.rate[-1] < 1e-280
    assert abs(tiny.H[-1] - 2 * LOG3) <= 1e-14
    assert abs(tiny.t[-1] - default.t[-1]) <= 1e-8


def test_integrate_counts_steps_on_entropy_clock_approach(qutrit_pair):
    """The default entropy-clock run: the stop is landed where the
    multi-information still to produce is rate_min / 4, so the last rate is
    about rate_min / 2.  From the origin theta_L stays 0, so no point takes a
    Newton step.  Measured: 30 chart points (7 for the start and the stop,
    23 for the seven inner samples, each landed from the solved points that
    bracket its goal), 0 Newton steps; the stepper took 163 RHS evaluations."""
    shape, basis = qutrit_pair
    theta0 = origin_point(shape, basis, EPS).theta
    cfg = FlowConfig()
    traj = integrate(theta0, basis, cfg, clock="entropy", duration=10.0)
    stats = traj.integrator
    assert traj.status == "stationary"
    assert 0.01 * cfg.rate_min <= traj.rate[-1] < cfg.rate_min
    assert abs(traj.C[0] - traj.H[-1] - 0.25 * cfg.rate_min) <= 1e-14 * traj.H[-1]
    assert set(stats) == {"newton_steps", "chart_points"}
    assert stats["newton_steps"] == 0
    assert traj.n_samples == SAMPLES + 1 <= stats["chart_points"] <= 31


def test_integrate_counts_steps_on_game_clock_approach(qutrit_pair):
    """The same stop on the game clock with a limit far beyond it: the stop
    search steps log s by at most max(1, |log s|) until the goal is
    bracketed, then the seven inner samples take one solve each.  Measured:
    14 chart points (the start, x = -1, -2, -4, -8, two landing points and
    seven samples), 0 Newton steps."""
    shape, basis = qutrit_pair
    theta0 = origin_point(shape, basis, EPS).theta
    traj = integrate(theta0, basis, FlowConfig(), clock="game", duration=1e20)
    assert traj.status == "stationary"
    assert traj.integrator["newton_steps"] == 0
    assert traj.integrator["chart_points"] <= 15


@pytest.mark.parametrize("dims", [[3, 3], [2, 2, 2]])
def test_entropy_clock_samples_match_fixed_tau_solves(dims):
    """Each inner sample of the default entropy-clock run, solved again as the
    last sample of a game-clock run limited at its tau: that run ends
    "completed" at a fixed log s, without landing on an entropy goal, and
    meets the sample to round-off.  Measured: H within 4.4e-16, every h_i
    within 2.2e-16 and theta within 1.8e-14."""
    shape = as_shape(dims)
    basis = product_basis(shape)
    theta0 = origin_point(shape, basis, EPS).theta
    ent = integrate(theta0, basis, FlowConfig(), clock="entropy", duration=10.0)
    assert ent.status == "stationary"
    for k in range(1, SAMPLES):
        game = integrate(theta0, basis, FlowConfig(), clock="game", duration=ent.tau[k])
        assert game.status == "completed"
        assert game.tau[-1] == ent.tau[k]
        assert abs(game.H[-1] - ent.H[k]) <= 1e-13
        np.testing.assert_allclose(game.marginals[-1], ent.marginals[k], rtol=0, atol=1e-13)
        np.testing.assert_allclose(game.theta[-1], ent.theta[k], rtol=0, atol=1e-12)


@pytest.mark.parametrize("clock", ["game", "entropy"])
def test_integrate_zero_theta_is_stationary_on_both_clocks(qutrit_pair, clock):
    """theta0 = 0 produces no entropy: the entropy clock has no field there,
    and the run stops with the one sample as on the game clock."""
    shape, basis = qutrit_pair
    traj = integrate(np.zeros(basis.size), basis, FlowConfig(), clock=clock, duration=1.0)
    assert traj.status == "stationary" and traj.n_samples == 1
    assert traj.rate[0] == 0.0 and traj.H[0] == pytest.approx(2 * LOG3, abs=1e-14)
    assert traj.integrator == {"newton_steps": 0, "chart_points": 1}


def test_step_floor_does_not_scale_with_duration(qutrit_pair):
    """Nothing in the solve scales with the clock's limit: a run that stops
    at stationarity long before either limit is the same run."""
    shape, basis = qutrit_pair
    theta0 = origin_point(shape, basis, EPS).theta
    short, long = (
        integrate(theta0, basis, FlowConfig(), clock="entropy", duration=duration)
        for duration in (10.0, 1e20)
    )
    assert short.status == long.status == "stationary"
    assert short.integrator == long.integrator
    for field in ("tau", "t", "H", "theta", "rate", "marginals"):
        np.testing.assert_array_equal(getattr(short, field), getattr(long, field), err_msg=field)


def _all_sector_start(dims, seed=7):
    basis = product_basis(as_shape(dims))
    return basis, 0.5 * np.random.default_rng(seed).normal(size=basis.size)


@pytest.mark.parametrize("start", ["origin", "all_sectors"])
def test_entropy_clock_to_stationarity_equals_game_clock(qutrit_pair, start):
    """Both clocks land the same stop on the same curve, so a run that stops
    at stationarity before either limit ends on one point: the last sample
    is bitwise equal.  The grids differ, one even in tau and one in t, and on
    the game clock t is (H - H0) / c of each sample."""
    shape, basis = qutrit_pair
    if start == "origin":
        theta0 = origin_point(shape, basis, EPS).theta
    else:
        basis, theta0 = _all_sector_start([3, 3])
    entropy, game = (
        integrate(theta0, basis, FlowConfig(), clock=clock, duration=1e3)
        for clock in ("entropy", "game")
    )
    assert entropy.status == game.status == "stationary"
    for field in ("tau", "t", "H", "theta", "rate", "marginals"):
        np.testing.assert_array_equal(
            getattr(entropy, field)[[0, -1]], getattr(game, field)[[0, -1]], err_msg=field
        )
    np.testing.assert_allclose(np.diff(game.tau), game.tau[-1] / SAMPLES, rtol=1e-14)
    np.testing.assert_array_equal(game.t, game.H - game.H[0])  # c = 1


@pytest.mark.parametrize("clock, duration", [("game", 3.0), ("entropy", 50.0)])
@pytest.mark.parametrize("dims", [[3, 3], [2, 3], [2, 2, 2]])
def test_correlation_sector_decays_in_closed_form(dims, clock, duration):
    """P theta moves only theta_L, so every other coordinate of a dissipative
    run is e^(-tau_k) theta0 at its recorded tau_k, to the rounding of the
    product."""
    basis, theta0 = _all_sector_start(dims)
    corr = basis.correlation_indices()
    traj = integrate(theta0, basis, FlowConfig(), clock=clock, duration=duration)
    assert traj.n_samples > 5
    expected = np.exp(-traj.tau)[:, None] * theta0[corr]
    np.testing.assert_allclose(traj.theta[:, corr], expected, rtol=1e-15, atol=0)


@pytest.mark.parametrize("dims", [[3, 3], [2, 3], [2, 2, 2]])
def test_curve_point_tangent_is_the_projection(dims):
    """(P theta)_L = theta_L - G_LL^{-1} (G theta)_L = -G_LL^{-1} G_LC theta_C,
    so at s = 1 the tangent d theta_L / d log s of a chart point on the curve
    is (P theta)_L of the stepped integrator's kernel (``stage_kernel``), and
    the rates agree; both to 1e-12."""
    basis, theta = _all_sector_start(dims, seed=11)
    local = basis.local_sector
    theta_corr = theta.copy()
    theta_corr[local] = 0.0
    F = np.concatenate([kron_stack(basis)[local], stack_generator(theta_corr, basis)[None]])
    rows = F[:-1].view(float).reshape(local.size, -1)
    pt = entroflow.flow._curve_point(0.0, theta[local], F, rows, None)
    proj, rate = local_block_projection(make_point(theta, basis))
    assert np.abs(pt.tangent - proj[local]).max() <= 1e-12 * max(1.0, np.abs(proj).max())
    assert abs(pt.rate - rate) <= 1e-12 * max(1.0, rate)
    assert np.abs(pt.newton).max() == 0.0  # the start is its own target


@pytest.mark.parametrize("dims, seed", [([3, 3], 7), ([2, 3], 7), ([2, 2, 2], 7), ([2, 2], 1)])
@pytest.mark.parametrize("duration", [0.1, 50.0])
def test_entropy_clock_samples_an_even_grid(dims, seed, duration):
    """On the entropy clock the t column is the grid k t_end / SAMPLES, and
    H - H0 = c t at every sample within 1e-14 max(1, |H|): t is a function
    on the solved curve, not a stepped clock.  (Stepped with the absolute
    tolerance atol, t was off by up to 6e-8.)  Duration 0.1 ends
    "completed" on the first three starts; the [2, 2] start is stationary
    at both.  The landing reads H on the curve to second order in the Newton
    residual: reading the solved point's own H, which the default tolerance
    leaves rippled at 1e-11, the [2, 2] start took 152 chart points and
    missed by 1.3e-11 (now 52 chart points)."""
    basis, theta0 = _all_sector_start(dims, seed)
    cfg = FlowConfig(c=1.7)
    traj = integrate(theta0, basis, cfg, clock="entropy", duration=duration)
    assert traj.status == ("completed" if duration < 1.0 and seed == 7 else "stationary")
    np.testing.assert_array_equal(traj.t, traj.t[-1] * np.arange(SAMPLES + 1) / SAMPLES)
    gap = np.abs(traj.H - traj.H[0] - cfg.c * traj.t)
    assert np.all(gap <= 1e-14 * np.maximum(1.0, np.abs(traj.H)))
    assert np.all(np.diff(traj.tau) > 0) and traj.tau[0] == 0.0
    assert traj.integrator["chart_points"] <= 100


@pytest.mark.parametrize("rate_min", [1e-10, 1e-6])
@pytest.mark.parametrize("clock", ["entropy", "game"])
@pytest.mark.parametrize("start", ["origin", "all_sectors", "combined"])
def test_stationary_stop_lands_the_rate_below_rate_min(qutrit_pair, start, clock, rate_min):
    """The stop lands where the multi-information still to produce,
    C(theta0) - H, is rate_min / 4 (to 1e-14 max(1, H)); on the e^(-2 tau)
    tail the rate is twice that, so the last rate lies in
    [rate_min / 100, rate_min), on both clocks and with a reversible
    sector."""
    shape, basis = qutrit_pair
    kind, parts = "dissipative", ()
    if start == "origin":
        theta0 = origin_point(shape, basis, EPS).theta
    else:
        basis, theta0 = _all_sector_start([3, 3])
    if start == "combined":
        rng = np.random.default_rng(2)
        kind, parts = "combined", ((0, random_hermitian(3, rng)), (1, random_hermitian(3, rng)))
    cfg = FlowConfig(rate_min=rate_min, xi_parts=parts)
    traj = integrate(theta0, basis, cfg, clock=clock, duration=1e3, kind=kind)
    assert traj.status == "stationary" and traj.n_samples == SAMPLES + 1
    assert 0.01 * rate_min <= traj.rate[-1] < rate_min
    assert abs(traj.C[0] - traj.H[-1] - 0.25 * rate_min) <= 1e-14 * traj.H[-1]


def test_deep_origin_runs_to_stationary(qutrit_pair):
    """The eps = 1e-10 origin (|theta0| = 23.8) has a rate of 5.6e-8 at
    s = 1, where a Newton step on log(C - H) would jump s to 0; each step
    before the bracket changes log s by at most max(1, |log s|), so s shrinks
    at most to s^2.  The run reaches the stationary stop along the isotropic
    line, theta = s theta0 and H = H(s0 s).  The local entries of theta0 are
    round-off of the chart inversion, up to 4.1e-6 here, and the run keeps
    that start's marginals.  Measured: theta within 1.3e-8 of the line
    relative to |theta0|, and H within 1.9e-7."""
    shape, basis = qutrit_pair
    eps = 1e-10
    theta0 = params_from_state(regularized_origin(shape, eps), basis)
    traj = integrate(theta0, basis, FlowConfig(), clock="entropy", duration=10.0)
    assert traj.status == "stationary"
    assert 0.01 * DEFAULT_RATE_MIN <= traj.rate[-1] < DEFAULT_RATE_MIN
    s = np.exp(-traj.tau)
    norm0 = np.linalg.norm(theta0)
    assert np.max(np.linalg.norm(traj.theta - s[:, None] * theta0, axis=1)) <= 1e-7 * norm0
    assert np.max(np.abs(traj.H - line_entropy(line_s0(9, eps) * s, 9.0))) <= 1e-6


@pytest.mark.parametrize("where", ["first_step", "mid_run", "below_end"])
@pytest.mark.parametrize("dims", [[2, 3], [2, 2, 2]])
def test_entropy_clock_lands_on_duration(dims, where):
    """An entropy-clock duration ends the grid: t_k = k duration / SAMPLES
    exactly, H lands within 1e-14 max(1, |H|) of H0 + c t_k, and the run ends
    "completed".  Durations: a quarter of the t that the stepper's first step
    of 0.01 in tau would take, half of I(rho0)/c, and 1e-6 below I(rho0)/c,
    where the run would otherwise become stationary."""
    basis, theta0 = _all_sector_start(dims)
    cfg = FlowConfig()
    t_inf = multi_information(state_from_params(theta0, basis), basis.shape) / cfg.c
    rate0 = local_block_projection(make_point(theta0, basis))[1]
    duration = {
        "first_step": 0.25 * 0.01 * rate0 / cfg.c,
        "mid_run": 0.5 * t_inf,
        "below_end": t_inf - 1e-6,
    }[where]
    traj = integrate(theta0, basis, cfg, clock="entropy", duration=duration)
    assert traj.status == "completed"
    assert traj.t[-1] == duration
    np.testing.assert_array_equal(traj.t, duration * np.arange(SAMPLES + 1) / SAMPLES)
    gap = np.abs(traj.H - traj.H[0] - cfg.c * traj.t)
    assert np.all(gap <= 1e-14 * np.maximum(1.0, np.abs(traj.H)))
    assert np.all(np.diff(traj.tau) > 0)


def test_entropy_clock_landing_steps_from_the_nearer_end(qutrit_pair):
    """A duration 4.7e-6 below I(rho0)/c from the eps = 0.05 origin, where the
    rate decays steeply.  The stepper's landing on it took 2 to 9 retries
    (157 to 199 RHS evaluations).  Newton steps in log s on
    log(C(theta0) - H), which is linear on the tail, land each sample from
    the solved points that bracket its goal, by the cubic Hermite
    interpolant of log(C(theta0) - H) once both sides are known.  Measured:
    28 chart points."""
    shape, basis = qutrit_pair
    theta0 = origin_point(shape, basis, EPS).theta
    duration = 1.92298
    traj = integrate(theta0, basis, FlowConfig(), clock="entropy", duration=duration)
    assert traj.status == "completed"
    assert traj.t[-1] == duration
    assert abs(traj.H[-1] - traj.H[0] - duration) <= 1e-14 * traj.H[-1]
    assert traj.integrator["chart_points"] <= 29


def test_integrate_counts_failed_stages_by_cause(qutrit_pair, monkeypatch):
    """A Newton trial whose state spectrum underflows is halved, and the
    chart point it cost is counted: the run completes with one more chart
    point than calls that returned, on the same grid."""
    shape, basis = qutrit_pair
    theta0 = origin_point(shape, basis, EPS).theta
    clean = integrate(theta0, basis, FlowConfig(), clock="entropy", duration=0.5)
    real = entroflow.flow._curve_point
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) == 3:
            raise entroflow.flow.BoundaryStateError("forced state underflow")
        return real(*args)

    monkeypatch.setattr(entroflow.flow, "_curve_point", failing)
    traj = integrate(theta0, basis, FlowConfig(), clock="entropy", duration=0.5)
    assert traj.status == "completed"
    assert traj.integrator["chart_points"] == len(calls) > clean.integrator["chart_points"]
    np.testing.assert_array_equal(traj.t, clean.t)
    np.testing.assert_allclose(traj.theta, clean.theta, rtol=0, atol=1e-12)


def test_flow_config_accepts_one_zero_tolerance():
    FlowConfig(atol=0.0)
    FlowConfig(rtol=0.0)


def test_pure_relative_tolerance_has_no_zero_over_zero(qutrit_pair):
    """atol = 0 makes the Newton tolerance rtol max |mu_L(theta0)|.  At the
    origin mu_L(theta0) is round-off, so the tolerance is below the round-off
    of mu_L itself: Newton cannot meet it, and the run ends with
    ConservationError and its start sample, without a 0/0 or a
    RuntimeWarning."""
    shape, basis = qutrit_pair
    theta0 = origin_point(shape, basis, EPS).theta
    assert np.sum(theta0[basis.local_sector] == 0.0) == 6
    with pytest.raises(ConservationError, match="Newton") as exc_info:
        integrate(theta0, basis, FlowConfig(atol=0.0), clock="game", duration=0.5)
    partial = exc_info.value.trajectory
    assert partial.status == "conservation" and partial.n_samples == 1
    assert partial.integrator["newton_steps"] > 0


def test_integrate_conservation_monitors_each_subsystem(qutrit_pair, monkeypatch):
    """Opposite drifts in two marginals leave their sum fixed; the monitor
    must still abort on the subsystem that moved."""
    shape, basis = qutrit_pair
    theta0 = origin_point(shape, basis, EPS).theta
    real = entroflow.flow._stack_entropies
    delta = 1e-5
    calls = []

    def drifting(rho):  # both qutrits form one group of local_marginals
        h = real(rho)
        calls.append(None)
        return h if len(calls) == 1 else h + np.array([delta, -delta])

    monkeypatch.setattr(entroflow.flow, "_stack_entropies", drifting)
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
    real = entroflow.flow._curve_point
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) > 5:
            raise NumericalDegeneracyError("forced degenerate block")
        return real(*args)

    monkeypatch.setattr(entroflow.flow, "_curve_point", failing)
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
    with pytest.raises(ValueError, match="produces no entropy"):
        # with a generator it is the clock that is refused
        cfg = FlowConfig(xi_parts=((0, np.diag([0.5, 0.0, -0.5]).astype(complex)),))
        integrate(theta0, basis, cfg, clock="entropy", duration=1.0, kind="reversible")
    with pytest.raises(ValueError):
        integrate(theta0, basis, FlowConfig(), clock="game", duration=float("nan"))
    for clock in ("entropy", "game"):
        # an infinite duration would make the step-size floor infinite and
        # end the run as "completed" after one sample
        with pytest.raises(ValueError, match="finite"):
            integrate(theta0, basis, FlowConfig(), clock=clock, duration=float("inf"))


def test_affine_time_degenerates_toward_the_origin(qutrit_pair):
    """Entropy time to H = 1 nat stays at most 1/c from any regularised origin,
    while the game (affine) time needed keeps growing as eps falls.  On the
    isotropic line tau_end = log(s0 / s*) with H(s*) = 1 nat, which grows like
    log log(1/eps).  Measured tau_end: 0.717, 1.235, 1.574, 1.827, 2.028, each
    within 1.0e-7 of log(s0 / s*), with |H - H0 - c t| <= 1.3e-14; the runs
    end on t = duration exactly."""
    shape, basis = qutrit_pair
    cfg = FlowConfig()
    s_star = brentq(lambda s: line_entropy(s, 9.0) - 1.0, 1e-3, 50.0, xtol=1e-15)
    tau_end = []
    for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
        theta0 = params_from_state(regularized_origin(shape, eps), basis)
        H0 = make_point(theta0, basis).entropy
        traj = integrate(theta0, basis, cfg, clock="entropy", duration=1.0 - H0)
        assert traj.status == "completed"
        assert abs(traj.H[-1] - H0 - cfg.c * traj.t[-1]) <= 1e-6
        assert abs(traj.t[-1] - (1.0 - H0)) <= 1e-14
        assert abs(traj.tau[-1] - np.log(line_s0(9, eps) / s_star)) <= 1e-6
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


@pytest.mark.parametrize(
    "kind, clock, duration",
    [
        ("combined", "game", 1.0),
        ("combined", "entropy", 0.05),
        ("reversible", "game", 1.0),
        ("dissipative", "game", 1.0),
        ("dissipative", "entropy", 0.05),
    ],
)
@pytest.mark.parametrize("dims", [[2, 2], [2, 3], [3, 3], [2, 2, 2]])
def test_rotation_identity_matches_lab_frame_ode(dims, kind, clock, duration):
    """Seeing the rotating-frame samples through V(tau) = e^(-i xi tau) equals
    stepping the reversible sector in the lab frame, and the solved curve
    (theta_L by Newton, theta_C in closed form) equals stepping every
    coordinate of the dissipative field: the endpoint (theta, tau, t) of
    integrate against the full-state field, run by DOP853 at 1e-13
    (``lab_frame_endpoint``; "dissipative" has no xi).

    Tolerance: 1e-8 relative to max |theta| for theta, and 1e-8 max(1, .)
    for the clocks.  Newton stops at max |mu_L - mu_L(theta0)| <=
    atol + rtol max |mu_L(theta0)| = 2e-10 at most here, which moves theta_L
    by that over the smallest eigenvalue of G_LL, and t = (H - H0) / c is
    exact on the computed curve.  Measured: 2.2e-13 at most in theta, tau
    and t, relative."""
    shape = as_shape(dims)
    basis = product_basis(shape)
    rng = np.random.default_rng(5)
    parts = tuple((i, random_hermitian(q, rng)) for i, q in enumerate(shape.dims))
    theta0 = 0.4 * rng.normal(size=basis.size)
    cfg = FlowConfig(atol=1e-10, rtol=1e-10, xi_parts=parts)
    traj = integrate(theta0, basis, cfg, clock=clock, duration=duration, kind=kind)
    assert traj.status == "completed"
    theta, tau, t = lab_frame_endpoint(
        theta0, basis, cfg, clock=clock, duration=duration, kind=kind
    )
    assert np.abs(traj.theta[-1] - theta).max() <= 1e-8 * np.abs(theta).max()
    assert abs(traj.tau[-1] - tau) <= 1e-8 * max(1.0, tau)
    assert abs(traj.t[-1] - t) <= 1e-8 * max(1.0, t)


@pytest.mark.parametrize("kind", ["combined", "reversible"])
@pytest.mark.parametrize("dims", [[2, 2], [2, 3], [3, 3], [2, 2, 2], [2, 2, 2, 2]])
def test_lab_frame_matches_dense_route(dims, kind, monkeypatch):
    """The factor-wise rotation of integrate's rotating-frame samples against
    coordinates(V K(theta_k) V^dag), V = e^(-i xi tau_k) from the d x d xi
    (``lab_frame_dense``), to 1e-12 absolute on rows with max |theta| of 1.4
    to 2.5 (measured: 3.7e-14 at most, at [2,3] combined; 6.0e-15 at most
    elsewhere).  Subsystem 0 takes two blocks, which add.
    While it runs, the rotation forms no K(theta) and reads no coordinates."""
    shape = as_shape(dims)
    basis = product_basis(shape)
    rng = np.random.default_rng(11)
    parts = [(i, random_hermitian(q, rng)) for i, q in enumerate(shape.dims)]
    parts.append((0, random_hermitian(shape.dims[0], rng)))
    counts = {"combine": 0, "coordinates": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(OperatorBasis, "combine")
    counting(OperatorBasis, "coordinates")
    real_lab_frame = entroflow.flow._lab_frame
    gaps = []

    def checked(theta, tau, basis, frames):
        before = dict(counts)
        lab = real_lab_frame(theta, tau, basis, frames)
        assert counts == before
        gaps.append(float(np.abs(lab - lab_frame_dense(theta, tau, basis, parts)).max()))
        return lab

    monkeypatch.setattr(entroflow.flow, "_lab_frame", checked)
    theta0 = params_from_state(regularised_correlated_state(shape, EPS), basis)
    cfg = FlowConfig(xi_parts=tuple(parts))
    if kind == "combined":
        traj = integrate(theta0, basis, cfg, clock="entropy", duration=50.0, kind=kind)
    else:
        traj = integrate(theta0, basis, cfg, clock="game", duration=2.0, kind=kind)
    assert traj.n_samples == SAMPLES + 1
    assert len(gaps) == 1 and gaps[0] <= 1e-12


def test_lab_frame_rotates_rows_at_the_dimension_limit():
    """At [8,8] (m = 4095) the factor-wise rotation of random theta rows
    against V K(theta) V^dag as 64 x 64 matrices, with K and the coordinates
    contracted over the two factor stacks and V = V_0 (x) V_1 by expm:
    1e-12 absolute on rows of unit-variance entries (measured: 1.3e-14).
    The rotation never builds the m x d x d stack."""
    basis = product_basis([8, 8])
    basis = OperatorBasis(basis.shape, basis.factors, basis.elements)
    rng = np.random.default_rng(12)
    xi = [random_hermitian(8, rng) for _ in range(2)]
    theta = rng.normal(size=(3, basis.size))
    tau = rng.uniform(0.0, 2.0, size=3)
    lab = _lab_frame(theta, tau, basis, [np.linalg.eigh(x) for x in xi])
    assert "stack" not in vars(basis)
    E = [np.concatenate([np.eye(8)[None] / np.sqrt(8), F]) for F in basis.factors]
    a, b = np.array(basis.elements).T + 1
    for row, tau_k, got in zip(theta, tau, lab):
        T = np.zeros((64, 64))
        T[a, b] = row
        K = np.einsum("xy,xij,ykl->ikjl", T, *E, optimize=True).reshape(64, 64)
        V = np.kron(*(scipy.linalg.expm(-1j * tau_k * x) for x in xi))
        X = (V @ K @ V.conj().T).reshape(8, 8, 8, 8)
        ref = np.einsum("xji,ylk,ikjl->xy", *E, X, optimize=True).real[a, b]
        assert np.abs(got - ref).max() <= 1e-12


@pytest.mark.parametrize("clock, duration", [("entropy", 10.0), ("entropy", 0.5), ("game", 2.0)])
@pytest.mark.parametrize("kind", ["dissipative", "combined"])
@pytest.mark.parametrize("dims", [[3, 3], [2, 2, 2]])
def test_run_from_locally_rotated_start_is_the_rotated_run(dims, kind, clock, duration):
    """A run from V rho0 V^dag, V = (x)_i e^(-i A_i) a random local unitary,
    with every xi block conjugated by its factor's V_i, is the run from rho0
    seen through V: the same status and integrator counts, the same H, t, h_i
    and rate to 1e-12 absolute, and theta rows equal to (x)_i O_i applied to
    the unrotated rows, to 1e-12 absolute, where (x)_i O_i is the rotation
    ``_lab_frame`` applies at tau = 1 for xi_i = A_i.  The entropy clock at
    duration 10 is simulate's default run, to "stationary": its stop lands
    where C(theta0) - H = rate_min / 4, which fixes tau only to the
    resolution of H there (the two runs' last tau differ by up to 1.8e-5), so
    the last tau and theta row are left out.  Measured: 5.3e-15 in H, t, h_i
    and the rate, 2.5e-14 in theta."""
    shape = as_shape(dims)
    basis = product_basis(shape)
    rng = np.random.default_rng(13)
    A = [random_hermitian(q, rng) for q in shape.dims]
    V = [scipy.linalg.expm(-1j * a) for a in A]
    parts = tuple((i, random_hermitian(q, rng)) for i, q in enumerate(shape.dims))
    rotated_parts = tuple((i, V[i] @ x @ V[i].conj().T) for i, x in parts)
    rho0 = regularised_correlated_state(shape, EPS)
    V_all = reduce(np.kron, V)
    runs = []
    for state, xi_parts in ((rho0, parts), (V_all @ rho0 @ V_all.conj().T, rotated_parts)):
        cfg = FlowConfig(xi_parts=xi_parts if kind == "combined" else ())
        theta0 = params_from_state(state, basis)
        runs.append(integrate(theta0, basis, cfg, clock=clock, duration=duration, kind=kind))
    plain, rotated = runs
    assert plain.status == rotated.status
    assert plain.status == ("stationary" if duration == 10.0 else "completed")
    assert plain.integrator == rotated.integrator
    for name in ("H", "t", "marginals", "rate"):
        assert np.abs(getattr(plain, name) - getattr(rotated, name)).max() <= 1e-12, name
    k = plain.n_samples - (plain.status == "stationary")
    assert np.abs(plain.tau[:k] - rotated.tau[:k]).max() <= 1e-12
    expected = _lab_frame(plain.theta[:k], np.ones(k), basis, [np.linalg.eigh(a) for a in A])
    assert np.abs(rotated.theta[:k] - expected).max() <= 1e-12


def _product_of_marginals(rho, shape):
    return reduce(np.kron, marginals(rho, shape))


@pytest.mark.parametrize("start", ["all_sectors", "random_kernel"])
@pytest.mark.parametrize("dims", [[3, 3], [2, 3], [2, 2, 2], [2, 2, 2, 2]])
def test_dissipative_endpoint_is_product_of_start_marginals(dims, start):
    """The exact endpoint law.  ker M holds every direction with d rho_i = 0,
    so the dissipative flow keeps each marginal rho_i(theta0); P theta = 0
    puts theta in the local span, a product state; the only product state
    with those marginals is (x)_i rho_i(theta0).  So H_end = C(theta0) and,
    on the entropy clock, t_end = I(rho0)/c.

    Tolerances, with n subsystems and the FlowConfig defaults:
    - the run stops where C(theta0) - H = rate_min / 4; near a product state
      with correlation part delta = P theta, rate = delta^T G delta and the
      remaining multi-information is I_end = delta^T G delta / 2 + O(delta^3),
      so I_end < rate_min (a factor 2 to spare);
    - the conservation monitor holds every h_i within conservation_tol, so
      |C_end - C(theta0)| <= n conservation_tol.  Hence
      |H_end - C(theta0)| = |C_end - C(theta0) - I_end|
      <= n conservation_tol + rate_min;
    - c t_end = H_end - H_0, budgeted like a marginal entropy at
      conservation_tol, and H_0 = C(theta0) - I(rho0), so
      |t_end - I(rho0)/c| <= ((n + 1) conservation_tol + rate_min) / c;
    - by Pinsker, |rho_end - (x)_i rho_i,end|_F <= |.|_1 <= sqrt(2 I_end)
      <= sqrt(2 rate_min), and the marginals move only by the Newton
      tolerance, budgeted at conservation_tol each, so
      |rho_end - (x)_i rho_i(theta0)|_F <= sqrt(2 rate_min) + n conservation_tol.
    Measured: |H_end - C| <= 2.5e-11, |t_end - I/c| <= 2.5e-11 and
    |rho_end - (x)rho_i|_F <= 2.9e-6, against budgets of at least 2e-6, 3e-6
    and 1.6e-5."""
    shape = as_shape(dims)
    basis = product_basis(shape)
    rng = np.random.default_rng(7)
    if start == "all_sectors":
        theta0 = 0.5 * rng.normal(size=basis.size)
    else:
        theta0 = np.zeros(basis.size)
        theta0[basis.correlation_indices()] = rng.normal(size=basis.correlation_indices().size)
        theta0 /= np.linalg.norm(theta0)
    cfg = FlowConfig()
    n = shape.n_subsystems
    rho0 = state_from_params(theta0, basis)
    traj = integrate(theta0, basis, cfg, clock="entropy", duration=50.0)
    assert traj.status == "stationary"

    C0 = float(marginal_entropies(rho0, shape).sum())
    assert abs(traj.H[-1] - C0) <= n * cfg.conservation_tol + cfg.rate_min
    budget_t = ((n + 1) * cfg.conservation_tol + cfg.rate_min) / cfg.c
    assert abs(traj.t[-1] - multi_information(rho0, shape) / cfg.c) <= budget_t
    rho_end = state_from_params(traj.theta[-1], basis)
    budget_rho = np.sqrt(2 * cfg.rate_min) + n * cfg.conservation_tol
    assert np.linalg.norm(rho_end - _product_of_marginals(rho0, shape)) <= budget_rho


def test_combined_endpoint_is_rotated_product_of_start_marginals():
    """With a reversible sector the dissipative endpoint is seen through
    V(tau_end) = e^(-i xi tau_end): V ((x)_i rho_i(theta0)) V^dag, to the
    Frobenius budget of the dissipative law (V preserves the norm).  V is
    taken by expm here, not from the eigenpairs of xi as in integrate.
    Measured: 3.0e-6 at tau_end = 11.7, against 1.6e-5."""
    shape = as_shape([2, 3])
    basis = product_basis(shape)
    rng = np.random.default_rng(7)
    parts = tuple((i, random_hermitian(q, rng)) for i, q in enumerate(shape.dims))
    theta0 = 0.5 * rng.normal(size=basis.size)
    cfg = FlowConfig(xi_parts=parts)
    traj = integrate(theta0, basis, cfg, clock="entropy", duration=50.0, kind="combined")
    assert traj.status == "stationary"
    V = scipy.linalg.expm(-1j * traj.tau[-1] * assemble_local_generator(shape, parts))
    target = V @ _product_of_marginals(state_from_params(theta0, basis), shape) @ V.conj().T
    budget_rho = np.sqrt(2 * cfg.rate_min) + shape.n_subsystems * cfg.conservation_tol
    assert np.linalg.norm(state_from_params(traj.theta[-1], basis) - target) <= budget_rho


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
