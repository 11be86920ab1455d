"""The flow's predictor, its sample monitor and the shared marginal logarithm.

``integrate`` predicts each curve point by the cubic Hermite interpolant in
s = e^x through a solved point and its neighbour (``_predicted_step``), reads
each sample's marginal entropies from the local mean parameters
(``OperatorBasis.local_marginals``), and the constraint geometry reads its
gradient and Hessian through one centred direction U^dag (K(g) - (g . mu) I) U,
g = dC/dmu_L (``_centred_direction``).  The oracles: the first-order step, a
run solved at a 1e-13 Newton tolerance, ``marginal_entropies`` of each state,
and tr(rho Lambda) I - Lambda for the ``embed_local`` Kronecker sum
Lambda = sum_i log rho_i (x) I.
"""

import math

import numpy as np
import pytest

import entroflow.flow
from entroflow import (
    FlowConfig,
    as_shape,
    constraint_geometry,
    constraint_gradient,
    constraint_hessian,
    integrate,
    make_point,
    marginal_entropies,
    product_basis,
    random_hermitian,
)
from entroflow.constraint import _centred_direction, marginal_eigh
from entroflow.flow import SAMPLES, _CurvePoint, _hermite_root, _predicted_step
from entroflow.operators import marginals
from entroflow.states import _stack_entropies
from tests.reference_geometry import kron_log_sum
from tests.test_kronecker_contractions import SHAPES, rotated_basis

# A cubic theta_L(s) = sum_k C[k] s^k in s = e^x, with its tangent d theta_L / dx.
CUBIC = np.array([[0.3, -1.2, 0.5], [1.1, 0.4, -0.7], [-0.6, 0.9, 0.2], [0.25, -0.35, 0.8]])


def on_cubic(x, *, newton=0.0, tangent_scale=1.0):
    """The curve point of the cubic at x, its theta_L off the curve by
    ``newton`` (which its Newton update takes back)."""
    s = math.exp(x)
    theta = sum(c * s**k for k, c in enumerate(CUBIC))
    tangent = sum(k * c * s**k for k, c in enumerate(CUBIC))
    off = np.full(3, newton)
    return curve_point(x, theta - off, off, tangent_scale * tangent)


def curve_point(x, theta, newton, tangent):
    """A curve point with only what the predictor reads."""
    return _CurvePoint(x, theta, None, 0.0, 0.0, 0.0, 0.0, newton, tangent)


def seeded_kernel_start(basis, seed):
    """A seeded unit direction in ker M at theta = 0 (the flow-multipartite start)."""
    kernel = constraint_geometry(make_point(np.zeros(basis.size), basis)).kernel
    v = kernel @ np.random.default_rng(seed).normal(size=kernel.shape[1])
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("x", [-1.4, -1.9, -0.6])
def test_predictor_reproduces_a_cubic_in_s(x):
    """Between the pair and up to its spacing beyond ``near``, the prediction
    of a cubic in s is exact; the partner is the neighbour nearer to x, so a
    point off the cubic on the far side does not enter."""
    near, other = on_cubic(-1.0, newton=1e-3), on_cubic(-2.0, newton=-2e-3)
    far = curve_point(0.0, np.full(3, 9.0), np.zeros(3), np.ones(3))
    neighbours = [other, far] if x < -1.0 else [other]
    got = near.theta + near.newton + _predicted_step(x, near, neighbours)
    assert np.abs(got - on_cubic(x).theta).max() <= 1e-14


@pytest.mark.parametrize(
    "neighbours, why",
    [
        ([], "no neighbour"),
        ([on_cubic(-1.1)], "neighbour spacing 0.1 narrower than the step 0.5"),
        ([on_cubic(-0.8), on_cubic(-1.3)], "both spacings narrower than the step"),
        ([on_cubic(-2.0, tangent_scale=30.0)], "partner slope off the secant"),
    ],
)
def test_predictor_falls_back_to_the_first_order_step(neighbours, why):
    near = on_cubic(-1.0)
    x = -1.5
    expected = math.expm1(x - near.x) * near.tangent
    np.testing.assert_array_equal(_predicted_step(x, near, neighbours), expected, err_msg=why)
    # The cubic term is what the fallback gives up: the Hermite step is closer.
    hermite = near.theta + _predicted_step(x, near, [on_cubic(-2.0)])
    target = on_cubic(x).theta
    assert np.abs(hermite - target).max() < np.abs(near.theta + expected - target).max()


# g(x) = log(C0 - H_curve), an exact cubic increasing on [-2.5, -1], and its slope.
C0 = 1.5


def g_cubic(x):
    return 2.0 * x - 0.3 + 0.15 * (x + 1.5) ** 2 + 0.05 * (x + 1.5) ** 3


def g_slope(x):
    return 2.0 + 0.3 * (x + 1.5) + 0.15 * (x + 1.5) ** 2


def on_gap(x, g=g_cubic, slope=g_slope):
    """A curve point whose gap C0 - H_curve is e^g(x) and whose rate gives
    the slope rate / gap = g'(x)."""
    gap = math.exp(g(x))
    return _CurvePoint(x, None, None, 0.0, 0.0, C0 - gap, slope(x) * gap, None, None)


@pytest.mark.parametrize("root", [-1.1, -1.8, -2.4])
def test_hermite_root_of_an_exact_cubic(root):
    """Between two points of an exact cubic g, the Hermite interpolant is g,
    so the landing goal's root is found to 1e-13.  As in ``integrate``, a is
    the point of higher H (lower x), where g is lower."""
    a, b = on_gap(-2.5), on_gap(-1.0)
    assert abs(_hermite_root(a, b, C0, math.exp(g_cubic(root))) - root) <= 1e-13


def test_hermite_root_needs_positive_gaps():
    """nan when the gap at a, C0 - a.H_curve, or the goal gap is not positive."""
    a, b = on_gap(-2.5), on_gap(-1.0)
    goal = math.exp(g_cubic(-1.8))
    assert math.isnan(_hermite_root(a, b, a.H_curve, goal))
    assert math.isnan(_hermite_root(a, b, a.H_curve - 0.1, goal))
    for bad in (0.0, -goal):
        assert math.isnan(_hermite_root(a, b, C0, bad))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_curved_game_run_takes_one_chart_point_per_inner_sample(seed, monkeypatch):
    """The flow-multipartite run (four qubits, a seeded kernel direction of
    norm 1, game clock to tau 0.5): theta_L moves, yet each of the
    SAMPLES - 1 inner samples is solved by its first chart point.  The whole
    run takes 10 (the first-order predictor took 17)."""
    basis = product_basis([2, 2, 2, 2])
    theta0 = seeded_kernel_start(basis, seed)
    real = entroflow.flow._curve_point
    xs = []

    def counted(x, *args):
        xs.append(x)
        return real(x, *args)

    monkeypatch.setattr(entroflow.flow, "_curve_point", counted)
    traj = integrate(theta0, basis, FlowConfig(), clock="game", duration=0.5)
    assert traj.status == "completed"
    assert traj.integrator["chart_points"] == len(xs) == 10
    assert np.ptp(traj.theta[:, basis.local_sector], axis=0).max() > 1e-3  # theta_L moves
    for k in range(1, SAMPLES):
        assert xs.count(-traj.tau[k]) == 1, k


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_curved_run_matches_a_tightly_solved_run(seed):
    """Against the same run solved to max |mu_L - mu_L(theta0)| <= 1e-13, every
    sample's mu_L, H, h_i and rate agree within the default bound atol +
    rtol max |mu_L(theta0)|; theta_L only to G_LL^{-1} times it (measured up
    to 7.5e-8, against 2.6e-9 to 4.7e-9 in mu_L)."""
    basis = product_basis([2, 2, 2, 2])
    local = basis.local_sector
    theta0 = seeded_kernel_start(basis, seed)
    runs = [
        integrate(theta0, basis, cfg, clock="game", duration=0.5)
        for cfg in (FlowConfig(), FlowConfig(atol=1e-13, rtol=0.0))
    ]
    default, tight = runs
    np.testing.assert_array_equal(default.tau, tight.tau)
    bound = 1e-8 + 1e-8 * np.abs(make_point(theta0, basis).mu[local]).max()
    mu = [np.array([make_point(t, basis).mu[local] for t in run.theta]) for run in runs]
    assert np.abs(mu[0] - mu[1]).max() <= bound
    for name in ("H", "marginals", "rate"):
        assert np.abs(getattr(default, name) - getattr(tight, name)).max() <= bound, name


def local_entropies(basis, mu_local):
    """h_i of every subsystem from the stacks of ``local_marginals``, as
    ``integrate`` records them."""
    out = np.empty(basis.shape.n_subsystems)
    for members, rho in basis.local_marginals(mu_local):
        out[members] = _stack_entropies(rho)
    return out


def bases():
    rng = np.random.default_rng(29)
    for dims in SHAPES + [[2, 2, 3]]:  # [2,2,3]: a group of two beside a group of one
        yield product_basis(dims)
    full = product_basis([2, 3])
    keep = np.concatenate([full.local_sector, full.correlation_indices()[::2]])
    yield rotated_basis([2, 3], rng, keep)
    yield rotated_basis([2, 2, 2], rng)


@pytest.mark.parametrize("basis", list(bases()), ids=lambda b: "x".join(map(str, b.shape.dims)))
def test_marginal_logs_and_monitor_match_their_oracles(basis):
    """At random points: U v_t U^dag for the centred direction v_t equals
    tr(rho Lambda) I - Lambda for the embed_local sum Lambda to 1e-13, the
    geometry's shared v_t gives the gradient and Hessian of the standalone
    calls bit for bit, and the marginals ``local_marginals`` reads from mu_L
    match the partial traces of rho, their entropies ``marginal_entropies``
    of rho and their spectra ``marginal_eigh``, to 1e-14."""
    rng = np.random.default_rng(7)
    local = basis.local_sector
    for scale in (0.3, 1.5):
        point = make_point(scale * rng.normal(size=basis.size) / math.sqrt(basis.size), basis)
        spectra = marginal_eigh(point)
        U, Lam = point.eigvecs, kron_log_sum(basis.shape, spectra)
        centred = U @ _centred_direction(point, spectra) @ U.conj().T
        expected = np.trace(point.rho @ Lam).real * np.eye(point.dim) - Lam
        assert np.abs(centred - expected).max() <= 1e-13
        geom = constraint_geometry(point, include_hessian=True)
        np.testing.assert_array_equal(geom.grad, constraint_gradient(point))
        np.testing.assert_array_equal(geom.hessian, constraint_hessian(point))
        got = local_entropies(basis, point.mu[local])
        assert np.abs(got - marginal_entropies(point.rho, basis.shape)).max() <= 1e-14
        traced = marginals(point.rho, basis.shape)
        for members, rho in basis.local_marginals(point.mu[local]):
            for i, rho_i in zip(members, rho):
                assert np.abs(rho_i - traced[i]).max() <= 1e-14
                assert np.abs(np.linalg.eigvalsh(rho_i) - spectra[i][0]).max() <= 1e-14


@pytest.mark.parametrize("dims", [[2, 3], [2, 2, 2, 2]])
def test_sample_monitor_matches_each_samples_state(dims):
    """A curved run's recorded h_i are the marginal entropies of the states
    its theta rows define, to 1e-13 (each row's K is diagonalised afresh)."""
    basis = product_basis(dims)
    traj = integrate(seeded_kernel_start(basis, 5), basis, FlowConfig(), clock="game", duration=1.0)
    states = [make_point(theta, basis).rho for theta in traj.theta]
    expected = np.array([marginal_entropies(rho, as_shape(dims)) for rho in states])
    assert np.abs(traj.marginals - expected).max() <= 1e-13


def test_reversible_only_run_reads_its_marginals_from_mu_L():
    """A reversible-only [2,2,3] run, xi blocks on a qubit and the qutrit,
    records at every sample the marginal entropies of its start state to
    1e-14: its h_i come from mu_L(theta0) through both groups of
    ``local_marginals``, not from a partial trace."""
    basis = product_basis([2, 2, 3])
    rng = np.random.default_rng(11)
    theta0 = 0.4 * rng.normal(size=basis.size)
    xi_parts = ((0, random_hermitian(2, rng)), (2, random_hermitian(3, rng)))
    traj = integrate(
        theta0, basis, FlowConfig(xi_parts=xi_parts), clock="game", duration=2.0, kind="reversible"
    )
    assert traj.n_samples == SAMPLES + 1 == 9
    expected = marginal_entropies(make_point(theta0, basis).rho, basis.shape)
    assert np.abs(traj.marginals - expected).max() <= 1e-14


def test_sample_monitor_keeps_the_eigenvalue_floor():
    """mu_L far outside the marginal polytope gives a marginal eigenvalue
    below EIG_CLIP_FLOOR, which raises as ``marginal_entropies`` does."""
    basis = product_basis([2, 2])
    local = basis.local_sector
    with pytest.raises(ValueError, match="round-off floor"):
        local_entropies(basis, np.full(local.size, 5.0))
