"""The |theta| certificate of the flow's boundary guards.

Inside ``flow._clear_radius`` a stage skips the marginal guard and builds
no chart point.  Oracle: the same runs with the radius forced to 0, where
every stage takes the exact path (chart point and marginal eigensolve), must
agree bitwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import entroflow.flow
from entroflow import (
    BoundaryStateError,
    FlowConfig,
    as_shape,
    integrate,
    make_point,
    params_from_state,
    product_basis,
    random_hermitian,
    regularized_origin,
)
from entroflow.constraint import marginal_eigh
from entroflow.operators import marginals
from entroflow.states import FULL_RANK_FLOOR

BOUND_SHAPES = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (4, 4)]
# Largest |theta| drawn: past R at every shape (R = 18.27 at [3,3]), while the
# bounds stay far above the round-off of the marginal eigenvalues.
NORM_MAX = 20.0


def test_clear_radius_value():
    assert entroflow.flow._clear_radius(as_shape([3, 3])) == pytest.approx(18.27, abs=5e-3)
    # the largest local dimension sets the radius
    assert entroflow.flow._clear_radius(as_shape([2, 4])) == entroflow.flow._clear_radius(
        as_shape([4, 4])
    )


@st.composite
def scaled_thetas(draw):
    """(basis, theta): |theta| in [0, NORM_MAX], spread or on one or two elements."""
    basis = product_basis(as_shape(draw(st.sampled_from(BOUND_SHAPES))))
    m = basis.size
    if draw(st.booleans()):
        direction = draw(arrays(np.float64, m, elements=st.floats(-1.0, 1.0)))
    else:
        direction = np.zeros(m)
        for _ in range(draw(st.integers(1, 2))):
            direction[draw(st.integers(0, m - 1))] += draw(st.sampled_from([-1.0, 1.0])) * draw(
                st.floats(0.1, 1.0)
            )
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        direction[0], norm = 1.0, 1.0
    return basis, draw(st.floats(0.0, NORM_MAX)) * direction / norm


@settings(derandomize=True, deadline=None, max_examples=150)
@given(scaled_thetas())
def test_spectrum_bound_holds(case):
    """lambda_min(rho) >= e^(-sqrt2 |theta|)/d and lambda_min(rho_i) >= e^(-sqrt2 |theta|)/d_i."""
    basis, theta = case
    shape = basis.shape
    point = make_point(theta, basis)
    decay = np.exp(-np.sqrt(2.0) * np.linalg.norm(theta))
    assert point.eigvals[0] >= decay / shape.total_dim * (1.0 - 1e-12)
    for rho_i, di in zip(marginals(point.rho, shape), shape.dims):
        # the marginal carries the round-off of rho, about d * 1e-16
        assert np.linalg.eigvalsh(rho_i)[0] >= decay / di - 1e-15


def test_inside_radius_marginal_guard_passes():
    """Just inside R, even the extreme direction (one local diagonal element)
    leaves every marginal eigenvalue above twice the floor."""
    shape = as_shape([3, 3])
    basis = product_basis(shape)
    radius = entroflow.flow._clear_radius(shape)
    for a in basis.local_indices():
        theta = np.zeros(basis.size)
        theta[a] = 0.999 * radius
        for w, _ in marginal_eigh(make_point(theta, basis)):
            assert w[0] > 2.0 * FULL_RANK_FLOOR


def _xi_parts(rng):
    return ((0, random_hermitian(3, rng)), (1, random_hermitian(3, rng)))


def _runs(rng):
    """(theta0, basis, config, clock, duration, kind) for the oracle comparison."""
    shape = as_shape([3, 3])
    basis = product_basis(shape)
    origin = params_from_state(regularized_origin(shape, 0.05), basis)
    # |theta0| = 19.4 > R: the run starts on the exact path
    deep = params_from_state(regularized_origin(shape, 1e-8), basis)
    theta0 = rng.normal(size=basis.size) * 0.15
    parts = _xi_parts(rng)
    rev = FlowConfig(atol=1e-10, rtol=1e-10, xi_parts=parts)
    four = product_basis(as_shape([2, 2, 2, 2]))
    corr = four.correlation_indices()
    theta4 = np.zeros(four.size)
    theta4[corr] = rng.normal(size=corr.size) * 0.3
    return {
        "reversible": (theta0, basis, rev, "game", 1.0, "reversible"),
        "reversible_past_radius": (deep, basis, rev, "game", 0.3, "reversible"),
        "dissipative": (origin, basis, FlowConfig(), "entropy", 10.0, "dissipative"),
        "dissipative_past_radius": (deep, basis, FlowConfig(), "entropy", 0.5, "dissipative"),
        "combined": (theta0, basis, rev, "game", 0.5, "combined"),
        "four_qubit_dissipative": (theta4, four, FlowConfig(), "game", 0.5, "dissipative"),
    }


@pytest.mark.parametrize(
    "name",
    [
        "reversible",
        "reversible_past_radius",
        "dissipative",
        "dissipative_past_radius",
        "combined",
        "four_qubit_dissipative",
    ],
)
def test_certified_stages_match_exact_path(name, monkeypatch):
    theta0, basis, cfg, clock, duration, kind = _runs(np.random.default_rng(20260819))[name]

    def run():
        return integrate(theta0, basis, cfg, clock=clock, duration=duration, kind=kind)

    fast = run()
    monkeypatch.setattr(entroflow.flow, "_clear_radius", lambda shape: 0.0)
    exact = run()
    for field in ("tau", "t", "H", "theta", "rate", "C", "marginals"):
        np.testing.assert_array_equal(getattr(fast, field), getattr(exact, field), err_msg=field)
    assert fast.status == exact.status
    assert fast.integrator == exact.integrator


@pytest.mark.parametrize("name", ["reversible", "dissipative", "combined"])
def test_runs_inside_radius_build_no_chart_point(name, monkeypatch):
    """Inside the radius no stage and no sample builds a chart point.  A
    dissipative stage takes one eigendecomposition of K and each sample reuses
    it; a reversible stage reads its field from K alone, and only a sample
    takes the eigendecomposition."""
    theta0, basis, cfg, clock, duration, kind = _runs(np.random.default_rng(1))[name]
    points, spectra = [], []

    def counting(calls, real):
        def wrapped(*args):
            calls.append(None)
            return real(*args)

        return wrapped

    for attr, calls in (("make_point", points), ("_spectrum", spectra)):
        monkeypatch.setattr(entroflow.flow, attr, counting(calls, getattr(entroflow.flow, attr)))
    traj = integrate(theta0, basis, cfg, clock=clock, duration=duration, kind=kind)
    assert traj.status in ("completed", "stationary")
    radius = entroflow.flow._clear_radius(basis.shape)
    assert np.linalg.norm(traj.theta, axis=1).max() < radius
    assert points == []
    stages = traj.integrator["rhs_evals"]
    assert len(spectra) == (traj.n_samples if kind == "reversible" else stages)
    assert stages > 5 * traj.n_samples


def test_reversible_run_past_radius_still_hits_marginal_floor(qutrit_pair):
    """theta0 on one local diagonal element, far past R: a marginal eigenvalue
    is below FULL_RANK_FLOOR, and the exact guard raises as before."""
    shape, basis = qutrit_pair
    theta0 = np.zeros(basis.size)
    theta0[basis.local_indices(0)[-1]] = 60.0
    assert np.linalg.norm(theta0) > entroflow.flow._clear_radius(shape)
    cfg = FlowConfig(xi_parts=_xi_parts(np.random.default_rng(2)))
    with pytest.raises(BoundaryStateError, match=f"{FULL_RANK_FLOOR}"):
        integrate(theta0, basis, cfg, clock="game", duration=0.1, kind="reversible")


def test_non_finite_stage_theta_takes_exact_path(qutrit_pair, monkeypatch):
    """A NaN stage theta is never certified clear; make_point rejects it."""
    shape, basis = qutrit_pair
    theta0 = np.random.default_rng(3).normal(size=basis.size) * 0.1
    cfg = FlowConfig(xi_parts=_xi_parts(np.random.default_rng(4)))
    real = entroflow.flow._commutator
    calls = []

    def poisoned(basis, K, xi):
        calls.append(None)
        v = real(basis, K, xi)
        return v if len(calls) == 1 else np.full_like(v, np.nan)

    monkeypatch.setattr(entroflow.flow, "_commutator", poisoned)
    with pytest.raises(ValueError, match="theta must be finite"):
        integrate(theta0, basis, cfg, clock="game", duration=0.5, kind="reversible")
