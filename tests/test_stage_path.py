"""Chart points at every |theta|: one path, near the origin and far out.

Every chart point of a run with a dissipative sector computes K(theta) and
one eigendecomposition of it, at any |theta|, and a reversible-only run
computes one, of K(theta0).  Runs start both near theta = 0 and beyond
|theta| = 18.27, where a [3,3] flow once switched to another stage path; the
spectrum bound lambda_min(rho_i) >= e^(-sqrt2 |theta|) / d_i that set that
landmark still holds.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import entroflow.expfamily
import entroflow.flow
from entroflow import (
    BoundaryStateError,
    ConservationError,
    FlowConfig,
    IntegrationError,
    NumericalDegeneracyError,
    as_shape,
    integrate,
    make_point,
    params_from_state,
    product_basis,
    random_hermitian,
    regularized_origin,
)
from entroflow.constraint import marginal_eigh
from entroflow.flow import SAMPLES
from entroflow.operators import marginals

BOUND_SHAPES = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (4, 4)]
# Largest |theta| drawn: past the landmark at every shape (at most 18.56),
# while the bounds stay far above the round-off of the marginal eigenvalues.
NORM_MAX = 20.0
LANDMARK = 18.27  # at [3,3]


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


def _xi_parts(rng):
    return ((0, random_hermitian(3, rng)), (1, random_hermitian(3, rng)))


def _runs(rng):
    """(theta0, basis, config, clock, duration) per kind, from a start near
    theta = 0 and from one far out."""
    shape = as_shape([3, 3])
    basis = product_basis(shape)
    deep = params_from_state(regularized_origin(shape, 1e-8), basis)  # |theta0| = 19.4
    theta0 = rng.normal(size=basis.size) * 0.15
    rev = FlowConfig(atol=1e-10, rtol=1e-10, xi_parts=_xi_parts(rng))
    return {
        "reversible": [(t, basis, rev, "game", 0.3) for t in (theta0, deep)],
        "dissipative": [(t, basis, FlowConfig(), "entropy", 0.5) for t in (theta0, deep)],
        "combined": [(t, basis, rev, "game", 0.3) for t in (theta0, deep)],
    }


@pytest.mark.parametrize("name", ["reversible", "dissipative", "combined"])
def test_runs_build_no_chart_point(name, monkeypatch):
    """Near the origin and far out, no chart point and no sample builds an
    ExpFamilyPoint or diagonalises a marginal.  A dissipative or combined
    chart point takes one eigendecomposition of K, which a sample reuses, and
    one pass of BKM rows over its rotated stack.  A reversible-only run
    evaluates no rows: theta stays theta0 in the rotating frame, so the run
    takes one eigendecomposition and every sample of its tau grid reuses it."""
    assert not hasattr(entroflow.flow, "make_point")
    assert not hasattr(entroflow.flow, "marginal_eigh")
    points, spectra, rows = [], [], []

    def counting(calls, real):
        def wrapped(*args):
            calls.append(None)
            return real(*args)

        return wrapped

    monkeypatch.setattr(entroflow.expfamily, "make_point", counting(points, make_point))
    monkeypatch.setattr(entroflow.flow, "_spectrum", counting(spectra, entroflow.flow._spectrum))
    monkeypatch.setattr(entroflow.flow, "_bkm_rows", counting(rows, entroflow.flow._bkm_rows))
    norms = []
    for theta0, basis, cfg, clock, duration in _runs(np.random.default_rng(1))[name]:
        spectra.clear()
        rows.clear()
        traj = integrate(theta0, basis, cfg, clock=clock, duration=duration, kind=name)
        assert traj.status in ("completed", "stationary")
        assert points == []
        chart_points = traj.integrator["chart_points"]
        if name == "reversible":
            assert len(spectra) == 1 and rows == [] and chart_points == 1
            np.testing.assert_array_equal(traj.tau, duration * np.arange(SAMPLES + 1) / SAMPLES)
        else:
            assert len(spectra) == len(rows) == chart_points >= traj.n_samples
        norms.append(np.linalg.norm(traj.theta, axis=1))
    assert norms[0].max() < LANDMARK < norms[1][0]


def test_reversible_run_far_out_still_hits_marginal_floor(qutrit_pair):
    """theta0 on one local diagonal element, far past the landmark: a
    marginal eigenvalue lies below FULL_RANK_FLOOR.  The unitary flow takes no
    marginal logarithm and completes, conserving every h_i; the projection
    meets an ill-conditioned G_LL at theta0 and raises there."""
    shape, basis = qutrit_pair
    theta0 = np.zeros(basis.size)
    theta0[basis.local_indices(0)[-1]] = 60.0
    with pytest.raises(BoundaryStateError):
        marginal_eigh(make_point(theta0, basis))
    cfg = FlowConfig(xi_parts=_xi_parts(np.random.default_rng(2)))
    traj = integrate(theta0, basis, cfg, clock="game", duration=0.1, kind="reversible")
    assert traj.status == "completed" and traj.n_samples > 1
    assert np.abs(traj.marginals - traj.marginals[0]).max() <= 1e-12
    for kind in ("dissipative", "combined"):
        with pytest.raises(NumericalDegeneracyError) as exc_info:
            integrate(theta0, basis, cfg, clock="game", duration=0.1, kind=kind)
        assert not isinstance(exc_info.value, IntegrationError)  # raised at theta0


def test_non_finite_stage_theta_takes_exact_path(qutrit_pair, monkeypatch):
    """The one path for a theta_L that is not finite: once every Newton step
    comes out NaN, the next trial is NaN and is halved without evaluating a
    chart point, until the solve's budget runs out (ConservationError).  For
    both kinds with a dissipative sector the partial trajectory is the clean
    run's up to the poisoning, in the lab frame too."""
    shape, basis = qutrit_pair
    theta0 = np.random.default_rng(3).normal(size=basis.size) * 0.1
    cfg = FlowConfig(xi_parts=_xi_parts(np.random.default_rng(4)))
    kinds = ("dissipative", "combined")

    def run(kind):
        return integrate(theta0, basis, cfg, clock="game", duration=0.5, kind=kind)

    clean = {kind: run(kind) for kind in kinds}
    calls = []

    def poisoned(real):
        def wrapped(*args):
            calls.append(None)
            out = real(*args)
            if len(calls) <= 8:
                return out
            return dataclasses.replace(out, newton=np.full_like(out.newton, np.nan))

        return wrapped

    real = entroflow.flow._curve_point
    monkeypatch.setattr(entroflow.flow, "_curve_point", poisoned(real))
    for kind in kinds:
        calls.clear()
        with pytest.raises(ConservationError, match="Newton") as exc_info:
            run(kind)
        partial = exc_info.value.trajectory
        assert partial.status == "conservation" and 1 < partial.n_samples < clean[kind].n_samples
        assert len(calls) == partial.integrator["chart_points"] == 9
        n = partial.n_samples
        for field in ("tau", "t", "H", "theta", "rate", "marginals"):
            np.testing.assert_array_equal(
                getattr(partial, field), getattr(clean[kind], field)[:n], err_msg=field
            )
