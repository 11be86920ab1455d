"""End-to-end checks of the command-line driver, run in process via main().

Exit code contract: 0 all checks passed, 1 at least one numeric check
failed, 2 configuration or runtime error before any verdict.
"""

import csv
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import (
    FlowConfig,
    as_shape,
    constraint_geometry,
    entropy_time_fit,
    make_point,
    params_from_state,
    product_basis,
    random_joint_distribution,
    regularized_origin,
    shannon_entropies,
    stiffness_spectrum,
)
from entroflow.cli import _FLOW_DEFAULTS, _KEYS, _origin_report, main

LN2 = np.log(2.0)


def run_cli(tmp_path, mode, cfg=None, extra=(), name="cfg.json"):
    argv = [mode, "--out", str(tmp_path)]
    if cfg is not None:
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        argv += ["--config", str(path)]
    argv += list(extra)
    return main(argv)


def read_report(capsys):
    return json.loads(capsys.readouterr().out)


def test_simulate_entropy_clock_passes(tmp_path, capsys):
    code = run_cli(tmp_path, "simulate", {"duration": 0.8})
    report = read_report(capsys)
    assert code == 0
    assert report["failures"] == []
    assert report["termination_status"] == "completed"
    assert abs(report["slope_of_H_vs_t"] - 1.0) <= 1e-4
    assert report["r_squared"] > 1 - 1e-8
    assert report["units"] == "nats"
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "summary.json").exists()
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk["H_final"] == report["H_final"]


def test_simulate_deterministic_output(tmp_path, capsys):
    cfg = {"start": "random_kernel", "start_scale": 1e-3, "clock": "game", "duration": 0.5,
           "seed": 11}
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert run_cli(a, "simulate", cfg) == 0
    assert run_cli(b, "simulate", cfg) == 0
    capsys.readouterr()
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


def test_random_kernel_start_lies_on_correlation_axes(tmp_path, capsys):
    """At theta = 0 ker M is the span of the correlation axes, so the start
    has no local component at all and the requested norm."""
    cfg = {"shape": [2, 3], "start": "random_kernel", "start_scale": 0.02, "clock": "game",
           "duration": 0.05, "save_theta": True, "seed": 5}
    assert run_cli(tmp_path, "simulate", cfg) == 0
    capsys.readouterr()
    theta0 = np.array(json.loads((tmp_path / "theta.json").read_text())["samples"][0]["theta"])
    basis = product_basis(as_shape([2, 3]))
    assert np.all(theta0[basis.local_indices()] == 0.0)
    assert abs(np.linalg.norm(theta0) - 0.02) <= 1e-15


def test_simulate_seed_override_changes_start(tmp_path, capsys):
    cfg = {"start": "random_kernel", "start_scale": 0.1, "clock": "game", "duration": 0.2}
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert run_cli(a, "simulate", cfg, extra=["--seed", "1"]) == 0
    first = read_report(capsys)
    assert run_cli(b, "simulate", cfg, extra=["--seed", "2"]) == 0
    second = read_report(capsys)
    assert first["seed"] == 1 and second["seed"] == 2
    assert first["H_initial"] != second["H_initial"]


def test_simulate_bits_rescales_entropies(tmp_path, capsys):
    cfg = {"duration": 0.4, "seed": 3}
    a, b = tmp_path / "nats", tmp_path / "bits"
    a.mkdir(), b.mkdir()
    assert run_cli(a, "simulate", cfg) == 0
    nats = read_report(capsys)
    assert run_cli(b, "simulate", cfg, extra=["--bits"]) == 0
    bits = read_report(capsys)
    assert bits["units"] == "bits"
    assert abs(bits["H_final"] - nats["H_final"] / LN2) < 1e-12
    # CSV H column rescales, clock columns do not
    row_n = (a / "trajectory.csv").read_text().strip().split("\n")[1].split(",")
    row_b = (b / "trajectory.csv").read_text().strip().split("\n")[1].split(",")
    assert abs(float(row_b[3]) - float(row_n[3]) / LN2) < 1e-12
    assert row_b[2] == row_n[2]


def test_simulate_save_theta(tmp_path, capsys):
    assert run_cli(tmp_path, "simulate", {"duration": 0.3, "save_theta": True}) == 0
    report = read_report(capsys)
    rec = json.loads((tmp_path / "theta.json").read_text())
    assert len(rec["samples"]) == report["n_samples"]
    assert len(rec["samples"][0]["theta"]) == 80


def test_simulate_combined_with_xi(tmp_path, capsys):
    sy = [[0, [0, -1]], [[0, 1], 0]]
    cfg = {
        "shape": [2, 2],
        "kind": "combined",
        "duration": 0.5,
        "xi": [{"subsystem": 0, "matrix": sy}],
    }
    assert run_cli(tmp_path, "simulate", cfg) == 0
    report = read_report(capsys)
    assert report["failures"] == []
    assert abs(report["slope_of_H_vs_t"] - 1.0) <= 1e-4


def test_simulate_reversible_game_clock_passes(tmp_path, capsys):
    """A reversible run produces no entropy; its entropy clock must stay put
    (exactly 0) rather than jitter at round-off and trip monotone_t."""
    cfg = {
        "kind": "reversible",
        "clock": "game",
        "duration": 0.2,
        "xi": [{"subsystem": 0, "matrix": [[1, 0, 0], [0, -1, 0], [0, 0, 0]]}],
    }
    assert run_cli(tmp_path, "simulate", cfg) == 0
    report = read_report(capsys)
    assert report["failures"] == []
    assert report["termination_status"] == "completed"


def test_simulate_conservation_failure_exits_one(tmp_path, capsys):
    cfg = {
        "start": "random_kernel",
        "start_scale": 0.3,
        "clock": "game",
        "duration": 2.0,
        "atol": 1e-3,
        "rtol": 1e-3,
        "conservation_tol": 1e-14,
    }
    assert run_cli(tmp_path, "simulate", cfg) == 1
    report = read_report(capsys)
    assert any(f["check"] == "integration" for f in report["failures"])
    # diagnostics up to the abort still land on disk
    assert (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "cfg, alter, check",
    [
        # a t column that decreases; the game clock has no entropy_rate check
        ({"clock": "game", "duration": 0.5}, lambda traj: {"t": traj.t[::-1]}, "monotone_t"),
        # a slope of 2 c with t still increasing
        ({"duration": 0.8}, lambda traj: {"t": traj.t / 2}, "entropy_rate"),
    ],
)
def test_simulate_checks_read_the_returned_run(tmp_path, capsys, monkeypatch, cfg, alter, check):
    """Each sample check fails on its own on a real run altered after the
    solve: exit 1 with exactly that failure record."""
    import entroflow.cli

    real, runs = entroflow.cli.integrate, []

    def altered(*args, **kwargs):
        traj = real(*args, **kwargs)
        runs.append(dataclasses.replace(traj, **alter(traj)))
        return runs[-1]

    monkeypatch.setattr(entroflow.cli, "integrate", altered)
    assert run_cli(tmp_path, "simulate", cfg) == 1
    (traj,) = runs
    detail = {
        "monotone_t": "entropy-time column decreased",
        "entropy_rate": f"slope {entropy_time_fit(traj)[0]!r} vs c 1.0",
    }[check]
    assert read_report(capsys)["failures"] == [{"check": check, "detail": detail}]


def test_config_error_paths(tmp_path, capsys):
    assert run_cli(tmp_path, "simulate", {"no_such_key": 1}) == 2
    assert run_cli(tmp_path, "simulate", {"eps": 1.5}) == 2
    assert run_cli(tmp_path, "simulate", {"start": "nonsense"}) == 2
    assert run_cli(tmp_path, "obstruction-check", {"max_alphabet": 7}) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["simulate", "--out", str(tmp_path), "--config", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "mode, cfg",
    [
        ("simulate", {"duration": "10"}),
        ("simulate", {"shape": "3,3"}),
        ("simulate", {"shape": [3.0, 3]}),
        ("simulate", {"atol": "1e-8"}),
        ("simulate", {"rate_min": "1e-10"}),
        ("simulate", {"save_theta": 1}),
        ("simulate", {"xi": "none"}),
        ("origin-analysis", {"soft_tol": "1e-6"}),
        ("gibbs-check", {"beta_range": ["0.1", 2.0]}),
    ],
)
def test_mistyped_config_value_exits_two(tmp_path, capsys, mode, cfg):
    assert run_cli(tmp_path, mode, cfg) == 2
    assert "expects a value like" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["simulate", "origin-analysis"])
@pytest.mark.parametrize("dims", [[9, 9], [16, 16]])
def test_oversized_shape_exits_two_before_basis(tmp_path, capsys, monkeypatch, mode, dims):
    def no_basis(shape):
        raise AssertionError("product_basis called for an oversized shape")

    monkeypatch.setattr("entroflow.cli.product_basis", no_basis)
    assert run_cli(tmp_path, mode, {"shape": dims}) == 2
    assert "above the limit 64" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["simulate", "origin-analysis", "stiffness"])
@pytest.mark.parametrize(
    "exc, message",
    [(MemoryError("Unable to allocate 256. MiB"), "Unable to allocate"), (MemoryError(), "MemoryError")],
)
def test_memory_error_exits_two(tmp_path, capsys, monkeypatch, mode, exc, message):
    """Running out of memory is a runtime error (exit 2), not a failed check
    (exit 1, the code of an uncaught exception)."""

    def no_memory(shape):
        raise exc

    monkeypatch.setattr("entroflow.cli.product_basis", no_memory)
    assert run_cli(tmp_path, mode) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "cfg",
    [
        {"rate_min": 0},
        {"rate_min": -1e-10},
        {"atol": 0, "rtol": 0},
        {"atol": -1e-8},
        {"rtol": -1e-8},
        {"c": 0},
        {"c": -3},
        {"conservation_tol": -1},
        {"conservation_tol": 0},
    ],
)
def test_invalid_step_control_exits_two(tmp_path, capsys, monkeypatch, cfg):
    def no_integration(*args, **kwargs):
        raise AssertionError("integrate called with an invalid flow setting")

    monkeypatch.setattr("entroflow.cli.integrate", no_integration)
    assert run_cli(tmp_path, "simulate", cfg) == 2
    assert "must" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw",
    [
        '{"c": NaN}',
        '{"c": Infinity}',
        '{"rate_min": Infinity}',
        '{"conservation_tol": Infinity}',
        '{"atol": Infinity, "rtol": Infinity}',
        '{"duration": Infinity}',
        '{"duration": Infinity, "clock": "game"}',
    ],
)
def test_non_finite_flow_value_exits_two(tmp_path, capsys, monkeypatch, raw):
    """JSON has no NaN or Infinity literal, but Python's parser reads both."""
    def no_integration(*args, **kwargs):
        raise AssertionError("integrate called with a non-finite flow value")

    monkeypatch.setattr("entroflow.cli.integrate", no_integration)
    path = tmp_path / "cfg.json"
    path.write_text(raw)
    assert main(["simulate", "--out", str(tmp_path), "--config", str(path)]) == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode, raw",
    [
        ("obstruction-check", '{"slack": NaN}'),
        ("obstruction-check", '{"samples": 0}'),
        ("obstruction-check", '{"max_alphabet": 1}'),
        ("gibbs-check", '{"identity_tol": NaN}'),
        ("gibbs-check", '{"n_states": 0}'),
        ("gibbs-check", '{"beta_range": [0.1, Infinity]}'),
        ("origin-analysis", '{"eps_sweep": []}'),
        ("origin-analysis", '{"eps_sweep": [0.1, 1.0]}'),
        ("origin-analysis", '{"angle_tol": Infinity}'),
        ("stiffness", '{"soft_tol": -1}'),
        ("simulate", '{"start_scale": NaN}'),
    ],
)
def test_out_of_range_config_value_exits_two(tmp_path, capsys, mode, raw):
    """Values that would make a check vacuous or a mode fail late exit 2 up front."""
    path = tmp_path / "cfg.json"
    path.write_text(raw)
    assert main([mode, "--out", str(tmp_path), "--config", str(path)]) == 2
    assert "must be" in capsys.readouterr().err


# Every range-checked key of every mode: the table's own ranges and the
# simulate flow keys, which FlowConfig checks.
_RANGE_CHECKED = [
    (mode, key)
    for mode, keys in _KEYS.items()
    for key, (_, limit) in keys.items()
    if limit or (mode == "simulate" and key in _FLOW_DEFAULTS)
]


@pytest.mark.parametrize("mode, key", _RANGE_CHECKED)
def test_every_range_checked_key_rejects_nan_and_out_of_range(tmp_path, capsys, mode, key):
    """Read from the table, so that a key added later cannot skip its check.
    A count takes NaN as a float where an int belongs, a type error; 0 lies
    below every count's range and Infinity outside every float range."""
    default = _KEYS[mode][key][0]
    scalar = default[0] if isinstance(default, list) else default
    is_count = type(scalar) is int
    for value, message in [
        (math.nan, "expects a value like" if is_count else "must be"),
        (0 if is_count else math.inf, "must be"),
    ]:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: [value] if isinstance(default, list) else value}))
        assert main([mode, "--out", str(tmp_path), "--config", str(path)]) == 2, value
        assert message in capsys.readouterr().err, value


def test_every_numeric_key_has_a_range():
    """Only shape (checked by as_shape and the dimension limit), seed (any
    integer numpy accepts) and the flow keys go without a range in the table."""
    unranged = {
        key
        for keys in _KEYS.values()
        for key, (default, limit) in keys.items()
        if limit is None
        and type(default[0] if isinstance(default, list) else default) in (int, float)
    }
    assert unranged == {"shape", "seed", *_FLOW_DEFAULTS}


@pytest.mark.parametrize("mode", sorted(_KEYS))
def test_deeply_nested_config_exits_two(tmp_path, capsys, monkeypatch, mode):
    """A 1000-deep array exhausts the JSON parser's recursion: a config error
    with a one-line message, not a traceback under exit 1."""
    monkeypatch.setattr("sys.stdin", io.StringIO('{"shape": ' + "[" * 1000 + "]" * 1000 + "}"))
    assert main([mode, "--out", str(tmp_path), "--config", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_finite_xi_entry_exits_two(tmp_path, capsys):
    """A NaN in an xi block is caught at assembly, not mid-run as a non-finite theta."""
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"kind": "combined", "xi": [{"subsystem": 1, "matrix": '
        '[[1, 0, 0], [0, NaN, 0], [0, 0, -1]]}]}'
    )
    assert main(["simulate", "--out", str(tmp_path), "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "xi block for subsystem 1" in err
    assert "finite" in err


@pytest.mark.parametrize(
    "kind", [{"kind": "dissipative"}, {"kind": "combined"}, {"kind": "reversible", "clock": "game"}]
)
@pytest.mark.parametrize(
    "xi, message",
    [
        ({"subsystem": 5, "matrix": [[1]]}, "subsystem index 5 out of range"),
        ({"subsystem": 0, "matrix": [[1, 1, 0], [0, 1, 0], [0, 0, 1]]}, "is not Hermitian"),
        ({"subsystem": 1, "matrix": [[1, 0], [0, -1]]}, "does not match subsystem 1 dimension 3"),
    ],
)
def test_malformed_xi_block_exits_two_for_every_kind(tmp_path, capsys, kind, xi, message):
    """The blocks are checked against the shape before the first sample, also
    in a dissipative run, which does not use them."""
    assert run_cli(tmp_path, "simulate", {**kind, "duration": 0.1, "xi": [xi]}) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("reversible_rate", 1.0),
        ("stop_at_stationary", True),
        ("initial_step", 0.01),
        ("max_steps", 100000),
    ],
)
def test_removed_flow_settings_are_rejected(tmp_path, capsys, key, value):
    """Scale xi to change the speed of the reversible sector; a run with the
    dissipative sector always stops at a stationary point; the curve is
    solved, not stepped, so there is no step to start or count."""
    assert run_cli(tmp_path, "simulate", {key: value}) == 2
    assert "unknown config keys" in capsys.readouterr().err
    with pytest.raises(TypeError):
        FlowConfig(**{key: value})


@pytest.mark.parametrize("mode", ["origin-analysis", "stiffness"])
def test_seed_is_not_a_key_of_the_deterministic_modes(tmp_path, capsys, mode):
    """Neither mode draws anything at random, so a seed would change nothing."""
    assert run_cli(tmp_path, mode, {"seed": 0}) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["origin-analysis", "stiffness"])
def test_seed_override_is_rejected_by_the_deterministic_modes(tmp_path, capsys, mode):
    assert run_cli(tmp_path, mode, extra=["--seed", "3"]) == 2
    assert "draws nothing at random" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode, cfg",
    [("obstruction-check", {"samples": 10}), ("gibbs-check", {"n_states": 2, "n_planted": 2})],
)
def test_seed_override_is_reported_by_the_sampling_modes(tmp_path, capsys, mode, cfg):
    assert run_cli(tmp_path, mode, cfg, extra=["--seed", "3"]) == 0
    assert read_report(capsys)["seed"] == 3


def test_random_kernel_start_without_correlations_exits_two(tmp_path, capsys):
    """A single subsystem has no correlation axes to draw the start on."""
    assert run_cli(tmp_path, "simulate", {"shape": [3], "start": "random_kernel"}) == 2
    assert "no correlation elements" in capsys.readouterr().err


@pytest.mark.parametrize("subsystem", [True, 0.7, 1.0, "0"])
def test_xi_subsystem_must_be_an_integer(tmp_path, capsys, subsystem):
    cfg = {"kind": "combined", "duration": 0.1,
           "xi": [{"subsystem": subsystem, "matrix": [[1, 0, 0], [0, -1, 0], [0, 0, 0]]}]}
    assert run_cli(tmp_path, "simulate", cfg) == 2
    assert "xi subsystem must be an integer" in capsys.readouterr().err


def test_gibbs_check_huge_beta_exits_two(tmp_path, capsys):
    """beta = 1e308 gives a pure planted state: the full-rank floor rejects it
    (exit 2) and no overflow warning escapes on the way."""
    assert run_cli(tmp_path, "gibbs-check", {"beta_range": [1e308, 1e308]}) == 2
    assert "at or below 1e-12" in capsys.readouterr().err


def test_simulate_default_reports_integrator_block(tmp_path, capsys):
    """The block holds the deterministic counts of the solve and no timing."""
    assert run_cli(tmp_path, "simulate") == 0
    report = read_report(capsys)
    assert report["termination_status"] == "stationary"
    stats = json.loads((tmp_path / "summary.json").read_text())["integrator"]
    assert stats == report["integrator"]
    assert set(stats) == {"newton_steps", "chart_points"}
    assert all(type(v) is int for v in stats.values())
    assert report["n_samples"] == 9 <= stats["chart_points"]


@pytest.mark.parametrize(
    "cfg",
    [
        {"c": 1e4},
        {"start": "random_kernel", "shape": [2, 2]},
        {"start": "random_kernel", "shape": [3, 3]},
        {"start": "random_kernel", "shape": [2, 3]},
        {"start": "random_kernel", "shape": [2, 2, 2]},
    ],
)
def test_entropy_rate_holds_when_the_run_is_short_in_t(tmp_path, capsys, cfg):
    """Runs whose whole entropy time I(rho0)/c is small: c = 1e4, or a
    random-kernel start of norm 1e-3 (I(rho0) of order 1e-7).  When t was
    integrated with the absolute tolerance atol, the fitted slope of H
    against t read 0.9989-0.9998 c and ``entropy_rate`` failed; on the solved
    curve t = (H - H0) / c holds at every sample."""
    assert run_cli(tmp_path, "simulate", cfg) == 0
    report = read_report(capsys)
    c = cfg.get("c", 1.0)
    assert report["failures"] == [] and report["termination_status"] == "stationary"
    assert abs(report["slope_of_H_vs_t"] - c) <= 1e-4 * c


@pytest.mark.parametrize("c", [1e300, 1e-20])
def test_extreme_entropy_speed_fits_its_slope(tmp_path, capsys, c):
    """c = 1e300 puts t near 1e-300, where np.polyfit's column scaling
    underflowed (SVD did not converge); the fit now runs against t / max |t|.
    c = 1e-20 puts c t below the resolution of H, so every sample lands on
    H0 at tau = 0 and the slope is 0, within 1e-4 of c; R^2 is undefined
    there and is reported as null."""
    assert run_cli(tmp_path, "simulate", {"c": c}) == 0
    report = read_report(capsys)
    assert report["failures"] == []
    assert abs(report["slope_of_H_vs_t"] - c) <= 1e-4 * max(1.0, c)
    # A constant H has no R^2: it is written as null, so the file stays strict JSON.
    def no_constant(name):
        raise AssertionError(f"summary.json holds {name}")

    summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=no_constant)
    assert (summary["r_squared"] is None) == (c < 1.0)


@pytest.mark.parametrize("clock", ["entropy", "game"])
def test_simulate_start_without_production_is_stationary(tmp_path, capsys, clock):
    """A random-kernel start of scale 1e-200 produces no entropy at all: both
    clocks report a stationary run of one sample and write their files."""
    cfg = {"start": "random_kernel", "start_scale": 1e-200, "clock": clock}
    assert run_cli(tmp_path, "simulate", cfg) == 0
    report = read_report(capsys)
    assert report["termination_status"] == "stationary"
    assert report["n_samples"] == 1 and report["failures"] == []
    assert (tmp_path / "trajectory.csv").exists() and (tmp_path / "summary.json").exists()


def test_game_clock_tail_step_is_clipped_at_duration(tmp_path, capsys):
    """With rate_min 1e-280 the stationary gap rate_min / 4 lies below the
    resolution of H, so the landed stop takes one step along the tail law
    rate ~ e^(-2 tau) toward rate_min / 2.  That step would pass tau = 20 (with
    duration 1e20 this run stops "stationary" near tau = 323), so it ends at
    duration instead: "completed", with tau_end exactly 20."""
    cfg = {"clock": "game", "duration": 20, "rate_min": 1e-280}
    assert run_cli(tmp_path, "simulate", cfg) == 0
    report = read_report(capsys)
    assert report["termination_status"] == "completed" and report["failures"] == []
    assert report["integrator"]["chart_points"] == 14
    with open(tmp_path / "trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9 and float(rows[-1]["tau"]) == 20.0
    assert [float(row["tau"]) for row in rows] == [2.5 * k for k in range(9)]
    assert rows[-1]["status"] == "completed"
    assert float(rows[-1]["rate"]) == pytest.approx(1.1e-17, rel=0.02)


@pytest.mark.parametrize(
    "cfg, status, code",
    [({"clock": "game", "duration": 0.3}, "completed", 0), ({}, "stationary", 0),
     ({"atol": 0}, "conservation", 1)],
)
def test_simulate_derived_columns(tmp_path, capsys, cfg, status, code):
    """step, C and theta_norm are computed from the recorded samples on write."""
    assert run_cli(tmp_path, "simulate", {**cfg, "save_theta": True}) == code
    report = read_report(capsys)
    assert report["termination_status"] == status
    n = report["n_samples"]
    assert n == (1 if status == "conservation" else 9)
    with open(tmp_path / "trajectory.csv") as fh:
        rows = list(csv.DictReader(fh))
    samples = json.loads((tmp_path / "theta.json").read_text())["samples"]
    assert [int(row["step"]) for row in rows] == [s["step"] for s in samples] == list(range(n))
    for row, sample in zip(rows, samples):
        h = [float(v) for key, v in row.items() if key.startswith("h_")]
        assert float(row["C"]) == pytest.approx(sum(h), rel=1e-14)
        assert float(row["theta_norm"]) == pytest.approx(np.linalg.norm(sample["theta"]), rel=1e-15)


def test_simulate_degenerate_projection_exits_one(tmp_path, capsys, monkeypatch):
    import entroflow.flow
    from entroflow import NumericalDegeneracyError

    real = entroflow.flow._curve_point
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) > 5:
            raise NumericalDegeneracyError("forced degenerate block")
        return real(*args)

    monkeypatch.setattr(entroflow.flow, "_curve_point", failing)
    assert run_cli(tmp_path, "simulate", {"duration": 0.8}) == 1
    report = read_report(capsys)
    assert report["termination_status"] == "degenerate"
    assert any(f["check"] == "integration" for f in report["failures"])
    assert (tmp_path / "trajectory.csv").exists()


def test_int_accepted_for_float_key(tmp_path, capsys):
    assert run_cli(tmp_path, "simulate", {"duration": 1, "c": 1}) == 0
    assert read_report(capsys)["termination_status"] == "completed"


def test_unknown_mode_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate", "--out", str(tmp_path)])
    assert exc_info.value.code == 2


def test_config_from_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"duration": 0.3})))
    assert main(["simulate", "--out", str(tmp_path), "--config", "-"]) == 0
    assert read_report(capsys)["termination_status"] == "completed"


def test_origin_analysis_small_sweep(tmp_path, capsys):
    cfg = {"eps_sweep": [0.3, 0.03]}
    assert run_cli(tmp_path, "origin-analysis", cfg) == 0
    report = read_report(capsys)
    assert report["failures"] == []
    rows = report["sweep"]
    assert [row["eps"] for row in rows] == [0.3, 0.03]
    for row in rows:
        assert row["kernel_dim"] == 64
        assert row["soft_mode_count"] == 64
        assert row["grad_norm"] <= 1e-8
        assert row["hessian_max_eig"] <= 1e-6
        assert row["max_principal_angle_rad"] < 1e-3
        assert abs(row["C_max"] - 2 * np.log(3.0)) < 1e-12
    assert (tmp_path / "origin_analysis_report.json").exists()


def test_origin_analysis_solves_for_no_kernel_basis(tmp_path, capsys, monkeypatch):
    """kernel_dim is the number of correlation elements, the column count of
    any basis of ker M, so the report builds none."""
    import entroflow.constraint

    def refuse(point):
        raise AssertionError("origin-analysis built a basis of ker M")

    monkeypatch.setattr(entroflow.constraint, "_kernel", refuse)
    assert run_cli(tmp_path, "origin-analysis") == 0
    assert [row["kernel_dim"] for row in read_report(capsys)["sweep"]] == [64] * 4


@pytest.mark.parametrize("dims, kdim", [([2, 2, 2], 54), ([2, 2, 2, 2], 243)])
def test_origin_analysis_at_ghz_origin(tmp_path, capsys, dims, kdim):
    """On three or more equal factors the origin is GHZ; every check passes,
    with as many soft modes as correlation elements."""
    assert run_cli(tmp_path, "origin-analysis", {"shape": dims, "eps_sweep": [0.1]}) == 0
    (row,) = read_report(capsys)["sweep"]
    assert row["kernel_dim"] == row["soft_mode_count"] == kdim
    assert abs(row["C"] - len(dims) * LN2) <= 1e-12


_SMALL_GIBBS = {"n_states": 3, "n_planted": 2}


@pytest.mark.parametrize(
    "mode, cfg, checks",
    [
        ("origin-analysis", {"shape": [2, 2], "eps_sweep": [0.3], "grad_norm_tol": 0}, ["grad_norm"]),
        ("origin-analysis", {"shape": [2, 2], "eps_sweep": [0.3], "angle_tol": 0}, ["soft_kernel_angle"]),
        ("stiffness", {"shape": [2, 2], "eps": 0.3, "soft_tol": 0}, ["stiffness_nonnegative", "soft_mode_count"]),
        ("gibbs-check", {**_SMALL_GIBBS, "identity_tol": 0}, ["modular_identity"]),
        ("gibbs-check", {**_SMALL_GIBBS, "recovery_tol": 0}, ["beta_recovery"]),
        ("gibbs-check", {**_SMALL_GIBBS, "derivative_tol": 0}, ["entropy_derivative"]),
    ],
)
def test_check_past_its_tolerance_exits_one(tmp_path, capsys, mode, cfg, checks):
    """A tolerance of 0 where the value is round-off away from 0 fails the
    check: exit 1, and the failure record names it."""
    assert run_cli(tmp_path, mode, cfg) == 1
    assert [f["check"] for f in read_report(capsys)["failures"]] == checks


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="soft_tol is absolute (ROADMAP item 2)")
def test_stiffness_small_eps_counts_the_kernel(tmp_path, capsys):
    """At eps <= 1e-6 on [3,3] eight stiff eigenvalues equal eps and fall
    under the absolute soft_tol 1e-6: 72 soft modes against kernel_dim 64,
    exit 1.  A soft threshold that separates them makes this pass."""
    code = run_cli(tmp_path, "stiffness", {"eps": 1e-7})
    report = read_report(capsys)
    assert report["soft_mode_count"] == report["kernel_dim"] == 64
    assert code == 0


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("eps", [0.3, 0.01])
def test_soft_kernel_angle_matches_full_subspaces(q, eps):
    """The reported angle, taken between the |L|-dimensional complements,
    equals the largest principal angle between the soft modes and ker M
    themselves (dimension m - |L|) up to round-off."""
    shape = as_shape([q, q])
    basis = product_basis(shape)
    row = _origin_report(shape, basis, eps, 1e-6, False)
    point = make_point(params_from_state(regularized_origin(shape, eps), basis), basis)
    geom = constraint_geometry(point, include_hessian=True)
    evecs = stiffness_spectrum(point, geom.hessian)[1]
    kdim = geom.kernel.shape[1]
    old = float(scipy.linalg.subspace_angles(evecs[:, :kdim], geom.kernel).max())
    assert row["kernel_dim"] == kdim == basis.size - basis.local_sector.size
    assert old < 1e-10
    assert row["max_principal_angle_rad"] == pytest.approx(old, rel=0.1, abs=1e-15)


def test_stiffness_report(tmp_path, capsys):
    assert run_cli(tmp_path, "stiffness", {"eps": 0.05}) == 0
    report = read_report(capsys)
    assert report["failures"] == []
    spectrum = report["stiffness_eigenvalues"]
    assert len(spectrum) == 80
    assert spectrum == sorted(spectrum)
    assert report["soft_mode_count"] == report["kernel_dim"] == 64
    assert spectrum[0] >= -1e-7
    assert (tmp_path / "stiffness_report.json").exists()


def test_obstruction_check_small(tmp_path, capsys):
    cfg = {"samples": 1500, "max_alphabet": 4}
    assert run_cli(tmp_path, "obstruction-check", cfg) == 0
    report = read_report(capsys)
    assert report["failures"] == []
    assert report["violations_conditional"] == 0
    assert report["min_conditional_entropy"] >= -1e-12
    assert report["witness"]["exceeds_cap"] is True
    assert report["witness"]["multi_information"] > report["witness"]["classical_cap"]


def test_obstruction_caps_are_one_inequality(tmp_path, capsys):
    """I <= min(h1, h2) and min(H(1|2), H(2|1)) >= 0 are both H12 >= max(h1, h2),
    so the report prints that one number once.  Replaying the CLI's draws
    (alphabet sizes, then the table, per sample), min_conditional_entropy is
    the smallest of either cap's slack over the tables."""
    cfg = {"samples": 300, "seed": 4}
    assert run_cli(tmp_path, "obstruction-check", cfg) == 0
    report = read_report(capsys)
    assert not {"max_mutual_excess", "violations_mutual"} & report.keys()
    rng = np.random.default_rng(4)
    conditional, mutual = [], []
    for _ in range(300):
        n1, n2 = (int(rng.integers(2, 6)) for _ in range(2))
        h1, h2, h12 = shannon_entropies(random_joint_distribution(n1, n2, rng))
        conditional.append(min(h12 - h2, h12 - h1))
        mutual.append(min(h1, h2) - (h1 + h2 - h12))
    assert abs(report["min_conditional_entropy"] - min(conditional)) <= 1e-15
    assert abs(report["min_conditional_entropy"] - min(mutual)) <= 1e-15


def test_gibbs_check_small(tmp_path, capsys):
    cfg = {"n_states": 25, "n_planted": 6}
    assert run_cli(tmp_path, "gibbs-check", cfg) == 0
    report = read_report(capsys)
    assert report["failures"] == []
    assert report["max_identity_gap"] <= 1e-10
    assert report["max_beta_error"] <= 1e-6
    # compared with the exact -beta / cosh^2 beta: round-off only
    assert report["max_derivative_gap"] <= 1e-14


def _flatten(report, prefix=""):
    items = enumerate(report) if isinstance(report, list) else report.items()
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _flatten(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


# One small passing config per mode.
_SMALL = {
    # C_drift_max is round-off here (4.4e-16), but not 0
    "simulate": {"duration": 0.4},
    "origin-analysis": {"shape": [2, 2], "eps_sweep": [0.3, 0.1]},
    "stiffness": {"shape": [2, 2], "eps": 0.3},
    "obstruction-check": {"samples": 200},
    "gibbs-check": {"n_states": 5, "n_planted": 3},
}


@pytest.mark.parametrize(
    "mode, cfg, entropic",
    [
        ("obstruction-check", _SMALL["obstruction-check"],
         {"min_conditional_entropy", "witness.multi_information", "witness.classical_cap"}),
        ("gibbs-check", _SMALL["gibbs-check"], {"max_identity_gap"}),
        ("simulate", _SMALL["simulate"], {"H_initial", "H_final", "C_drift_max", "slope_of_H_vs_t"}),
        ("origin-analysis", _SMALL["origin-analysis"],
         {f"sweep.{k}.{key}" for k in (0, 1) for key in ("C", "C_max")}),
        ("stiffness", _SMALL["stiffness"], {"C", "C_max"}),
    ],
)
def test_bits_rescales_exactly_the_entropic_fields(tmp_path, capsys, mode, cfg, entropic):
    """The fields the README lists as entropic are divided by log 2 and no
    other field changes."""
    assert run_cli(tmp_path, mode, cfg) == 0
    nats = dict(_flatten(read_report(capsys)))
    assert run_cli(tmp_path, mode, cfg, extra=["--bits"]) == 0
    bits = dict(_flatten(read_report(capsys)))
    assert (nats.pop("units"), bits.pop("units")) == ("nats", "bits")
    assert bits.keys() == nats.keys()
    for key in nats:
        if key in entropic:
            assert nats[key] != 0.0, key  # a zero would scale to itself
            assert bits[key] == nats[key] / LN2, key
        else:
            assert bits[key] == nats[key], key
    assert entropic <= nats.keys()


@pytest.mark.parametrize(
    "mode, name",
    [
        ("simulate", "summary.json"),
        ("origin-analysis", "origin_analysis_report.json"),
        ("stiffness", "stiffness_report.json"),
        ("obstruction-check", "obstruction_report.json"),
        ("gibbs-check", "gibbs_report.json"),
    ],
)
def test_report_file_is_the_printed_report_without_failures(tmp_path, capsys, mode, name):
    """Each mode writes its report, units first, to its own file and prints
    the same report with the failures appended."""
    assert run_cli(tmp_path, mode, _SMALL[mode]) == 0
    printed = read_report(capsys)
    on_disk = json.loads((tmp_path / name).read_text())
    assert "failures" not in on_disk and printed.pop("failures") == []
    assert on_disk == printed
    assert next(iter(on_disk)) == "units"


def test_module_entrypoint_runs():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "entroflow", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_import_leaves_scipy_special_unloaded():
    """scipy.special costs tens of ms at import and the package needs none of it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import entroflow

    src = str(Path(entroflow.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, entroflow; print('scipy.special' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Mutations for the exit-code property: every pool mixes values of the wrong
# type, null, NaN and infinities, negatives, a nested list and an unknown
# name with well-typed values (valid ones, and edge cases such as a shape
# without correlations, xi blocks that name a missing or non-integer
# subsystem, are not square or lack their matrix, and a beta that overflows).
# Keys that set a run length draw only from bounded pools, so every example
# finishes quickly.
_BAD = ["x", None, math.nan, math.inf, -math.inf, -1, -1e-3, [[1.0]], "bogus"]
_BOUNDED_BAD = ["x", None, math.nan, -1, 0, [[1.0]]]
_XI_Z = [[1, 0], [0, -1]]
_CONTRACT = {
    "simulate": (
        {"shape": [2, 2], "clock": "game", "duration": 0.1},
        {
            "shape": [[2, 2], [2, 3], [3]],
            "eps": [0.1],
            "start": ["origin", "random_kernel"],
            "start_scale": [1e-2],
            "c": [2.0],
            "clock": ["game", "entropy"],
            "kind": ["dissipative", "combined", "reversible"],
            "rate_min": [1e-6],
            "atol": [1e-6, 0],
            "rtol": [1e-6],
            "conservation_tol": [1e-5],
            "xi": [
                [{"subsystem": 0, "matrix": [[1, [0, -1]], [[0, 1], -1]]}],
                [{"subsystem": 3, "matrix": _XI_Z}],
                [{"subsystem": True, "matrix": _XI_Z}],
                [{"subsystem": 0.5, "matrix": _XI_Z}],
                [{"subsystem": 0, "matrix": [[1, 2]]}],
                [{"subsystem": 0}],
            ],
            "save_theta": [True, False],
            "seed": [1, 2],
        },
        {"duration": [0.05, 0.2]},
    ),
    "origin-analysis": (
        {"shape": [2, 2], "eps_sweep": [0.1]},
        {
            "shape": [[2, 2], [3, 3], [2, 3], [3]],
            "eps_sweep": [[0.3, 0.01], [0.5], [1e-9]],
            "soft_tol": [1e-6, 0],
            "grad_norm_tol": [1e-8, 0],
            "hessian_max_eig_tol": [1e-6, 0],
            "angle_tol": [1e-3, 0],
        },
        {},
    ),
    "stiffness": (
        {"shape": [2, 2]},
        {
            "shape": [[2, 2], [3, 3], [2, 3], [3]],
            "eps": [0.05, 1e-9],
            "soft_tol": [1e-6, 0],
        },
        {},
    ),
    "obstruction-check": (
        {"samples": 20},
        {"max_alphabet": [2, 6], "witness_q": [2, 8], "slack": [1e-12, 0], "seed": [1]},
        {"samples": [1, 50]},
    ),
    "gibbs-check": (
        {"shape": [2, 2], "n_states": 3, "n_planted": 3},
        {
            "shape": [[2, 2], [3, 3], [3], [2, 2, 2]],
            "identity_tol": [1e-10, 0],
            "planted_dim": [2, 64],
            "beta_range": [[0.1, 2.0], [-1.0, 1.0], [1e308, 1e308], [0.0]],
            "recovery_tol": [1e-6, 0],
            "derivative_tol": [1e-7, 0],
            "seed": [1],
        },
        {"n_states": [1, 5], "n_planted": [1, 5]},
    ),
}


@st.composite
def mutated_configs(draw, mode):
    base, valid, bounded = _CONTRACT[mode]
    mutations = [
        (key, st.one_of(st.sampled_from(values), st.sampled_from(_BAD)))
        for key, values in valid.items()
    ] + [
        (key, st.one_of(st.sampled_from(values), st.sampled_from(_BOUNDED_BAD)))
        for key, values in bounded.items()
    ]
    cfg = dict(base)
    for key, values in draw(st.lists(st.sampled_from(mutations), min_size=1, max_size=2)):
        cfg[key] = draw(values)
    return cfg


def _exit_code(mode, cfg):
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "cfg.json"
        path.write_text(json.dumps(cfg))
        return main([mode, "--out", out, "--config", str(path)])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(mutated_configs("simulate"))
def test_simulate_exit_code_contract(cfg):
    """Any mistyped or out-of-range config ends in exit 0, 1 or 2, never a traceback."""
    assert _exit_code("simulate", cfg) in (0, 1, 2)


@pytest.mark.parametrize("mode", ["origin-analysis", "stiffness", "obstruction-check", "gibbs-check"])
@settings(derandomize=True, deadline=None, max_examples=15)
@given(data=st.data())
def test_exit_code_contract(mode, data):
    """The same contract for the other modes."""
    assert _exit_code(mode, data.draw(mutated_configs(mode))) in (0, 1, 2)
