"""End-to-end checks of the command-line driver, run in process via main().

Exit code contract: 0 all checks passed, 1 at least one numeric check
failed, 2 configuration or runtime error before any verdict.
"""

import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroflow import as_shape, product_basis
from entroflow.cli import main

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
        ("simulate", {"max_steps": 1e5}),
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


@pytest.mark.parametrize(
    "cfg",
    [
        {"initial_step": 0},
        {"initial_step": -0.01},
        {"atol": 0, "rtol": 0},
        {"atol": -1e-8},
        {"rtol": -1e-8},
        {"max_steps": 0},
        {"max_steps": -3},
        {"conservation_tol": -1},
        {"conservation_tol": 0},
    ],
)
def test_invalid_step_control_exits_two(tmp_path, capsys, monkeypatch, cfg):
    def no_integration(*args, **kwargs):
        raise AssertionError("integrate called with an invalid step control")

    monkeypatch.setattr("entroflow.cli.integrate", no_integration)
    assert run_cli(tmp_path, "simulate", cfg) == 2
    assert "must" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw",
    [
        '{"reversible_rate": NaN}',
        '{"reversible_rate": Infinity}',
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


def test_simulate_default_reports_integrator_block(tmp_path, capsys):
    assert run_cli(tmp_path, "simulate") == 0
    report = read_report(capsys)
    assert report["termination_status"] == "stationary"
    stats = json.loads((tmp_path / "summary.json").read_text())["integrator"]
    assert stats == report["integrator"]
    assert stats["accepted"] == report["n_samples"] - 1
    assert stats["rejected"] <= 10
    assert set(stats["failed_stages"]) == {"stationary", "boundary"}


def test_simulate_degenerate_projection_exits_one(tmp_path, capsys, monkeypatch):
    import entroflow.flow
    from entroflow import NumericalDegeneracyError

    real = entroflow.flow._project
    calls = []

    def failing(point, local):
        calls.append(None)
        if len(calls) > 20:
            raise NumericalDegeneracyError("forced degenerate block")
        return real(point, local)

    monkeypatch.setattr(entroflow.flow, "_project", failing)
    assert run_cli(tmp_path, "simulate", {"duration": 0.8}) == 1
    report = read_report(capsys)
    assert report["termination_status"] == "degenerate"
    assert any(f["check"] == "integration" for f in report["failures"])
    assert (tmp_path / "trajectory.csv").exists()


def test_int_accepted_for_float_key(tmp_path, capsys):
    assert run_cli(tmp_path, "simulate", {"duration": 1, "c": 2, "max_steps": 3}) == 0
    assert read_report(capsys)["termination_status"] == "max_steps"


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
    assert report["violations_mutual"] == 0
    assert report["violations_conditional"] == 0
    assert report["max_mutual_excess"] <= 1e-12
    assert report["min_conditional_entropy"] >= -1e-12
    assert report["witness"]["exceeds_cap"] is True
    assert report["witness"]["multi_information"] > report["witness"]["classical_cap"]


def test_gibbs_check_small(tmp_path, capsys):
    cfg = {"n_states": 25, "n_planted": 6}
    assert run_cli(tmp_path, "gibbs-check", cfg) == 0
    report = read_report(capsys)
    assert report["failures"] == []
    assert report["max_identity_gap"] <= 1e-10
    assert report["max_beta_error"] <= 1e-6
    assert report["max_derivative_gap"] <= 1e-7


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
# name with well-typed values (valid ones, and xi blocks that name a missing
# subsystem, are not square or lack their matrix).  The run-length keys draw only from bounded pools,
# so every example finishes quickly.
_BAD = ["x", None, math.nan, math.inf, -math.inf, -1, -1e-3, [[1.0]], "bogus"]
_BOUNDED_BAD = ["x", None, math.nan, -1, 0, [[1.0]]]
_VALID = {
    "shape": [[2, 2], [2, 3]],
    "eps": [0.1],
    "start": ["origin", "random_kernel"],
    "start_scale": [1e-2],
    "c": [2.0],
    "clock": ["game", "entropy"],
    "kind": ["dissipative", "combined", "reversible"],
    "rate_min": [1e-6],
    "initial_step": [0.05],
    "atol": [1e-6, 0],
    "rtol": [1e-6],
    "conservation_tol": [1e-5],
    "reversible_rate": [0.5],
    "xi": [
        [{"subsystem": 0, "matrix": [[1, [0, -1]], [[0, 1], -1]]}],
        [{"subsystem": 3, "matrix": [[1, 0], [0, -1]]}],
        [{"subsystem": 0, "matrix": [[1, 2]]}],
        [{"subsystem": 0}],
    ],
    "save_theta": [True, False],
    "seed": [1, 2],
}
_MUTATIONS = [
    (key, st.one_of(st.sampled_from(values), st.sampled_from(_BAD)))
    for key, values in _VALID.items()
] + [
    ("duration", st.one_of(st.sampled_from([0.05, 0.2]), st.sampled_from(_BOUNDED_BAD))),
    ("max_steps", st.one_of(st.sampled_from([3, 40, 2.5]), st.sampled_from(_BOUNDED_BAD))),
]


@st.composite
def simulate_configs(draw):
    cfg = {"shape": [2, 2], "clock": "game", "duration": 0.1, "max_steps": 40}
    for key, values in draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=2)):
        cfg[key] = draw(values)
    return cfg


@settings(derandomize=True, deadline=None, max_examples=40)
@given(simulate_configs())
def test_simulate_exit_code_contract(cfg):
    """Any mistyped or out-of-range config ends in exit 0, 1 or 2, never a traceback."""
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--out", out, "--config", str(path)]) in (0, 1, 2)
