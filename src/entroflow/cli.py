"""Command-line driver.

Modes:
  simulate           integrate one flow; writes trajectory.csv + summary.json
  origin-analysis    regularisation sweep of the constraint geometry at the
                     entangled origin
  stiffness          stiffness spectrum at one regularised origin
  obstruction-check  classical infeasibility property suite + quantum witness
  gibbs-check        modular identities and thermal-lock recovery

All numbers are reported in nats unless --bits is given, which converts the
entropic output values only.  A fixed --seed makes every mode that draws at
random (simulate, obstruction-check, gibbs-check), including the CSV output,
byte-reproducible; origin-analysis and stiffness draw nothing and reject it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

from .classical import classical_origin_infeasible, random_joint_distribution
from .constraint import (
    SOFT_MODE_TOL,
    constraint_geometry,
    constraint_max,
    soft_mode_count,
    stiffness_spectrum,
)
from .errors import EntroflowError, FullyConstrainedError, IntegrationError
from .expfamily import make_point, params_from_state
from .flow import FlowConfig, entropy_time_fit, integrate
from .modular import (
    gibbs_entropy_derivative,
    gibbs_lock_residual,
    total_modular_consistency,
)
from .operators import SubsystemShape, as_shape, product_basis
from .states import (
    gibbs_state,
    lme_origin,
    multi_information,
    random_density_matrix,
    random_hermitian,
    regularized_origin,
)

_LN2 = math.log(2.0)
# Largest total Hilbert dimension the modes accept; the metric and the
# Hessian of the origin modes hold (d^2 - 1)^2 entries each.
MAX_TOTAL_DIM = 64

# The simulate keys passed to FlowConfig as they are, with its defaults;
# ``xi`` is parsed into ``xi_parts``.
_FLOW_DEFAULTS = {
    f.name: f.default for f in dataclasses.fields(FlowConfig) if f.name != "xi_parts"
}


def _within(lo, hi):
    return f"in [{lo}, {hi}]", lambda v: lo <= v <= hi


_TOL = ("finite and >= 0", lambda v: 0 <= v < math.inf)
_OPEN_UNIT = ("in (0, 1)", lambda v: 0 < v < 1)
_POSITIVE = ("finite and > 0", lambda v: 0 < v < math.inf)
_COUNT = _within(1, 10**6)

# Every config key of each mode as (default, range).  A range is
# (description, predicate) or None; a list value must be non-empty and every
# element must pass.  NaN passes no predicate.  The simulate flow keys have
# none here: FlowConfig checks them.
_KEYS = {
    "simulate": {
        "shape": ([3, 3], None),
        "eps": (0.05, _OPEN_UNIT),
        "start": ("origin", None),
        "start_scale": (1e-3, _POSITIVE),
        "clock": ("entropy", None),
        "kind": ("dissipative", None),
        "duration": (10.0, _POSITIVE),
        **{key: (default, None) for key, default in _FLOW_DEFAULTS.items()},
        "xi": (None, None),
        "save_theta": (False, None),
        "seed": (0, None),
    },
    "origin-analysis": {
        "shape": ([3, 3], None),
        "eps_sweep": ([0.3, 0.1, 0.03, 0.01], _OPEN_UNIT),
        "soft_tol": (SOFT_MODE_TOL, _TOL),
        "grad_norm_tol": (1e-8, _TOL),
        "hessian_max_eig_tol": (1e-6, _TOL),
        "angle_tol": (1e-3, _TOL),
    },
    "stiffness": {
        "shape": ([3, 3], None),
        "eps": (0.05, _OPEN_UNIT),
        "soft_tol": (SOFT_MODE_TOL, _TOL),
    },
    "obstruction-check": {
        "samples": (10000, _COUNT),
        "max_alphabet": (5, _within(2, 6)),
        "witness_q": (3, _within(2, 8)),
        "slack": (1e-12, _TOL),
        "seed": (0, None),
    },
    "gibbs-check": {
        "shape": ([3, 3], None),
        "n_states": (100, _COUNT),
        "identity_tol": (1e-10, _TOL),
        "n_planted": (20, _COUNT),
        "planted_dim": (3, _within(2, MAX_TOTAL_DIM)),
        "beta_range": ([0.1, 2.0], ("finite", math.isfinite)),
        "recovery_tol": (1e-6, _TOL),
        "derivative_tol": (1e-7, _TOL),
        "seed": (0, None),
    },
}


class ConfigError(Exception):
    pass


def _matches_default_type(value, default) -> bool:
    """True when a JSON value has the type of the key's default.

    An int is accepted where a float is expected; a None default (``xi``)
    admits null or a list; list elements are checked against the default's
    first element.
    """
    if default is None:
        return value is None or isinstance(value, list)
    if isinstance(default, float):
        return type(value) in (int, float)
    if isinstance(default, list):
        return isinstance(value, list) and all(
            _matches_default_type(v, default[0]) for v in value
        )
    return type(value) is type(default)


def _load_config(mode: str, path: str | None, seed_override: int | None) -> dict:
    keys = _KEYS[mode]
    cfg = {key: default for key, (default, _) in keys.items()}
    if path is not None:
        raw = sys.stdin.read() if path == "-" else Path(path).read_text()
        try:
            user = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError(f"config is nested too deeply: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        unknown = sorted(set(user) - set(cfg))
        if unknown:
            raise ConfigError(f"unknown config keys for mode {mode!r}: {unknown}")
        for key, value in user.items():
            if not _matches_default_type(value, cfg[key]):
                raise ConfigError(
                    f"config key {key!r} expects a value like {cfg[key]!r}, got {value!r}"
                )
        cfg.update(user)
    if seed_override is not None:
        if "seed" not in cfg:
            raise ConfigError(f"mode {mode!r} draws nothing at random; --seed does not apply")
        cfg["seed"] = seed_override
    for key, (_, limit) in keys.items():
        value = cfg[key]
        values = value if isinstance(value, list) else [value]
        if limit and not (values and all(map(limit[1], values))):
            raise ConfigError(f"config key {key!r} must be {limit[0]}, got {value!r}")
    return cfg


def _parse_matrix(entries) -> np.ndarray:
    def scalar(x):
        if isinstance(x, (int, float)):
            return complex(x)
        if isinstance(x, (list, tuple)) and len(x) == 2:
            return complex(x[0], x[1])
        raise ConfigError(f"matrix entries must be numbers or [re, im] pairs, got {x!r}")

    return np.array([[scalar(x) for x in row] for row in entries], dtype=complex)


def _parse_xi(raw) -> tuple:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise ConfigError("xi must be a list of {subsystem, matrix} objects")
    parts = []
    for item in raw:
        try:
            subsystem, matrix = item["subsystem"], _parse_matrix(item["matrix"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad xi entry {item!r}") from exc
        if type(subsystem) is not int:  # JSON true or 0.7 names no subsystem
            raise ConfigError(f"xi subsystem must be an integer, got {subsystem!r}")
        parts.append((subsystem, matrix))
    return tuple(parts)


def _shape(cfg: dict) -> SubsystemShape:
    """The config's shape, rejected before anything is built above MAX_TOTAL_DIM."""
    shape = as_shape(cfg["shape"])
    if shape.total_dim > MAX_TOTAL_DIM:
        raise ConfigError(
            f"shape {list(shape.dims)} has total dimension {shape.total_dim}, "
            f"above the limit {MAX_TOTAL_DIM}"
        )
    return shape


def _scale(value, bits: bool):
    if value is None:
        return None
    return value / _LN2 if bits else value


def cmd_simulate(cfg: dict, outdir: Path, bits: bool) -> tuple[dict, list]:
    shape = _shape(cfg)
    basis = product_basis(shape)
    rng = np.random.default_rng(cfg["seed"])

    if cfg["start"] == "origin":
        theta0 = params_from_state(regularized_origin(shape, cfg["eps"]), basis)
    elif cfg["start"] == "random_kernel":
        # At theta = 0, G = I/d and ker M is exactly the span of the
        # correlation axes: a Gaussian draw on them is a Gaussian in ker M.
        corr = basis.correlation_indices()
        if corr.size == 0:
            raise FullyConstrainedError(
                f"shape {list(shape.dims)} has no correlation elements to start from"
            )
        v = np.zeros(basis.size)
        v[corr] = rng.normal(size=corr.size)
        theta0 = cfg["start_scale"] * v / np.linalg.norm(v)
    else:
        raise ConfigError(f"unknown start {cfg['start']!r}")

    flow_cfg = FlowConfig(
        **{key: cfg[key] for key in _FLOW_DEFAULTS}, xi_parts=_parse_xi(cfg["xi"])
    )

    failures = []
    try:
        traj = integrate(
            theta0,
            basis,
            flow_cfg,
            clock=cfg["clock"],
            duration=cfg["duration"],
            kind=cfg["kind"],
        )
    except IntegrationError as exc:
        traj = exc.trajectory
        failures.append({"check": "integration", "detail": str(exc)})

    # The slope wherever t varies; R^2 and the entropy_rate check on the
    # entropy clock from three samples on.
    slope, r2 = None, math.nan
    if traj.n_samples >= 2 and float(np.ptp(traj.t)) > 0.0:
        slope, _, r2 = entropy_time_fit(traj)
    on_clock = cfg["clock"] == "entropy" and traj.n_samples >= 3
    if not (on_clock and math.isfinite(r2)):  # H constant to round-off (c t below its resolution)
        r2 = None
    if on_clock and (slope is None or abs(slope - cfg["c"]) > 1e-4 * max(1.0, cfg["c"])):
        failures.append({"check": "entropy_rate", "detail": f"slope {slope!r} vs c {cfg['c']!r}"})
    if np.any(np.diff(traj.t) < 0):
        failures.append({"check": "monotone_t", "detail": "entropy-time column decreased"})

    traj.write_csv(outdir / "trajectory.csv", bits=bits)
    if cfg["save_theta"]:
        (outdir / "theta.json").write_text(json.dumps(traj.theta_records(), indent=1))

    C = traj.C
    report = {
        "H_initial": _scale(float(traj.H[0]), bits),
        "H_final": _scale(float(traj.H[-1]), bits),
        "C_drift_max": _scale(float(np.max(np.abs(C - C[0]))), bits),
        "slope_of_H_vs_t": _scale(slope, bits),
        "termination_status": traj.status,
        "integrator": traj.integrator,
        "r_squared": r2,
        "clock": cfg["clock"],
        "kind": cfg["kind"],
        "n_samples": traj.n_samples,
        "seed": cfg["seed"],
    }
    return report, failures


def _origin_report(shape, basis, eps, soft_tol, bits, with_spectrum=False):
    point = make_point(params_from_state(regularized_origin(shape, eps), basis), basis)
    geom = constraint_geometry(point, include_hessian=True)
    evals, evecs = stiffness_spectrum(point, geom.hessian)
    kdim = basis.correlation_indices().size  # the column count of a basis of ker M
    # The largest angle, from the |L|-dimensional complements: range(G V_stiff) of the
    # soft modes (V is G-orthogonal) and range(G_{:L}) of ker M = {v : (G v)_L = 0}.
    G = point.metric
    angles = scipy.linalg.subspace_angles(G @ evecs[:, kdim:], G[:, basis.local_sector])
    hess_eigs = np.linalg.eigvalsh(geom.hessian)
    row = {
        "eps": eps,
        "C": _scale(geom.value, bits),
        "C_max": _scale(constraint_max(shape), bits),
        "grad_norm": float(np.linalg.norm(geom.grad)),
        "hessian_max_eig": float(hess_eigs[-1]),
        "hessian_min_eig": float(hess_eigs[0]),
        "kernel_dim": int(kdim),
        "soft_mode_count": int(soft_mode_count(evals, soft_tol)),
        "stiff_eig_max": float(evals[-1]),
        "max_principal_angle_rad": float(angles.max()) if angles.size else 0.0,
    }
    if with_spectrum:
        row["stiffness_eigenvalues"] = [float(x) for x in evals]
    return row


def _soft_mode_failure(row, **where) -> list:
    """The soft_mode_count record of a row whose soft modes do not number its kernel_dim."""
    soft, kdim = row["soft_mode_count"], row["kernel_dim"]
    return [] if soft == kdim else [{"check": "soft_mode_count", **where, "soft": soft, "kernel_dim": kdim}]


def cmd_origin_analysis(cfg: dict, outdir: Path, bits: bool) -> tuple[dict, list]:
    shape = _shape(cfg)
    basis = product_basis(shape)
    rows = [_origin_report(shape, basis, eps, cfg["soft_tol"], bits) for eps in cfg["eps_sweep"]]
    failures = []
    for row in rows:
        if row["grad_norm"] > cfg["grad_norm_tol"]:
            failures.append({"check": "grad_norm", "eps": row["eps"], "value": row["grad_norm"]})
        if row["hessian_max_eig"] > cfg["hessian_max_eig_tol"]:
            failures.append(
                {"check": "hessian_nsd", "eps": row["eps"], "value": row["hessian_max_eig"]}
            )
        failures += _soft_mode_failure(row, eps=row["eps"])
        if row["max_principal_angle_rad"] > cfg["angle_tol"]:
            failures.append(
                {"check": "soft_kernel_angle", "eps": row["eps"], "value": row["max_principal_angle_rad"]}
            )
    return {"sweep": rows}, failures


def cmd_stiffness(cfg: dict, outdir: Path, bits: bool) -> tuple[dict, list]:
    shape = _shape(cfg)
    basis = product_basis(shape)
    row = _origin_report(shape, basis, cfg["eps"], cfg["soft_tol"], bits, with_spectrum=True)
    failures = []
    if row["stiffness_eigenvalues"][0] < -cfg["soft_tol"]:
        failures.append({"check": "stiffness_nonnegative", "value": row["stiffness_eigenvalues"][0]})
    return row, failures + _soft_mode_failure(row)


def cmd_obstruction_check(cfg: dict, outdir: Path, bits: bool) -> tuple[dict, list]:
    samples = cfg["samples"]
    max_alpha = cfg["max_alphabet"]
    slack = float(cfg["slack"])
    rng = np.random.default_rng(cfg["seed"])

    violations_conditional = 0
    min_conditional = np.inf
    for _ in range(samples):
        n1 = int(rng.integers(2, max_alpha + 1))
        n2 = int(rng.integers(2, max_alpha + 1))
        # H12 - max(h1, h2) is both the smaller conditional entropy and
        # min(h1, h2) - I, so the two caps read one number.
        gap = classical_origin_infeasible(random_joint_distribution(n1, n2, rng))
        min_conditional = min(min_conditional, gap)
        if gap < -slack:
            violations_conditional += 1

    q = int(cfg["witness_q"])
    rho = lme_origin([q, q])
    witness_I = multi_information(rho, [q, q])
    cap = math.log(q)

    failures = []
    if violations_conditional:
        failures.append(
            {"check": "classical_caps", "violations_conditional": violations_conditional}
        )
    if witness_I <= cap + 1e-9:
        failures.append({"check": "quantum_witness", "value": witness_I, "cap": cap})

    report = {
        "samples": samples,
        "max_alphabet": max_alpha,
        "violations_conditional": violations_conditional,
        "min_conditional_entropy": _scale(float(min_conditional), bits),
        "witness": {
            "q": q,
            "multi_information": _scale(witness_I, bits),
            "classical_cap": _scale(cap, bits),
            "exceeds_cap": bool(witness_I > cap + 1e-9),
        },
        "seed": cfg["seed"],
    }
    return report, failures


def cmd_gibbs_check(cfg: dict, outdir: Path, bits: bool) -> tuple[dict, list]:
    shape = _shape(cfg)
    rng = np.random.default_rng(cfg["seed"])
    failures = []

    worst_identity = 0.0
    for _ in range(int(cfg["n_states"])):
        rho = random_density_matrix(shape.total_dim, rng)
        worst_identity = max(worst_identity, total_modular_consistency(rho, shape))
    if worst_identity > cfg["identity_tol"]:
        failures.append({"check": "modular_identity", "value": worst_identity})

    lo, hi = cfg["beta_range"]
    worst_beta_err = 0.0
    worst_residual = 0.0
    d = int(cfg["planted_dim"])
    for _ in range(int(cfg["n_planted"])):
        H = random_hermitian(d, rng)
        beta = float(rng.uniform(lo, hi))
        beta_star, residual = gibbs_lock_residual(gibbs_state(H, beta), H)
        worst_beta_err = max(worst_beta_err, abs(beta_star - beta))
        worst_residual = max(worst_residual, residual)
    if worst_beta_err > cfg["recovery_tol"]:
        failures.append({"check": "beta_recovery", "value": worst_beta_err})

    # Qubit closed form: h(beta) = log(2 cosh beta) - beta tanh beta, so
    # h'(beta) = -beta / cosh^2 beta.
    sz = np.diag([1.0, -1.0])
    worst_deriv = max(
        abs(gibbs_entropy_derivative(sz, beta) + beta / math.cosh(beta) ** 2)
        for beta in np.linspace(0.0, 2.0, 9)
    )
    if worst_deriv > cfg["derivative_tol"]:
        failures.append({"check": "entropy_derivative", "value": worst_deriv})

    report = {
        "n_states": int(cfg["n_states"]),
        "max_identity_gap": _scale(worst_identity, bits),
        "n_planted": int(cfg["n_planted"]),
        "max_beta_error": worst_beta_err,
        "max_lock_residual": worst_residual,
        "max_derivative_gap": worst_deriv,
        "seed": cfg["seed"],
    }
    return report, failures


# Each mode's command, which returns (report, failures), and the file in
# --out that main writes its report to.
_COMMANDS = {
    "simulate": (cmd_simulate, "summary.json"),
    "origin-analysis": (cmd_origin_analysis, "origin_analysis_report.json"),
    "stiffness": (cmd_stiffness, "stiffness_report.json"),
    "obstruction-check": (cmd_obstruction_check, "obstruction_report.json"),
    "gibbs-check": (cmd_gibbs_check, "gibbs_report.json"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="entroflow",
        description="Constrained entropy-ascent flows on the matrix exponential family.",
    )
    p.add_argument("mode", choices=sorted(_COMMANDS))
    p.add_argument("--config", help="JSON config path, or '-' for stdin")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", default=".", help="output directory (created if missing)")
    p.add_argument("--bits", action="store_true", help="display entropic outputs in bits")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command, report_name = _COMMANDS[args.mode]
    try:
        cfg = _load_config(args.mode, args.config, args.seed)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        report, failures = command(cfg, outdir, args.bits)
        report = {"units": "bits" if args.bits else "nats", **report}
        (outdir / report_name).write_text(json.dumps(report, indent=1))
    except (ConfigError, EntroflowError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    print(json.dumps({**report, "failures": failures}, indent=1))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
