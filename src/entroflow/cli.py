"""Command-line driver.

Modes:
  simulate           integrate one flow; writes trajectory.csv + summary.json
  origin-analysis    regularisation sweep of the constraint geometry at the
                     entangled origin
  stiffness          stiffness spectrum at one regularised origin
  obstruction-check  classical infeasibility property suite + quantum witness
  gibbs-check        modular identities and thermal-lock recovery

All numbers are reported in nats unless --bits is given, which converts the
entropic output values only.  A fixed --seed makes every mode, including the
CSV output, byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

from .classical import classical_origin_infeasible, random_joint_distribution
from .constraint import (
    constraint_geometry,
    constraint_max,
    soft_mode_count,
    stiffness_spectrum,
)
from .errors import EntroflowError, IntegrationError
from .expfamily import make_point, params_from_state
from .flow import FlowConfig, entropy_time_fit, integrate
from .modular import (
    gibbs_entropy_derivative,
    gibbs_family,
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
# Largest total Hilbert dimension the modes accept; the product basis alone
# holds (d^2 - 1) d^2 complex entries.
MAX_TOTAL_DIM = 64

_DEFAULTS = {
    "simulate": {
        "shape": [3, 3],
        "eps": 0.05,
        "start": "origin",
        "start_scale": 1e-3,
        "c": 1.0,
        "clock": "entropy",
        "kind": "dissipative",
        "duration": 10.0,
        "rate_min": 1e-10,
        "initial_step": 0.01,
        "atol": 1e-8,
        "rtol": 1e-8,
        "max_steps": 100000,
        "conservation_tol": 1e-6,
        "reversible_rate": 1.0,
        "xi": None,
        "save_theta": False,
        "seed": 0,
    },
    "origin-analysis": {
        "shape": [3, 3],
        "eps_sweep": [0.3, 0.1, 0.03, 0.01],
        "soft_tol": 1e-6,
        "grad_norm_tol": 1e-8,
        "hessian_max_eig_tol": 1e-6,
        "angle_tol": 1e-3,
        "seed": 0,
    },
    "stiffness": {
        "shape": [3, 3],
        "eps": 0.05,
        "soft_tol": 1e-6,
        "seed": 0,
    },
    "obstruction-check": {
        "samples": 10000,
        "max_alphabet": 5,
        "witness_q": 3,
        "slack": 1e-12,
        "seed": 0,
    },
    "gibbs-check": {
        "shape": [3, 3],
        "n_states": 100,
        "identity_tol": 1e-10,
        "n_planted": 20,
        "planted_dim": 3,
        "beta_range": [0.1, 2.0],
        "recovery_tol": 1e-6,
        "derivative_tol": 1e-7,
        "seed": 0,
    },
}


def _within(lo, hi):
    return f"in [{lo}, {hi}]", lambda v: lo <= v <= hi


_TOL = ("finite and >= 0", lambda v: 0 <= v < math.inf)
_OPEN_UNIT = ("in (0, 1)", lambda v: 0 < v < 1)

# Allowed range of each numeric key, as (description, predicate); a list value
# must be non-empty and every element must pass.  NaN passes no predicate.
# The step-control keys of simulate are checked by FlowConfig itself.
_RANGES = {
    "simulate": {
        "eps": _OPEN_UNIT,
        "start_scale": ("finite and > 0", lambda v: 0 < v < math.inf),
        "duration": ("finite and > 0", lambda v: 0 < v < math.inf),
    },
    "origin-analysis": {
        "eps_sweep": _OPEN_UNIT,
        "soft_tol": _TOL,
        "grad_norm_tol": _TOL,
        "hessian_max_eig_tol": _TOL,
        "angle_tol": _TOL,
    },
    "stiffness": {"eps": _OPEN_UNIT, "soft_tol": _TOL},
    "obstruction-check": {
        "samples": _within(1, 10**6),
        "max_alphabet": _within(2, 6),
        "witness_q": _within(2, 8),
        "slack": _TOL,
    },
    "gibbs-check": {
        "n_states": _within(1, 10**6),
        "identity_tol": _TOL,
        "n_planted": _within(1, 10**6),
        "planted_dim": _within(2, MAX_TOTAL_DIM),
        "beta_range": ("finite", math.isfinite),
        "recovery_tol": _TOL,
        "derivative_tol": _TOL,
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
    cfg = dict(_DEFAULTS[mode])
    if path is not None:
        raw = sys.stdin.read() if path == "-" else Path(path).read_text()
        try:
            user = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
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
        cfg["seed"] = seed_override
    for key, (allowed, ok) in _RANGES[mode].items():
        value = cfg[key]
        values = value if isinstance(value, list) else [value]
        if not values or not all(ok(v) for v in values):
            raise ConfigError(f"config key {key!r} must be {allowed}, got {value!r}")
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
            parts.append((int(item["subsystem"]), _parse_matrix(item["matrix"])))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bad xi entry {item!r}") from exc
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
        v = np.zeros(basis.size)
        v[corr] = rng.normal(size=corr.size)
        theta0 = cfg["start_scale"] * v / np.linalg.norm(v)
    else:
        raise ConfigError(f"unknown start {cfg['start']!r}")

    flow_cfg = FlowConfig(
        c=cfg["c"],
        rate_min=cfg["rate_min"],
        initial_step=cfg["initial_step"],
        atol=cfg["atol"],
        rtol=cfg["rtol"],
        max_steps=cfg["max_steps"],
        conservation_tol=cfg["conservation_tol"],
        reversible_rate=cfg["reversible_rate"],
        xi_parts=_parse_xi(cfg["xi"]),
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

    summary = traj.summary()
    slope, r2 = None, None
    if cfg["clock"] == "entropy" and traj.n_samples >= 3:
        slope, _, r2 = entropy_time_fit(traj)
        if abs(slope - cfg["c"]) > 1e-4 * max(1.0, cfg["c"]):
            failures.append(
                {"check": "entropy_rate", "detail": f"slope {slope!r} vs c {cfg['c']!r}"}
            )
    if np.any(np.diff(traj.t) < 0):
        failures.append({"check": "monotone_t", "detail": "entropy-time column decreased"})

    traj.write_csv(outdir / "trajectory.csv", bits=bits)
    if cfg["save_theta"]:
        (outdir / "theta.json").write_text(json.dumps(traj.theta_records(), indent=1))

    report = {
        "H_initial": _scale(summary["H_initial"], bits),
        "H_final": _scale(summary["H_final"], bits),
        "C_drift_max": _scale(summary["C_drift_max"], bits),
        "slope_of_H_vs_t": _scale(summary["slope_of_H_vs_t"], bits),
        "termination_status": summary["termination_status"],
        "integrator": summary["integrator"],
        "r_squared": r2,
        "units": "bits" if bits else "nats",
        "clock": cfg["clock"],
        "kind": cfg["kind"],
        "n_samples": traj.n_samples,
        "seed": cfg["seed"],
    }
    (outdir / "summary.json").write_text(json.dumps(report, indent=1))
    return report, failures


def _origin_report(shape, basis, eps, soft_tol, with_spectrum=False):
    point = make_point(params_from_state(regularized_origin(shape, eps), basis), basis)
    geom = constraint_geometry(point, include_hessian=True)
    evals, evecs = stiffness_spectrum(point, geom.hessian)
    kdim = geom.kernel.shape[1]
    angles = scipy.linalg.subspace_angles(evecs[:, :kdim], geom.kernel)
    hess_eigs = np.linalg.eigvalsh(geom.hessian)
    row = {
        "eps": eps,
        "C": geom.value,
        "C_max": constraint_max(shape),
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


def cmd_origin_analysis(cfg: dict, outdir: Path, bits: bool) -> tuple[dict, list]:
    shape = _shape(cfg)
    basis = product_basis(shape)
    rows = [_origin_report(shape, basis, eps, cfg["soft_tol"]) for eps in cfg["eps_sweep"]]
    failures = []
    for row in rows:
        if row["grad_norm"] > cfg["grad_norm_tol"]:
            failures.append({"check": "grad_norm", "eps": row["eps"], "value": row["grad_norm"]})
        if row["hessian_max_eig"] > cfg["hessian_max_eig_tol"]:
            failures.append(
                {"check": "hessian_nsd", "eps": row["eps"], "value": row["hessian_max_eig"]}
            )
        if row["soft_mode_count"] != row["kernel_dim"]:
            failures.append(
                {
                    "check": "soft_mode_count",
                    "eps": row["eps"],
                    "soft": row["soft_mode_count"],
                    "kernel_dim": row["kernel_dim"],
                }
            )
        if row["max_principal_angle_rad"] > cfg["angle_tol"]:
            failures.append(
                {"check": "soft_kernel_angle", "eps": row["eps"], "value": row["max_principal_angle_rad"]}
            )
    kdims = {row["kernel_dim"] for row in rows}
    if len(kdims) != 1:
        failures.append({"check": "kernel_dim_constant", "values": sorted(kdims)})
    if bits:
        for row in rows:
            row["C"] = row["C"] / _LN2
            row["C_max"] = row["C_max"] / _LN2
    report = {"units": "bits" if bits else "nats", "sweep": rows}
    (outdir / "origin_analysis_report.json").write_text(json.dumps(report, indent=1))
    return report, failures


def cmd_stiffness(cfg: dict, outdir: Path, bits: bool) -> tuple[dict, list]:
    shape = _shape(cfg)
    basis = product_basis(shape)
    row = _origin_report(shape, basis, cfg["eps"], cfg["soft_tol"], with_spectrum=True)
    if bits:
        row["C"] = row["C"] / _LN2
        row["C_max"] = row["C_max"] / _LN2
    report = dict(row)
    report["units"] = "bits" if bits else "nats"
    failures = []
    if report["stiffness_eigenvalues"][0] < -cfg["soft_tol"]:
        failures.append(
            {"check": "stiffness_nonnegative", "value": report["stiffness_eigenvalues"][0]}
        )
    if row["soft_mode_count"] != row["kernel_dim"]:
        failures.append({"check": "soft_mode_count", "soft": row["soft_mode_count"], "kernel_dim": row["kernel_dim"]})
    (outdir / "stiffness_report.json").write_text(json.dumps(report, indent=1))
    return report, failures


def cmd_obstruction_check(cfg: dict, outdir: Path, bits: bool) -> tuple[dict, list]:
    samples = cfg["samples"]
    max_alpha = cfg["max_alphabet"]
    slack = float(cfg["slack"])
    rng = np.random.default_rng(cfg["seed"])

    violations_mutual = 0
    violations_conditional = 0
    max_mutual_excess = -np.inf
    min_conditional = np.inf
    for _ in range(samples):
        n1 = int(rng.integers(2, max_alpha + 1))
        n2 = int(rng.integers(2, max_alpha + 1))
        cert = classical_origin_infeasible(random_joint_distribution(n1, n2, rng), eta=0.0)
        excess = cert.mutual_information - min(cert.h1, cert.h2)
        cond = cert.joint_entropy - cert.h2
        max_mutual_excess = max(max_mutual_excess, excess)
        min_conditional = min(min_conditional, cond)
        if excess > slack:
            violations_mutual += 1
        if cond < -slack:
            violations_conditional += 1

    q = int(cfg["witness_q"])
    rho = lme_origin([q, q])
    witness_I = multi_information(rho, [q, q])
    cap = math.log(q)

    failures = []
    if violations_mutual or violations_conditional:
        failures.append(
            {
                "check": "classical_caps",
                "violations_mutual": violations_mutual,
                "violations_conditional": violations_conditional,
            }
        )
    if witness_I <= cap + 1e-9:
        failures.append({"check": "quantum_witness", "value": witness_I, "cap": cap})

    report = {
        "units": "bits" if bits else "nats",
        "samples": samples,
        "max_alphabet": max_alpha,
        "violations_mutual": violations_mutual,
        "violations_conditional": violations_conditional,
        "max_mutual_excess": float(max_mutual_excess),
        "min_conditional_entropy": float(min_conditional),
        "witness": {
            "q": q,
            "multi_information": _scale(witness_I, bits),
            "classical_cap": _scale(cap, bits),
            "exceeds_cap": bool(witness_I > cap + 1e-9),
        },
        "seed": cfg["seed"],
    }
    (outdir / "obstruction_report.json").write_text(json.dumps(report, indent=1))
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

    # Qubit closed form: h(beta) = log(2 cosh beta) - beta tanh beta.
    sz = np.diag([1.0, -1.0])
    worst_deriv = 0.0
    fd_h = 1e-5
    for beta in np.linspace(0.0, 2.0, 9):
        analytic = gibbs_entropy_derivative(gibbs_family(sz, beta))
        closed = lambda b: math.log(2.0 * math.cosh(b)) - b * math.tanh(b)
        fd = (closed(beta + fd_h) - closed(beta - fd_h)) / (2.0 * fd_h)
        worst_deriv = max(worst_deriv, abs(analytic - fd))
    if worst_deriv > cfg["derivative_tol"]:
        failures.append({"check": "entropy_derivative", "value": worst_deriv})

    report = {
        "units": "bits" if bits else "nats",
        "n_states": int(cfg["n_states"]),
        "max_identity_gap": worst_identity,
        "n_planted": int(cfg["n_planted"]),
        "max_beta_error": worst_beta_err,
        "max_lock_residual": worst_residual,
        "max_derivative_gap": worst_deriv,
        "seed": cfg["seed"],
    }
    (outdir / "gibbs_report.json").write_text(json.dumps(report, indent=1))
    return report, failures


_COMMANDS = {
    "simulate": cmd_simulate,
    "origin-analysis": cmd_origin_analysis,
    "stiffness": cmd_stiffness,
    "obstruction-check": cmd_obstruction_check,
    "gibbs-check": cmd_gibbs_check,
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
    try:
        cfg = _load_config(args.mode, args.config, args.seed)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        report, failures = _COMMANDS[args.mode](cfg, outdir, args.bits)
    except (ConfigError, EntroflowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = dict(report)
    report["failures"] = failures
    print(json.dumps(report, indent=1))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
