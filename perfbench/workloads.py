"""The four benchmark workloads: seeded inputs, the timed computation, and
the output checks at the acceptance-gate tolerances.

Each workload is a ``setup(seed)`` that returns the prepared inputs, a
``run(inputs, outdir)`` that is timed as ``run_s``, and a ``check(result)``
that returns ``(name, passed, detail)`` triples.  ``run`` reaches the
library through module attributes (``flow.integrate``, not a name bound at
import), so the traced run sees the wrappers that ``tracing`` installs.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from entroflow import constraint, expfamily, flow, operators, states

LOG3 = math.log(3.0)
ORIGIN_EPS_SWEEP = (0.3, 0.1, 0.03, 0.01)


def _basis(dims):
    shape = operators.as_shape(dims)
    return shape, operators.product_basis(shape)


def _write_csv(traj, outdir, name):
    """Write the trajectory CSV (timed with the run) and return its path."""
    path = outdir / f"{name}.csv"
    traj.write_csv(path)
    return path


def _csv_checks(traj, path):
    """The CSV holds one row per sample and its H column round-trips exactly."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    h_col = header.index("H")
    h_read = np.array([float(r[h_col]) for r in rows])
    return [
        ("csv_rows", len(rows) == traj.n_samples, f"{len(rows)} rows, {traj.n_samples} samples"),
        ("csv_status", rows[-1][-1] == traj.status, f"last row {rows[-1][-1]!r}"),
        ("csv_H_exact", bool(np.array_equal(h_read, traj.H)), "H column vs trajectory"),
    ]


def _marginal_drift_checks(traj, tol):
    drifts = np.abs(traj.marginals - traj.marginals[0]).max(axis=0)
    return [(f"h_{i}_drift", d <= tol, f"{d:.2e}") for i, d in enumerate(drifts)]


def _flow_result(traj, path):
    return {
        "traj": traj,
        "csv": path,
        "csv_bytes": path.stat().st_size,
        "accepted_steps": traj.n_samples - 1,
    }


# flow-dissipative -------------------------------------------------------------

def setup_flow_dissipative(seed):
    """`entroflow simulate` at its default config; the inputs take no seed."""
    shape, basis = _basis([3, 3])
    theta0 = expfamily.params_from_state(states.regularized_origin(shape, 0.05), basis)
    return {"basis": basis, "theta0": theta0, "config": flow.FlowConfig()}


def run_flow_dissipative(inputs, outdir):
    traj = flow.integrate(
        inputs["theta0"], inputs["basis"], inputs["config"],
        clock="entropy", duration=10.0, kind="dissipative",
    )
    return _flow_result(traj, _write_csv(traj, outdir, "flow-dissipative"))


def check_flow_dissipative(result):
    traj = result["traj"]
    c = 1.0
    slope, _, r2 = flow.entropy_time_fit(traj)
    top_gap = 2 * LOG3 - float(traj.H[-1])
    c_gap = float(np.abs(traj.C - 2 * LOG3).max())
    return [
        ("status_stationary", traj.status == "stationary", traj.status),
        ("slope", abs(slope - c) <= 1e-4, f"slope-c={slope - c:.2e}"),
        ("r_squared", r2 > 1 - 1e-8, f"1-R2={1 - r2:.2e}"),
        ("H_below_top", 0.0 < top_gap <= 1e-6, f"2log3-H={top_gap:.2e}"),
        ("C_at_top", c_gap <= 1e-6, f"|C-2log3|={c_gap:.2e}"),
    ] + _csv_checks(traj, result["csv"])


# flow-reversible --------------------------------------------------------------

def _haar_unitary(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def setup_flow_reversible(seed):
    """Acceptance test 8's reversible run, seen in a seeded local frame.

    The generators and theta0 are acceptance test 8's draw; the seed picks
    Haar-random local unitaries U_0 (x) U_1 that conjugate the start state and
    each generator.  The run is the same physics in rotated coordinates, so the
    inputs change with the seed but the step count barely does.  (Fresh draws
    of generators and theta0 change the step count by tens of percent.)
    """
    _, basis = _basis([3, 3])
    acceptance = np.random.default_rng(8)
    xis = [states.random_hermitian(3, acceptance) for _ in range(2)]
    theta = acceptance.normal(size=basis.size) * 0.15
    rng = np.random.default_rng(seed)
    us = [_haar_unitary(3, rng) for _ in range(2)]
    u = np.kron(us[0], us[1])
    rho0 = u @ expfamily.state_from_params(theta, basis) @ u.conj().T
    parts = tuple((i, us[i] @ xi @ us[i].conj().T) for i, xi in enumerate(xis))
    config = flow.FlowConfig(atol=1e-10, rtol=1e-10, xi_parts=parts)
    return {"basis": basis, "theta0": expfamily.params_from_state(rho0, basis), "config": config}


def run_flow_reversible(inputs, outdir):
    traj = flow.integrate(
        inputs["theta0"], inputs["basis"], inputs["config"],
        clock="game", duration=2.0, kind="reversible",
    )
    return _flow_result(traj, _write_csv(traj, outdir, "flow-reversible"))


def check_flow_reversible(result):
    traj = result["traj"]
    h_drift = float(np.abs(traj.H - traj.H[0]).max())
    return [
        ("status_completed", traj.status == "completed", traj.status),
        ("H_drift", h_drift <= 1e-8, f"{h_drift:.2e}"),
    ] + _marginal_drift_checks(traj, 1e-8) + _csv_checks(traj, result["csv"])


# origin-geometry --------------------------------------------------------------

def setup_origin_geometry(seed):
    """The origin-analysis sweep at its default eps values; no seed enters."""
    shape, basis = _basis([3, 3])
    thetas = [
        expfamily.params_from_state(states.regularized_origin(shape, eps), basis)
        for eps in ORIGIN_EPS_SWEEP
    ]
    return {"basis": basis, "thetas": thetas}


def run_origin_geometry(inputs, outdir):
    """What `entroflow origin-analysis` computes per eps, run serially."""
    rows = []
    for eps, theta in zip(ORIGIN_EPS_SWEEP, inputs["thetas"]):
        point = expfamily.make_point(theta, inputs["basis"])
        geom = constraint.constraint_geometry(point, include_hessian=True)
        evals, evecs = constraint.stiffness_spectrum(point, geom.hessian)
        kdim = geom.kernel.shape[1]
        angles = scipy.linalg.subspace_angles(evecs[:, :kdim], geom.kernel)
        rows.append({
            "eps": eps,
            "grad_norm": float(np.linalg.norm(geom.grad)),
            "hessian_max_eig": float(np.linalg.eigvalsh(geom.hessian)[-1]),
            "kernel_dim": int(kdim),
            "soft_modes": constraint.soft_mode_count(evals),
            "max_angle": float(angles.max()),
        })
    return {"rows": rows}


def check_origin_geometry(result):
    checks = []
    for row in result["rows"]:
        eps = row["eps"]
        checks += [
            (f"grad_norm@{eps}", row["grad_norm"] <= 1e-8, f"{row['grad_norm']:.2e}"),
            (f"hessian_nsd@{eps}", row["hessian_max_eig"] <= 1e-6, f"{row['hessian_max_eig']:.2e}"),
            (
                f"soft_modes@{eps}",
                row["soft_modes"] == row["kernel_dim"] == 64,
                f"soft {row['soft_modes']}, kernel {row['kernel_dim']}",
            ),
            (f"kernel_angle@{eps}", row["max_angle"] < 1e-3, f"{row['max_angle']:.2e}"),
        ]
    return checks


# flow-multipartite ------------------------------------------------------------

def setup_flow_multipartite(seed):
    """A seeded unit direction in ker M at theta = 0 on four qubits."""
    _, basis = _basis([2, 2, 2, 2])
    rng = np.random.default_rng(seed)
    kernel = constraint.constraint_geometry(expfamily.make_point(np.zeros(basis.size), basis)).kernel
    v = kernel @ rng.normal(size=kernel.shape[1])
    return {"basis": basis, "theta0": v / np.linalg.norm(v), "config": flow.FlowConfig()}


def run_flow_multipartite(inputs, outdir):
    traj = flow.integrate(
        inputs["theta0"], inputs["basis"], inputs["config"],
        clock="game", duration=0.5, kind="dissipative",
    )
    return _flow_result(traj, _write_csv(traj, outdir, "flow-multipartite"))


def check_flow_multipartite(result):
    traj = result["traj"]
    c_drift = float(np.abs(traj.C - traj.C[0]).max())
    dH_min = float(np.diff(traj.H).min()) if traj.n_samples > 1 else 0.0
    return [
        ("status_completed", traj.status == "completed", traj.status),
        ("C_drift", c_drift <= 1e-6, f"{c_drift:.2e}"),
        ("H_nondecreasing", dH_min >= 0.0, f"min dH={dH_min:.2e}"),
    ] + _marginal_drift_checks(traj, 1e-6) + _csv_checks(traj, result["csv"])


WORKLOADS = {
    "flow-dissipative": (setup_flow_dissipative, run_flow_dissipative, check_flow_dissipative),
    "flow-reversible": (setup_flow_reversible, run_flow_reversible, check_flow_reversible),
    "origin-geometry": (setup_origin_geometry, run_origin_geometry, check_origin_geometry),
    "flow-multipartite": (setup_flow_multipartite, run_flow_multipartite, check_flow_multipartite),
}
