"""Constrained entropy-ascent flows in natural parameters.

The dissipative field is the metric projection of the entropy gradient onto
the marginal-preserving tangent space: theta' = -P theta, whose entropy
production rate is theta^T G P theta >= 0.  Reparametrising so entropy grows
at a constant rate c ("entropy time") divides the field by the production
rate.  A reversible sector generated by a local Hermitian xi adds the
pushforward of -i[xi, rho], which changes neither the entropy nor any
marginal spectrum.

That sector is never integrated.  xi = sum_i xi_i (x) I is local, so
V(tau) = e^(-i xi tau) is a local unitary, and the dissipative field is
covariant under local unitaries (G, the local span and hence P are carried
into themselves).  A combined run at game time tau is therefore the
dissipative run seen through V(tau), and a reversible-only run is the
constant theta0 seen through it.  ``integrate`` steps the dissipative field
alone (zero in a reversible-only run) in the rotating frame, where the error
norm measures theta, and turns each stored sample into the lab frame,
coordinates(V(tau_k) K(theta_k) V(tau_k)^dag), at its own game time; H, every
marginal entropy and the production rate are invariant under V.

Integration uses an embedded Dormand-Prince 4(5) pair.  A stage computes
K(theta), its eigenpairs and the local elements (``_stage_projection``); it
checks only what those need, the state spectrum and cond(G_LL), never
building a chart point or a marginal.  Each marginal entropy is monitored
separately, never corrected: a drift beyond the budget in any subsystem
aborts the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraint import _local_sector, _solve_local_block
from .errors import (
    BoundaryStateError,
    ConservationError,
    DegenerateProjectionError,
    NonLocalGeneratorError,
    NumericalDegeneracyError,
    StationaryPointError,
    StiffRegionError,
)
from .expfamily import ExpFamilyPoint, _bkm_gram, _check_theta, _generator, _rotation, _spectrum
from .operators import OperatorBasis, as_shape, embed_local, require_hermitian
from .states import marginal_entropies

LOCALITY_TOL = 1e-10
DEFAULT_RATE_MIN = 1e-10
# Floor on the stored error norm of the previous accepted step, as RADAU5
# stores ``erracc``: a near-exact step must not license a large growth.
PREV_ERR_FLOOR = 1e-2

# Dormand-Prince 4(5) tableau; row s weighs stages 0..s-1, and the last row
# doubles as the 5th-order weights (FSAL: stage 7 is the derivative at the
# accepted point).
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
    [19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0, 0.0, 0.0],
    [9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0, 0.0],
    [35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0],
])
_DP_ERR = np.array([
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
])


@dataclass(frozen=True)
class FlowConfig:
    """Run parameters for the flows.

    ``xi_parts`` lists (subsystem index, Hermitian block) pairs defining the
    local reversible generator xi = sum_i xi_i (x) I; the scale of xi sets
    the speed of the reversible sector.  Runs containing the dissipative
    sector stop with status "stationary" once the production rate falls
    below ``rate_min``.
    """

    c: float = 1.0
    rate_min: float = DEFAULT_RATE_MIN
    initial_step: float = 0.01
    atol: float = 1e-8
    rtol: float = 1e-8
    max_steps: int = 100_000
    conservation_tol: float = 1e-6
    xi_parts: tuple = ()

    def __post_init__(self):
        # Written so that NaN fails every test; an infinite value would
        # switch off the clock, the stationarity stop or a monitor.
        for name in ("c", "rate_min", "initial_step", "conservation_tol"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("atol", "rtol"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {value}")
        if self.atol == 0 and self.rtol == 0:
            raise ValueError("atol and rtol must not both be zero")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {self.max_steps}")


def assemble_local_generator(shape, parts) -> np.ndarray:
    """Build xi = sum_i xi_i (x) I_rest from (subsystem, block) pairs."""
    shape = as_shape(shape)
    d = shape.total_dim
    xi = np.zeros((d, d), dtype=complex)
    for index, block in parts:
        block = require_hermitian(block, name=f"xi block for subsystem {index}")
        xi += embed_local(block, index, shape)
    return xi


def _stage_projection(theta, basis: OperatorBasis, local, p, U) -> tuple[np.ndarray, float]:
    """``local_block_projection`` from the spectrum p of rho and its eigenvectors U.

    Only the local elements are rotated, R_a = U^dag F_a U; their diagonals give
    mu_L = p . diag R_a and g_L = (p c) . diag R_a with c = log p - <log p>.
    K commutes with rho, so theta^T G theta = p . c^2.  G_LL is the BKM Gram
    matrix of R_a - mu_a I.
    """
    logp = np.log(p)
    c = logp - p @ logp
    R = _rotation(basis, U, local)
    diag = np.diagonal(R, axis1=0, axis2=2).real
    g_local = diag @ (p * c)
    coeffs = _solve_local_block(_bkm_gram(R, p, diag @ p), g_local)
    proj = theta.copy()
    proj[local] -= coeffs
    return proj, float(p @ c**2 - g_local @ coeffs)


def local_block_projection(point: ExpFamilyPoint) -> tuple[np.ndarray, float]:
    """P theta and the production rate theta^T G P theta, without M, N or G.

    (G v)_a = tr(F_a d rho[v]), and the local elements L of the product
    basis span the traceless operators of every subsystem, so M v = 0 iff
    (G v)_L = 0.  ker M is therefore the G-orthogonal complement of the
    local coordinate axes e_L, and with g = G theta

        P theta = theta - e_L G_LL^{-1} g_L,
        theta^T G P theta = theta . g - g_L . G_LL^{-1} g_L.

    g_L, theta . g and G_LL come from the eigenpairs of rho and the |L| local
    elements (``_stage_projection``, the integrator's stage kernel).  The
    tests check it against the dense projector N (N^T G N)^{-1} N^T G on an
    SVD kernel N of M.

    Raises FullyConstrainedError for a single-subsystem basis and
    NumericalDegeneracyError when cond(G_LL) exceeds PROJECTOR_COND_MAX.
    """
    local = _local_sector(point.basis)
    return _stage_projection(point.theta, point.basis, local, point.eigvals, point.eigvecs)


def _require_local(basis: OperatorBasis, xi) -> np.ndarray:
    xi = require_hermitian(xi, name="reversible generator")
    d = basis.shape.total_dim
    if xi.shape != (d, d):
        raise ValueError(f"generator shape {xi.shape} does not match state {(d, d)}")
    defect = float(np.linalg.norm(basis.coordinates(xi)[basis.correlation_indices()]))
    if defect > LOCALITY_TOL * max(1.0, float(np.linalg.norm(xi))):
        raise NonLocalGeneratorError(
            f"generator has a correlation-sector component of norm {defect:.3e}"
        )
    return xi


def _lab_frame(theta, tau, basis: OperatorBasis, w, W) -> np.ndarray:
    """Rotating-frame rows theta_k seen at game times tau_k in the lab frame.

    Row k becomes coordinates(V K(theta_k) V^dag) with
    V = e^(-i xi tau_k) = W diag(e^(-i w tau_k)) W^dag from xi = W diag(w) W^dag.
    """
    lab = np.empty_like(theta)
    for k, (row, tau_k) in enumerate(zip(theta, tau)):
        V = (W * np.exp(-1j * tau_k * w)) @ W.conj().T
        lab[k] = basis.coordinates(V @ _generator(row, basis) @ V.conj().T)
    return lab


@dataclass
class Trajectory:
    """Diagnostics sampled at the accepted steps of one integration run.

    Row k is the state after k accepted steps (row 0 is the start).
    ``integrator`` holds the run's step-control counts (see ``integrate``).
    """

    clock: str
    kind: str
    dims: tuple
    status: str
    tau: np.ndarray
    t: np.ndarray
    H: np.ndarray
    marginals: np.ndarray
    rate: np.ndarray
    theta: np.ndarray
    integrator: dict

    @property
    def n_samples(self) -> int:
        return len(self.H)

    @property
    def C(self) -> np.ndarray:
        """The constraint C = sum_i h_i at every sample."""
        return self.marginals.sum(axis=1)

    def summary(self) -> dict:
        slope = None
        if self.n_samples >= 2 and float(np.ptp(self.t)) > 0.0:
            slope = entropy_time_fit(self)[0]
        C = self.C
        return {
            "H_initial": float(self.H[0]),
            "H_final": float(self.H[-1]),
            "C_drift_max": float(np.max(np.abs(C - C[0]))),
            "slope_of_H_vs_t": slope,
            "termination_status": self.status,
            "integrator": self.integrator,
        }

    def write_csv(self, path, *, bits: bool = False) -> None:
        """Write the per-sample table; --bits rescales entropic columns only.

        ``step`` is the row index k and ``theta_norm`` is |theta_k|.
        """
        conv = 1.0 / math.log(2.0) if bits else 1.0
        nsub = self.marginals.shape[1]
        header = ["step", "tau", "t", "H", "C"]
        header += [f"h_{i}" for i in range(nsub)]
        header += ["rate", "theta_norm", "status"]
        lines = [",".join(header)]
        C = self.C
        last = self.n_samples - 1
        for k in range(self.n_samples):
            vals = [str(k)]
            floats = [self.tau[k], self.t[k], conv * self.H[k], conv * C[k]]
            floats += [conv * self.marginals[k, i] for i in range(nsub)]
            floats += [conv * self.rate[k], np.linalg.norm(self.theta[k])]
            vals += [f"{x:.17g}" for x in floats]
            vals.append(self.status if k == last else "ok")
            lines.append(",".join(vals))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def theta_records(self) -> dict:
        return {
            "clock": self.clock,
            "kind": self.kind,
            "dims": list(self.dims),
            "status": self.status,
            "samples": [
                {
                    "step": k,
                    "tau": float(self.tau[k]),
                    "t": float(self.t[k]),
                    "theta": [float(x) for x in self.theta[k]],
                }
                for k in range(self.n_samples)
            ],
        }


def entropy_time_fit(traj: Trajectory) -> tuple[float, float, float]:
    """Least-squares line H = slope * t + intercept and its R^2."""
    t = traj.t
    H = traj.H
    slope, intercept = np.polyfit(t, H, 1)
    resid = H - (slope * t + intercept)
    ss_res = float(resid @ resid)
    centred = H - H.mean()
    ss_tot = float(centred @ centred)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return float(slope), float(intercept), r2


def _step_factor(err_norm: float, h: float, prev) -> float:
    """Step-size factor after an accepted step of size h with error norm err_norm.

    The classic rule 0.9 e^(-1/5) reads the last error alone.  Where the
    field steepens from step to step (the entropy-time field near the
    boundary) it grows h a little after each accepted step and the next
    attempt is rejected.  Gustafsson's predictive rule (ACM TOMS 20(4), 1994;
    Hairer & Wanner, Solving ODEs II, IV.8) also reads the previous accepted
    step ``prev = (h_prev, err_prev)``:

        0.9 (h / h_prev) e^(-1/5) (err_prev / e)^(1/5).

    The factor is the smaller of the two rules, clamped to [0.2, 5], so the
    prediction only ever makes a step more conservative; with ``prev`` None
    it is the classic rule.
    """
    e = max(err_norm, 1e-16)
    factor = 0.9 * e ** -0.2
    if prev is not None:
        h_prev, err_prev = prev
        factor = min(factor, factor * (h / h_prev) * (err_prev / e) ** 0.2)
    return min(5.0, max(0.2, factor))


def integrate(
    theta0,
    basis: OperatorBasis,
    config: FlowConfig,
    *,
    clock: str = "entropy",
    duration: float,
    kind: str = "dissipative",
) -> Trajectory:
    """Integrate one flow with adaptive Dormand-Prince 4(5) stepping.

    Parameters
    ----------
    theta0 : array_like
        Initial natural parameters.
    basis : OperatorBasis
        Chart basis; its shape fixes the marginal constraint set.
    config : FlowConfig
        Tolerances, entropy speed c, stationarity threshold, generator.
    clock : {"entropy", "game"}
        Independent variable: entropy time t (dH/dt = c) or game time tau.
    duration : float
        Upper limit of the chosen clock.
    kind : {"dissipative", "combined", "reversible"}
        Sector content.  "combined" and "reversible" need ``config.xi_parts``;
        "reversible" runs only under the game clock (it produces no entropy).

    Returns
    -------
    Trajectory
        Samples at every accepted step, both clocks tracked (the inactive
        clock is reconstructed from the entropy production so that
        t = (H - H_0)/c along any run), theta in the lab frame.  The
        recorded rate is the production rate theta^T G P theta of the
        dissipative sector; a reversible-only run produces no entropy and
        records 0.
        ``integrator`` counts accepted steps, rejected attempts (error norm
        above 1 or not finite), attempts cut short by a failed stage
        (``failed_stages``, by cause: "stationary" or "boundary") and RHS
        evaluations, and holds the smallest and largest accepted step and
        the last finite error norm.

    Notes
    -----
    Only the dissipative field is stepped, in the frame that rotates with
    the reversible sector (module docstring).  A reversible-only run steps
    a zero field: every error norm is 0, so h grows 5-fold per step from
    ``initial_step``, and duration 2 is sampled at tau = 0, 0.01, 0.06,
    0.31, 1.56 and 2.

    A stage runs only the checks of its kernels (module docstring): it fails
    ("boundary") when the spectrum of rho underflows STATE_UNDERFLOW_FLOOR,
    and ("stationary") on the entropy clock without production.  A
    non-finite stage theta gets a NaN field, which the error norm rejects.
    An accepted step grows h by ``_step_factor``, a
    rejected attempt shrinks it by max(0.2, 0.9 e^(-1/5)), a failed stage
    halves it; below 1e-14 max(1, clock) it has underflowed.  Runs with the
    dissipative sector stop with status "stationary" once the production
    rate falls below ``config.rate_min``, at theta0 too.

    A drift of any marginal entropy h_i beyond ``config.conservation_tol``
    raises ConservationError; step-size underflow away from a stationary
    point raises StiffRegionError; cond(G_LL) above PROJECTOR_COND_MAX after
    the first sample raises DegenerateProjectionError.  All three carry the
    partial trajectory.  A single-subsystem basis raises
    FullyConstrainedError and a non-local generator NonLocalGeneratorError,
    both before the first step; a degenerate block at theta0 raises
    NumericalDegeneracyError.
    """
    if clock not in ("entropy", "game"):
        raise ValueError(f"unknown clock {clock!r}")
    if kind not in ("dissipative", "combined", "reversible"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind in ("combined", "reversible") and not config.xi_parts:
        raise ValueError(f"kind {kind!r} needs config.xi_parts")
    if kind == "reversible" and clock == "entropy":
        raise ValueError("a reversible-only run produces no entropy; use the game clock")
    if not 0 < duration < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration}")

    shape = basis.shape
    local = _local_sector(basis)
    dissipative = kind in ("dissipative", "combined")
    frame = None  # eigenpairs of xi, which rotate the samples into the lab frame
    if kind != "dissipative":
        # Locality is what makes the rotation exact (module docstring).
        xi = _require_local(basis, assemble_local_generator(shape, config.xi_parts))
        frame = np.linalg.eigh(xi)

    def rhs(theta, out):
        """Write the rotating-frame field at theta into ``out``; return ((p, U) or None, rate)."""
        stats["rhs_evals"] += 1
        if not dissipative:  # the reversible sector is applied in ``build``
            out.fill(0.0)
            return None, 0.0
        if not np.isfinite(theta).all():  # the error norm rejects the attempt
            out.fill(np.nan)
            return None, math.nan
        eig = _spectrum(_generator(theta, basis))[1:]
        v = out[:m]
        proj_theta, rate = _stage_projection(theta, basis, local, *eig)
        np.negative(proj_theta, out=v)
        if clock == "game":
            out[m] = rate / config.c
        else:
            if rate <= 0.0:
                raise StationaryPointError(f"entropy production rate {rate:.3e} is not positive")
            scale = config.c / rate
            v *= scale
            out[m] = scale
        return eig, rate

    theta0 = _check_theta(theta0, basis)
    m = basis.size
    y = np.concatenate([theta0, [0.0]])
    rows = []  # one (tau, t, H, marginal entropies, rate, theta) per sample
    stats = {
        "accepted": 0,
        "rejected": 0,
        "failed_stages": {"stationary": 0, "boundary": 0},
        "rhs_evals": 0,
        "h_min": None,
        "h_max": None,
        "last_err_norm": None,
    }
    # Row s holds the field of stage s; row 6 is the new point's, copied to
    # row 0 when the step is accepted.
    stages = np.empty((7, m + 1))

    def record(pos, aux, eig, rate):
        p, U = _spectrum(_generator(y[:m], basis))[1:] if eig is None else eig
        marg = marginal_entropies((U * p) @ U.conj().T, shape)
        tau, t = (pos, aux) if clock == "game" else (aux, pos)
        rows.append((tau, t, -float(p @ np.log(p)), marg, rate, y[:m].copy()))
        return marg

    def build(status):
        tau, t, H, marg, rate, theta = (np.array(col) for col in zip(*rows))
        if frame is not None:
            theta = _lab_frame(theta, tau, basis, *frame)
        return Trajectory(clock, kind, shape.dims, status, tau, t, H, marg, rate, theta, stats)

    try:
        eig, rate = rhs(theta0, stages[0])
    except StationaryPointError:  # entropy clock: no production at theta0
        eig, rate = None, 0.0
    marg0 = record(0.0, 0.0, eig, rate)

    if dissipative and rate < config.rate_min:
        return build("stationary")

    pos = 0.0
    h = min(config.initial_step, duration)
    status = "max_steps"
    prev = None

    while stats["accepted"] < config.max_steps:
        h_min = 1e-14 * max(1.0, pos)  # the spacing of pos, not of duration
        remaining = duration - pos
        if remaining <= h_min:
            status = "completed"
            break
        h = min(h, remaining)

        try:
            for s in range(1, 6):
                rhs((y + h * (_DP_A[s, :s] @ stages[:s]))[:m], stages[s])
            y_new = y + h * (_DP_A[6] @ stages[:6])
            new_eig, new_rate = rhs(y_new[:m], stages[6])
            failed = None
        except StationaryPointError:
            failed = "stationary"
        except BoundaryStateError:
            failed = "boundary"
        except NumericalDegeneracyError as exc:
            raise DegenerateProjectionError(str(exc), build("degenerate")) from exc

        factor = None
        if failed:
            stats["failed_stages"][failed] += 1
            factor = 0.5
        else:
            err = h * (_DP_ERR @ stages)
            scale = config.atol + config.rtol * np.maximum(np.abs(y), np.abs(y_new))
            # With atol = 0 a component that stays exactly 0 has scale 0: a
            # zero error there meets the tolerance, any other error fails it.
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = err / scale
            ratio[err == 0.0] = 0.0
            err_norm = float(np.sqrt(np.mean(ratio**2)))
            if not np.isfinite(err_norm):
                stats["rejected"] += 1
                factor = 0.5
            else:
                stats["last_err_norm"] = err_norm
                if err_norm > 1.0:
                    stats["rejected"] += 1
                    factor = max(0.2, 0.9 * err_norm ** -0.2)

        if factor is not None:
            h *= factor
            if h < h_min:
                if dissipative and rate < 10.0 * config.rate_min:
                    status = "stationary"
                    break
                raise StiffRegionError(f"step size underflowed below {h_min:.1e}", build("stiff"))
            continue

        # Accepted step.
        stats["accepted"] += 1
        stats["h_min"] = h if stats["h_min"] is None else min(stats["h_min"], h)
        stats["h_max"] = h if stats["h_max"] is None else max(stats["h_max"], h)
        pos += h
        y = y_new
        eig, rate = new_eig, new_rate
        stages[0] = stages[6]
        drift = np.abs(record(pos, float(y[m]), eig, rate) - marg0)
        if drift.max() > config.conservation_tol:
            worst = int(np.argmax(drift))
            raise ConservationError(
                f"marginal-entropy drift {drift[worst]:.3e} in subsystem {worst} "
                f"exceeds {config.conservation_tol:.1e}",
                build("conservation"),
            )
        if dissipative and rate < config.rate_min:
            status = "stationary"
            break
        factor = _step_factor(err_norm, h, prev)
        prev = (h, max(err_norm, PREV_ERR_FLOOR))
        h *= factor

    return build(status)
