"""Constrained entropy-ascent flows in natural parameters.

The dissipative field is the metric projection of the entropy gradient onto
the marginal-preserving tangent space, theta' = -P theta in game time tau,
with production rate theta^T G P theta >= 0.  P moves only the local
coordinates theta_L, so the rest decays exactly, theta_C = e^(-tau)
theta_C(0); entropy time t (dH/dt = c) is the integral of rate / c, finite up
to the stationary endpoint.  A reversible sector, the pushforward of
-i[xi, rho] for a local Hermitian xi, changes neither the entropy nor any
marginal spectrum.  V(tau) = e^(-i xi tau) is a local unitary, under which
the dissipative field is covariant (G, the local span and hence P are carried
into themselves): a combined run at game time tau is the dissipative run seen
through V(tau), and a reversible-only run is theta0 seen through it.

``integrate`` therefore steps only (theta_L, t) against tau with an embedded
Dormand-Prince 4(5) pair, on both clocks and in the rotating frame, and turns
each sample into the lab frame, coordinates(V(tau_k) K(theta_k) V(tau_k)^dag);
H, every marginal entropy and the rate are invariant under V.  A stage takes
K(theta) and its eigenpairs, rotates the local elements and K_C as one stack
by one batched product (``_stage_projection``), and checks only the state
spectrum and cond(G_LL).  Each marginal entropy is
monitored separately, never corrected: a drift beyond the budget aborts.
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
    StiffRegionError,
)
from .expfamily import _bkm_rows, _check_theta, _generator, _spectrum, bkm_kernel_matrix
from .operators import OperatorBasis, as_shape, embed_local, require_hermitian
from .states import marginal_entropies

LOCALITY_TOL = 1e-10
DEFAULT_RATE_MIN = 1e-10
# Floor on the stored error norm of the previous accepted step, as RADAU5
# stores ``erracc``: a near-exact step must not license a large growth.
PREV_ERR_FLOOR = 1e-2

# Dormand-Prince 4(5) tableau; row s weighs stages 0..s-1 and stage s runs at
# tau + c_s h; the last row doubles as the 5th-order weights (FSAL: stage 7 is
# the derivative at the accepted point).
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
    [19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0, 0.0, 0.0],
    [9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0, 0.0],
    [35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0],
])
_DP_C = np.array([0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0])
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


def _stage_projection(theta_local, F, p, U) -> tuple[np.ndarray, float]:
    """(P theta)_L and the rate from theta_L, the eigenpairs (p, U) of rho and
    the stage stack F = [F_a for a in L, K_C], K_C = sum_C theta_C F_C.

    One batched product rotates the stack, R = U^dag F U.  The local
    diagonals give mu_L = p . diag R_a and g_L = (p c) . diag R_a with
    c = log p - <log p>, and one pass of BKM rows sqrt(k) (R - mu I), k the
    BKM kernel, gives the local rows Y and, last, the row z of K_C: G_LL = Y Y^T
    and (P theta)_L = theta_L - G_LL^{-1} g_L.  The rate
    theta_C^T (G_CC - G_CL G_LL^{-1} G_LC) theta_C is |z - Y^T G_LL^{-1} Y z|^2,
    a sum of squares, quadratic in theta_C and 0 at a product state.  The
    field keeps g_L, whose p-weighted diagonal loses fewer digits than z when
    the spectrum spans many decades.
    """
    logp = np.log(p)
    c = logp - p @ logp
    R = U.conj().T @ F @ U
    diag = np.diagonal(R, axis1=1, axis2=2).real
    mu = diag @ p
    # mu_C stays its own dot product: a matvec row rounds differently, and the
    # step controller would carry that ulp into every later step, so flows
    # would stop reproducing earlier trajectory files byte for byte.
    mu[-1] = p @ diag[-1]
    rows = _bkm_rows(R, np.sqrt(bkm_kernel_matrix(p)), mu)
    Y, z = rows[:-1], rows[-1]
    rhs = np.column_stack([diag[:-1] @ (p * c), Y @ z])
    coeffs, corr_coeffs = _solve_local_block(Y @ Y.T, rhs).T
    resid = z - corr_coeffs @ Y
    return theta_local - coeffs, float(resid @ resid)


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

    The classic rule 0.9 e^(-1/5) reads the last error alone.  Gustafsson's
    predictive rule (ACM TOMS 20(4), 1994; Hairer & Wanner, Solving ODEs II,
    IV.8) also reads the previous accepted step ``prev = (h_prev, err_prev)``:

        0.9 (h / h_prev) e^(-1/5) (err_prev / e)^(1/5).

    The factor is the smaller rule, clamped to [0.2, 5]: the prediction only
    makes a step more cautious.  It is kept because it costs no more overall,
    in RHS evaluations with ``FlowConfig()``: the default ``simulate`` run
    takes 163 against 175 for the classic rule alone, and 18 runs take 2064
    against 2058, single runs from 12 fewer to 18 more.  The 18 are the
    eps = 0.05 origin ([2,3]: a 0.5 N(0, I) start) at [3,3], [2,3], [2,2,2],
    [4,4] and [2,2,2,2] on the entropy clock to 10 and 0.5 and the game clock
    to 2, and three 0.5 N(0, I) starts at [3,3] on the entropy clock to 10.
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
        The clock ``duration`` limits, entropy time t (dH/dt = c) or game
        time tau.  tau is always stepped and t integrated, t' = rate / c.
    duration : float
        Upper limit of the chosen clock.
    kind : {"dissipative", "combined", "reversible"}
        Sector content.  "combined" and "reversible" need ``config.xi_parts``;
        "reversible" runs only under the game clock (it produces no entropy).

    Returns
    -------
    Trajectory
        Samples at every accepted step, theta in the lab frame, with the
        production rate (P theta)^T G (P theta) (0 in a reversible-only run).
        ``integrator`` counts accepted steps, rejected attempts (error norm
        above 1 or not finite), attempts cut short by a failed stage
        (``failed_stages``, by cause: "boundary"), attempts redone to land a
        stop (``landing_retries``) and RHS evaluations (6 per attempt plus 1
        when no stage failed); it holds the smallest and largest accepted
        step and the last finite error norm.

    Notes
    -----
    The stepped state is (theta_L, t) (module docstring); theta_C is
    e^(-tau) theta0_C with the dissipative sector and theta0_C without.  A
    reversible-only run steps a zero field, so h grows 5-fold per step from
    ``initial_step`` (duration 2 is sampled at tau = 0, 0.01, 0.06, 0.31, 1.56
    and 2), and its samples share one eigendecomposition, of K(theta0).

    Runs with the dissipative sector stop "stationary" once the rate falls
    below ``config.rate_min``, at theta0 too.  Two stops are landed by redoing
    an attempt that met the tolerance.  One that carries t past an
    entropy-clock ``duration`` by more than 1e-14 max(1, duration) brackets
    it between h = 0 (or the last attempt that fell short) and the last that
    went past.  A Newton step on t(h) = duration is tried from each end with
    that end's own slope rate / c, the end nearer the duration first, and
    the first that falls strictly inside the bracket is taken; if neither
    does, the bracket is bisected.
    One whose rate falls below rate_min / 100 takes h from log rate
    interpolated across it (the rate decays like e^(-2 tau) near the
    endpoint), aimed at rate_min / 10.

    A stage fails ("boundary") when the spectrum of rho underflows
    STATE_UNDERFLOW_FLOOR; a non-finite stage state gets a NaN field, which
    the error norm rejects.  An accepted step grows h by ``_step_factor``, a
    rejected attempt shrinks it by max(0.2, 0.9 e^(-1/5)), a failed stage
    halves it; below 1e-14 max(1, tau) it has underflowed (StiffRegionError).
    A drift of any h_i beyond ``config.conservation_tol`` raises
    ConservationError, and cond(G_LL) above PROJECTOR_COND_MAX after the
    first sample DegenerateProjectionError; all three carry the partial
    trajectory.  A single-subsystem basis raises FullyConstrainedError, a
    non-local generator NonLocalGeneratorError and a degenerate block at
    theta0 NumericalDegeneracyError, before the first step.
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

    theta0 = _check_theta(theta0, basis)
    local_rows = basis.real_rows[local]
    theta_corr = theta0.copy()
    theta_corr[local] = 0.0
    K_corr = _generator(theta_corr, basis)  # K_C at tau = 0
    F = np.concatenate([basis.stack[local], K_corr[None]])  # a stage writes K_C(tau) last

    def rhs(tau, y, out):
        """Write the field at (tau, (theta_L, t)) into ``out``; return ((p, U) or None, rate)."""
        stats["rhs_evals"] += 1
        if not dissipative:  # the reversible sector is applied in ``build``
            out.fill(0.0)
            return None, 0.0
        if not np.isfinite(y).all():  # the error norm rejects the attempt
            out.fill(np.nan)
            return None, math.nan
        K_C = np.multiply(K_corr, math.exp(-tau), out=F[-1])
        eig = _spectrum((y[:-1] @ local_rows).view(complex).reshape(K_C.shape) + K_C)[1:]
        proj_local, rate = _stage_projection(y[:-1], F, *eig)
        np.negative(proj_local, out=out[:-1])
        out[-1] = rate / config.c
        return eig, rate

    y = np.append(theta0[local], 0.0)
    rows = []  # one (tau, t, H, marginal entropies, rate, theta) per sample
    stats = {
        "accepted": 0,
        "rejected": 0,
        "failed_stages": {"boundary": 0},
        "landing_retries": 0,
        "rhs_evals": 0,
        "h_min": None,
        "h_max": None,
        "last_err_norm": None,
    }
    # Row s holds the field of stage s; row 6 is the new point's, copied to
    # row 0 when the step is accepted.
    stages = np.empty((7, y.size))

    def record(tau, eig, rate):
        theta = theta0 * (math.exp(-tau) if dissipative else 1.0)
        theta[local] = y[:-1]
        if eig is None and rows:  # reversible-only: every sample is theta0's state
            H, marg = rows[0][2:4]
        else:
            p, U = _spectrum(_generator(theta, basis))[1:] if eig is None else eig
            H = -float(p @ np.log(p))
            marg = marginal_entropies((U * p) @ U.conj().T, shape)
        rows.append((tau, float(y[-1]), H, marg, rate, theta))
        return marg

    def build(status):
        tau, t, H, marg, rate, theta = (np.array(col) for col in zip(*rows))
        if frame is not None:
            theta = _lab_frame(theta, tau, basis, *frame)
        return Trajectory(clock, kind, shape.dims, status, tau, t, H, marg, rate, theta, stats)

    eig, rate = rhs(0.0, y, stages[0])
    marg0 = record(0.0, eig, rate)
    if dissipative and rate < config.rate_min:
        return build("stationary")

    tau = 0.0
    tau_end, t_end = (duration, math.inf) if clock == "game" else (math.inf, duration)
    land_tol = 1e-14 * max(1.0, duration)
    h = config.initial_step
    status = "max_steps"
    prev = None
    bracket = None  # [short, past]: step sizes whose t fell short of / passed t_end

    while stats["accepted"] < config.max_steps:
        h_min = 1e-14 * max(1.0, tau)  # the spacing of tau, not of duration
        if tau_end - tau <= h_min or t_end - y[-1] <= land_tol:
            status = "completed"
            break
        h = min(h, tau_end - tau)

        try:
            for s in range(1, 7):
                y_new = y + h * (_DP_A[s, :s] @ stages[:s])
                new_eig, new_rate = rhs(tau + _DP_C[s] * h, y_new, stages[s])
        except BoundaryStateError:
            stats["failed_stages"]["boundary"] += 1
            factor = 0.5
        except NumericalDegeneracyError as exc:
            raise DegenerateProjectionError(str(exc), build("degenerate")) from exc
        else:
            factor = None
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
                raise StiffRegionError(f"step size underflowed below {h_min:.1e}", build("stiff"))
            continue

        miss = float(y_new[-1] - t_end)
        if miss > land_tol or (bracket and miss < -land_tol):
            stats["landing_retries"] += 1
            bracket = bracket or [(0.0, float(y[-1] - t_end), float(stages[0, -1])), None]
            bracket[int(miss > 0)] = (h, miss, float(stages[6, -1]))
            (lo, *_), (hi, *_) = bracket
            ends = sorted(bracket, key=lambda end: abs(end[1]))  # nearer end first
            newton = (h_e - miss_e / slope for h_e, miss_e, slope in ends if slope > 0)
            h = next((h_n for h_n in newton if lo < h_n < hi), 0.5 * (lo + hi))
            continue
        if dissipative and new_rate < 0.01 * config.rate_min:
            stats["landing_retries"] += 1
            aim = math.log(10.0 * rate / config.rate_min)
            h *= aim / math.log(rate / new_rate) if new_rate > 0 else 0.5
            continue

        # Accepted step.
        stats["accepted"] += 1
        stats["h_min"] = h if stats["h_min"] is None else min(stats["h_min"], h)
        stats["h_max"] = h if stats["h_max"] is None else max(stats["h_max"], h)
        tau += h
        y = y_new
        eig, rate = new_eig, new_rate
        stages[0] = stages[6]
        drift = np.abs(record(tau, eig, rate) - marg0)
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
