"""Constrained entropy-ascent flows in natural parameters.

The dissipative field is the metric projection of the entropy gradient onto
the marginal-preserving tangent space: theta' = -P theta, whose entropy
production rate is theta^T G P theta >= 0.  Reparametrising so entropy grows
at a constant rate c ("entropy time") divides the field by the production
rate.  A reversible sector generated by a local Hermitian xi adds the
pushforward of -i[xi, rho], which changes neither the entropy nor any
marginal spectrum.

Integration uses an embedded Dormand-Prince 4(5) pair; each stage rebuilds
the chart point and the local-block projection (``local_block_projection``),
while a reversible-only stage inside ``_clear_radius`` needs K alone.  The
full constraint geometry is not needed on the hot path.  Each marginal entropy
is monitored separately, never corrected: a drift beyond the budget in any
subsystem aborts the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraint import MARGINAL_EIG_FLOOR, _local_sector, _solve_local_block, marginal_eigh
from .errors import (
    BoundaryStateError,
    ConservationError,
    DegenerateProjectionError,
    NonLocalGeneratorError,
    NumericalDegeneracyError,
    StationaryPointError,
    StiffRegionError,
)
from .expfamily import ExpFamilyPoint, _check_theta, _generator, make_point, metric_block, metric_theta
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
    local reversible generator xi = sum_i xi_i (x) I.  ``reversible_rate``
    multiplies the reversible sector relative to the dissipative one; values
    other than 1.0 are experimental.
    """

    c: float = 1.0
    rate_min: float = DEFAULT_RATE_MIN
    initial_step: float = 0.01
    atol: float = 1e-8
    rtol: float = 1e-8
    max_steps: int = 100_000
    conservation_tol: float = 1e-6
    stop_at_stationary: bool = True
    reversible_rate: float = 1.0
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
        if not math.isfinite(self.reversible_rate):
            raise ValueError(f"reversible_rate must be finite, got {self.reversible_rate}")


def assemble_local_generator(shape, parts) -> np.ndarray:
    """Build xi = sum_i xi_i (x) I_rest from (subsystem, block) pairs."""
    shape = as_shape(shape)
    d = shape.total_dim
    xi = np.zeros((d, d), dtype=complex)
    for index, block in parts:
        block = require_hermitian(block, name=f"xi block for subsystem {index}")
        xi += embed_local(block, index, shape)
    return xi


def _project(point: ExpFamilyPoint, local: np.ndarray) -> tuple[np.ndarray, float]:
    g = metric_theta(point)
    g_local = g[local]
    coeffs = _solve_local_block(metric_block(point, local), g_local)
    proj = point.theta.copy()
    proj[local] -= coeffs
    return proj, float(point.theta @ g - g_local @ coeffs)


def local_block_projection(point: ExpFamilyPoint) -> tuple[np.ndarray, float]:
    """P theta and the production rate theta^T G P theta, without M, N or G.

    (G v)_a = tr(F_a d rho[v]), and the local elements L of the product
    basis span the traceless operators of every subsystem, so M v = 0 iff
    (G v)_L = 0.  ker M is therefore the G-orthogonal complement of the
    local coordinate axes e_L, and with g = G theta

        P theta = theta - e_L G_LL^{-1} g_L,
        theta^T G P theta = theta . g - g_L . G_LL^{-1} g_L.

    g costs O(m d^2) (``metric_theta``) and G_LL is the |L| x |L| local
    block.  The tests check it against the dense projector
    N (N^T G N)^{-1} N^T G on an SVD kernel N of M.

    Raises FullyConstrainedError for a single-subsystem basis and
    NumericalDegeneracyError when cond(G_LL) exceeds PROJECTOR_COND_MAX.
    """
    return _project(point, _local_sector(point.basis))


def _require_local(basis: OperatorBasis, xi) -> np.ndarray:
    xi = require_hermitian(xi, name="reversible generator")
    d = basis.shape.total_dim
    if xi.shape != (d, d):
        raise ValueError(f"generator shape {xi.shape} does not match state {(d, d)}")
    local = basis.stack[basis.local_indices()]
    coeffs = np.real(np.einsum("aij,ji->a", local, xi))
    xi_local = np.einsum("a,aij->ij", coeffs, local) + (np.trace(xi) / d) * np.eye(d)
    defect = float(np.linalg.norm(xi - xi_local))
    if defect > LOCALITY_TOL * max(1.0, float(np.linalg.norm(xi))):
        raise NonLocalGeneratorError(
            f"generator has a correlation-sector component of norm {defect:.3e}"
        )
    return xi


def _commutator(basis: OperatorBasis, K: np.ndarray, xi: np.ndarray) -> np.ndarray:
    # -i[xi, K] = -i(A - A^dag) with A = xi K, the Hermitian part of -2i A;
    # coordinates read only the Hermitian part, so one GEMM suffices.
    return basis.coordinates(-2j * (xi @ K))


def _clear_radius(shape) -> float:
    """Radius R such that no boundary guard can fire at |theta| < R.

    |K|_F = |theta| (orthonormal basis), so the spectrum of K spans at most
    sqrt(2) |theta| and lambda_min(rho) >= e^(-sqrt(2) |theta|) / d.  A partial
    trace sums d / d_i diagonal blocks, so lambda_min(rho_i) >= e^(-sqrt(2)
    |theta|) / d_i > 2 MARGINAL_EIG_FLOOR (2: round-off margin) at |theta| < R,
    and the state stays far above STATE_UNDERFLOW_FLOOR.
    """
    return math.log(1.0 / (2.0 * MARGINAL_EIG_FLOOR * max(shape.dims))) / math.sqrt(2.0)


def reversible_velocity(point: ExpFamilyPoint, xi) -> np.ndarray:
    """Pushforward of the unitary flow d rho = -i [xi, rho] to natural params.

    xi must be local (a sum of single-subsystem terms, identity shifts
    allowed); anything else is rejected with NonLocalGeneratorError.  The
    unitary flow conjugates log rho = K - psi I and leaves psi fixed, so the
    velocity is the chart coordinates of -i [xi, K]; it equals the solution
    of G dtheta = w with w_a = tr(-i [xi, rho] F_a), conserves the entropy
    exactly, and conserves every marginal spectrum.
    """
    return _commutator(point.basis, point.generator, _require_local(point.basis, xi))


@dataclass
class Trajectory:
    """Diagnostics sampled at the accepted steps of one integration run.

    ``integrator`` holds the run's step-control counts (see ``integrate``).
    """

    clock: str
    kind: str
    dims: tuple
    status: str
    step: np.ndarray
    tau: np.ndarray
    t: np.ndarray
    H: np.ndarray
    C: np.ndarray
    marginals: np.ndarray
    rate: np.ndarray
    theta_norm: np.ndarray
    theta: np.ndarray
    integrator: dict

    @property
    def n_samples(self) -> int:
        return len(self.step)

    def summary(self) -> dict:
        slope = None
        if self.n_samples >= 2 and float(np.ptp(self.t)) > 0.0:
            slope = float(np.polyfit(self.t, self.H, 1)[0])
        return {
            "H_initial": float(self.H[0]),
            "H_final": float(self.H[-1]),
            "C_drift_max": float(np.max(np.abs(self.C - self.C[0]))),
            "slope_of_H_vs_t": slope,
            "termination_status": self.status,
            "integrator": self.integrator,
        }

    def write_csv(self, path, *, bits: bool = False) -> None:
        """Write the per-sample table; --bits rescales entropic columns only."""
        conv = 1.0 / math.log(2.0) if bits else 1.0
        nsub = self.marginals.shape[1]
        header = ["step", "tau", "t", "H", "C"]
        header += [f"h_{i}" for i in range(nsub)]
        header += ["rate", "theta_norm", "status"]
        lines = [",".join(header)]
        last = self.n_samples - 1
        for k in range(self.n_samples):
            vals = [str(int(self.step[k]))]
            floats = [self.tau[k], self.t[k], conv * self.H[k], conv * self.C[k]]
            floats += [conv * self.marginals[k, i] for i in range(nsub)]
            floats += [conv * self.rate[k], self.theta_norm[k]]
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
                    "step": int(self.step[k]),
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


class _Recorder:
    def __init__(self):
        self.rows = {
            "step": [], "tau": [], "t": [], "H": [], "C": [],
            "marg": [], "rate": [], "norm": [], "theta": [],
        }
        self.rhs_evals = 0
        self.accepted = 0
        self.rejected = 0
        self.failed_stages = {"stationary": 0, "boundary": 0}
        self.h_min = None
        self.h_max = None
        self.last_err_norm = None

    def accept(self, h):
        self.accepted += 1
        self.h_min = h if self.h_min is None else min(self.h_min, h)
        self.h_max = h if self.h_max is None else max(self.h_max, h)

    def add(self, step, tau, t, H, C, marg, rate, theta):
        r = self.rows
        r["step"].append(step)
        r["tau"].append(tau)
        r["t"].append(t)
        r["H"].append(H)
        r["C"].append(C)
        r["marg"].append(marg)
        r["rate"].append(rate)
        r["norm"].append(float(np.linalg.norm(theta)))
        r["theta"].append(np.array(theta))

    def build(self, clock, kind, dims, status) -> Trajectory:
        r = self.rows
        return Trajectory(
            clock=clock,
            kind=kind,
            dims=tuple(dims),
            status=status,
            step=np.array(r["step"], dtype=int),
            tau=np.array(r["tau"]),
            t=np.array(r["t"]),
            H=np.array(r["H"]),
            C=np.array(r["C"]),
            marginals=np.array(r["marg"]),
            rate=np.array(r["rate"]),
            theta_norm=np.array(r["norm"]),
            theta=np.array(r["theta"]),
            integrator={
                "accepted": self.accepted,
                "rejected": self.rejected,
                "failed_stages": dict(self.failed_stages),
                "rhs_evals": self.rhs_evals,
                "h_min": self.h_min,
                "h_max": self.h_max,
                "last_err_norm": self.last_err_norm,
            },
        )


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
        t = (H - H_0)/c along any run).  The recorded rate is the
        production rate theta^T G P theta of the dissipative sector; a
        reversible-only run produces no entropy and records 0.
        ``integrator`` counts accepted steps, rejected attempts (error norm
        above 1 or not finite), attempts cut short by a failed stage
        (``failed_stages``, by cause: "stationary" or "boundary") and RHS
        evaluations, and holds the smallest and largest accepted step and
        the last finite error norm.

    Notes
    -----
    After an accepted step h grows by ``_step_factor``; a rejected attempt
    shrinks it by max(0.2, 0.9 e^(-1/5)), a failed stage halves it.

    Entropy-clock runs stop with status "stationary" once the production
    rate falls below ``config.rate_min`` (so do game-clock runs containing
    the dissipative sector, when ``config.stop_at_stationary`` is set).
    A drift of any marginal entropy h_i beyond ``config.conservation_tol``
    raises ConservationError; step-size underflow away from a stationary
    point raises StiffRegionError; an ill-conditioned local metric block
    after the first sample raises DegenerateProjectionError.  All three
    carry the partial trajectory.  A single-subsystem basis raises
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
    reversible = kind in ("combined", "reversible")
    xi = None
    if reversible:
        xi = _require_local(basis, assemble_local_generator(shape, config.xi_parts))
    check_rate = dissipative and (clock == "entropy" or config.stop_at_stationary)
    radius = _clear_radius(shape)

    def rhs(theta, out):
        """Write the field at theta into ``out``; return (point, rate), point None if unbuilt."""
        rec.rhs_evals += 1
        clear = np.linalg.norm(theta) < radius  # a non-finite theta is never clear
        point = make_point(theta, basis) if dissipative or not clear else None
        if not clear:
            marginal_eigh(point)  # BoundaryStateError at rank-deficient marginals
        v = out[:m]
        rate = 0.0
        if dissipative:
            proj_theta, rate = _project(point, local)
            np.negative(proj_theta, out=v)
        else:
            v.fill(0.0)
        if reversible:
            K = _generator(theta, basis) if point is None else point.generator
            v += config.reversible_rate * _commutator(basis, K, xi)
        if clock == "game":
            # The reversible sector is entropy-neutral by construction, so
            # dH/dtau is the production rate alone (0 in a reversible run).
            out[m] = rate / config.c
        else:
            if rate <= 0.0:
                raise StationaryPointError(f"entropy production rate {rate:.3e} is not positive")
            scale = config.c / rate
            v *= scale
            out[m] = scale
        return point, rate

    theta0 = _check_theta(theta0, basis)
    m = basis.size
    y = np.concatenate([theta0, [0.0]])
    rec = _Recorder()
    # Row s holds the field of stage s; row 6 is the new point's, copied to
    # row 0 when the step is accepted.
    stages = np.empty((7, m + 1))

    def clocks(pos, aux):
        return (pos, aux) if clock == "game" else (aux, pos)

    def record(step_index, pos, aux, point, rate):
        if point is None:
            point = make_point(y[:m], basis)
        tau, t = clocks(pos, aux)
        marg = marginal_entropies(point.rho, shape)
        rec.add(step_index, tau, t, point.entropy, float(marg.sum()), marg, rate, point.theta)
        return marg

    point, rate = rhs(theta0, stages[0])
    marg0 = record(0, 0.0, 0.0, point, rate)

    if check_rate and rate < config.rate_min:
        return rec.build(clock, kind, shape.dims, "stationary")

    pos = 0.0
    h = min(config.initial_step, duration)
    h_min = 1e-14 * max(1.0, abs(duration))
    status = "max_steps"
    prev = None

    while rec.accepted < config.max_steps:
        remaining = duration - pos
        if remaining <= h_min:
            status = "completed"
            break
        h = min(h, remaining)

        try:
            for s in range(1, 6):
                rhs((y + h * (_DP_A[s, :s] @ stages[:s]))[:m], stages[s])
            y_new = y + h * (_DP_A[6] @ stages[:6])
            new_point, new_rate = rhs(y_new[:m], stages[6])
            failed = None
        except StationaryPointError:
            failed = "stationary"
        except BoundaryStateError:
            failed = "boundary"
        except NumericalDegeneracyError as exc:
            raise DegenerateProjectionError(
                str(exc), rec.build(clock, kind, shape.dims, "degenerate")
            ) from exc

        factor = None
        if failed:
            rec.failed_stages[failed] += 1
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
                rec.rejected += 1
                factor = 0.5
            else:
                rec.last_err_norm = err_norm
                if err_norm > 1.0:
                    rec.rejected += 1
                    factor = max(0.2, 0.9 * err_norm ** -0.2)

        if factor is not None:
            h *= factor
            if h < h_min:
                if check_rate and rate < 10.0 * config.rate_min:
                    status = "stationary"
                    break
                raise StiffRegionError(
                    f"step size underflowed below {h_min:.1e}",
                    rec.build(clock, kind, shape.dims, "stiff"),
                )
            continue

        # Accepted step.
        rec.accept(h)
        pos += h
        y = y_new
        point, rate = new_point, new_rate
        stages[0] = stages[6]
        drift = np.abs(record(rec.accepted, pos, float(y[m]), point, rate) - marg0)
        if drift.max() > config.conservation_tol:
            worst = int(np.argmax(drift))
            raise ConservationError(
                f"marginal-entropy drift {drift[worst]:.3e} in subsystem {worst} "
                f"exceeds {config.conservation_tol:.1e}",
                rec.build(clock, kind, shape.dims, "conservation"),
            )
        if check_rate and rate < config.rate_min:
            status = "stationary"
            break
        factor = _step_factor(err_norm, h, prev)
        prev = (h, max(err_norm, PREV_ERR_FLOOR))
        h *= factor

    return rec.build(clock, kind, shape.dims, status)
