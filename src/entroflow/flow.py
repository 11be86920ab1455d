"""Constrained entropy-ascent flows in natural parameters.

The dissipative field is the metric projection of the entropy gradient onto
the marginal-preserving tangent space, theta' = -P theta in game time tau,
with production rate theta^T G P theta >= 0.  P moves only the local
coordinates theta_L and keeps every marginal, so along a run the local mean
parameters stay mu_L(theta0) and the rest decays exactly, theta_C =
s theta_C(0) with s = e^(-tau).  Each point of the run is therefore the
I-projection onto the start's marginals (Csiszar, Ann. Probab. 3, 1975):
theta_L(s) minimises the strictly convex psi(theta_L, s theta_C(0)) -
theta_L . mu_L(theta0).  Entropy time t = (H - H0) / c (dH/dt = c) is a
function on this curve, finite up to its endpoint s = 0, the product of the
start marginals.

A reversible sector, the pushforward of -i[xi, rho] for a local Hermitian
xi = sum_i xi_i (x) I, changes neither the entropy nor any marginal spectrum.
V(tau) = e^(-i xi tau) = (x)_i e^(-i xi_i tau) is a local unitary, under which
the dissipative field is covariant (G, the local span and hence P are carried
into themselves): a combined run at game time tau is the dissipative run seen
through V(tau), and a reversible-only run is theta0 seen through it.

``integrate`` therefore solves the curve by damped Newton in theta_L at the
samples of a grid (``_curve_point``), in the rotating frame, and maps each
sample to the lab frame factor by factor (``_lab_frame``); H, every marginal
entropy and the rate are invariant under V.  Each marginal entropy is
monitored at the samples, never corrected: a drift beyond the budget aborts.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .constraint import _local_sector, _solve_local_block
from .errors import (
    BoundaryStateError,
    ConservationError,
    DegenerateProjectionError,
    NumericalDegeneracyError,
)
from .expfamily import _bkm_rows, _check_theta, _spectrum, bkm_kernel_matrix
from .operators import OperatorBasis, require_hermitian
from .states import _stack_entropies

DEFAULT_RATE_MIN = 1e-10
# Intervals of the sample grid, evenly spaced in the run's clock.
SAMPLES = 8
# Chart points one Newton solve may take, trial steps included.
NEWTON_MAX = 50
# The widest spacing in x of a predictor pair: e^X_SPAN_MAX is a finite double.
X_SPAN_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True, eq=False)
class FlowConfig:
    """Run parameters for the flows.

    ``xi_parts`` lists (subsystem index, Hermitian block) pairs defining the
    local reversible generator xi = sum_i xi_i (x) I; the scale of xi sets
    the speed of the reversible sector.  Runs containing the dissipative
    sector stop with status "stationary" once the multi-information still to
    produce falls to ``rate_min`` / 4.  Each point of the curve is solved
    until max |mu_L - mu_L(theta0)| <= atol + rtol max |mu_L(theta0)|.
    """

    c: float = 1.0
    rate_min: float = DEFAULT_RATE_MIN
    atol: float = 1e-8
    rtol: float = 1e-8
    conservation_tol: float = 1e-6
    xi_parts: tuple = ()

    def __post_init__(self):
        # Written so that NaN fails every test; an infinite value would
        # switch off the clock, the stationarity stop or a monitor.
        for name in ("c", "rate_min", "conservation_tol"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("atol", "rtol"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {value}")
        if self.atol == 0 and self.rtol == 0:
            raise ValueError("atol and rtol must not both be zero")


def _local_generators(shape, parts) -> list[np.ndarray]:
    """xi_i, the sum of the (subsystem, block) pairs naming subsystem i, for every i."""
    xi = [np.zeros((d, d), dtype=complex) for d in shape.dims]
    for index, block in parts:
        block = require_hermitian(block, name=f"xi block for subsystem {index}")
        if not 0 <= index < shape.n_subsystems:
            raise ValueError(f"subsystem index {index} out of range for {shape.dims}")
        if block.shape != xi[index].shape:
            raise ValueError(
                f"operator shape {block.shape} does not match subsystem {index} "
                f"dimension {shape.dims[index]}"
            )
        xi[index] += block
    return xi


@dataclass(frozen=True, eq=False)
class _CurvePoint:
    """theta_L at x = log s and what one chart point gives there."""

    x: float
    theta: np.ndarray  # theta_L
    mu: np.ndarray  # mu_L
    objective: float  # psi - theta_L . mu_L(theta0)
    H: float
    H_curve: float  # H on the curve at x, to second order in mu_L - mu_L(theta0)
    rate: float  # dH/dtau
    newton: np.ndarray  # -G_LL^{-1} (mu_L - mu_L(theta0))
    tangent: np.ndarray  # d theta_L / dx = -G_LL^{-1} Y z


def _curve_point(x, theta_local, F, local_rows, mu_target) -> _CurvePoint:
    """The chart point at theta_L and s = e^x, where the stack F holds the
    local elements and, last, K_C(0) = sum_C theta_C(0) F_C.

    R = U^dag F U in the eigenbasis U of rho (spectrum p) gives mu_L =
    p . diag R_a, and its BKM rows sqrt(k) (R - mu I) the local rows Y and,
    scaled by s, the row z of K_C: G_LL = Y Y^T.  One solve gives the Newton
    step on the gradient mu_L - ``mu_target`` and the tangent -G_LL^{-1} Y z.
    The rate theta_C^T (G_CC - G_CL G_LL^{-1} G_LC) theta_C is
    |z - Y^T G_LL^{-1} Y z|^2, a sum of squares, 0 at a product state.
    dH/dtheta_L = -(G theta)_L = -G_LL (theta_L - tangent), so the Newton
    step would change H by (theta_L - tangent) . (mu_L - mu_target) to first
    order: ``H_curve``.
    """
    s = math.exp(x)
    K = (theta_local @ local_rows).view(complex).reshape(F.shape[1:]) + s * F[-1]
    psi, p, U = _spectrum(K)
    R = U.conj().T @ F @ U
    diag = np.diagonal(R, axis1=1, axis2=2).real
    mu = diag @ p
    rows = _bkm_rows(R, np.sqrt(bkm_kernel_matrix(p)), mu)
    Y, z = rows[:-1], s * rows[-1]
    mu_L = mu[:-1]
    if mu_target is None:  # the start defines the target
        mu_target = mu_L
    newton, w = _solve_local_block(Y @ Y.T, np.column_stack([mu_target - mu_L, Y @ z])).T
    resid = z - w @ Y
    H = -float(p @ np.log(p))
    return _CurvePoint(
        x=x,
        theta=theta_local,
        mu=mu_L,
        objective=psi - float(theta_local @ mu_target),
        H=H,
        H_curve=H + float((theta_local + w) @ (mu_L - mu_target)),
        rate=float(resid @ resid),
        newton=newton,
        tangent=-w,
    )


def _predicted_step(x, near, neighbours) -> np.ndarray:
    """theta_L(x) predicted off the curve point ``near``, less near's own
    Newton update theta_L + newton.

    theta_L is analytic in s = e^x.  The partner is the one of ``neighbours``
    nearest to x among those at least as far from ``near`` in x as x is, so
    the prediction never reaches beyond the pair's own spacing.  It is the
    cubic Hermite interpolant in s through ``near`` and the partner (values
    theta_L + newton, slopes d theta_L / ds = tangent / s), weighted in
    u = (s - s_near) / (s_other - s_near) through expm1 so that no s
    underflows.  Without a partner, or where the partner's slope times the
    spacing differs from the change of theta_L + newton across the pair by
    more than that change (a tangent read where G_LL is near singular, at a
    theta_L solved in mu_L but not in theta_L), it is the first-order step
    (s / s_near - 1) tangent.
    """
    dx = x - near.x
    first_order = math.expm1(dx) * near.tangent
    wide = [q for q in neighbours if 0.0 < abs(dx) <= abs(q.x - near.x) < X_SPAN_MAX]
    if not wide:
        return first_order
    other = min(wide, key=lambda q: abs(q.x - x))
    jump = other.theta + other.newton - near.theta - near.newton
    slope_other = -math.expm1(near.x - other.x) * other.tangent  # (s_other - s_near) dtheta/ds
    miss = slope_other - jump
    if miss @ miss > jump @ jump:
        return first_order
    u = math.expm1(dx) / math.expm1(other.x - near.x)
    # Hermite weights h01, h10 and h11; h10 (s_other - s_near) / s_near = (1 - u)^2 expm1(dx).
    return (
        (u * u * (3.0 - 2.0 * u)) * jump
        + (1.0 - u) ** 2 * first_order
        + (u * u * (u - 1.0)) * slope_other
    )


def _hermite_root(a, b, C0, gap_goal) -> float:
    """x in (a.x, b.x), a.x < b.x, where the cubic Hermite interpolant of g =
    log(C0 - H_curve), slope rate / (C0 - H_curve), through the curve points a
    and b equals log(gap_goal), by safeguarded Newton in u = (x - a.x) / (b.x
    - a.x), whose bracket assumes g rises from a to b; nan if a gap is not positive."""
    gap_a, gap_b, h = C0 - a.H_curve, C0 - b.H_curve, b.x - a.x
    if not (gap_a > 0.0 and gap_goal > 0.0):
        return math.nan
    d, y = math.log(gap_b / gap_a), math.log(gap_goal / gap_a)
    m0, m1 = h * a.rate / gap_a, h * b.rate / gap_b
    c2, c3 = 3.0 * d - 2.0 * m0 - m1, m0 + m1 - 2.0 * d
    lo, hi, u = 0.0, 1.0, y / d
    for _ in range(30):
        f = ((c3 * u + c2) * u + m0) * u - y
        lo, hi = (u, hi) if f < 0.0 else (lo, u)
        df = (3.0 * c3 * u + 2.0 * c2) * u + m0
        step = f / df if df else math.inf
        if lo <= u - step <= hi and abs(step) <= 1e-13:
            return a.x + (u - step) * h
        u = u - step if lo <= u - step <= hi else 0.5 * (lo + hi)
    return a.x + u * h


def _lab_frame(theta, tau, basis: OperatorBasis, frames) -> np.ndarray:
    """Rotating-frame rows theta_k seen at game times tau_k in the lab frame.

    V(tau) is the product of V_i = W_i diag(e^(-i w_i tau)) W_i^dag over the
    factors, (w_i, W_i) the eigenpairs of xi_i in ``frames``.  On product
    coordinates it acts as the tensor product of the real maps O_i[a, b] =
    tr(E_a V_i E_b V_i^dag) over the padded factor stack E (``_layout``): with
    E' = W_i^dag E W_i, sum_jk E'_a[j, k] conj(E'_b[j, k]) e^(i (w_j - w_k) tau).
    Each O_i(tau_k) acts on its factor's axis of the rows laid out on the grid
    of element tuples; no d x d operator is formed.
    """
    n = len(theta)
    padded, _, flat = basis._layout
    T = np.zeros((n, *(len(E) for E in padded)))
    T.reshape(n, -1)[:, flat] = theta
    for axis, (E, (w, W)) in enumerate(zip(padded, frames), start=1):
        E = (W.conj().T @ E @ W).reshape(len(E), -1)
        phase = np.exp(1j * np.multiply.outer(tau, np.subtract.outer(w, w).ravel()))
        O = ((E * phase[:, None, :]) @ E.conj().T).real
        T = np.moveaxis(T, axis, 1)
        T = np.moveaxis((O @ T.reshape(n, len(E), -1)).reshape(T.shape), 1, axis)
    return T.reshape(n, -1)[:, flat]


@dataclass(eq=False)
class Trajectory:
    """Diagnostics sampled on one run's grid.

    Row 0 is the start; rows 1..SAMPLES lie evenly spaced in the run's clock
    up to its end, so a run that is stationary at its start has one row.
    ``integrator`` holds the counts of the solve (see ``integrate``).
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

    def write_csv(self, path, *, bits: bool = False) -> None:
        """Write the per-sample table; --bits rescales entropic columns only.

        ``step`` is the sample index k and ``theta_norm`` is |theta_k|.
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
    """Least-squares line H = slope * t + intercept and its R^2.

    The fit runs against t / max |t|, so that no scale of t under- or
    overflows the fit's column scaling.
    """
    t = traj.t
    H = traj.H
    scale = float(np.max(np.abs(t))) or 1.0
    slope, intercept = np.polyfit(t / scale, H, 1)
    slope /= scale
    resid = H - (slope * t + intercept)
    ss_res = float(resid @ resid)
    centred = H - H.mean()
    ss_tot = float(centred @ centred)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return float(slope), float(intercept), r2


def integrate(
    theta0,
    basis: OperatorBasis,
    config: FlowConfig,
    *,
    clock: str = "entropy",
    duration: float,
    kind: str = "dissipative",
) -> Trajectory:
    """Solve one flow on a grid of SAMPLES intervals in its clock.

    Parameters
    ----------
    theta0 : array_like
        Initial natural parameters.
    basis : OperatorBasis
        Chart basis; its shape fixes the marginal constraint set.
    config : FlowConfig
        Tolerances, entropy speed c, stationarity threshold, generator.
    clock : {"entropy", "game"}
        The clock ``duration`` limits and the grid is even in: entropy time
        t = (H - H0) / c or game time tau.
    duration : float
        Upper limit of the chosen clock.
    kind : {"dissipative", "combined", "reversible"}
        Sector content.  "combined" and "reversible" need ``config.xi_parts``;
        "reversible" runs only under the game clock (it produces no entropy).

    Returns
    -------
    Trajectory
        Samples at tau_k = k tau_end / SAMPLES (game clock) or
        t_k = k t_end / SAMPLES (entropy clock), theta in the lab frame, with
        the production rate (P theta)^T G (P theta) (0 in a reversible-only
        run).  ``integrator`` counts the Newton steps taken and the chart
        points, each one eigendecomposition of K.

    Notes
    -----
    With x = log s, theta_L(x) minimises psi(theta_L, e^x theta_C(0)) -
    theta_L . mu_L(theta0) (module docstring).  Each point is solved by
    Newton with the step -G_LL^{-1} (mu_L - mu_L(theta0)), from the cubic
    Hermite prediction in s through a solved point and its neighbour
    (``_predicted_step``), until max |mu_L - mu_L(theta0)| <= atol + rtol
    max |mu_L(theta0)|; a trial that meets the state-spectrum floor or raises
    the objective is halved, and a solve not converged within NEWTON_MAX
    chart points raises ConservationError.  A curved run, where theta_L
    moves, takes one chart point per inner game-clock sample.  Each sample's
    marginal entropies are read from its mu_L (``OperatorBasis.local_marginals``).

    Both stops and every entropy-clock sample land H on a goal within
    1e-14 max(1, |H|), from the run's solved points nearest the goal on
    either side, on g = log(C(theta0) - H), whose slope in x is
    rate / (C(theta0) - H) and which is linear on the tail; the steps read
    H on the curve to second order in the Newton residual (``_curve_point``).
    Until the goal is bracketed a Newton step on g changes log s by at most
    max(1, |log s|) (and stops at a game-clock ``duration``); then a step
    goes to the root of the cubic Hermite interpolant of g on the bracket,
    from its nearer end, or bisects.  The landed point takes one more
    Newton step when its own H is off the goal.  The default run takes 30
    chart points.  A run with the dissipative sector ends "stationary" where
    C(theta0) - H reaches rate_min / 4, so its last rate is about
    rate_min / 2 (when rate_min / 4 is below the resolution of H, one step
    along the tail law rate ~ e^(2x) puts it there), or at theta0 when
    C(theta0) - H0 <= rate_min / 4 or the rate is 0; otherwise "completed"
    at ``duration``.  A reversible-only run solves nothing: its samples
    share one eigendecomposition, of K(theta0).

    A drift of any h_i beyond ``config.conservation_tol`` at a sample raises
    ConservationError, and cond(G_LL) above PROJECTOR_COND_MAX after theta0
    DegenerateProjectionError; both carry the samples taken so far.  A
    single-subsystem basis raises FullyConstrainedError, an ``xi_parts``
    block that is not finite and Hermitian, names no subsystem or does not
    match its subsystem's dimension ValueError (for every kind), and a
    degenerate block at theta0 NumericalDegeneracyError, before the first
    sample.
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
    xi = _local_generators(shape, config.xi_parts)
    # The eigenpairs of each xi_i, which rotate the samples into the lab frame.
    frames = None if kind == "dissipative" else [np.linalg.eigh(x) for x in xi]

    theta0 = _check_theta(theta0, basis)
    rows = []  # one (tau, t, H, marginal entropies, rate, theta) per sample
    stats = {"newton_steps": 0, "chart_points": 0}

    def entropies(mu_local):  # every h_i from mu_L, one eigvalsh per local dimension
        out = np.empty(shape.n_subsystems)
        for members, rho in basis.local_marginals(mu_local):
            out[members] = _stack_entropies(rho)
        return out

    def build(status):
        tau, t, H, marg, rate, theta = (np.array(col) for col in zip(*rows))
        if frames is not None:
            theta = _lab_frame(theta, tau, basis, frames)
        return Trajectory(clock, kind, shape.dims, status, tau, t, H, marg, rate, theta, stats)

    if kind == "reversible":  # theta stays theta0 in the rotating frame
        stats["chart_points"] = 1
        p, U = _spectrum(basis.combine(theta0))[1:]
        H = -float(p @ np.log(p))
        marg = entropies(basis.coordinates((U * p) @ U.conj().T)[local])
        for k in range(SAMPLES + 1):
            rows.append((duration * k / SAMPLES, 0.0, H, marg, 0.0, theta0))
        return build("completed")

    theta_corr = theta0.copy()
    theta_corr[local] = 0.0
    F = np.concatenate([basis.products(local), basis.combine(theta_corr)[None]])
    local_rows = F[:-1].view(float).reshape(local.size, -1)

    def point(x, theta_local, mu_target):
        stats["chart_points"] += 1
        return _curve_point(x, theta_local, F, local_rows, mu_target)

    start = point(0.0, theta0[local], None)
    solved = [start]  # every solved point, in order of H_curve
    target = start.mu
    newton_tol = config.atol + config.rtol * float(np.abs(target).max())

    def record(pt, t):
        theta = theta0 * math.exp(pt.x)
        theta[local] = pt.theta
        marg = entropies(pt.mu)
        rows.append((0.0 - pt.x, t, pt.H, marg, pt.rate, theta))  # tau, never -0.0
        drift = np.abs(marg - rows[0][3])
        if drift.max() > config.conservation_tol:
            worst = int(np.argmax(drift))
            raise ConservationError(
                f"marginal-entropy drift {drift[worst]:.3e} in subsystem {worst} "
                f"exceeds {config.conservation_tol:.1e}",
                build("conservation"),
            )

    def solve(x, near):
        """The curve point at x, by damped Newton from ``near``'s own Newton
        update plus the ``_predicted_step`` through it and its neighbours in
        ``solved``; a rejected trial halves the step back toward that update."""
        i = bisect.bisect_left(solved, near.H_curve, key=lambda q: q.H_curve)
        neighbours = solved[max(i - 1, 0) : i] + solved[i + 1 : i + 2]
        base, step = near.theta + near.newton, _predicted_step(x, near, neighbours)
        pt = None
        for _ in range(NEWTON_MAX):
            theta = base + step
            try:
                trial = point(x, theta, target) if np.isfinite(theta).all() else None
            except BoundaryStateError:
                trial = None
            # Halve a trial that left the chart or raised the objective beyond round-off.
            if trial is None or (
                pt is not None and trial.objective > pt.objective + 1e-13 * max(1.0, abs(pt.objective))
            ):
                step = 0.5 * step
                continue
            pt = trial
            if float(np.abs(pt.mu - target).max()) <= newton_tol:
                bisect.insort(solved, pt, key=lambda q: q.H_curve)
                return pt
            stats["newton_steps"] += 1
            base, step = pt.theta, pt.newton
        raise ConservationError(
            f"Newton did not bring mu_L within {newton_tol:.1e} of mu_L(theta0) "
            f"at tau = {-x:.6g} in {NEWTON_MAX} chart points",
            build("conservation"),
        )

    def land(H_goal, gap_goal, x_min=-math.inf):
        """The curve point where H = H_goal, C(theta0) - H_goal being
        ``gap_goal``, landed from the solved points nearest the goal on either
        side (Notes); the point at x_min, or where the rate is 0, if H stays
        below the goal until there."""
        i = bisect.bisect_left(solved, H_goal, key=lambda q: q.H_curve)
        below, above = ([None] + solved + [None])[i : i + 2]  # x falls as H rises
        pt = min(filter(None, (below, above)), key=lambda q: abs(q.H_curve - H_goal))
        while abs(pt.H_curve - H_goal) > 1e-14 * max(1.0, abs(pt.H)):
            if above is None:
                if pt.x <= x_min or pt.rate == 0.0:
                    return pt
                gap = C0 - pt.H_curve
                x = -math.inf
                if gap > 0.0 and gap_goal > 0.0 and pt.rate > 0.0:
                    x = pt.x + (math.log(gap_goal) - math.log(gap)) * gap / pt.rate
                x = max(x, pt.x - max(1.0, abs(pt.x)), x_min)
            else:
                x = _hermite_root(above, below, C0, gap_goal)
                if not above.x < x < below.x:
                    x = 0.5 * (above.x + below.x)
                    if x in (above.x, below.x):  # the bracket holds no other double
                        return min(above, below, key=lambda q: abs(q.H - H_goal))
                pt = below if below.x - x < x - above.x else above
            pt = solve(x, pt)
            below, above = (pt, above) if pt.H_curve < H_goal else (below, pt)
        if abs(pt.H - H_goal) > 1e-14 * max(1.0, abs(pt.H)):
            pt = solve(pt.x, pt)
        return pt

    record(start, 0.0)
    C0 = float(rows[0][3].sum())
    gap_stop = 0.25 * config.rate_min
    if C0 - start.H <= gap_stop or start.rate == 0.0:
        return build("stationary")

    try:
        status = "completed"
        x_min = -duration if clock == "game" else -math.inf
        end = None
        if clock == "game" or config.c * duration >= C0 - start.H - gap_stop:
            end = land(C0 - gap_stop, gap_stop, x_min)
            if end.x > x_min or end.H >= C0 - gap_stop - 1e-14 * max(1.0, abs(end.H)):
                status = "stationary"
                if end.rate > 0.0 and not 0.01 * config.rate_min <= end.rate < config.rate_min:
                    x = end.x + 0.5 * math.log(0.5 * config.rate_min / end.rate)
                    if x <= x_min:
                        x, status = x_min, "completed"
                    end = solve(x, end)
        pt = start
        if clock == "game":
            for k in range(1, SAMPLES):
                pt = solve(end.x * k / SAMPLES, pt)
                record(pt, (pt.H - start.H) / config.c)
            record(end, (end.H - start.H) / config.c)
        else:
            t_end = duration if end is None else (end.H - start.H) / config.c
            for k in range(1, SAMPLES + (end is None)):
                t = t_end * k / SAMPLES
                H_goal = start.H + config.c * t
                pt = land(H_goal, C0 - H_goal)
                record(pt, t)
            if end is not None:
                record(end, t_end)
    except NumericalDegeneracyError as exc:
        raise DegenerateProjectionError(str(exc), build("degenerate")) from exc
    return build(status)
