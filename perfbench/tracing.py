"""Per-layer spans for the traced run, installed from outside the package.

Each traced function is named by its defining module and attribute.  The
wrapper is bound in place of the original in every ``entroflow`` module that
holds it, which is where the caller looks the name up, so calls between
modules (``flow`` -> ``make_point``) are caught with the module they came
from as their *site*.  A target that no longer exists is reported as absent
with zero calls, so the trace survives refactors that delete functions.

Spans stay in memory as ``[name, site, start, end, parent]`` rows; self time
is a span's duration minus the durations of its direct children.  Tracing is
single-threaded: the benchmark calls the library serially.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

# (defining module, attribute) pairs; "Class.method" wraps a method.
TARGETS = (
    ("operators", "product_basis"),
    ("expfamily", "make_point"),
    ("expfamily", "state_derivatives"),
    ("constraint", "constraint_geometry"),
    ("constraint", "marginal_jacobian"),
    ("constraint", "kernel_basis"),
    ("constraint", "marginal_projector"),
    ("constraint", "constraint_gradient"),
    ("constraint", "marginal_entropy_sum"),
    ("constraint", "constraint_hessian"),
    ("constraint", "stiffness_spectrum"),
    ("states", "marginal_entropies"),
    ("flow", "integrate"),
    ("flow", "reversible_velocity"),
    ("flow", "Trajectory.write_csv"),
)

PACKAGE = "entroflow"


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.absent = []

    def wrap(self, fn, name, site):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, site, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self):
        """Rebind every target in each loaded package module that holds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, attr in TARGETS:
            name = f"{module_name}.{attr}"
            try:
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if fn is None:
                self.absent.append(name)
                continue
            if path:
                setattr(owner, leaf, self.wrap(fn, name, module_name))
                continue
            for module in modules:
                site = module.__name__.rpartition(".")[2]
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, self.wrap(fn, name, site))


def span_table(spans, lo=0, hi=None):
    """Per span name over spans[lo:hi]: calls, inclusive and self seconds, durations."""
    durations = [s[3] - s[2] for s in spans]
    child_time = [0.0] * len(spans)
    for s, dur in zip(spans, durations):
        if s[4] >= 0:
            child_time[s[4]] += dur
    table = {}
    for i in range(lo, len(spans) if hi is None else hi):
        row = table.setdefault(spans[i][0], {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "durations": []})
        row["calls"] += 1
        row["incl_s"] += durations[i]
        row["self_s"] += durations[i] - child_time[i]
        row["durations"].append(durations[i])
    return table


def _has_ancestor(spans, index, names):
    parent = spans[index][4]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][4]
    return False


def layer_metrics(spans, first_run_span, run_s, accepted_steps, csv_bytes, basis_stack_bytes):
    """The per-layer metrics of one traced repeat, by BENCHMARK.json name.

    Spans before ``first_run_span`` were recorded during set-up; only
    ``product_basis`` is counted from them.
    """
    table = span_table(spans, lo=first_run_span)
    setup_table = span_table(spans, hi=first_run_span)
    run_spans = range(first_run_span, len(spans))

    def get(name, key):
        return table.get(name, {}).get(key, 0)

    def sites(name, site):
        return sum(1 for i in run_spans if spans[i][0] == name and spans[i][1] == site)

    geometries = get("constraint.constraint_geometry", "calls")
    derivs_in_geometry = sum(
        1
        for i in run_spans
        if spans[i][0] == "expfamily.state_derivatives"
        and _has_ancestor(spans, i, {"constraint.constraint_geometry"})
        and not _has_ancestor(spans, i, {"constraint.constraint_hessian"})
    )
    rhs_evals = sites("expfamily.make_point", "flow")
    make_point_ms = [1e3 * d for d in table.get("expfamily.make_point", {}).get("durations", [])]
    attributed = sum(row["self_s"] for row in table.values())

    metrics = {
        "operators.product_basis.self_s": setup_table.get("operators.product_basis", {}).get("self_s", 0.0)
        + get("operators.product_basis", "self_s"),
        "operators.basis_stack_bytes": basis_stack_bytes,
        "expfamily.make_point.calls": get("expfamily.make_point", "calls"),
        "expfamily.make_point.self_s": get("expfamily.make_point", "self_s"),
        "expfamily.make_point.p50_ms": statistics.median(make_point_ms) if make_point_ms else 0.0,
        "expfamily.state_derivatives.calls": get("expfamily.state_derivatives", "calls"),
        "expfamily.state_derivatives.self_s": get("expfamily.state_derivatives", "self_s"),
        "constraint.state_derivatives_per_geometry": derivs_in_geometry / geometries if geometries else 0.0,
        "constraint.constraint_geometry.calls": geometries,
        "constraint.constraint_geometry.incl_s": get("constraint.constraint_geometry", "incl_s"),
        "constraint.constraint_geometry.share": 100.0 * get("constraint.constraint_geometry", "incl_s") / run_s,
        "constraint.marginal_jacobian.self_s": get("constraint.marginal_jacobian", "self_s"),
        "constraint.kernel_basis.self_s": get("constraint.kernel_basis", "self_s"),
        "constraint.marginal_projector.self_s": get("constraint.marginal_projector", "self_s"),
        "constraint.constraint_gradient.self_s": get("constraint.constraint_gradient", "self_s"),
        "constraint.marginal_entropy_sum.self_s": get("constraint.marginal_entropy_sum", "self_s"),
        "constraint.constraint_hessian.calls": get("constraint.constraint_hessian", "calls"),
        "constraint.constraint_hessian.incl_s": get("constraint.constraint_hessian", "incl_s"),
        "constraint.hessian_points": sites("expfamily.make_point", "constraint"),
        "constraint.stiffness_spectrum.self_s": get("constraint.stiffness_spectrum", "self_s"),
        "flow.rhs_evals": rhs_evals,
        "flow.accepted_steps": accepted_steps,
        "flow.accept_ratio": 6.0 * accepted_steps / (rhs_evals - 1) if rhs_evals > 1 else 0.0,
        "flow.integrate.self_s": get("flow.integrate", "self_s"),
        "flow.reversible_velocity.calls": get("flow.reversible_velocity", "calls"),
        "flow.reversible_velocity.self_s": get("flow.reversible_velocity", "self_s"),
        "states.marginal_entropies.calls": get("states.marginal_entropies", "calls"),
        "states.marginal_entropies.self_s": get("states.marginal_entropies", "self_s"),
        "flow.write_csv.self_s": get("flow.Trajectory.write_csv", "self_s"),
        "flow.write_csv.bytes": csv_bytes,
        "trace.unattributed_share": 100.0 * (run_s - attributed) / run_s,
    }
    return metrics
