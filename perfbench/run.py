"""Time-to-solution benchmark for entroflow.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each sample is a fresh child process (``child.py``), started one
at a time, so set-up is measured cold and no two samples share a core.

With ``--trace 0`` the run first starts set-up-only children, then timed
children until ``--seconds`` would be exceeded (at least two), and reports
medians of the end-to-end metrics.  With ``--trace 1`` it alternates traced
and untraced children (at least two traced and one untraced) and reports the
per-layer metrics, the unattributed share and the tracing overhead.  The
metric names and units come from BENCHMARK.json; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTDIR = ROOT / ".perfbench_out"
SETUP_ONLY_CHILDREN = 5
# Children are killed past this, so a run ends within the 180 s it is allowed.
HARD_LIMIT_S = 170.0
# Counts that must repeat exactly between the traced children of one run;
# accepted_steps must repeat between all children.
TRACED_COUNTS = ("flow.rhs_evals", "constraint.hessian_points", "flow.accepted_steps")


class BenchmarkError(Exception):
    pass


def spawn(workload, seed, *, trace=False, setup_only=False, deadline):
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--outdir", str(OUTDIR),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - t_spawn),
        )
    except subprocess.TimeoutExpired:
        return {"timeout": True, "wall_s": time.monotonic() - t_spawn}
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"child exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["t_ready"] - t_spawn
    out["wall_s"] = time.monotonic() - t_spawn
    out["trace"] = trace
    return out


def cache_sizes():
    """Per-core L2 and shared L3 in bytes, as glibc reports them."""
    sizes = {}
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            proc = subprocess.run(["getconf", level], capture_output=True, text=True, timeout=10)
            sizes[level] = int(proc.stdout.strip())
        except (OSError, ValueError, subprocess.TimeoutExpired):
            sizes[level] = None
    return sizes


def collect(workload, seed, seconds, trace):
    """Run the children for one benchmark run; returns set-up and timed samples."""
    start = time.monotonic()
    deadline = start + seconds
    hard_deadline = start + HARD_LIMIT_S
    setups = []
    if not trace:
        for _ in range(SETUP_ONLY_CHILDREN):
            setups.append(spawn(workload, seed, setup_only=True, deadline=hard_deadline))
    # Untraced runs repeat plain children; traced runs alternate traced/plain.
    pattern = (True, False) if trace else (False,)
    minimum = 3 if trace else 2
    samples = []
    while time.monotonic() < hard_deadline:
        if len(samples) >= minimum:
            longest = max(s["wall_s"] for s in samples)
            if time.monotonic() + longest > deadline:
                break
        traced = pattern[len(samples) % len(pattern)]
        sample = spawn(workload, seed, trace=traced, deadline=hard_deadline)
        samples.append(sample)
        if sample.get("timeout"):
            break
    return setups, samples


def score(samples):
    """Checks attempted and failed, including counts that must repeat exactly."""
    attempted = failed = 0
    failures = []
    for i, s in enumerate(samples):
        if s.get("timeout"):
            attempted += 1
            failed += 1
            failures.append(f"sample {i}: timed out")
            continue
        for name, ok, detail in s["checks"]:
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"sample {i}: {name} failed ({detail})")
    traced = finished(samples, traced=True)
    steps = [s["accepted_steps"] for s in finished(samples, False) + traced]
    repeats = {"accepted_steps": [n for n in steps if n is not None]}
    for key in TRACED_COUNTS:
        repeats[key] = [s["layers"][key] for s in traced]
    for key, values in repeats.items():
        for v in values[1:]:
            attempted += 1
            if v != values[0]:
                failed += 1
                failures.append(f"{key} differs between repeats: {values}")
    return attempted, failed, failures


def finished(samples, traced):
    return [s for s in samples if not s.get("timeout") and s["trace"] == traced]


def median_of(samples, key):
    values = [s[key] for s in samples if key in s]
    if not values:
        raise BenchmarkError(f"no sample measured {key}")
    return statistics.median(values)


def end_to_end(setups, samples):
    plain = finished(samples, traced=False)
    return {
        "run_s": median_of(plain, "run_s"),
        "setup_s": median_of(setups + plain, "setup_s"),
        "peak_rss_mb": median_of(plain, "peak_rss_mb"),
    }


def per_layer(samples):
    traced = finished(samples, traced=True)
    if not traced:
        raise BenchmarkError("no traced sample finished")
    metrics = {k: statistics.median(s["layers"][k] for s in traced) for k in traced[0]["layers"]}
    traced_run_s = median_of(traced, "run_s")
    plain_run_s = median_of(finished(samples, traced=False), "run_s")
    metrics["trace.run_s"] = traced_run_s
    metrics["trace.overhead"] = 100.0 * (traced_run_s - plain_run_s) / plain_run_s
    return metrics


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "entroflow" / "__init__.py").is_file():
        print(f"error: no entroflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUTDIR.mkdir(exist_ok=True)

    try:
        setups, samples = collect(args.workload, args.seed, args.seconds, bool(args.trace))
        attempted, failed, failures = score(samples)
        values = per_layer(samples) if args.trace else end_to_end(setups, samples)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reported = [s for s in setups + samples if "env" in s]
    env = dict(reported[0]["env"]) if reported else {}
    env.update(nproc=len(os.sched_getaffinity(0)), seed=args.seed, workload=args.workload, **cache_sizes())
    print(f"# env {json.dumps(env)}")
    for i, s in enumerate(samples):
        kind = "traced" if s.get("trace") else "plain"
        if s.get("timeout"):
            print(f"# sample {i} {kind}: timed out after {s['wall_s']:.3f} s")
            continue
        print(
            f"# sample {i} {kind}: setup_s {s['setup_s']:.4f} run_s {s['run_s']:.4f} "
            f"peak_rss_mb {s['peak_rss_mb']:.1f} accepted_steps {s['accepted_steps']}"
        )
        if s.get("absent"):
            print(f"# sample {i} absent (0 calls): {', '.join(s['absent'])}")
    print(f"# setup-only samples: {[round(s['setup_s'], 4) for s in setups if 'setup_s' in s]}")
    for line in failures:
        print(f"# FAIL {' '.join(line.split())}")

    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in group:
        if m["name"] not in values:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<44} {values[m['name']]:>14.6g} {m['unit']}")
    if not args.trace:
        steps = {s["accepted_steps"] for s in samples if s.get("accepted_steps") is not None}
        if steps:
            print(f"{'accepted_steps':<44} {' '.join(map(str, sorted(steps))):>14} count")
    print(f"{'check_failures':<44} {failed:>14} count (of {attempted} checks)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
