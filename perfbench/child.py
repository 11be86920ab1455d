"""One benchmark child: set up a workload, then optionally run, check and trace it.

run.py starts one child per sample, one at a time, and reads the single JSON
line this prints.  The BLAS and OpenMP pools are pinned to one thread before
numpy is imported.  A setup error propagates (non-zero exit); an error while
running is reported as a failed run.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--outdir", required=True)
    args = p.parse_args()

    import entroflow

    src = ROOT / "src"
    if src not in Path(entroflow.__file__).resolve().parents:
        raise SystemExit(f"entroflow imported from {entroflow.__file__}, not from {src}")

    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    setup, run, check = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed)
    out = {"t_ready": time.monotonic(), "env": environment()}
    if args.setup_only:
        print(json.dumps(out))
        return

    outdir = Path(args.outdir)
    n_setup_spans = len(tracer.spans) if tracer else 0
    t0 = time.perf_counter()
    try:
        result = run(inputs, outdir)
        error = None
    except Exception as exc:  # a failed run is counted, not fatal
        traceback.print_exc()
        result, error = None, f"{type(exc).__name__}: {exc}"
    run_s = time.perf_counter() - t0

    checks = []
    if result is not None:
        try:
            checks = [(name, bool(ok), detail) for name, ok, detail in check(result)]
        except Exception as exc:
            traceback.print_exc()
            error = f"{type(exc).__name__}: {exc}"
    checks.insert(0, ("run_completed", error is None, error or ""))
    out.update(
        run_s=run_s,
        checks=checks,
        accepted_steps=(result or {}).get("accepted_steps"),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        basis = inputs["basis"]
        d = basis.shape.total_dim
        out["layers"] = tracing.layer_metrics(
            tracer.spans,
            n_setup_spans,
            run_s,
            accepted_steps=out["accepted_steps"] or 0,
            csv_bytes=(result or {}).get("csv_bytes", 0),
            basis_stack_bytes=basis.size * d * d * 16,
        )
        out["absent"] = tracer.absent
        spans_path = outdir / f"spans-{args.workload}.json"
        spans_path.write_text(json.dumps({"setup_spans": n_setup_spans, "spans": tracer.spans}))
    if result is not None and "csv" in result:
        result["csv"].unlink(missing_ok=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
