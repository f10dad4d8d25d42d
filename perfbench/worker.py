"""One workload in one process: set up, warm up, then time whole passes.

Started by ``run.py`` as a child process, so that ``ru_maxrss`` belongs to
this workload alone. Prints one JSON object as its last line of output.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

# A runaway allocation (the 2-object Z/120 validation asks for 12.4 GiB)
# raises MemoryError in this process instead of drawing the OOM killer.
MEMORY_CEILING = 3 * 2**30
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_OPS = 100          # so that op_p90_ms has at least ten samples beyond it


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment() -> dict:
    """numpy and BLAS configuration, CPU count and Python version."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
            "cpu_count": os.cpu_count(), "machine": platform.machine()}


def run_pass(ops, record, tracer=None):
    """Run one pass; return its duration. ``record`` gets one entry per op."""
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = f"{len(tracer.passes)}:{op.name}"
        t0 = time.perf_counter()
        try:
            checks, error = op.run(), None
        except Exception as err:  # an operation's failure is a measured outcome
            checks, error = 0, f"{type(err).__name__}: {err}"
        record.append((op.name, op.rung, time.perf_counter() - t0, checks, error))
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="trace run: write spans here")
    args = parser.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CEILING, MEMORY_CEILING))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads  # noqa: E402  (imports numpy and cstarcat)

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(workload, args)
        result["setup_s"] = setup_s
        result["meta"] = environment()
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, args):
    warm = []
    run_pass(workload.warmup_ops(), warm)
    ops = workload.ops()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    records, walls, traced_walls = [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        if traced:
            tracer.new_pass()
            tracer.install()
            io_before = list(workload.io_bytes)
        try:
            wall = run_pass(ops, records, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_walls.append(wall)
            io_bytes = [a - b for a, b in zip(workload.io_bytes, io_before)]
        else:
            walls.append(wall)
        done = time.perf_counter() >= deadline and len(records) >= MIN_OPS
        if done and (tracer is None or len(traced_walls) == len(walls)):
            break

    untimed = warm
    if tracer is not None:
        # one more pass, with tracemalloc on inside the peak targets only
        tracer.current = type(tracer.current)(float)
        tracer.measure_peaks = True
        tracer.install()
        try:
            run_pass(ops, untimed)
        finally:
            tracer.uninstall()

    failures = [r for r in records + untimed if r[4] is not None]
    for name, _rung, _dt, _checks, error in failures[:5]:
        print(f"failed: {name}: {error}", file=sys.stderr)
    result = {"attempted": len(records), "failed": sum(r[4] is not None for r in records),
              "untimed_failed": sum(r[4] is not None for r in untimed),
              "passes": len(walls) + len(traced_walls), "ops_per_pass": len(ops)}
    if tracer is not None:
        metrics = tracer.layer_metrics(io_bytes)
        wall, plain = median(traced_walls), median(walls)
        metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": plain, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": wall - plain, "unit": "s"}
        if args.spans:
            tracer.write_spans(args.spans)
        result["metrics"] = metrics
        return result

    latencies = [r[2] * 1000 for r in records]
    checks = sum(r[3] for r in records)
    top = [sum(r[2] for r in records[i:i + len(ops)] if r[1] == workload.top_rung)
           for i in range(0, len(records), len(ops))]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["metrics"] = {
        "wall_s": {"value": median(walls), "unit": "s"},
        "op_p50_ms": {"value": percentile(latencies, 50), "unit": "ms"},
        "op_p90_ms": {"value": percentile(latencies, 90), "unit": "ms"},
        "checks_per_s": {"value": checks / sum(walls), "unit": "1/s"},
        "top_rung_s": {"value": median(top), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }
    return result


if __name__ == "__main__":
    sys.exit(main())
