"""Benchmark of the cstarcat package: three workloads, end-to-end metrics
from an untraced run and per-layer metrics from a traced one.

    python3 perfbench/run.py --workload cli_session --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each workload runs in a fresh child process (``worker.py``) with BLAS pinned
to one thread. Set-up is repeated in extra child processes and reported as a
median. The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit, the failure ratio and the
environment. ``--record FILE`` appends the whole result to FILE as one JSON
line, for ``compare.py``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli_session", "dense_ladder", "fp_ladder")
SETUP_PROBES = 4        # extra set-ups per run; setup_s is the median of 5
RUN_LIMIT_S = 170       # the whole run, children included
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
       "PYTHONHASHSEED": "0"}


class RunFailed(Exception):
    pass


def child(args, deadline):
    """Run worker.py with args; return its last output line as JSON."""
    env = dict(os.environ, **ENV)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as err:
        raise RunFailed(f"worker timed out: {' '.join(args)}") from err
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, spans=None):
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", name, "--seed", str(seed)]
    setups = [child(common + ["--setup-only"], deadline)["setup_s"]
              for _ in range(0 if trace else SETUP_PROBES)]
    extra = ["--spans", spans] if spans else []
    out = child(common + ["--seconds", str(seconds), "--trace", str(trace)] + extra,
                deadline)
    setups.append(out["setup_s"])
    metrics = dict(out["metrics"])
    if not trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    return {
        "correct": out["failed"] == 0 and out["untimed_failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }, out


def report(name, seed, result, out):
    fail_ratio = result["failed"] / result["attempted"]
    print(f"# {name} seed={seed}: {out['passes']} passes of {out['ops_per_pass']} "
          f"operations, {result['attempted']} timed operations, "
          f"{result['failed']} failed, fail_ratio={fail_ratio:.4f}")
    for metric, entry in result["metrics"].items():
        print(f"#   {metric:48s} {entry['value']:14.6g} {entry['unit']}")
    print(f"# environment {json.dumps(out['meta'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", default=None,
                        help="append the result to this JSON-lines file")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cstarcat", "__init__.py")):
        print("run.py: no src/cstarcat next to the benchmark; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        spans = None
        if args.trace:
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans = os.path.join(out_dir, f"spans-{name}-{args.seed}.jsonl")
        try:
            result, out = run_workload(name, args.seed, args.seconds, args.trace, spans)
        except RunFailed as err:
            print(f"run.py: {err}", file=sys.stderr)
            return 1
        report(name, args.seed, result, out)
        if args.record:
            with open(args.record, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": name, "seed": args.seed,
                                         "seconds": args.seconds, "trace": args.trace,
                                         "meta": out["meta"], **result}) + "\n")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
