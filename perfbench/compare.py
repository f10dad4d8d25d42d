"""Compare two result sets of the benchmark, metric by metric.

    python3 perfbench/compare.py pairs PARENT_DIR CHANGE_DIR --workload W \
        --seeds 1-10 --seconds 10 [--trace 0|1] --out DIR
    python3 perfbench/compare.py report DIR/parent.jsonl DIR/change.jsonl

``pairs`` runs the benchmark in two checkouts, one seed at a time, and
alternates which side runs first; both checkouts must hold the same
benchmark files. It appends the results to ``parent.jsonl`` and
``change.jsonl`` in DIR. ``report`` prints, for each workload and metric,
both sides' medians and quartiles and one verdict:

* better: the change wins at least 9 of 10 seed pairs (ties count for
  neither side), and the medians differ by more than the parent's
  interquartile distance;
* unresolved: the parent's spread (interquartile distance over median) is
  wider than the metric's bound, and not every change run beats every
  parent run;
* worse: the change's median is worse than the parent's by more than the
  bound (per-layer metrics have no bound: worse mirrors better);
* unchanged: none of these.

With fewer than MIN_PAIRS seed pairs, better and worse read as unresolved.

Seed HELD_OUT_SEED is held out: tune nothing on it. ``report`` leaves it out
of the verdicts and prints it on its own line, so a claim can be checked on a
seed that played no part in making it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HELD_OUT_SEED = 90001
WIN_SHARE = 0.9
MIN_PAIRS = 10


def load(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def metric_specs():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    out = {m["name"]: m for m in spec["end_to_end"]}
    out.update({m["name"]: m for m in spec["per_layer"]})
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Apply the rule in the module docstring to paired values."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    _c1, cm, _c3 = quartiles(change)
    gap, iqr = sign * (cm - pm), p3 - p1
    n = len(parent)
    if wins >= WIN_SHARE * n and gap > iqr:
        return "better", wins, losses
    dominates = all(sign * (c - p) > 0 for c in change for p in parent)
    if bound is not None and pm and iqr / abs(pm) > bound and not dominates:
        return "unresolved", wins, losses
    if bound is not None and -gap > bound * abs(pm):
        return "worse", wins, losses
    if bound is None and losses >= WIN_SHARE * n and -gap > iqr:
        return "worse", wins, losses
    return "unchanged", wins, losses


def report(parent_path, change_path):
    specs = metric_specs()
    parent, change = load(parent_path), load(change_path)
    keys = sorted({(r["workload"], r["trace"]) for r in parent + change})
    for workload, trace in keys:
        ps = {r["seed"]: r for r in parent if (r["workload"], r["trace"]) == (workload, trace)}
        cs = {r["seed"]: r for r in change if (r["workload"], r["trace"]) == (workload, trace)}
        seeds = [s for s in ps if s in cs and s != HELD_OUT_SEED]
        if not seeds:
            continue
        fails = [sum(side[s]["failed"] for s in seeds) for side in (ps, cs)]
        runs = [sum(side[s]["attempted"] for s in seeds) for side in (ps, cs)]
        print(f"{workload} ({'traced' if trace else 'untraced'}): {len(seeds)} seed pairs; "
              f"failed operations parent {fails[0]}/{runs[0]}, change {fails[1]}/{runs[1]}")
        print(f"  {'metric':48s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s}"
              f"  wins/losses  verdict")
        for name in ps[seeds[0]]["metrics"]:
            spec = specs.get(name, {"better": "lower"})
            pv = [ps[s]["metrics"][name]["value"] for s in seeds]
            cv = [cs[s]["metrics"][name]["value"] for s in seeds]
            word, wins, losses = verdict(pv, cv, spec["better"], spec.get("bound"))
            if fails[1] > fails[0] and word == "better":
                word = "unchanged (more failures)"
            elif len(seeds) < MIN_PAIRS and word in ("better", "worse"):
                word = f"unresolved (fewer than {MIN_PAIRS} pairs)"
            fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))  # noqa: E731
            line = f"  {name:48s} {fmt(pv):>32s} {fmt(cv):>32s}  {wins:>4d}/{losses:<6d} {word}"
            if HELD_OUT_SEED in ps and HELD_OUT_SEED in cs:
                hp = ps[HELD_OUT_SEED]["metrics"][name]["value"]
                hc = cs[HELD_OUT_SEED]["metrics"][name]["value"]
                line += f"   held-out {hp:.4g} -> {hc:.4g}"
            print(line)


def tree_digest(root):
    """Hash of the benchmark's files in a checkout, compiled files excluded."""
    paths = []
    for base, dirs, files in os.walk(os.path.join(root, "perfbench")):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        paths.extend(os.path.join(base, name) for name in files)
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def parse_seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def pairs(args):
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    if tree_digest(sides["parent"]) != tree_digest(sides["change"]):
        print("compare.py: the two checkouts hold different benchmark files", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            record = os.path.abspath(os.path.join(args.out, f"{side}.jsonl"))
            cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--record", record]
            proc = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            print(f"seed {seed} {side}: {proc.stdout.strip().splitlines()[-1][:120]}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("pairs", help="run alternating seed pairs in two checkouts")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,2,5")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", required=True)
    r = sub.add_parser("report", help="print medians, quartiles and verdicts")
    r.add_argument("parent")
    r.add_argument("change")
    args = parser.parse_args(argv)
    if args.mode == "pairs":
        return pairs(args)
    report(args.parent, args.change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
