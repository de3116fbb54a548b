"""A/B comparison of two source trees on the benchmark's end-to-end metrics.

Usage (any directory; standard library only):

    python3 tools/ab_bench.py PARENT_TREE CHANGE_TREE --seed 13 --seconds 20 \
        --pairs 10 [--workload recovery_scan ...]

For each workload (default: every workload in PARENT_TREE/BENCHMARK.json) it
runs ``python3 bench/run.py --workload W --seed S --seconds N --trace 0``
from each tree, in P pairs whose first side alternates, so drift of the
host's speed falls on both sides alike.  Per workload and metric it prints

    parent median [q1-q3] -> change median  (change %)  wins/pairs  verdict

where a win is a pair in which the change reads better than the parent in
the metric's ``better`` direction (ties count for neither), then the failed
operations summed over each side's runs, then each side's median operations
per run, against which a move in ``peak_rss_mb`` can be read (a run keeps
every operation it times).  A run that exits non-zero or ends without its
JSON line is reported and counts as one failed operation.

The verdict reads the metric's relative ``bound`` in BENCHMARK.json:
"worse beyond bound" when the change median is worse than the parent median
by more than the bound; else "unresolved" when the parent's IQR is wider
than the bound; else "gain" when the change wins at least 9 of 10 pairs and
its median is better by more than the parent's IQR; else "within bound".
A metric without a bound gets no verdict.  The first lines give the number
of lines of Python under each tree's ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict | None:
    """One ``bench/run.py`` run from ``tree``: its final JSON object, or None."""
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{tree}: {workload} exited {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(f"{tree}: {workload}: last line is not JSON: {lines[-1][:200]}\n")
        return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of the values, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], wins: int, lower: bool,
            bound: float) -> str:
    """The verdict on one metric from its paired runs (see the module doc)."""
    q1, p_med, q3 = quartiles(parent)
    gain = (p_med - statistics.median(change)) * (1.0 if lower else -1.0)
    if -gain > bound * abs(p_med):
        return "worse beyond bound"
    if q3 - q1 > bound * abs(p_med):
        return "unresolved"
    if wins >= 0.9 * len(change) and gain > q3 - q1:
        return "gain"
    return "within bound"


def src_lines(tree: str) -> int:
    """Lines of the Python files under ``tree``/src."""
    total = 0
    for folder, _, files in os.walk(os.path.join(tree, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as handle:
                    total += sum(1 for _ in handle)
    return total


def summarize(pairs: list[tuple[dict | None, dict | None]], metrics: list[dict]) -> list[str]:
    """Report lines for one workload from its (parent, change) run results."""
    lines = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                for p, c in pairs if p and c and name in p["metrics"] and name in c["metrics"]]
        if not both:
            lines.append(f"  {name}: no complete pair")
            continue
        parent = [p for p, _ in both]
        change = [c for _, c in both]
        q1, p_med, q3 = quartiles(parent)
        c_med = statistics.median(change)
        wins = sum((c < p) if lower else (c > p) for p, c in both)
        rel = (c_med - p_med) / p_med * 100.0 if p_med else float("nan")
        line = (f"  {name}: {p_med:.4g} [{q1:.4g}-{q3:.4g}] -> {c_med:.4g}"
                f"  ({rel:+.1f}%)  wins {wins}/{len(both)}")
        if "bound" in metric:
            line += "  " + verdict(parent, change, wins, lower, metric["bound"])
        lines.append(line)
    failed = [sum(1 if run is None else run["failed"] for run in side) for side in zip(*pairs)]
    ops = [[run["attempted"] for run in side if run] for side in zip(*pairs)]
    attempted = [sum(side) for side in ops]
    lines.append(f"  failed ops: parent {failed[0]}/{attempted[0]}, change {failed[1]}/{attempted[1]}")
    medians = [f"{statistics.median(side):g}" if side else "none" for side in ops]
    lines.append(f"  ops per run, median: parent {medians[0]}, change {medians[1]}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="source tree of the parent commit")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default: all in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    with open(os.path.join(args.parent, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    print(f"src lines: parent {src_lines(args.parent)}, change {src_lines(args.change)}")
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            order = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                order.reverse()
            got = {side: run_once(tree, workload, args.seed, args.seconds) for side, tree in order}
            pairs.append((got["parent"], got["change"]))
            sys.stderr.write(f"{workload}: pair {i + 1}/{args.pairs} done\n")
        print(f"{workload} (seed {args.seed}, {args.seconds:g} s, {args.pairs} pairs, "
              "parent median [IQR] -> change median)")
        print("\n".join(summarize(pairs, spec["end_to_end"])), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
