"""Work counts and pass times of two source trees on the benchmark's fixed operation lists.

Usage (any directory; standard library only in this process):

    python3 tools/work_counts.py PARENT_TREE CHANGE_TREE [--workload recovery_scan ...] \
        [--passes 7] [--out BENCH.json] [--same]

For each tree and workload (default: issuer_eod, recovery_scan, cds_hedge) it
starts one fresh subprocess with that tree's ``src`` and ``bench`` on the path,
on the fixed operation lists of ``tools/peak_mem.py`` (seeds 11 and 12, cycles
0-1).  The subprocess runs every operation once with counting wrappers on
library callables, removes them, and then times N plain passes over the list,
keeping the best and the median.  The counts:

- ``_solve_constrained_wls`` calls, and the KKT matrices of each size n (rows)
  that it hands to ``numpy.linalg.solve``;
- ``BaseCurve.df`` calls;
- ``survivals`` calls and the dates they read, over every curve class;
- spread solves (``rootfind._spread_root``) and ``pv_slope`` passes;
- bootstrap segments (quotes given to ``calibrate_from_cds``) and trial tables
  (the ``LegTable`` builds of ``calibrate_from_cds`` outside its fixed-point
  gate, one per trial hazard).

Counts depend only on the code and its inputs, so a tree measured against itself
gives equal counts; the times depend on the host, and one tree's passes all run
before the other's, so a change in the host's load between them moves them too
(``tools/ab_bench.py`` alternates its runs for timing claims).  The report gives per workload
every count as parent -> change, then each tree's best and median pass time.
``--out`` writes the same as JSON, with the host's machine type and CPU count,
and per tree its commit, whether its ``src`` or ``bench`` differ from that commit,
the Python and numpy versions and the ``src`` line count.  With ``--same`` the exit status is 1 when any count differs
between the trees.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter

from ab_bench import src_lines
from peak_mem import CYCLES, SEEDS, fixed_ops, run_tree

WORKLOADS = ("issuer_eod", "recovery_scan", "cds_hedge")


def install(counts: Counter) -> list:
    """Counting wrappers on the library, in every ``creditcurves`` module that holds
    each callable by name; returns what ``uninstall`` puts back."""
    import numpy as np
    from creditcurves import calibration, curves, pricing, rootfind, survival

    undo, inside = [], Counter()  # inside: open calls of each scope
    package = [module for key, module in list(sys.modules.items())
               if key == "creditcurves" or key.startswith("creditcurves.")]

    def patch(owner, name, make):
        original = getattr(owner, name)
        wrapper = make(original)
        for holder in [owner] + [module for module in package if module is not owner
                                 and getattr(module, name, None) is original]:
            undo.append((holder, name, original))
            setattr(holder, name, wrapper)

    def counted(key=None, dates=None, scope=None):
        """A wrapper counting its calls under ``key``, the length of its first
        argument after self under ``dates``, and its open calls under ``scope``."""
        def make(original):
            def wrapper(*args, **kwargs):
                if key:
                    counts[key] += 1
                if dates:
                    counts[dates] += len(args[1])
                inside[scope] += 1
                try:
                    return original(*args, **kwargs)
                finally:
                    inside[scope] -= 1
            return wrapper
        return make

    def kkt_solve(original):
        def wrapper(a, b):
            if inside["wls"]:
                counts[f"calibration.kkt_matrices.n{a.shape[-1]}"] += (
                    a.size // (a.shape[-1] * a.shape[-2]))
            return original(a, b)
        return wrapper

    def bootstrap(original):
        scoped = counted(scope="bootstrap")(original)

        def wrapper(quotes, *args, **kwargs):
            counts["calibration.bootstrap.segments"] += len(quotes)
            return scoped(quotes, *args, **kwargs)
        return wrapper

    def leg_table(original):
        def wrapper(*args, **kwargs):
            if inside["bootstrap"] and not inside["gate"]:
                counts["calibration.bootstrap.trial_tables"] += 1
            return original(*args, **kwargs)
        return wrapper

    patch(calibration, "_solve_constrained_wls",
          counted("calibration.solve_constrained_wls.calls", scope="wls"))
    patch(np.linalg, "solve", kkt_solve)
    patch(curves.BaseCurve, "df", counted("curves.df.calls"))
    for cls in (survival.SurvivalCurve, survival.SplineSurvivalCurve,
                survival.PiecewiseHazardCurve):
        patch(cls, "survivals", counted("survival.survivals.calls", "survival.survivals.dates"))
    patch(rootfind, "_spread_root", counted("rootfind.spread_solves"))
    patch(rootfind, "pv_slope", counted("rootfind.pv_slope.passes"))
    patch(calibration, "calibrate_from_cds", bootstrap)
    patch(pricing, "cds_par_spread", counted(scope="gate"))
    patch(pricing.LegTable, "__init__", leg_table)
    return undo


def uninstall(undo: list) -> None:
    """Put back every original ``install`` replaced, last replaced first."""
    for holder, name, original in reversed(undo):
        setattr(holder, name, original)


def collect(name: str, passes: int) -> dict:
    """The counts of one pass over workload ``name``'s fixed operation list, then
    the best and median of ``passes`` plain passes (s), with the interpreter's and
    numpy's versions and the number of operations."""
    import numpy as np

    ops, loaded = fixed_ops(name)
    counts, times = Counter(), []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        undo = install(counts)
        try:
            for op, _ in ops:
                op.run()
        finally:
            uninstall(undo)
        for _ in range(passes):
            start = time.perf_counter()
            for op, _ in ops:
                op.run()
            times.append(time.perf_counter() - start)
    for workload in loaded:
        workload.close()
    return {"ops": len(ops), "counts": dict(sorted(counts.items())),
            "times_s": {"best": min(times), "median": statistics.median(times)},
            "python": platform.python_version(), "numpy": np.__version__}


def tree_record(tree: str) -> dict:
    """The commit of ``tree``, whether its ``src`` or ``bench`` differ from it, and
    its ``src`` line count."""
    def git(*args):
        proc = subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    changed = git("status", "--porcelain", "--", "src", "bench") if commit else None
    return {"commit": commit, "uncommitted_changes": bool(changed) if commit else None,
            "src_lines": src_lines(tree)}


def report(name: str, parent: dict, change: dict) -> tuple[list[str], int]:
    """The lines for one workload: each count as parent -> change with its relative
    move, then each side's pass times; and the number of counts that differ."""
    lines, differ = [f"{name}: ops {parent['ops']} / {change['ops']}"], 0
    for key in sorted(set(parent["counts"]) | set(change["counts"])):
        before, after = parent["counts"].get(key, 0), change["counts"].get(key, 0)
        move = f"{(after - before) / before:+.1%}" if before else ("" if not after else "new")
        differ += before != after
        lines.append(f"  {key}: {before:,} -> {after:,}  {move}".rstrip())
    lines.append("  pass time (host-dependent), best / median: "
                 f"{parent['times_s']['best']:.3f} / {parent['times_s']['median']:.3f} s -> "
                 f"{change['times_s']['best']:.3f} / {change['times_s']['median']:.3f} s")
    return lines, differ


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", help="PARENT_TREE CHANGE_TREE")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to measure (repeatable); default: all three")
    parser.add_argument("--passes", type=int, default=7,
                        help="timed passes over each operation list (default 7)")
    parser.add_argument("--out", help="write the counts and times here as JSON")
    parser.add_argument("--same", action="store_true",
                        help="exit 1 if any count differs between the trees")
    parser.add_argument("--collect", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    if args.collect:
        json.dump(collect(args.collect, args.passes), sys.stdout)
        return 0
    if len(args.trees) != 2:
        parser.error("need PARENT_TREE and CHANGE_TREE")
    sides = dict(zip(("parent", "change"), args.trees))
    record = {"seeds": list(SEEDS), "cycles": CYCLES, "passes": args.passes,
              "times": "host-dependent: best and median of the passes, in s",
              "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
              "trees": {side: tree_record(tree) for side, tree in sides.items()},
              "workloads": {}}
    print(f"seeds {list(SEEDS)}, cycles 0-{CYCLES - 1}, {args.passes} timed passes; src lines "
          f"{record['trees']['parent']['src_lines']} -> {record['trees']['change']['src_lines']}")
    differ = 0
    for name in args.workload or WORKLOADS:
        runs = {side: run_tree(tree, name, "--passes", str(args.passes), script=__file__)
                for side, tree in sides.items()}
        lines, moved = report(name, runs["parent"], runs["change"])
        print("\n".join(lines), flush=True)
        differ += moved
        for side, run in runs.items():
            record["trees"][side].update(python=run.pop("python"), numpy=run.pop("numpy"))
        record["workloads"][name] = runs
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if args.same and differ else 0


if __name__ == "__main__":
    sys.exit(main())
