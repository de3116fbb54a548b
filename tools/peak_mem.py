"""Library memory of two source trees on the benchmark's fixed operation lists.

Usage (any directory; standard library only in this process):

    python3 tools/peak_mem.py PARENT_TREE CHANGE_TREE [--workload issuer_eod ...]

For each tree and workload (default: issuer_eod, recovery_scan, cds_hedge) it
starts one fresh subprocess with that tree's ``src`` and ``bench`` on the path.
The subprocess builds the workload's operations for seeds 11 and 12 over
cycles 0-1 and runs each once, keeping no output, then reads its own
``ru_maxrss``.  It then runs every operation again under ``tracemalloc`` and
takes the largest per-operation peak: the memory one call of the library
allocates on top of what it holds before the call, with the issuer and the
bond count of the operation that took it.  ``bench/run.py`` keeps
every finished operation for a timed run, so its ``peak_rss_mb`` grows with
the number of operations it gets through; these fixed lists do not, which
separates the library's own memory from that effect.

Per workload it prints ``ru_maxrss`` and the largest per-operation peak of
each tree and their difference, the issuer and bond count of each tree's
largest operation, and the number of operations run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tracemalloc
import warnings

WORKLOADS = ("issuer_eod", "recovery_scan", "cds_hedge")
SEEDS, CYCLES = (11, 12), 2


def fixed_ops(name: str) -> tuple[list, list]:
    """The fixed operation list of workload ``name``, seeds ``SEEDS`` over cycles 0 to
    ``CYCLES`` - 1, as (operation, bond count of its block) pairs, and the workloads
    holding them, each to be closed when done."""
    from workloads import WORKLOAD_CLASSES  # the bench/ of the tree under test

    ops, loaded = [], []
    for seed in SEEDS:
        workload = WORKLOAD_CLASSES[name](seed, os.getcwd())
        workload.prepare(CYCLES)
        ops += [(op, block.bonds) for block in workload.prepared for op in block.ops]
        loaded.append(workload)
    return ops, loaded


def collect(name: str) -> dict:
    """ru_maxrss (MB) after one plain pass over the fixed operation list of
    workload ``name``, its largest per-operation tracemalloc peak (KB), and that
    operation's issuer id and bond count."""
    ops, loaded = fixed_ops(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for op, _ in ops:
            op.run()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        peak, largest = 0, (None, 0)
        tracemalloc.start()
        for op, bonds in ops:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            op.run()
            used = tracemalloc.get_traced_memory()[1] - before
            if used > peak:
                peak, largest = used, (op.issuer, bonds)
        tracemalloc.stop()
    for workload in loaded:
        workload.close()
    return {"rss_mb": rss_mb, "op_peak_kb": peak / 1024.0, "op_peak_issuer": largest[0],
            "op_peak_bonds": largest[1], "ops": len(ops)}


def run_tree(tree: str, name: str, *args: str, script: str = __file__) -> dict:
    """``script --collect name *args`` (this tool's ``collect(name)`` by default) in a
    fresh subprocess on ``tree``'s own sources: the JSON it prints."""
    tree = os.path.abspath(tree)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(tree, "src"), os.path.join(tree, "bench")]))
    cmd = [sys.executable, os.path.abspath(script), "--collect", name, *args]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {name} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def report(name: str, parent: dict, change: dict) -> str:
    """One line per workload: each side's ru_maxrss and largest op peak, the
    differences, and the issuer and bond count of each side's largest op."""
    return (f"{name}: ru_maxrss {parent['rss_mb']:.1f} -> {change['rss_mb']:.1f} MB "
            f"({change['rss_mb'] - parent['rss_mb']:+.1f}), largest op peak "
            f"{parent['op_peak_kb']:.0f} -> {change['op_peak_kb']:.0f} KB "
            f"({change['op_peak_kb'] - parent['op_peak_kb']:+.0f}) at "
            f"{parent['op_peak_issuer']} ({parent['op_peak_bonds']} bonds) / "
            f"{change['op_peak_issuer']} ({change['op_peak_bonds']} bonds), "
            f"ops {parent['ops']} / {change['ops']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", help="PARENT_TREE CHANGE_TREE")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to measure (repeatable); default: all three")
    parser.add_argument("--collect", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        json.dump(collect(args.collect), sys.stdout)
        return 0
    if len(args.trees) != 2:
        parser.error("need PARENT_TREE and CHANGE_TREE")
    print(f"seeds {list(SEEDS)}, cycles 0-{CYCLES - 1}")
    for name in args.workload or WORKLOADS:
        print(report(name, *(run_tree(tree, name) for tree in args.trees)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
