"""The A/B report of tools/ab_bench.py, on made-up run results."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)

METRICS = [{"name": "op_p50_ms", "better": "lower"}, {"name": "bonds_per_s", "better": "higher"}]


def run(op_ms, bonds, failed=0, attempted=10):
    return {"attempted": attempted, "failed": failed,
            "metrics": {"op_p50_ms": {"value": op_ms}, "bonds_per_s": {"value": bonds}}}


def test_wins_follow_each_metrics_direction_and_ties_count_for_neither():
    pairs = [(run(100, 10), run(50, 20)), (run(110, 11), run(110, 11)),
             (run(90, 9), run(95, 8, failed=1))]
    lines = ab_bench.summarize(pairs, METRICS)
    assert lines[0] == "  op_p50_ms: 100 [95-105] -> 95  (-5.0%)  wins 1/3"
    assert lines[1] == "  bonds_per_s: 10 [9.5-10.5] -> 11  (+10.0%)  wins 1/3"
    assert lines[2] == "  failed ops: parent 0/30, change 1/30"


def test_a_failed_run_counts_as_one_failed_op_and_leaves_its_pair_out():
    pairs = [(run(100, 10), None), (run(120, 12), run(60, 24))]
    lines = ab_bench.summarize(pairs, METRICS)
    assert lines[0] == "  op_p50_ms: 120 [120-120] -> 60  (-50.0%)  wins 1/1"
    assert lines[2] == "  failed ops: parent 0/20, change 1/10"
