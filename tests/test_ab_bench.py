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


BOUNDED = [{"name": "op_p50_ms", "better": "lower", "bound": 0.1},
           {"name": "bonds_per_s", "better": "higher", "bound": 0.1}]


def verdicts(pairs):
    return [line.rsplit("  ", 1)[1] for line in ab_bench.summarize(pairs, BOUNDED)[:2]]


def test_verdict_worse_beyond_bound_in_each_direction():
    pairs = [(run(100 + i, 10), run(115 + i, 8.5)) for i in range(10)]
    assert verdicts(pairs) == ["worse beyond bound", "worse beyond bound"]


def test_verdict_unresolved_when_the_parent_spreads_wider_than_the_bound():
    pairs = [(run(80 + 5 * i, 10 + i), run(80 + 5 * i, 10 + i)) for i in range(10)]
    assert verdicts(pairs) == ["unresolved", "unresolved"]


def test_verdict_gain_needs_nine_wins_in_ten_and_a_move_beyond_the_iqr():
    parent = [run(100 + 0.1 * i, 10 + 0.01 * i) for i in range(10)]
    gain = [(p, run(95, 10.5)) for p in parent]
    assert verdicts(gain) == ["gain", "gain"]
    eight_wins = gain[:8] + [(p, run(200, 5)) for p in parent[8:]]
    assert verdicts(eight_wins) == ["within bound", "within bound"]
    # Nine wins in ten, but a median move (0.4, 0.04) inside the IQR (0.45, 0.045).
    spread = [run(90, 11)] + [run(100 + 0.1 * i, 10 + 0.01 * i) for i in range(1, 10)]
    inside_iqr = [(p, run(100.05, 10.095)) for p in spread]
    assert [line.split("wins ")[1] for line in ab_bench.summarize(inside_iqr, BOUNDED)[:2]] == [
        "9/10  within bound", "9/10  within bound"]


def test_each_sides_median_ops_per_run_follows_the_failed_ops():
    pairs = [(run(100, 10, attempted=200), run(50, 20, attempted=410)),
             (run(110, 11, attempted=220), run(55, 19, attempted=390)),
             (run(90, 9, attempted=210), run(45, 21, attempted=400))]
    assert ab_bench.summarize(pairs, METRICS)[3] == "  ops per run, median: parent 210, change 400"


def test_median_ops_per_run_leaves_out_failed_runs():
    pairs = [(run(100, 10, attempted=200), None), (None, run(60, 24, attempted=301)),
             (run(120, 12, attempted=221), run(60, 24, attempted=300))]
    assert ab_bench.summarize(pairs, METRICS)[3] == (
        "  ops per run, median: parent 210.5, change 300.5")
    assert ab_bench.summarize([(None, None)], METRICS)[-1] == (
        "  ops per run, median: parent none, change none")


def test_metric_without_a_bound_has_no_verdict():
    line = ab_bench.summarize([(run(100, 10), run(95, 11))], METRICS)[0]
    assert line.endswith("wins 1/1")


def test_src_lines_counts_the_python_under_src(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "src" / "pkg" / "b.py").write_text("z = 3\n")
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not code\n")
    assert ab_bench.src_lines(str(tmp_path)) == 3
