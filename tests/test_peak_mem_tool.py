"""The memory measurement of tools/peak_mem.py, on made-up workloads."""

import importlib.util
import pathlib
import sys
import types

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "peak_mem.py"
spec = importlib.util.spec_from_file_location("peak_mem", TOOL)
peak_mem = importlib.util.module_from_spec(spec)
spec.loader.exec_module(peak_mem)


class Allocating:
    """A workload of two blocks of one op each per cycle; an op holds ``size`` bytes
    while it runs and keeps nothing."""

    size = 1 << 20

    def __init__(self, seed, root):
        self.prepared = []

    def prepare(self, cycles):
        op = types.SimpleNamespace(run=lambda: len(bytearray(self.size)))
        self.prepared = [types.SimpleNamespace(ops=[op]) for _ in range(2 * cycles)]

    def close(self):
        pass


def test_collect_runs_every_op_of_the_fixed_list_and_takes_the_largest_op_peak(monkeypatch):
    monkeypatch.setitem(sys.modules, "workloads",
                        types.SimpleNamespace(WORKLOAD_CLASSES={"cds_hedge": Allocating}))
    result = peak_mem.collect("cds_hedge")
    assert result["ops"] == len(peak_mem.SEEDS) * 2 * peak_mem.CYCLES
    assert 1024.0 <= result["op_peak_kb"] < 1024.0 + 64.0
    assert result["rss_mb"] > 0.0


def test_report_gives_each_side_and_the_difference():
    parent = {"rss_mb": 41.6, "op_peak_kb": 774.0, "ops": 38}
    change = {"rss_mb": 42.4, "op_peak_kb": 1426.4, "ops": 38}
    assert peak_mem.report("recovery_scan", parent, change) == (
        "recovery_scan: ru_maxrss 41.6 -> 42.4 MB (+0.8), largest op peak 774 -> 1426 KB "
        "(+652), ops 38 / 38")
