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
    """A workload of two blocks of one op each per cycle; the op of block i holds
    (i + 1) * ``size`` bytes while it runs and keeps nothing, and its block has
    i + 3 bonds."""

    size = 1 << 19

    def __init__(self, seed, root):
        self.prepared = []

    def prepare(self, cycles):
        def op(i):
            return types.SimpleNamespace(issuer=f"ISS{i}",
                                         run=lambda: len(bytearray((i + 1) * self.size)))
        self.prepared = [types.SimpleNamespace(bonds=i + 3, ops=[op(i)])
                         for i in range(2 * cycles)]

    def close(self):
        pass


def test_collect_runs_every_op_of_the_fixed_list_and_takes_the_largest_op_peak(monkeypatch):
    monkeypatch.setitem(sys.modules, "workloads",
                        types.SimpleNamespace(WORKLOAD_CLASSES={"cds_hedge": Allocating}))
    result = peak_mem.collect("cds_hedge")
    blocks = 2 * peak_mem.CYCLES
    assert result["ops"] == len(peak_mem.SEEDS) * blocks
    assert 512.0 * blocks <= result["op_peak_kb"] < 512.0 * blocks + 64.0
    # The largest op is the last block's, named by its issuer and bond count.
    assert (result["op_peak_issuer"], result["op_peak_bonds"]) == (f"ISS{blocks - 1}", blocks + 2)
    assert result["rss_mb"] > 0.0


def test_report_gives_each_side_and_the_difference():
    parent = {"rss_mb": 41.6, "op_peak_kb": 774.0, "op_peak_issuer": "D3",
              "op_peak_bonds": 12, "ops": 38}
    change = {"rss_mb": 42.4, "op_peak_kb": 1426.4, "op_peak_issuer": "D7",
              "op_peak_bonds": 9, "ops": 38}
    assert peak_mem.report("recovery_scan", parent, change) == (
        "recovery_scan: ru_maxrss 41.6 -> 42.4 MB (+0.8), largest op peak 774 -> 1426 KB "
        "(+652) at D3 (12 bonds) / D7 (9 bonds), ops 38 / 38")
