"""The work counts of tools/work_counts.py, on made-up workloads."""

import pathlib
import sys
import types

import numpy as np

from creditcurves import calibration, pricing, rootfind
from creditcurves.conventional import BondSpec
from creditcurves.curves import BaseCurve
from creditcurves.survival import PiecewiseHazardCurve

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))
import work_counts  # noqa: E402  (imports its siblings peak_mem and ab_bench)

BASE, CURVE = BaseCurve.flat(0.03), PiecewiseHazardCurve.flat(0.02)
CDS_QUOTES = [(1.0, 0.01), (3.0, 0.015), (5.0, 0.02)]
# G beta >= 0 with rows beta_2 <= 0, beta_3 <= 0 and beta_2 + beta_3 <= 0.  Target
# (1.6, -0.4, -0.2) is feasible, so the empty set is optimal; (0.8, 0.5, -0.3) needs
# row 0: the level of one-row sets (3 of them) is solved for it alone.
KKT_STACK = (np.repeat(np.eye(3)[None], 2, axis=0),
             np.array([[1.6, -0.4, -0.2], [0.8, 0.5, -0.3]]), np.ones((2, 3)))
G = np.repeat(np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [0.0, -1.0, -1.0]])[None], 2,
              axis=0)


def solve_kkt_stack():
    frames = calibration._kkt_frames(G, np.zeros((2, 3)))
    betas, active, status = calibration._solve_constrained_wls(*KKT_STACK, frames, np.arange(2))
    assert status.tolist() == [0, 0] and active.sum(axis=1).tolist() == [0, 1]
    np.linalg.solve(np.eye(2), np.ones(2))  # outside the solver: not a KKT matrix


OPS = {
    "df": lambda: [BASE.df(t) for t in (1.0, 2.0, 3.0)],
    "survivals": lambda: CURVE.survivals([0.5, 1.0, 2.0]),
    "pv_slope": lambda: (rootfind.pv_slope([1.0], [1.0], 0.0),
                         pricing.bond_pv_frp(BondSpec(0.05, 1, 2.0), BASE, CURVE, 0.4)),
    "spread": lambda: rootfind.solve_spread([1.0, 2.0], [0.05, 1.0], 0.97),
    "kkt": solve_kkt_stack,
    "bootstrap": lambda: calibration.calibrate_from_cds(CDS_QUOTES, BASE, 0.4),
}


class MadeUp:
    """A workload of one block per seed holding the ``OPS``."""

    def __init__(self, seed, root):
        self.prepared = []

    def prepare(self, cycles):
        self.prepared = [types.SimpleNamespace(bonds=1, ops=[
            types.SimpleNamespace(issuer=name, run=run) for name, run in OPS.items()])]

    def close(self):
        pass


def plain_counts(monkeypatch) -> dict:
    """The counts of one run of every op, kept by plain counters patched into the
    library for that run alone; the bootstrap's trial tables are its ``LegTable``
    builds less its fixed-point gate's, one a quote."""
    counts = dict.fromkeys(("df", "survivals", "dates", "pv_slope", "spread", "tables"), 0)

    def spy(key, original, dates=False):
        def wrapper(*args):
            counts[key] += 1
            counts["dates"] += len(args[1]) if dates else 0
            return original(*args)
        return wrapper

    with monkeypatch.context() as patched:
        patched.setattr(BaseCurve, "df", spy("df", BaseCurve.df))
        patched.setattr(PiecewiseHazardCurve, "survivals",
                        spy("survivals", PiecewiseHazardCurve.survivals, dates=True))
        pv_slope = spy("pv_slope", rootfind.pv_slope)
        for module in (rootfind, pricing):
            patched.setattr(module, "pv_slope", pv_slope)
        patched.setattr(rootfind, "_spread_root", spy("spread", rootfind._spread_root))
        patched.setattr(pricing.LegTable, "__init__", spy("tables", pricing.LegTable.__init__))
        for run in OPS.values():
            before = counts["tables"]
            run()
        counts["tables"] -= before + len(CDS_QUOTES)  # the tables of the bootstrap op alone
    return counts


def test_collect_counts_each_library_call_of_one_pass_and_times_the_rest(monkeypatch):
    plain = plain_counts(monkeypatch)
    monkeypatch.setitem(sys.modules, "workloads",
                        types.SimpleNamespace(WORKLOAD_CLASSES={"recovery_scan": MadeUp}))
    seeds = len(work_counts.SEEDS)

    result = work_counts.collect("recovery_scan", passes=3)

    assert result["ops"] == seeds * len(OPS)
    assert result["counts"] == {
        "calibration.bootstrap.segments": seeds * len(CDS_QUOTES),
        "calibration.bootstrap.trial_tables": seeds * plain["tables"],
        "calibration.kkt_matrices.n4": seeds * 2,  # the 2 x 2 solve outside is not counted
        "calibration.kkt_matrices.n5": seeds * 3,
        "calibration.solve_constrained_wls.calls": seeds,
        "curves.df.calls": seeds * plain["df"],
        # pv_slope is counted where pricing holds it by name too (bond_pv_frp).
        "rootfind.pv_slope.passes": seeds * plain["pv_slope"],
        "rootfind.spread_solves": seeds * plain["spread"],
        "survival.survivals.calls": seeds * plain["survivals"],
        "survival.survivals.dates": seeds * plain["dates"],
    }
    assert plain["tables"] > 0 and plain["pv_slope"] > plain["spread"] > 0
    times = result["times_s"]
    assert 0.0 < times["best"] <= times["median"]
    # The wrappers are gone once counting ends.
    assert rootfind.pv_slope is pricing.pv_slope and rootfind.pv_slope.__module__ == (
        "creditcurves.rootfind")
    assert calibration.calibrate_from_cds.__qualname__ == "calibrate_from_cds"


def test_report_gives_each_count_as_parent_to_change_and_counts_the_moves():
    parent = {"ops": 38, "times_s": {"best": 0.4101, "median": 0.4312},
              "counts": {"calibration.kkt_matrices.n5": 140504, "curves.df.calls": 3748}}
    change = {"ops": 38, "times_s": {"best": 0.3611, "median": 0.3823},
              "counts": {"calibration.kkt_matrices.n5": 54678, "curves.df.calls": 3748,
                         "calibration.kkt_matrices.n7": 2}}
    lines, differ = work_counts.report("recovery_scan", parent, change)
    assert lines == [
        "recovery_scan: ops 38 / 38",
        "  calibration.kkt_matrices.n5: 140,504 -> 54,678  -61.1%",
        "  calibration.kkt_matrices.n7: 0 -> 2  new",
        "  curves.df.calls: 3,748 -> 3,748  +0.0%",
        "  pass time (host-dependent), best / median: 0.410 / 0.431 s -> 0.361 / 0.382 s",
    ]
    assert differ == 2
    assert work_counts.report("recovery_scan", parent, parent)[1] == 0
