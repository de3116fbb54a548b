"""The output comparison of tools/outputs.py, on made-up records."""

import importlib.util
import math
import pathlib

from creditcurves.hedging import HedgeLeg, HedgePlan

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "outputs.py"
spec = importlib.util.spec_from_file_location("outputs", TOOL)
outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(outputs)

PARENT = {
    "issuer_eod/11/E1/fit/eta": 0.05,
    "issuer_eod/11/E1/fit/active_constraints": ["positivity@15"],
    "issuer_eod/11/E1/fit/residuals/0": 1e-3,
    "issuer_eod/11/E1/fit/residuals/1": -2e-3,
    "issuer_eod/11/E1/problems": [],
    "cds_hedge/11/C1/bonds/0/coarse_hedge/legs/0/maturity": 5.0,
    "cds_hedge/11/C1/bonds/0/coarse_hedge/legs/0/notional": 0.93,
}


def test_identical_records_are_bit_identical():
    lines, ok = outputs.compare(PARENT, dict(PARENT), 1e-11)
    assert ok
    assert lines[2] == "bit-identical"
    assert "  issuer_eod/fit.residuals: 0 0 0/2" in lines
    assert "discrete differences: 0" in lines


def test_a_planted_one_ulp_change_is_flagged_with_its_family():
    change = dict(PARENT)
    x = PARENT["issuer_eod/11/E1/fit/residuals/1"]
    change["issuer_eod/11/E1/fit/residuals/1"] = math.nextafter(x, math.inf)
    lines, ok = outputs.compare(PARENT, change, 1e-11)
    assert lines[2] == "not bit-identical"
    assert lines[0].split()[-1] != lines[1].split()[-1]
    ulp = math.ulp(x)
    assert f"  issuer_eod/fit.residuals: {ulp:.3g} {ulp / abs(x):.3g} 1/2" in lines
    assert ok  # within the tolerance, though not bit-identical
    assert not outputs.compare(PARENT, change, 0.0)[1]


def test_a_planted_eta_flip_is_a_discrete_difference():
    change = dict(PARENT, **{"issuer_eod/11/E1/fit/eta": 0.025})
    lines, ok = outputs.compare(PARENT, change, 1e-11)
    assert not ok
    assert "discrete differences: 1" in lines
    assert "  issuer_eod/11/E1/fit/eta: 0.05 -> 0.025" in lines
    assert lines[-1] == "verdict: outputs differ (tol 1e-11)"


def test_labels_leg_maturities_and_missing_records_are_discrete():
    change = dict(PARENT, **{"issuer_eod/11/E1/fit/active_constraints": ["monotonicity:b2"],
                             "cds_hedge/11/C1/bonds/0/coarse_hedge/legs/0/maturity": 3.0,
                             "issuer_eod/11/E1/problems": ["par identity at 5y"]})
    del change["issuer_eod/11/E1/fit/residuals/0"]
    lines, ok = outputs.compare(PARENT, change, 1e-11)
    assert not ok
    assert "discrete differences: 4" in lines
    assert "  issuer_eod/11/E1/fit/residuals/0: only in parent" in lines


def test_outputs_flatten_by_field_with_discrete_choices():
    plan = HedgePlan(legs=(HedgeLeg(maturity=5.0, notional=0.9, spread=0.01),), cost=1e-4,
                     residual_npv=0.0)
    records = outputs.flatten(outputs.to_tree({"coarse_hedge": plan}), "cds_hedge/11/C1", {})
    assert records == {"cds_hedge/11/C1/coarse_hedge/legs/0/maturity": 5.0,
                       "cds_hedge/11/C1/coarse_hedge/legs/0/notional": 0.9,
                       "cds_hedge/11/C1/coarse_hedge/legs/0/spread": 0.01,
                       "cds_hedge/11/C1/coarse_hedge/cost": 1e-4,
                       "cds_hedge/11/C1/coarse_hedge/residual_npv": 0.0}
    assert [outputs.is_discrete(k, v) for k, v in records.items()] == [
        True, False, False, False, False]
