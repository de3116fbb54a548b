"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single pass line when its assertions hold; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import math
import time

import numpy as np
import pytest

from creditcurves import calibration, hedging, measures, pricing
from creditcurves.calibration import FitConfig
from creditcurves.conventional import BondSpec, z_spread
from creditcurves.curves import BaseCurve
from creditcurves.splines import SplineBasis
from creditcurves.survival import PiecewiseHazardCurve, SplineSurvivalCurve

from conftest import HEDGE_RECOVERY, make_hedge_market, make_round_trip_quotes


def _report(number, message):
    print(f"PASS criterion {number:02d}: {message}")


def test_criterion_01_par_identity():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    for _ in range(200):
        r = rng.uniform(0.0, 0.08)
        h = rng.uniform(0.0, 0.10)
        recovery = rng.choice([0.0, 0.4, 0.7])
        maturity = float(rng.integers(1, 11))
        freq = int(rng.choice([1, 2, 4]))
        base = BaseCurve.flat(r)
        curve = PiecewiseHazardCurve.flat(h, tenor=maturity)
        coupon = measures.par_coupon(maturity, freq, base, curve, recovery)
        price = measures.ccp(maturity, coupon, freq, base, curve, recovery)
        assert abs(price - 1.0) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"200 random par identities within 1e-10 in {elapsed:.3f}s")


def test_criterion_02_credit_triangle():
    # The discrete/continuous premium gap grows like S*(f+h)/2q; with the
    # hazard capped at 5% the 2bp bound holds for short rates up to ~3%.
    worst_cont = 0.0
    worst_disc = 0.0
    for f in (0.0, 0.015, 0.03):
        for h in (0.005, 0.02, 0.05):
            for recovery in (0.0, 0.4):
                for maturity in (1.0, 5.0, 10.0):
                    base = BaseCurve.flat(f)
                    curve = PiecewiseHazardCurve.flat(h, tenor=maturity)
                    target = (1 - recovery) * h / (1 - f / 8.0)
                    cont = pricing.cds_par_spread_continuous(maturity, 4, base, curve, recovery)
                    disc = pricing.cds_par_spread(maturity, 4, base, curve, recovery)
                    worst_cont = max(worst_cont, abs(cont - target))
                    worst_disc = max(worst_disc, abs(disc - cont))
    assert worst_cont < 1e-10
    assert worst_disc < 2e-4
    _report(2, f"flat-curve triangle exact to {worst_cont:.1e}, discrete within "
               f"{worst_disc * 1e4:.2f}bp")


def test_criterion_03_round_trip_fit():
    base = BaseCurve.from_zero_rates(
        [(0.5, 0.02), (2.0, 0.025), (5.0, 0.03), (10.0, 0.035), (30.0, 0.04)]
    )
    truth = SplineSurvivalCurve(SplineBasis(eta=0.025), (0.55, 0.30, 0.15), horizon=20.0)
    quotes = make_round_trip_quotes(base, truth)
    start = time.perf_counter()
    fit = calibration.fit_survival(quotes, base, FitConfig(recovery=0.40))
    elapsed = time.perf_counter() - start
    grid = np.arange(0.0, 15.001, 0.05)
    worst_q = max(abs(fit.curve.survival(t) - truth.survival(t)) for t in grid)
    worst_das = float(np.max(np.abs(fit.das)))
    assert worst_q < 1e-6
    assert worst_das < 0.1e-4
    assert elapsed < 2.0
    _report(3, f"12-bond round trip: max|dQ|={worst_q:.1e}, max|DAS|="
               f"{worst_das * 1e4:.2e}bp in {elapsed:.2f}s")


def test_criterion_04_outlier_robustness():
    base = BaseCurve.from_zero_rates(
        [(0.5, 0.02), (2.0, 0.025), (5.0, 0.03), (10.0, 0.035), (30.0, 0.04)]
    )
    truth = SplineSurvivalCurve(SplineBasis(eta=0.025), (0.55, 0.30, 0.15), horizon=20.0)
    quotes = make_round_trip_quotes(base, truth)
    config = FitConfig(recovery=0.40)
    clean = calibration.fit_survival(quotes, base, config)
    from dataclasses import replace
    bumped = list(quotes)
    bumped[5] = replace(quotes[5], clean_price=quotes[5].clean_price + 0.05)
    fit = calibration.fit_survival(bumped, base, config)
    grid = np.arange(0.0, 15.001, 0.05)
    shift = max(abs(fit.curve.survival(t) - clean.curve.survival(t)) for t in grid)
    assert fit.outlier_weights[5] < 0.2
    assert shift < 5e-4
    _report(4, f"+5pt outlier: weight={fit.outlier_weights[5]:.2e}, "
               f"curve shift sup-norm={shift:.1e}")


# Distressed-issuer relative-value reference table (prices and fitted values
# per 100 face, DAS in bp).  Rows 3 and 4 are internally inconsistent (price
# minus fitted does not equal the quoted residual) and are kept only as fit
# inputs; the five non-zero self-consistent rows drive the sign checks.
TABLE_ROWS = [
    ("cpn-8.25-8.05", 2.13, 0.0825, -68, 0.98, 82.00, 81.02),
    ("cpn-7.625-4.06", 2.79, 0.07625, 107, -1.75, 75.00, 76.75),
    ("cpn-10.5-5.06", 2.82, 0.1050, -97, None, 83.30, 81.30),
    ("cpn-8.75-7.07", 3.77, 0.0875, 68, None, 74.52, 74.52),
    ("cpn-7.875-4.08", 4.76, 0.07875, 55, -1.18, 71.00, 72.18),
    ("cpn-7.75-4.09", 5.79, 0.0775, 0, 0.00, 71.00, 71.00),
    ("cpn-8.625-8.10", 7.13, 0.08625, -13, 0.35, 73.50, 73.15),
    ("cpn-8.5-2.11", 7.63, 0.0850, -71, 2.07, 75.00, 72.93),
]

MID_2003_SWAP = [(0.5, 0.011), (1.0, 0.012), (2.0, 0.016), (3.0, 0.021),
                 (5.0, 0.028), (7.0, 0.033), (10.0, 0.038)]


def test_criterion_05_table_identities(tmp_path):
    rows = ["id,coupon,freq,maturity_years,accrued_years,clean_price,spread_duration"]
    for name, maturity, coupon, _, _, price, _ in TABLE_ROWS:
        n = math.ceil(maturity * 2 - 1e-9)
        rows.append(f"{name},{coupon},2,{maturity},{n / 2 - maturity!r},{price / 100},")
    bonds_csv = tmp_path / "bonds.csv"
    bonds_csv.write_text("\n".join(rows) + "\n")

    base = BaseCurve.from_zero_rates(MID_2003_SWAP)
    quotes = calibration.load_bond_quotes(str(bonds_csv))
    fit = calibration.fit_survival(quotes, base, FitConfig(recovery=0.40))
    checked = 0
    for row, quote, resid, das in zip(TABLE_ROWS, quotes, fit.residuals, fit.das):
        name, _, _, ref_das, ref_resid, price, ref_fitted = row
        if ref_resid is not None:
            # table's own arithmetic for the self-consistent rows
            assert price - ref_fitted == pytest.approx(ref_resid, abs=5e-3)
        fitted = measures.fitted_price(quote.spec, base, fit.curve, 0.40)
        assert quote.clean_price - fitted == pytest.approx(resid, abs=1e-12)
        if ref_resid:  # the five self-consistent rows with non-zero residual
            assert np.sign(resid) == np.sign(ref_resid)
            assert np.sign(das) == np.sign(ref_das)
            checked += 1
    assert checked == 5
    _report(5, "residual identity exact for all 8 bonds from file inputs; "
               "DAS signs match the reference on the 5 self-consistent rows")


def test_criterion_06_cds_fixed_point():
    base = BaseCurve.from_zero_rates(
        [(0.5, 0.02), (2.0, 0.025), (5.0, 0.03), (10.0, 0.035)]
    )
    quotes = [(1.0, 0.0080), (3.0, 0.0120), (5.0, 0.0150), (7.0, 0.0160)]
    curve = calibration.calibrate_from_cds(quotes, base, 0.40)
    worst = max(
        abs(measures.bcds(maturity, base, curve, 0.40) - spread)
        for maturity, spread in quotes
    )
    assert worst < 1e-8
    _report(6, f"bootstrap fixed point reproduces quotes within {worst:.1e}")


def test_criterion_07_hedge_replication():
    base, curve = make_hedge_market()
    bonds = {
        "premium": (BondSpec(coupon=0.08, freq=2, maturity=5.0), 1.3338),
        "discount": (BondSpec(coupon=0.03, freq=2, maturity=5.0), 0.8866),
        "near_par": (BondSpec(coupon=0.0425, freq=2, maturity=5.0), None),
    }
    grid = [i / 4 for i in range(0, 21)]
    worst_pnl = 0.0
    for name, (bond, target) in bonds.items():
        plan = hedging.spot_hedge_notionals(bond, base, curve, HEDGE_RECOVERY, grid)
        for t_def in grid[:-1]:
            forward = hedging.fwd_bond_price(bond, base, curve, HEDGE_RECOVERY, t_def)
            payout = (1 - HEDGE_RECOVERY) * plan.protection_notional(t_def)
            pnl = HEDGE_RECOVERY + payout - forward
            worst_pnl = max(worst_pnl, abs(pnl))
        if target is not None:
            notional = hedging.fwd_hedge_notional(bond, base, curve, HEDGE_RECOVERY, 0.0)
            assert notional == pytest.approx(target, abs=0.005)
    assert worst_pnl < 1e-6
    _report(7, f"staggered-hedge default P&L zero within {worst_pnl:.1e}; forward "
               "notionals open at 133%/89% within 0.5%")


def test_criterion_08_coarse_hedge_dominance():
    rng = np.random.default_rng(23)
    bond = BondSpec(coupon=0.08, freq=2, maturity=5.0)
    for _ in range(50):
        base = BaseCurve.flat(rng.uniform(0.0, 0.06))
        start = rng.uniform(0.004, 0.015)
        steps = np.cumsum(rng.uniform(0.0002, 0.004, 5))
        quotes = [(float(m), start + float(s)) for m, s in zip((1, 2, 3, 4, 5), steps)]
        curve = calibration.calibrate_from_cds(quotes, base, 0.40)
        single = hedging.coarse_hedge(bond, base, curve, 0.40, [5.0])
        combined = hedging.coarse_hedge(bond, base, curve, 0.40,
                                        [1.0, 2.0, 3.0, 4.0, 5.0])
        assert combined.cost <= single.cost + 1e-15
        assert abs(combined.residual_npv) < 1e-10
    _report(8, "two-CDS plan no costlier than single-CDS on 50 random upward "
               "curves; residual NPV < 1e-10")


def test_criterion_09_zero_recovery_equivalence():
    worst = 0.0
    for rates in ([(1.0, 0.02), (5.0, 0.03), (10.0, 0.04)], [(10.0, 0.05)]):
        base = BaseCurve.from_zero_rates(rates)
        for curve in (
            PiecewiseHazardCurve([(2.0, 0.01), (6.0, 0.03), (10.0, 0.05)]),
            SplineSurvivalCurve(SplineBasis(eta=0.04), (0.6, 0.25, 0.15), horizon=12.0),
        ):
            for maturity in (1.0, 4.0, 8.0):
                bond = BondSpec(coupon=0.0, freq=2, maturity=maturity)
                price = pricing.bond_pv_frp(bond, base, curve, 0.0)
                gap = abs(z_spread(bond, price, base) - curve.zz_spread(maturity))
                worst = max(worst, gap)
    assert worst < 1e-10
    _report(9, f"zero-recovery zero-coupon: z-spread equals zz-spread within {worst:.1e}")


def test_criterion_10_spline_smoothness():
    basis = SplineBasis(eta=0.12, size=5, knots=((4, 3.0), (5, 8.0)))
    step = 1e-4
    for k in (4, 5):
        knot = basis.knot_tenor(k)
        value = basis.row(knot)[k - 1]
        slope = (basis.row(knot + step)[k - 1] - basis.row(knot - step)[k - 1]) / (2 * step)
        assert abs(value) < 1e-12
        assert abs(slope) < 1e-6
    _report(10, "knotted factors vanish with zero slope at their knots")
