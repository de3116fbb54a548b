import math

import pytest

from creditcurves import measures, pricing
from creditcurves.calibration import calibrate_from_cds
from creditcurves.conventional import BondSpec, z_spread
from creditcurves.curves import BaseCurve
from creditcurves.rootfind import solve_bracketed
from creditcurves.survival import PiecewiseHazardCurve

RISKLESS = PiecewiseHazardCurve.flat(0.0)


@pytest.fixture
def flat_market():
    return BaseCurve.flat(0.04), PiecewiseHazardCurve.flat(0.03)


class TestParCoupon:
    def test_riskless_limit_is_par_yield(self, base_curve):
        for maturity, freq in ((1.0, 1), (5.0, 2), (7.25, 4)):
            assert measures.par_coupon(maturity, freq, base_curve, RISKLESS, 0.4) == (
                pytest.approx(base_curve.par_yield(maturity, freq), abs=1e-14)
            )

    def test_zero_recovery_against_root_find(self):
        base = BaseCurve.flat(0.0)
        curve = PiecewiseHazardCurve.flat(0.05)
        target = measures.par_coupon(6.0, 2, base, curve, 0.0)

        def par_gap(c):
            bond = BondSpec(coupon=c, freq=2, maturity=6.0)
            return pricing.bond_pv_frp(bond, base, curve, 0.0) - 1.0

        assert target == pytest.approx(solve_bracketed(par_gap, 0.0, 1.0), abs=1e-12)

    def test_summation_oracle(self, flat_market):
        base, curve = flat_market
        annuity = protection = 0.0
        q_prev = 1.0
        for i in range(1, 11):
            t = i / 2
            z, q = base.df(t), curve.survival(t)
            annuity += z * q
            protection += z * (q_prev - q)
            q_prev = q
        survived = base.df(5.0) * curve.survival(5.0)
        expected = 2 * (1 - survived - 0.4 * protection) / (annuity + 0.2 * protection)
        assert measures.par_coupon(5.0, 2, base, curve, 0.4) == pytest.approx(
            expected, abs=1e-15
        )

    def test_par_coupon_prices_bond_at_par(self, base_curve, true_spline_curve):
        for maturity in (1.0, 3.0, 7.0, 12.0):
            coupon = measures.par_coupon(maturity, 2, base_curve, true_spline_curve, 0.4)
            assert measures.ccp(maturity, coupon, 2, base_curve, true_spline_curve, 0.4) == (
                pytest.approx(1.0, abs=1e-10)
            )


class TestPSpread:
    def test_riskless_is_zero(self, base_curve):
        assert measures.p_spread(5.0, 2, base_curve, RISKLESS, 0.4) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_positive_under_default_risk(self, base_curve, true_spline_curve):
        for maturity in (1.0, 5.0, 10.0, 20.0):
            assert measures.p_spread(maturity, 2, base_curve, true_spline_curve, 0.4) > 0.0

    def test_flat_market_value(self, flat_market):
        base, curve = flat_market
        expected = measures.par_coupon(5.0, 2, base, curve, 0.4) - base.par_yield(5.0, 2)
        assert measures.p_spread(5.0, 2, base, curve, 0.4) == pytest.approx(expected)


class TestCcp:
    def test_zero_coupon_zero_recovery_riskless(self, base_curve):
        assert measures.ccp(6.0, 0.0, 2, base_curve, RISKLESS, 0.0) == pytest.approx(
            base_curve.df(6.0), rel=1e-14
        )

    def test_matches_bond_pv(self, base_curve, true_spline_curve):
        bond = BondSpec(coupon=0.08, freq=2, maturity=6.0)
        assert measures.ccp(6.0, 0.08, 2, base_curve, true_spline_curve, 0.4) == (
            pytest.approx(pricing.bond_pv_frp(bond, base_curve, true_spline_curve, 0.4))
        )

    def test_coupon_ordering(self, base_curve, true_spline_curve):
        for maturity in (2.0, 5.0, 10.0):
            values = [measures.ccp(maturity, c, 2, base_curve, true_spline_curve, 0.4)
                      for c in (0.06, 0.08, 0.10)]
            assert values[0] < values[1] < values[2]


class TestBcds:
    def test_fixed_point_of_bootstrap(self, base_curve):
        quotes = [(1.0, 0.0080), (3.0, 0.0120), (5.0, 0.0150), (7.0, 0.0160)]
        curve = calibrate_from_cds(quotes, base_curve, 0.40)
        for maturity, spread in quotes:
            assert abs(measures.bcds(maturity, base_curve, curve, 0.40) - spread) < 1e-8

    def test_riskless_is_zero(self, base_curve):
        assert measures.bcds(5.0, base_curve, RISKLESS, 0.4) == pytest.approx(0.0, abs=1e-14)

    def test_flat_hazard_close_to_triangle(self):
        base, curve = BaseCurve.flat(0.0), PiecewiseHazardCurve.flat(0.02)
        assert measures.bcds(5.0, base, curve, 0.4) == pytest.approx(
            0.6 * 0.02, abs=2e-4
        )

    def test_bcds_from_fitted_curve_matches_corrected_triangle(self):
        # Generate bonds at a flat hazard, fit the spline curve, and check
        # the implied CDS spread against the frequency-corrected triangle.
        from creditcurves.calibration import BondQuote, FitConfig, fit_survival

        f, h, R = 0.03, 0.03, 0.40
        base = BaseCurve.flat(f)
        truth = PiecewiseHazardCurve.flat(h, tenor=15.0)
        quotes = []
        for j, (maturity, coupon) in enumerate(
            [(1, 0.05), (2, 0.06), (3, 0.05), (5, 0.06), (7, 0.05), (10, 0.06)]
        ):
            spec = BondSpec(coupon=coupon, freq=2, maturity=float(maturity))
            price = pricing.bond_pv_frp(spec, base, truth, R)
            quotes.append(BondQuote(id=f"F{j}", spec=spec, clean_price=price))
        fit = fit_survival(quotes, base, FitConfig(eta_grid=(0.01, 0.03, 0.09), recovery=R))
        for maturity in (1.0, 5.0, 10.0):
            spread = measures.bcds(maturity, base, fit.curve, R)
            assert abs(spread - (1 - R) * h / (1 - f / 8)) < 2e-4


class TestForwardCdsSpread:
    def test_flat_curve_forward_equals_spot(self, flat_market):
        base, curve = flat_market
        spot = pricing.cds_par_spread(7.0, 4, base, curve, 0.4)
        fwd = measures.fwd_cds_spread(2.0, 7.0, base, curve, 0.4)
        assert fwd == pytest.approx(spot, abs=1e-9)

    def test_rpv01_weighted_combination(self, base_curve, true_spline_curve):
        t1, t2, R = 2.0, 7.0, 0.4
        s1 = pricing.cds_par_spread(t1, 4, base_curve, true_spline_curve, R)
        s2 = pricing.cds_par_spread(t2, 4, base_curve, true_spline_curve, R)
        kappa = (pricing.rpv01(t1, 4, base_curve, true_spline_curve)
                 / pricing.rpv01(t2, 4, base_curve, true_spline_curve))
        expected = (s2 - kappa * s1) / (1 - kappa)
        assert measures.fwd_cds_spread(t1, t2, base_curve, true_spline_curve, R) == (
            pytest.approx(expected, abs=1e-15)
        )

    def test_non_increasing_rpv01_raises(self, monkeypatch, base_curve, true_spline_curve):
        # The guard is a ValueError, so it also holds under python -O.
        monkeypatch.setattr(pricing.LegTable, "rpv01", lambda self, n: 1.0)
        with pytest.raises(ValueError, match="rpv01 must be increasing"):
            measures.fwd_cds_spread(2.0, 7.0, base_curve, true_spline_curve, 0.4)

    def test_matches_forward_curve_pricing(self, base_curve, true_spline_curve):
        # Re-price the forward CDS off the forward discount and survival
        # functions directly; both routes must agree.
        t1, t2, R = 2.0, 7.0, 0.4
        z1, q1 = base_curve.df(t1), true_spline_curve.survival(t1)
        num = den = 0.0
        q_prev = 1.0
        for i in range(1, int((t2 - t1) * 4) + 1):
            u = t1 + i / 4
            z = base_curve.df(u) / z1
            q = true_spline_curve.survival(u) / q1
            num += z * (q_prev - q)
            den += z * (q_prev + q)
            q_prev = q
        forward_form = 8 * (1 - R) * num / den
        assert measures.fwd_cds_spread(t1, t2, base_curve, true_spline_curve, R) == (
            pytest.approx(forward_form, abs=1e-6)
        )

    def test_upward_slope_pushes_forward_above_spot(self, base_curve):
        curve = PiecewiseHazardCurve([(1.0, 0.01), (3.0, 0.02), (7.0, 0.035)])
        s2 = pricing.cds_par_spread(7.0, 4, base_curve, curve, 0.4)
        assert measures.fwd_cds_spread(2.0, 7.0, base_curve, curve, 0.4) > s2

    def test_domain(self, base_curve, true_spline_curve):
        with pytest.raises(ValueError):
            measures.fwd_cds_spread(0.0, 5.0, base_curve, true_spline_curve, 0.4)
        with pytest.raises(ValueError):
            measures.fwd_cds_spread(5.0, 5.0, base_curve, true_spline_curve, 0.4)


class TestBondSpecificMeasures:
    def test_fitted_price_without_accrual(self, base_curve, true_spline_curve):
        bond = BondSpec(coupon=0.07, freq=2, maturity=5.0)
        assert measures.fitted_price(bond, base_curve, true_spline_curve, 0.4) == (
            pytest.approx(pricing.bond_pv_frp(bond, base_curve, true_spline_curve, 0.4))
        )

    def test_fitted_price_subtracts_accrued(self, base_curve, true_spline_curve):
        bond = BondSpec(coupon=0.08, freq=2, maturity=4.75, accrued_time=0.25)
        dirty = pricing.bond_pv_frp(bond, base_curve, true_spline_curve, 0.4)
        assert measures.fitted_price(bond, base_curve, true_spline_curve, 0.4) == (
            pytest.approx(dirty - 0.02)
        )

    def test_fitted_par_coupon_plain_bond(self, base_curve, true_spline_curve):
        bond = BondSpec(coupon=0.07, freq=2, maturity=5.0)
        assert measures.fitted_par_coupon(bond, base_curve, true_spline_curve, 0.4) == (
            pytest.approx(measures.par_coupon(5.0, 2, base_curve, true_spline_curve, 0.4),
                          abs=1e-14)
        )

    def test_fitted_par_coupon_accrual_raises_it(self, base_curve, true_spline_curve):
        # The accrued time shrinks the annuity denominator, so the fitted
        # par coupon sits above the zero-accrual value on the same schedule.
        seasoned = BondSpec(coupon=0.08, freq=2, maturity=4.75, accrued_time=0.25)
        annuity = protection = 0.0
        q_prev = 1.0
        for t in seasoned.payment_times:
            z, q = base_curve.df(t), true_spline_curve.survival(t)
            annuity += z * q
            protection += z * (q_prev - q)
            q_prev = q
        survived = base_curve.df(4.75) * true_spline_curve.survival(4.75)
        no_accrual = 2 * (1 - survived - 0.4 * protection) / (annuity + 0.2 * protection)
        fitted = measures.fitted_par_coupon(seasoned, base_curve, true_spline_curve, 0.4)
        assert fitted > no_accrual

    def test_fitted_par_coupon_formula_oracle(self):
        base, curve = BaseCurve.flat(0.04), PiecewiseHazardCurve.flat(0.02)
        bond = BondSpec(coupon=0.08, freq=2, maturity=4.25, accrued_time=0.25)
        annuity = protection = 0.0
        q_prev = 1.0
        for t in bond.payment_times:
            z, q = base.df(t), curve.survival(t)
            annuity += z * q
            protection += z * (q_prev - q)
            q_prev = q
        survived = base.df(4.25) * curve.survival(4.25)
        expected = 2 * (1 - survived - 0.4 * protection) / (
            annuity + 0.2 * protection - 2 * 0.25
        )
        assert measures.fitted_par_coupon(bond, base, curve, 0.4) == pytest.approx(
            expected, abs=1e-15
        )

    @pytest.mark.parametrize("freq, maturity, accrued_time", [
        (1, 4.5, 0.5), (2, 4.8, 0.2), (4, 4.9, 0.1),
    ])
    def test_seasoned_bond_at_fitted_par_coupon_prices_to_clean_par(
        self, flat_market, freq, maturity, accrued_time
    ):
        base, curve = flat_market
        spec = BondSpec(coupon=0.05, freq=freq, maturity=maturity, accrued_time=accrued_time)
        coupon = measures.fitted_par_coupon(spec, base, curve, 0.4)
        at_par = BondSpec(coupon=coupon, freq=freq, maturity=maturity, accrued_time=accrued_time)
        clean = pricing.bond_pv_frp(at_par, base, curve, 0.4) - at_par.accrued_interest
        assert clean == pytest.approx(1.0, rel=0, abs=1e-12)

    def test_das_zero_at_fitted_price(self, base_curve, true_spline_curve):
        bond = BondSpec(coupon=0.07, freq=2, maturity=6.0)
        fitted = measures.fitted_price(bond, base_curve, true_spline_curve, 0.4)
        assert abs(measures.das(bond, fitted, base_curve, true_spline_curve, 0.4)) < 1e-12

    def test_das_sign_convention_and_monotonicity(self, base_curve, true_spline_curve):
        bond = BondSpec(coupon=0.07, freq=2, maturity=6.0)
        fitted = measures.fitted_price(bond, base_curve, true_spline_curve, 0.4)
        values = [measures.das(bond, fitted + bump, base_curve, true_spline_curve, 0.4)
                  for bump in (-0.05, -0.02, 0.0, 0.02, 0.05)]
        assert values[0] > values[1] > values[2] > values[3] > values[4]
        assert values[0] > 0.0  # below fitted = cheap = positive DAS

    def test_das_zero_recovery_zero_coupon_identity(self, base_curve, true_spline_curve):
        # For a zero-recovery zero-coupon bond the DAS solver must agree
        # exactly with the conventional route z_spread - zz_spread.
        bond = BondSpec(coupon=0.0, freq=2, maturity=7.0)
        price = 0.6
        das = measures.das(bond, price, base_curve, true_spline_curve, 0.0)
        expected = z_spread(bond, price, base_curve) - true_spline_curve.zz_spread(7.0)
        assert das == pytest.approx(expected, abs=1e-10)

    def test_excess_spread_at_fitted_price(self, base_curve, true_spline_curve):
        bond = BondSpec(coupon=0.07, freq=2, maturity=6.0)
        fitted = measures.fitted_price(bond, base_curve, true_spline_curve, 0.4)
        assert measures.excess_spread(bond, fitted, base_curve, true_spline_curve, 0.4) == (
            pytest.approx(
                measures.fitted_p_spread(bond, base_curve, true_spline_curve, 0.4),
                abs=1e-11,
            )
        )

    @pytest.mark.parametrize("coupon, freq, maturity, accrued_time", [
        (0.07, 2, 6.0, 0.0), (0.05, 4, 9.8, 0.2), (0.0, 1, 3.5, 0.5)])
    def test_excess_spread_is_fitted_p_spread_plus_das_bit_for_bit(
            self, base_curve, true_spline_curve, coupon, freq, maturity, accrued_time):
        bond = BondSpec(coupon=coupon, freq=freq, maturity=maturity, accrued_time=accrued_time)
        for curve in (true_spline_curve, PiecewiseHazardCurve([(2.0, 0.01), (7.0, 0.03)])):
            for price in (0.85, 1.0, 1.1):
                assert measures.excess_spread(bond, price, base_curve, curve, 0.4) == (
                    measures.fitted_p_spread(bond, base_curve, curve, 0.4)
                    + measures.das(bond, price, base_curve, curve, 0.4))

    def test_excess_spread_riskless_bond_is_zero(self, base_curve):
        for t_acc in (0.0, 0.25):
            bond = BondSpec(coupon=0.06, freq=2, maturity=5.0 - t_acc, accrued_time=t_acc)
            price = sum(cf * base_curve.df(t) for t, cf in bond.cash_flows())
            clean = price - bond.accrued_interest
            assert measures.excess_spread(bond, clean, base_curve, RISKLESS, 0.4) == (
                pytest.approx(0.0, abs=1e-11)
            )


class TestTermStructureReport:
    def test_default_grid_shape(self):
        grid = measures.report_grid()
        assert len(grid) == 40
        assert grid[0] == 0.5 and grid[-1] == 30.0
        assert grid[19] == 10.0 and grid[20] == 11.0

    def test_report_rows(self, base_curve, true_spline_curve):
        report = measures.term_structure_report(base_curve, true_spline_curve, 0.4)
        assert len(report.rows) == 40
        assert report.csv_header() == [
            "tenor", "Q", "hazard", "zz_spread", "par_coupon", "p_spread",
            "ccp_6", "ccp_8", "ccp_10", "bcds",
        ]
        for row in report.rows:
            assert row.ccp[0] < row.ccp[1] < row.ccp[2]
            assert math.isfinite(row.bcds)

    def test_zero_hazard_report(self, base_curve):
        report = measures.term_structure_report(base_curve, RISKLESS, 0.4)
        assert max(abs(r.p_spread) for r in report.rows) < 1e-12
        assert max(abs(r.bcds) for r in report.rows) < 1e-12

    def test_flat_hazard_bcds_column(self, base_curve):
        curve = PiecewiseHazardCurve.flat(0.02)
        report = measures.term_structure_report(base_curve, curve, 0.4)
        for row in report.rows:
            assert row.bcds == pytest.approx(0.6 * 0.02, abs=2e-4)

    def test_default_grid_keeps_whole_periods(self, base_curve, true_spline_curve):
        annual = measures.term_structure_report(base_curve, true_spline_curve, 0.4, freq=1)
        years = [float(y) for y in range(1, 31)]
        assert [r.tenor for r in annual.rows] == years
        assert annual == measures.term_structure_report(
            base_curve, true_spline_curve, 0.4, grid=years, freq=1)
        for freq in (2, 4):
            report = measures.term_structure_report(
                base_curve, true_spline_curve, 0.4, freq=freq)
            assert report == measures.term_structure_report(
                base_curve, true_spline_curve, 0.4, grid=measures.report_grid(), freq=freq)

    def test_survival_that_underflows_to_zero_raises_by_name(self):
        # Q(19) = exp(-40 * 19) underflows to 0.0, so its zz_spread has no logarithm.
        curve = PiecewiseHazardCurve([(30.0, 40.0)])
        assert curve.survival(19.0) == 0.0 < curve.survival(18.5)
        with pytest.raises(ValueError, match=r"^survival vanishes at t=19\.0$"):
            measures.term_structure_report(BaseCurve.flat(0.03, 5.0), curve, 0.4)

    def test_a_non_finite_value_raises_naming_the_tenor(self):
        # Z(0.5) = 5e-309 is subnormal, so the par coupon's 1 / annuity overflows to inf.
        with pytest.raises(ValueError, match=r"^non-finite report value at tenor 0\.5$"):
            measures.term_structure_report(BaseCurve([(0.5, 5e-309)]),
                                           PiecewiseHazardCurve.flat(0.02), 0.4)

    @pytest.mark.parametrize("grid", [(), (2.0, 1.0), (1.0, 1.0), (0.0, 1.0), (-1.0,),
                                      (1.0, math.nan), (1.0, math.inf), (1.0, 301.0)])
    def test_bad_grid_raises(self, base_curve, true_spline_curve, grid):
        # The BCDS table's quarterly schedule bounds the grid at MAX_PERIODS / 4 = 300y.
        message = (r"^report grid must be > 0, got \[0\.0, 1\.0\]$" if grid == (0.0, 1.0) else
                   r"^report grid must be non-empty, finite, strictly increasing and within "
                   r"\[0, 300\.0\], got ")
        with pytest.raises(ValueError, match=message):
            measures.term_structure_report(base_curve, true_spline_curve, 0.4, grid=grid)


class TestFittedBaseParCoupon:
    @pytest.mark.parametrize("freq, maturity, accrued_time", [
        (1, 6.5, 0.5), (2, 4.75, 0.25), (2, 10.0, 0.0), (4, 2.9, 0.1),
    ])
    def test_is_the_zero_hazard_zero_recovery_par_coupon(
        self, base_curve, freq, maturity, accrued_time
    ):
        bond = BondSpec(coupon=0.05, freq=freq, maturity=maturity, accrued_time=accrued_time)
        assert measures.fitted_base_par_coupon(bond, base_curve) == measures.fitted_par_coupon(
            bond, base_curve, RISKLESS, 0.0)
