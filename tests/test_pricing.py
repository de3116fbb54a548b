import math
import pickle
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from compensated_sum import builtin_sum, compensated_sum
from conftest import make_round_trip_quotes
from creditcurves import hedging, measures, pricing
from creditcurves.calibration import (
    BondQuote,
    FitConfig,
    calibrate_from_cds,
    fit_survival,
    load_bond_quotes,
)
from creditcurves.conventional import (
    BondSpec,
    FrnSpec,
    discount_margin,
    ytm,
    z_spread,
    z_spread_duration,
)
from creditcurves.curves import MAX_PERIODS, BaseCurve, grid_periods, grid_times
from creditcurves.errors import ParseError, ScheduleError
from creditcurves.pricing import CdsSpec, RecoveryAssumption, TriangleQuotes
from creditcurves.splines import SplineBasis
from creditcurves.survival import (
    PiecewiseHazardCurve,
    SplineSurvivalCurve,
    survival_curve_from_dict,
)


@pytest.fixture
def flat_market():
    return BaseCurve.flat(0.04), PiecewiseHazardCurve.flat(0.02)


def frp_pv_oracle(bond, base, curve, recovery, das=0.0):
    """Term-by-term summation, written independently of the library path."""
    times = bond.payment_times
    pv = base.df(times[-1]) * math.exp(-das * times[-1]) * curve.survival(times[-1])
    for t in times:
        pv += bond.coupon / bond.freq * base.df(t) * math.exp(-das * t) * curve.survival(t)
    q_prev = 1.0
    for t in times:
        q = curve.survival(t)
        pv += (recovery * (1 + bond.coupon / (2 * bond.freq))
               * base.df(t) * math.exp(-das * t) * (q_prev - q))
        q_prev = q
    return pv


def _schedule_terms(maturity, freq, base, curve):
    """(t_i, Z(t_i), Q(t_{i-1}), Q(t_i)) on the schedule i/freq, i = 1..N."""
    n = round(maturity * freq)
    return [(i / freq, base.df(i / freq), curve.survival((i - 1) / freq),
             curve.survival(i / freq)) for i in range(1, n + 1)]


def cds_upfront_oracle(cds, base, curve):
    """Protection less premium less premium accrued to default, period by period."""
    cpn, f, R = cds.contractual_coupon, cds.freq, cds.recovery
    upfront = 0.0
    for _, z, q_prev, q in _schedule_terms(cds.maturity, f, base, curve):
        upfront += (1 - R) * z * (q_prev - q)
        upfront -= cpn / f * z * q
        upfront -= cpn / (2 * f) * z * (q_prev - q)
    return upfront


def rpv01_oracle(maturity, freq, base, curve):
    """Each period's premium is paid on the average of its end-point survivals."""
    return sum(z * 0.5 * (q_prev + q) / freq
               for _, z, q_prev, q in _schedule_terms(maturity, freq, base, curve))


def cds_par_spread_oracle(maturity, freq, base, curve, recovery):
    protection = sum((1 - recovery) * z * (q_prev - q)
                     for _, z, q_prev, q in _schedule_terms(maturity, freq, base, curve))
    return protection / rpv01_oracle(maturity, freq, base, curve)


def par_coupon_oracle(maturity, freq, base, curve, recovery):
    """The FRP price is affine in the coupon: solve it from coupons 0 and 1."""
    p0, p1 = (frp_pv_oracle(BondSpec(coupon=c, freq=freq, maturity=maturity),
                            base, curve, recovery) for c in (0.0, 1.0))
    return (1.0 - p0) / (p1 - p0)


hazard_curves = st.one_of(
    st.floats(0.0, 0.3).map(PiecewiseHazardCurve.flat),
    st.lists(st.floats(0.0, 0.3), min_size=2, max_size=5).map(
        lambda hs: PiecewiseHazardCurve([(1.5 * (i + 1), h) for i, h in enumerate(hs)])
    ),
)


def _safe_base(rates):
    try:
        return BaseCurve.from_zero_rates([(2.5 * (i + 1), r) for i, r in enumerate(rates)])
    except ValueError:  # a falling zero curve can imply a negative forward
        return BaseCurve.flat(rates[0])


base_curves = st.one_of(
    st.floats(0.0, 0.10).map(BaseCurve.flat),
    st.lists(st.floats(0.0, 0.08), min_size=1, max_size=4).map(_safe_base),
)


spline_curves = st.builds(
    lambda eta, w2, w3: SplineSurvivalCurve(SplineBasis(eta=eta), (1.0 - w2 - w3, w2, w3), 30.0),
    st.floats(0.01, 0.1), st.floats(0.0, 0.5), st.floats(0.0, 0.5),
)


def aggregate_oracle(legs, base, curve):
    """The rpv01-weighted mean spread of a plan's legs, one ``pricing.rpv01`` per leg."""
    num = den = 0.0
    for leg in legs:
        pv01 = pricing.rpv01(leg.maturity, 4, base, curve)
        num += leg.notional * leg.spread * pv01
        den += leg.notional * pv01
    return num / den


def test_compensated_sum_is_the_neumaier_sum():
    assert compensated_sum([0.1] * 10) == 1.0  # Python 3.11's sum() gives 0.9999999999999999
    assert compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert compensated_sum([[1], [2]], []) == [1, 2]
    assert type(compensated_sum([])) is int  # as 3.12's sum([]) is 0, not 0.0


def test_sum_free_results_are_the_same_under_either_sum():
    # A 20-year quarterly bond: its 80 flows and the 80 quarterly hedge buckets are sums
    # whose compensated and term-by-term totals differ in the last bits, as are the
    # semiannual annuities of the riskless par yield to 1..30 years.
    base = BaseCurve.from_zero_rates([(0.5, 0.02), (2, 0.025), (5, 0.03), (10, 0.035),
                                      (30, 0.04)])
    curve = PiecewiseHazardCurve([(1.0, 0.01), (3.0, 0.02), (5.0, 0.03), (10.0, 0.035),
                                  (30.0, 0.04)])
    bond = BondSpec(coupon=0.05, freq=4, maturity=20.0)

    def results():
        plans = (hedging.coarse_hedge(bond, base, curve, 0.4, [1.0, 2.0, 3.0, 5.0, 10.0, 20.0]),
                 hedging.spot_hedge_notionals(bond, base, curve, 0.4,
                                              [i / 4 for i in range(81)]))
        return [pricing.bond_pv_frp(bond, base, curve, 0.4).hex()] + [
            [(leg.maturity, leg.notional.hex(), leg.spread.hex()) for leg in plan.legs]
            + [plan.cost.hex(), plan.residual_npv.hex()] for plan in plans] + [
            base.par_yield(float(m), 2).hex() for m in range(1, 31)]

    with mock.patch("builtins.sum", builtin_sum):
        expected = results()
    with mock.patch("builtins.sum", compensated_sum):
        assert results() == expected


class TestLegTable:
    """Every maturity read from one table equals its own walk, bit for bit."""

    def test_a_table_needs_a_date(self):
        with pytest.raises(ValueError, match="^empty payment schedule$"):
            pricing.LegTable([], [], 4)

    @settings(max_examples=30, deadline=None)
    @given(base=base_curves, curve=st.one_of(hazard_curves, spline_curves),
           freq=st.sampled_from([1, 2, 4]), recovery=st.floats(0.0, 0.9))
    def test_report_rows_equal_the_per_tenor_measures(self, base, curve, freq, recovery):
        # Each column and its measure are one formula, so they agree bit for bit whichever
        # float sum() the interpreter has.
        for summing in (builtin_sum, compensated_sum):
            with mock.patch("builtins.sum", summing):
                report = measures.term_structure_report(base, curve, recovery,
                                                        coupons=(0.0, 0.08), freq=freq)
                for row in report.rows:
                    t = row.tenor
                    assert row.par_coupon == measures.par_coupon(t, freq, base, curve, recovery)
                    assert row.p_spread == measures.p_spread(t, freq, base, curve, recovery)
                    assert row.ccp == tuple(measures.ccp(t, c, freq, base, curve, recovery)
                                            for c in (0.0, 0.08))
                    assert row.bcds == measures.bcds(t, base, curve, recovery)

    @settings(max_examples=30, deadline=None)
    @given(base=base_curves, curve=st.one_of(hazard_curves, spline_curves),
           freq=st.sampled_from([1, 2, 4]), periods=st.integers(1, 24),
           coupon=st.floats(0.0, 0.1), recovery=st.floats(0.0, 0.9))
    def test_hedge_legs_and_costs_equal_their_own_walks(
            self, base, curve, freq, periods, coupon, recovery):
        assume(curve.survival(0.25) < 1.0)  # every hedge leg buys some protection
        bond = BondSpec(coupon=coupon, freq=freq, maturity=periods / freq)
        T = bond.maturity
        candidates = sorted({m for m in (1.0, 2.0, 3.0, 5.0) if m < T} | {T})
        coarse = hedging.coarse_hedge(bond, base, curve, recovery, candidates)
        spot = hedging.spot_hedge_notionals(bond, base, curve, recovery,
                                            [i / freq for i in range(periods + 1)])
        for plan in (coarse, spot):
            for leg in plan.legs:
                assert leg.spread == pricing.cds_par_spread(leg.maturity, 4, base, curve, recovery)
            assert plan.cost == aggregate_oracle(plan.legs, base, curve)
        price = measures.fitted_price(bond, base, curve, recovery)
        assert hedging.approx_basis(bond, price, base, curve, curve, recovery, coarse) == (
            measures.excess_spread(bond, price, base, curve, recovery) - coarse.cost)

    def test_one_table_per_schedule(self, monkeypatch, base_curve, true_spline_curve,
                                    hedge_market, hedge_bonds):
        walked = []
        walk = pricing.LegTable.walk.__func__

        def counting(cls, times, *args):
            walked.append(len(times))
            return walk(cls, times, *args)

        monkeypatch.setattr(pricing.LegTable, "walk", classmethod(counting))
        measures.term_structure_report(base_curve, true_spline_curve, 0.4, (0.05, 0.07))
        # The semiannual and the quarterly table, each to 30y; the riskless twin of the
        # semiannual table reuses its discount factors and walks nothing.
        assert walked == [60, 120]
        base, curve = hedge_market
        bond = hedge_bonds["premium"]
        # Each hedge walks the 5y quarterly grid once; a 2y-7y forward spread the 7y grid.
        for call, dates in (
            (lambda: hedging.coarse_hedge(bond, base, curve, 0.5, [1.0, 2.0, 5.0]), 20),
            (lambda: hedging.spot_hedge_notionals(bond, base, curve, 0.5, [0, 1, 2.5, 5]), 20),
            (lambda: measures.fwd_cds_spread(2.0, 7.0, base, curve, 0.5), 28),
        ):
            walked.clear()
            call()
            assert walked == [dates]


    def test_report_discounts_each_table_date_once(self, base_curve, true_spline_curve):
        class CountingBase(BaseCurve):
            calls = 0

            def df(self, t):
                self.calls += 1
                return super().df(t)

        base = CountingBase((t, base_curve.df(t)) for t in base_curve.node_tenors)
        measures.term_structure_report(base, true_spline_curve, 0.4)
        assert base.calls <= 60 + 120

    @pytest.mark.parametrize("freq", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["spline", "piecewise"])
    def test_report_columns_match_the_standalone_measures(
            self, base_curve, true_spline_curve, kind, freq):
        curve = true_spline_curve if kind == "spline" else PiecewiseHazardCurve(
            [(2.0, 0.01), (7.0, 0.025), (15.0, 0.04)])
        report = measures.term_structure_report(base_curve, curve, 0.4, freq=freq)
        for row in report.rows:
            t = row.tenor
            assert row.par_coupon == measures.par_coupon(t, freq, base_curve, curve, 0.4)
            assert row.bcds == measures.bcds(t, base_curve, curve, 0.4)
            assert row.p_spread == measures.p_spread(t, freq, base_curve, curve, 0.4)
            for coupon, price in zip(report.ccp_coupons, row.ccp):
                assert price == measures.ccp(t, coupon, freq, base_curve, curve, 0.4)

    @settings(max_examples=50, deadline=None)
    @given(base=base_curves, curve=st.one_of(hazard_curves, spline_curves),
           freq=st.sampled_from([1, 2, 4]), periods=st.integers(1, 40),
           coupon=st.floats(0.0, 0.2), recovery=st.floats(0.0, 0.9))
    def test_price_is_the_unseasoned_bond_pv_and_par_coupon_its_inverse(
            self, base, curve, freq, periods, coupon, recovery):
        legs = pricing.LegTable.walk(grid_times(40 / freq, freq), freq, base, curve)
        bond = BondSpec(coupon=coupon, freq=freq, maturity=periods / freq)
        assert legs.price(periods, coupon, recovery) == pytest.approx(
            pricing.bond_pv_frp(bond, base, curve, recovery), rel=1e-14, abs=0)
        par = legs.par_coupon(periods, recovery)
        assert legs.price(periods, par, recovery) == pytest.approx(1.0, rel=1e-12, abs=0)


class TestScheduleKernelOracles:
    @given(base=base_curves, curve=hazard_curves, quarters=st.integers(1, 40),
           coupon=st.floats(0.0, 0.1), recovery=st.floats(0.0, 0.9))
    def test_cds_legs(self, base, curve, quarters, coupon, recovery):
        maturity = quarters / 4
        cds = CdsSpec(contractual_coupon=coupon, maturity=maturity, recovery=recovery)
        assert pricing.cds_upfront(cds, base, curve) == pytest.approx(
            cds_upfront_oracle(cds, base, curve), abs=1e-13)
        assert pricing.rpv01(maturity, 4, base, curve) == pytest.approx(
            rpv01_oracle(maturity, 4, base, curve), abs=1e-13)
        assert pricing.cds_par_spread(maturity, 4, base, curve, recovery) == pytest.approx(
            cds_par_spread_oracle(maturity, 4, base, curve, recovery), abs=1e-13)

    @given(base=base_curves, curve=hazard_curves, freq=st.sampled_from([1, 2, 4]),
           periods=st.integers(1, 20), recovery=st.floats(0.0, 0.9))
    def test_par_coupon(self, base, curve, freq, periods, recovery):
        maturity = periods / freq
        assert measures.par_coupon(maturity, freq, base, curve, recovery) == pytest.approx(
            par_coupon_oracle(maturity, freq, base, curve, recovery), abs=1e-13)

    def test_basis_spread_is_das_on_the_cds_curve(self, base_curve):
        curve = calibrate_from_cds([(1.0, 0.008), (3.0, 0.012), (5.0, 0.015)], base_curve, 0.4)
        bond = BondSpec(coupon=0.06, freq=2, maturity=4.75, accrued_time=0.25)
        for price in (0.9, 1.0, 1.1):
            assert hedging.basis_spread(bond, price, base_curve, curve, 0.4) == measures.das(
                bond, price, base_curve, curve, 0.4)


class _CountingBase(BaseCurve):
    """Base curve that records every time it is asked for a discount factor."""

    def __init__(self, nodes):
        super().__init__(nodes)
        self.times = []

    def df(self, t):
        self.times.append(t)
        return super().df(t)


class _CountingHazard(PiecewiseHazardCurve):
    """Hazard curve that records every date it is asked for a survival at, one date
    at a time or a schedule at once."""

    def __init__(self, segments):
        super().__init__(segments)
        self.times = []

    def survival(self, t):
        self.times.append(t)
        return super().survival(t)

    def survivals(self, times):
        self.times.extend(times)
        return super().survivals(times)


_PRICE_BOND = BondSpec(coupon=0.05, freq=2, maturity=4.75, accrued_time=0.25)
_PRICE_BASE, _PRICE_CURVE = BaseCurve.flat(0.03), PiecewiseHazardCurve.flat(0.02)
_PRICED_MEASURES = {
    "das": lambda p: measures.das(_PRICE_BOND, p, _PRICE_BASE, _PRICE_CURVE, 0.4),
    "basis_spread": lambda p: hedging.basis_spread(
        _PRICE_BOND, p, _PRICE_BASE, _PRICE_CURVE, 0.4),
    "z_spread": lambda p: z_spread(_PRICE_BOND, p, _PRICE_BASE),
    "z_spread_duration": lambda p: z_spread_duration(_PRICE_BOND, p, _PRICE_BASE),
    "ytm": lambda p: ytm(_PRICE_BOND, p),
    "discount_margin": lambda p: discount_margin(
        FrnSpec(quoted_margin=0.01, freq=4, maturity=2.0), p, _PRICE_BASE),
}


class TestSpreadSolver:
    def test_das_walks_each_curve_once_per_payment_time(self):
        base = _CountingBase([(2.0, 0.95), (10.0, 0.7)])
        curve = _CountingHazard([(3.0, 0.02), (10.0, 0.03)])
        bond = BondSpec(coupon=0.06, freq=2, maturity=9.75, accrued_time=0.25)
        for solve in (measures.das, hedging.basis_spread):
            for price in (0.8, 0.93, 1.1):
                base.times.clear()
                curve.times.clear()
                spread = solve(bond, price, base, curve, 0.4)
                assert base.times == list(bond.payment_times) == curve.times
                assert pricing.bond_pv_frp(bond, base, curve, 0.4, das=spread) == (
                    pytest.approx(price + bond.accrued_interest, abs=1e-12))

    @pytest.mark.parametrize("coupon, freq, maturity, accrued_time", [
        (0.0, 2, 5.0, 0.0), (0.05, 1, 6.5, 0.5), (0.06, 2, 9.75, 0.25),
        (0.08, 4, 11.9, 0.1), (0.045, 2, 30.0, 0.0),
    ])
    def test_z_spread_is_das_without_default_risk(
        self, base_curve, coupon, freq, maturity, accrued_time
    ):
        bond = BondSpec(coupon=coupon, freq=freq, maturity=maturity, accrued_time=accrued_time)
        riskless = PiecewiseHazardCurve.flat(0.0)
        for price in (0.8, 1.0, 1.25):
            for recovery in (0.0, 0.4):
                assert measures.das(bond, price, base_curve, riskless, recovery) == (
                    pytest.approx(z_spread(bond, price, base_curve), abs=1e-12))

    @given(base=base_curves, curve=hazard_curves, freq=st.sampled_from([1, 2, 4]),
           periods=st.integers(1, 40), coupon=st.floats(0.0, 0.1),
           recovery=st.floats(0.0, 0.9), seasoning=st.floats(0.0, 0.99))
    def test_frp_cash_flows_sum_to_the_price(
        self, base, curve, freq, periods, coupon, recovery, seasoning
    ):
        bond = BondSpec(coupon=coupon, freq=freq, maturity=(periods - seasoning) / freq,
                        accrued_time=seasoning / freq)
        flows = pricing.frp_cash_flows(bond, base, curve, recovery)
        assert len(flows) == len(bond.payment_times)
        assert sum(flows) == pytest.approx(
            frp_pv_oracle(bond, base, curve, recovery), abs=1e-14)


def _counting_payment_times(monkeypatch):
    """Count reads of ``BondSpec.payment_times``, by the bond read."""
    reads, read = [], BondSpec.payment_times.fget

    def counted(bond):
        reads.append(bond)
        return read(bond)

    monkeypatch.setattr(BondSpec, "payment_times", property(counted))
    return reads


class TestOneWalkPerBond:
    """Every FRP bond walk reads the bond's schedule once and each curve once per date."""

    BOND = BondSpec(coupon=0.06, freq=2, maturity=9.75, accrued_time=0.25)

    @pytest.mark.parametrize("walk", [
        lambda bond, base, curve: measures.fitted_price(bond, base, curve, 0.4),
        lambda bond, base, curve: pricing.bond_pv_frp(bond, base, curve, 0.4, das=0.01),
        lambda bond, base, curve: pricing.frp_cash_flows(bond, base, curve, 0.4),
        lambda bond, base, curve: measures.das(bond, 0.93, base, curve, 0.4),
        lambda bond, base, curve: measures.fitted_p_spread(bond, base, curve, 0.4),
        lambda bond, base, curve: measures.excess_spread(bond, 0.93, base, curve, 0.4),
    ], ids=["fitted_price", "bond_pv_frp", "frp_cash_flows", "das", "fitted_p_spread",
            "excess_spread"])
    def test_each_curve_once_per_payment_date_and_one_schedule_read(self, monkeypatch, walk):
        base = _CountingBase([(2.0, 0.95), (10.0, 0.7)])
        curve = _CountingHazard([(3.0, 0.02), (10.0, 0.03)])
        times = list(self.BOND.payment_times)
        reads = _counting_payment_times(monkeypatch)
        walk(self.BOND, base, curve)
        assert base.times == times == curve.times
        assert reads == [self.BOND]

    def test_frp_flows_is_the_walks_flow_rule(self):
        base, curve = BaseCurve.flat(0.03), PiecewiseHazardCurve([(3.0, 0.02), (10.0, 0.03)])
        times = self.BOND.payment_times
        zs, qs = [base.df(t) for t in times], [curve.survival(t) for t in times]
        flows = pricing.frp_flows(self.BOND.coupon, self.BOND.freq, 0.4, zs, qs)
        assert pricing.frp_walk(self.BOND, base, curve, 0.4) == (times, flows)
        # Its legs are the table's, bit for bit.
        legs = pricing.LegTable.walk(times, self.BOND.freq, base, curve)
        cpn, load = pricing.frp_coefficients(self.BOND.coupon, self.BOND.freq)
        assert flows[:-1] == [cpn * a + 0.4 * load * p for a, p in zip(legs.zq, legs.zdq)][:-1]
        assert flows[-1] == cpn * legs.zq[-1] + 0.4 * load * legs.zdq[-1] + legs.zq[-1]
        with pytest.raises(ValueError, match="recovery must be in"):
            pricing.frp_flows(0.05, 2, 1.0, zs, qs)

    def test_fit_survival_reads_each_discount_factor_and_schedule_once(
        self, monkeypatch, true_spline_curve
    ):
        base = _CountingBase([(0.5, 0.99), (2.0, 0.95), (5.0, 0.86), (10.0, 0.7), (30.0, 0.3)])
        quotes = make_round_trip_quotes(base, true_spline_curve)
        dates = [t for q in quotes for t in q.spec.payment_times]
        base.times.clear()
        reads = _counting_payment_times(monkeypatch)
        fit = fit_survival(quotes, base)
        # One df per payment date: the DAS pass reuses the precompute's discount factors.
        assert base.times == dates
        assert reads == [q.spec for q in quotes]
        assert fit.das.tolist() == [
            measures.das(q.spec, q.clean_price, base, fit.curve, 0.4) for q in quotes]


@pytest.mark.parametrize("name", sorted(_PRICED_MEASURES))
@given(price=st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]),
                       st.floats(max_value=-_PRICE_BOND.accrued_interest)))
def test_price_not_finite_and_positive_raises_value_error(name, price):
    with pytest.raises(ValueError, match=r"price must be finite and > 0, got"):
        _PRICED_MEASURES[name](price)


class TestGridTimes:
    def test_whole_periods(self):
        assert grid_periods(1.0, 4) == 4 and type(grid_periods(1.0, 4)) is int
        assert grid_periods(3.0 + 5e-9 / 2, 2) == 6
        assert grid_times(1.0, 4) == (0.25, 0.5, 0.75, 1.0)
        assert grid_times(0.5, 2) == (0.5,)
        assert grid_times(3.0 + 5e-9 / 2, 2) == tuple(i / 2 for i in range(1, 7))

    @pytest.mark.parametrize("span, freq", [
        (5.1, 4),            # off the grid
        (3.0 + 2e-8, 2),     # off by more than the 1e-8 period tolerance
        (0.0, 4),            # zero periods
        (0.1, 4),            # shorter than one period, rounds to zero
        (-1.0, 2),
        (math.nan, 4),
        (math.inf, 4),
        (-math.inf, 2),
    ])
    def test_rejects_and_names_the_span(self, span, freq):
        with pytest.raises(ScheduleError, match=f"span {span!r} "):
            grid_times(span, freq)

    def test_period_count_is_bounded(self, tmp_path):
        assert len(grid_times(100.0, 12)) == MAX_PERIODS
        for span, freq in ((100.0 + 1 / 12, 12), (1e9, 2), (1e300, 1)):
            with pytest.raises(ScheduleError, match=re.escape(f"span {span!r} has more than")):
                grid_times(span, freq)
        with pytest.raises(ScheduleError, match="span 1000000000.0 "):
            BondSpec(coupon=0.05, freq=2, maturity=1e9)
        path = tmp_path / "bonds.csv"
        path.write_text("id,coupon,freq,maturity_years,accrued_years,clean_price\n"
                        "B1,0.05,2,1e9,0.0,1.0\n")
        with pytest.raises(ParseError, match="row 2: span 1000000000.0 has more than"):
            load_bond_quotes(str(path))


_SPLINE = SplineSurvivalCurve(SplineBasis(eta=0.05), (0.6, 0.3, 0.1))
_NON_FINITE_INPUTS = {
    "bond coupon": lambda x: BondSpec(coupon=x, freq=2, maturity=5.0),
    "bond maturity": lambda x: BondSpec(coupon=0.05, freq=2, maturity=x),
    "bond accrued_time": lambda x: BondSpec(coupon=0.05, freq=2, maturity=5.0, accrued_time=x),
    "cds contractual_coupon": lambda x: CdsSpec(contractual_coupon=x, maturity=5.0),
    "cds maturity": lambda x: CdsSpec(contractual_coupon=0.01, maturity=x),
    "cds recovery": lambda x: CdsSpec(contractual_coupon=0.01, maturity=5.0, recovery=x),
    "frn quoted_margin": lambda x: FrnSpec(quoted_margin=x, freq=4, maturity=2.0),
    "frn maturity": lambda x: FrnSpec(quoted_margin=0.01, freq=4, maturity=x),
    "frn fixings": lambda x: FrnSpec(quoted_margin=0.01, freq=4, maturity=0.5,
                                     fixings=(0.02, x)),
    "quote clean_price": lambda x: BondQuote("q", BondSpec(0.05, 2, 5.0), clean_price=x),
    "fit eta_grid": lambda x: FitConfig(eta_grid=(0.05, x)),
    "fit recovery": lambda x: FitConfig(recovery=x),
    "cds quote spread": lambda x: calibrate_from_cds(
        [(1.0, 0.01), (3.0, x)], BaseCurve.flat(0.03), 0.4),
    "recovery principal": RecoveryAssumption,
    "hazard rate": lambda x: PiecewiseHazardCurve([(1.0, 0.01), (3.0, x)]),
    "hazard tenor": lambda x: PiecewiseHazardCurve([(1.0, 0.01), (x, 0.02)]),
    "spline beta": lambda x: SplineSurvivalCurve(SplineBasis(eta=0.05), (0.6, x, 0.1)),
    "spline horizon": lambda x: SplineSurvivalCurve(SplineBasis(eta=0.05), (1.0, 0.0, 0.0), x),
    "basis eta": lambda x: SplineBasis(eta=x),
    "curve json beta": lambda x: survival_curve_from_dict(
        {"type": "spline", "eta": 0.05, "beta": [0.7, x, 0.1]}),
    "curve json eta": lambda x: survival_curve_from_dict(
        {"type": "spline", "eta": x, "beta": [1.0]}),
    "base node tenor": lambda x: BaseCurve([(1.0, 0.97), (x, 0.9)]),
    "base node df": lambda x: BaseCurve([(1.0, x)]),
    "df time": lambda x: BaseCurve.flat(0.03).df(x),
    "fwd_rate time": lambda x: BaseCurve.flat(0.03).fwd_rate(x),
    "zero_rate time": lambda x: BaseCurve.flat(0.03).zero_rate(x),
    "par_yield maturity": lambda x: BaseCurve.flat(0.03).par_yield(x, 2),
    "piecewise survival time": lambda x: PiecewiseHazardCurve.flat(0.0).survival(x),
    "piecewise hazard time": lambda x: PiecewiseHazardCurve.flat(0.02).hazard(x),
    "spline survival time": _SPLINE.survival,
    "spline hazard time": _SPLINE.hazard,
    "zz_spread tenor": lambda x: _SPLINE.zz_spread(x),
    "default_prob time": lambda x: _SPLINE.default_prob(0.5, x),
    "grid span": lambda x: grid_times(x, 4),
    "rfc point": lambda x: hedging.RfcPoint(1.0, x),
    "par spread maturity": lambda x: pricing.cds_par_spread(
        x, 4, BaseCurve.flat(0.03), PiecewiseHazardCurve.flat(0.02), 0.4),
}


@pytest.mark.parametrize("field", sorted(_NON_FINITE_INPUTS))
@given(value=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_input_raises_a_typed_error(field, value):
    with pytest.raises((ValueError, ScheduleError, ParseError)):
        _NON_FINITE_INPUTS[field](value)


# A string or a bool where a number belongs: (field the error names, constructor call).
_MISTYPED_INPUTS = {
    "bond coupon string": ("coupon", lambda: BondSpec("0.05", 2, 5.0)),
    "bond maturity string": ("maturity", lambda: BondSpec(0.05, 2, "5")),
    "cds coupon string": ("contractual_coupon", lambda: CdsSpec("0.01", 5.0)),
    "basis eta string": ("eta", lambda: SplineBasis(eta="0.05")),
    "basis size float": ("size", lambda: SplineBasis(eta=0.05, size=2.0)),
    "bond coupon bool": ("coupon", lambda: BondSpec(True, 2, 5.0)),
    "bond freq bool": ("freq", lambda: BondSpec(0.05, True, 5.0)),
    "cds coupon bool": ("contractual_coupon", lambda: CdsSpec(True, 5.0)),
    "basis eta bool": ("eta", lambda: SplineBasis(eta=True)),
    "fit factors float": ("factors", lambda: FitConfig(factors=2.0)),
    "fit factors bool": ("factors", lambda: FitConfig(factors=True)),
}


@pytest.mark.parametrize("case", sorted(_MISTYPED_INPUTS))
def test_mistyped_number_raises_naming_its_field(case):
    field, call = _MISTYPED_INPUTS[case]
    with pytest.raises(ValueError, match=f"^{field} must be an? (real number|integer), got "):
        call()


_FLAT = (BaseCurve.flat(0.03), PiecewiseHazardCurve.flat(0.02))
_RECOVERY_INPUTS = {
    "par_coupon": ("recovery", lambda x: measures.par_coupon(5.0, 2, *_FLAT, x)),
    "fitted_par_coupon": ("recovery", lambda x: measures.fitted_par_coupon(
        BondSpec(0.05, 2, 5.0), *_FLAT, x)),
    "bond_pv_frp": ("recovery", lambda x: pricing.bond_pv_frp(BondSpec(0.05, 2, 5.0), *_FLAT, x)),
    "recovery_swap_hedge rs": ("rs_rate", lambda x: pricing.recovery_swap_hedge(x, 0.2)),
    "recovery_swap_hedge dds": ("dds_recovery", lambda x: pricing.recovery_swap_hedge(0.4, x)),
    "dds_spread_from_cds rs": ("rs_rate", lambda x: pricing.dds_spread_from_cds(0.01, 0.2, x)),
    "dds_spread_from_cds dds": ("dds_recovery",
                                lambda x: pricing.dds_spread_from_cds(0.01, x, 0.4)),
    "credit_triangle_hazard": ("rs_rate", lambda x: pricing.credit_triangle_hazard(0.01, x)),
    "calibrate_from_cds": ("rs_rate", lambda x: calibrate_from_cds([(1.0, 0.01)], _FLAT[0], x)),
    "CdsSpec": ("recovery", lambda x: CdsSpec(contractual_coupon=0.01, maturity=5.0, recovery=x)),
    "TriangleQuotes rs": ("rs_rate", lambda x: TriangleQuotes(0.01, 0.02, 0.2, x)),
    "TriangleQuotes dds": ("dds_recovery", lambda x: TriangleQuotes(0.01, 0.02, x, 0.4)),
    "FitConfig": ("recovery", lambda x: FitConfig(recovery=x)),
    "RecoveryAssumption": ("principal", RecoveryAssumption),
}


@pytest.mark.parametrize("field", sorted(_RECOVERY_INPUTS))
@given(value=st.sampled_from([math.nan, math.inf, -math.inf, -0.1, 1.0, 1.5]))
def test_recovery_outside_unit_interval_raises_naming_it(field, value):
    name, call = _RECOVERY_INPUTS[field]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be in [0, 1), got")):
        call(value)


_BOND = BondSpec(0.05, 2, 5.0)
_FINITE_ARGUMENTS = {
    "bond_pv_frp das": ("das", lambda x: pricing.bond_pv_frp(_BOND, *_FLAT, 0.4, das=x)),
    "bond_price_continuous das": ("das", lambda x: pricing.bond_price_continuous(
        _BOND, *_FLAT, 0.4, das=x)),
    "cds_par_spread_continuous maturity": ("maturity", lambda x: (
        pricing.cds_par_spread_continuous(x, 4, *_FLAT, 0.4))),
    "survival_discount_integrals t0": ("t0", lambda x: pricing.survival_discount_integrals(
        *_FLAT, x, 1.0)),
    "survival_discount_integrals t1": ("t1", lambda x: pricing.survival_discount_integrals(
        *_FLAT, 0.0, x)),
    "survival_discount_integrals extra_decay": ("extra_decay", lambda x: (
        pricing.survival_discount_integrals(*_FLAT, 0.0, 1.0, extra_decay=x))),
}


@pytest.mark.parametrize("field", sorted(_FINITE_ARGUMENTS))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_argument_raises_naming_it(field, value):
    name, call = _FINITE_ARGUMENTS[field]
    with pytest.raises(ValueError, match=f"{name} .*must be finite"):
        call(value)


@pytest.mark.parametrize("maturity", [-1.0, 0.0])
def test_continuous_par_spread_needs_a_positive_maturity(maturity):
    with pytest.raises(ValueError, match="maturity must be finite and > 0, got"):
        pricing.cds_par_spread_continuous(maturity, 4, *_FLAT, 0.4)


@pytest.mark.parametrize("call, message", [
    # No discounting left: Z = 0 on the only date leaves the premium annuity at 0.
    (lambda: pricing.LegTable([0.0], [1.0], 4).par_spread(1, 0.4),
     "degenerate premium annuity"),
    # A flat rate of 3 > 2 * freq outweighs the annuity in the f/2q discounting correction.
    (lambda: pricing.cds_par_spread_continuous(5.0, 1, BaseCurve.flat(3.0), _FLAT[1], 0.4),
     "degenerate premium annuity"),
    # An annual bond 0.99y into its last period at hazard 50: the accrued 0.99 outweighs
    # the annuity Z * Q(0.01), Q(0.01) = exp(-0.5).
    (lambda: measures.fitted_par_coupon(BondSpec(0.05, 1, 0.01, accrued_time=0.99),
                                        BaseCurve.flat(0.03), PiecewiseHazardCurve.flat(50.0),
                                        0.4),
     "non-positive par-coupon denominator"),
], ids=["leg table par spread", "continuous par spread", "par coupon"])
def test_a_degenerate_denominator_raises(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("t0, t1", [(1.0, 1.0), (2.0, 1.0)])
def test_survival_discount_integrals_over_no_interval_are_zero(t0, t1):
    assert pricing.survival_discount_integrals(*_FLAT, t0, t1) == (0.0, 0.0, 0.0)


class TestDomainTypes:
    def test_recovery_assumption(self):
        rec = RecoveryAssumption(0.4)
        assert rec.rate == 0.4 and rec.accrued == 0.4
        with pytest.raises(ValueError):
            RecoveryAssumption(1.0)
        with pytest.raises(ValueError):
            RecoveryAssumption(0.4, accrued=0.3)

    def test_recovery_assumption_is_its_rate(self, base_curve, true_spline_curve):
        rec = RecoveryAssumption(0.4, accrued=0.4)
        assert isinstance(rec, float) and rec == 0.4 and rec.principal == 0.4
        assert type(rec.rate) is float
        assert pickle.loads(pickle.dumps(rec)) == rec
        bond = BondSpec(coupon=0.06, freq=2, maturity=5.0)
        assert pricing.bond_pv_frp(bond, base_curve, true_spline_curve, rec) == (
            pricing.bond_pv_frp(bond, base_curve, true_spline_curve, 0.4))

    def test_cds_spec(self):
        with pytest.raises(ValueError):
            CdsSpec(contractual_coupon=0.01, maturity=5.0, recovery=1.2)
        with pytest.raises(Exception):
            CdsSpec(contractual_coupon=0.01, maturity=5.1)  # off the quarterly grid

    def test_triangle_quotes(self):
        TriangleQuotes(cds_spread=0.01, dds_spread=0.02, dds_recovery=0.0, rs_rate=0.5)
        with pytest.raises(ValueError):
            TriangleQuotes(cds_spread=0.01, dds_spread=0.02, dds_recovery=1.0, rs_rate=0.5)

    @pytest.mark.parametrize("name", ["cds_spread", "dds_spread"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_triangle_quotes_non_finite_spread_names_it(self, name, value):
        fields = dict(cds_spread=0.01, dds_spread=0.02, dds_recovery=0.2, rs_rate=0.4)
        with pytest.raises(ValueError, match=f"{name} must be finite, got"):
            TriangleQuotes(**{**fields, name: value})


class TestBondPvFrp:
    def test_riskless_limit_matches_cash_flow_pv(self, base_curve):
        bond = BondSpec(coupon=0.06, freq=2, maturity=4.0)
        riskless = PiecewiseHazardCurve.flat(0.0)
        expected = sum(cf * base_curve.df(t) for t, cf in bond.cash_flows())
        assert pricing.bond_pv_frp(bond, base_curve, riskless, 0.4) == pytest.approx(
            expected, abs=1e-14
        )

    def test_zero_recovery_zero_coupon(self, base_curve):
        bond = BondSpec(coupon=0.0, freq=2, maturity=6.0)
        curve = PiecewiseHazardCurve.flat(0.03)
        expected = base_curve.df(6.0) * curve.survival(6.0)
        assert pricing.bond_pv_frp(bond, base_curve, curve, 0.0) == pytest.approx(
            expected, rel=1e-14
        )

    def test_one_year_semiannual_value(self):
        base = BaseCurve.flat(0.0)
        curve = PiecewiseHazardCurve.flat(0.02)
        bond = BondSpec(coupon=0.06, freq=2, maturity=1.0)
        pv = pricing.bond_pv_frp(bond, base, curve, 0.4)
        q1, q2 = math.exp(-0.01), math.exp(-0.02)
        by_hand = q2 + 0.03 * (q1 + q2) + 0.4 * 1.015 * (1.0 - q2)
        assert pv == pytest.approx(by_hand, abs=1e-15)
        assert pv == pytest.approx(1.047346, abs=1e-6)

    def test_matches_oracle_with_das_and_accrual(self, base_curve, true_spline_curve):
        bond = BondSpec(coupon=0.07, freq=4, maturity=5.4, accrued_time=0.1)
        for das in (0.0, 0.012):
            assert pricing.bond_pv_frp(
                bond, base_curve, true_spline_curve, 0.4, das=das
            ) == pytest.approx(
                frp_pv_oracle(bond, base_curve, true_spline_curve, 0.4, das), abs=1e-14
            )

    def test_decreasing_in_parallel_hazard_shift(self, base_curve):
        bond = BondSpec(coupon=0.06, freq=2, maturity=7.0)
        pvs = []
        for shift in (0.0, 0.005, 0.02, 0.06, 0.15):
            curve = PiecewiseHazardCurve(
                [(1.0, 0.01 + shift), (3.0, 0.02 + shift), (7.0, 0.035 + shift)]
            )
            pvs.append(pricing.bond_pv_frp(bond, base_curve, curve, 0.4))
        assert all(b < a for a, b in zip(pvs, pvs[1:]))


class TestCdsLegs:
    def test_upfront_without_hazard_is_negative_annuity(self, base_curve):
        cds = CdsSpec(contractual_coupon=0.01, maturity=5.0)
        riskless = PiecewiseHazardCurve.flat(0.0)
        expected = -0.01 / 4 * sum(base_curve.df(i / 4) for i in range(1, 21))
        assert pricing.cds_upfront(cds, base_curve, riskless) == pytest.approx(
            expected, rel=1e-12
        )

    def test_upfront_zero_at_par(self, flat_market):
        base, curve = flat_market
        par = pricing.cds_par_spread(5.0, 4, base, curve, 0.4)
        cds = CdsSpec(contractual_coupon=par, maturity=5.0, recovery=0.4)
        assert abs(pricing.cds_upfront(cds, base, curve)) < 1e-12

    def test_upfront_summation_oracle(self):
        base, curve = BaseCurve.flat(0.02), PiecewiseHazardCurve.flat(0.03)
        cds = CdsSpec(contractual_coupon=0.01, maturity=5.0, recovery=0.4)
        prem = prot = 0.0
        q_prev = 1.0
        for i in range(1, 21):
            t = i / 4
            z, q = base.df(t), curve.survival(t)
            prem += z * q
            prot += z * (q_prev - q)
            q_prev = q
        expected = (1 - 0.4 - 0.01 / 8) * prot - 0.01 / 4 * prem
        assert pricing.cds_upfront(cds, base, curve) == pytest.approx(expected, abs=1e-15)

    def test_par_spread_riskless_is_zero(self, base_curve):
        assert pricing.cds_par_spread(
            5.0, 4, base_curve, PiecewiseHazardCurve.flat(0.0), 0.4
        ) == pytest.approx(0.0, abs=1e-15)

    def test_par_spread_flat_zero_rate_triangle(self):
        base, curve = BaseCurve.flat(0.0), PiecewiseHazardCurve.flat(0.015)
        spread = pricing.cds_par_spread(5.0, 4, base, curve, 0.4)
        assert spread == pytest.approx((1 - 0.4) * 0.015, abs=1e-6)

    def test_par_spread_summation_oracle(self, flat_market):
        base, curve = flat_market
        num = den = 0.0
        q_prev = 1.0
        for i in range(1, 21):
            t = i / 4
            z, q = base.df(t), curve.survival(t)
            num += z * (q_prev - q)
            den += z * (q_prev + q)
            q_prev = q
        expected = 8 * (1 - 0.4) * num / den
        assert pricing.cds_par_spread(5.0, 4, base, curve, 0.4) == pytest.approx(
            expected, abs=1e-15
        )

    def test_rpv01_riskless_zero_rate_is_maturity(self):
        base, curve = BaseCurve.flat(0.0), PiecewiseHazardCurve.flat(0.0)
        assert pricing.rpv01(5.0, 4, base, curve) == pytest.approx(5.0, abs=1e-12)
        assert pricing.rpv01(0.25, 4, base, curve) == pytest.approx(0.25, abs=1e-12)

    def test_rpv01_summation_oracle(self, flat_market):
        base, curve = flat_market
        q_prev, acc = 1.0, 0.0
        for i in range(1, 21):
            t = i / 4
            q = curve.survival(t)
            acc += base.df(t) * (q_prev + q)
            q_prev = q
        assert pricing.rpv01(5.0, 4, base, curve) == pytest.approx(acc / 8, abs=1e-15)

    def test_mtm_identities(self, flat_market):
        base, curve = flat_market
        assert pricing.cds_mtm(CdsSpec(0.02, 5.0), 0.02, 4.5) == 0.0
        assert pricing.cds_mtm(CdsSpec(0.01, 5.0), 0.02, 4.5) == pytest.approx(0.045)
        assert pricing.cds_mtm(CdsSpec(0.05, 5.0), 0.01, 4.5) < 0.0
        # consistency with the direct upfront computation
        cds = CdsSpec(contractual_coupon=0.0125, maturity=7.0, recovery=0.4)
        par = pricing.cds_par_spread(7.0, 4, base, curve, 0.4)
        pv01 = pricing.rpv01(7.0, 4, base, curve)
        assert pricing.cds_mtm(cds, par, pv01) == pytest.approx(
            pricing.cds_upfront(cds, base, curve), abs=1e-12
        )


class TestRecoveryContracts:
    def test_hedge_ratio_examples(self):
        assert pricing.recovery_swap_hedge(0.4, 0.0) == (1.0, 0.6)
        assert pricing.recovery_swap_hedge(0.3, 0.3)[1] == pytest.approx(1.0)

    @given(
        realized=st.floats(min_value=0.0, max_value=0.999),
        rs=st.floats(min_value=0.0, max_value=0.95),
        dds=st.floats(min_value=0.0, max_value=0.95),
    )
    def test_default_leg_nets_to_zero(self, realized, rs, dds):
        h_cds, h_dds = pricing.recovery_swap_hedge(rs, dds)
        net = (rs - realized) + h_dds * (1 - dds) - h_cds * (1 - realized)
        assert abs(net) < 1e-12

    def test_replication_cash_flows_all_scenarios(self):
        # Full static-replication simulation: payer recovery swap hedged by
        # long DDS / short CDS with no-arbitrage spreads.  Upfronts are zero
        # by construction; the quarterly premium nets to zero, so the
        # survival scenario carries no imbalance, and the default payment
        # nets to zero at every grid date for every realized recovery.
        rng = np.random.default_rng(7)
        grid = [i / 4 for i in range(1, 21)]
        for _ in range(100):
            realized, rs, dds = rng.uniform(0.0, 0.95, 3)
            s_cds = rng.uniform(0.001, 0.05)
            s_dds = pricing.dds_spread_from_cds(s_cds, dds, rs)
            h_cds, h_dds = pricing.recovery_swap_hedge(rs, dds)
            premium_net = (-h_dds * s_dds + h_cds * s_cds) / 4
            assert abs(premium_net) < 1e-15
            for t_def in grid:
                paid_premiums = premium_net * sum(1 for t in grid if t < t_def)
                default_net = (rs - realized) + h_dds * (1 - dds) - h_cds * (1 - realized)
                assert abs(paid_premiums + default_net) < 1e-12

    def test_dds_spread_examples(self):
        assert pricing.dds_spread_from_cds(0.01, 0.0, 0.5) == pytest.approx(0.02)
        assert pricing.dds_spread_from_cds(0.013, 0.4, 0.4) == pytest.approx(0.013)

    def test_credit_triangle_examples(self):
        assert pricing.credit_triangle_hazard(0.03, 0.4) == pytest.approx(0.05)
        assert pricing.credit_triangle_hazard(0.03, 0.0) == pytest.approx(0.03)

    def test_credit_triangle_continuous_premium_limit(self):
        # At r = 0 and dense premium payments the par spread converges to
        # the triangle value (1 - R) h.
        base = BaseCurve.flat(0.0)
        curve = PiecewiseHazardCurve.flat(0.02)
        spread = pricing.cds_par_spread(5.0, 128, base, curve, 0.4)
        assert spread == pytest.approx(0.6 * 0.02, abs=1e-6)


# Valid: Q rises above the knot by less than 1e-13 / 3, within the curve's tolerance.
STEEP_KNOTTED = SplineSurvivalCurve(SplineBasis(eta=10.0, size=4, knots=((4, 24.0),)),
                                    (1.0 - 1e-13, 0.0, 0.0, 1e-13), horizon=30.0)
KNOTTED_CURVE = SplineSurvivalCurve(SplineBasis(eta=0.12, size=5, knots=((4, 3.0), (5, 8.0))),
                                    (0.55, 0.30, 0.15, 0.05, -0.05), horizon=20.0)


class TestContinuousTime:
    def test_zero_coupon_zero_recovery_closed_form(self):
        base, curve = BaseCurve.flat(0.05), PiecewiseHazardCurve.flat(0.03)
        bond = BondSpec(coupon=0.0, freq=2, maturity=6.0)
        for das in (0.0, 0.01):
            expected = math.exp(-(0.05 + 0.03 + das) * 6.0)
            assert pricing.bond_price_continuous(
                bond, base, curve, 0.0, das=das
            ) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("freq", [1, 2, 4])
    def test_continuous_par_coupon_prices_at_par(self, freq):
        r = 0.04
        base, riskless = BaseCurve.flat(r), PiecewiseHazardCurve.flat(0.0)
        coupon = r / (1 - r / (2 * freq))
        bond = BondSpec(coupon=coupon, freq=freq, maturity=5.0)
        assert pricing.bond_price_continuous(bond, base, riskless, 0.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_discrete_par_coupon_approaches_par_with_frequency(self):
        base, riskless = BaseCurve.flat(0.04), PiecewiseHazardCurve.flat(0.0)
        gaps = []
        for freq in (1, 2, 4):
            bond = BondSpec(coupon=base.par_yield(5.0, freq), freq=freq, maturity=5.0)
            gaps.append(abs(pricing.bond_price_continuous(bond, base, riskless, 0.0) - 1.0))
        assert gaps[2] < gaps[1] < gaps[0] < 1e-4

    def test_close_to_discrete_price(self):
        # Empirical bound for the discrete/continuous gap on this family;
        # the recovery-timing convention differs between the two forms.
        base, curve = BaseCurve.flat(0.05), PiecewiseHazardCurve.flat(0.03)
        for coupon in np.arange(0.0, 0.101, 0.02):
            bond = BondSpec(coupon=float(coupon), freq=2, maturity=5.0)
            gap = abs(
                pricing.bond_price_continuous(bond, base, curve, 0.4)
                - pricing.bond_pv_frp(bond, base, curve, 0.4)
            )
            assert gap < 1e-3

    def test_quadrature_oracle_sloped_curves(self, base_curve, true_spline_curve):
        R, das = 0.4, 0.005
        # (curve, maturity): the knotted bonds cross every knot, the steep one the horizon too.
        for curve, T in ((true_spline_curve, 8.0), (KNOTTED_CURVE, 12.0), (STEEP_KNOTTED, 35.0)):
            bond = BondSpec(coupon=0.06, freq=2, maturity=T)

            def zq(u, curve=curve):
                return base_curve.df(u) * curve.survival(u) * math.exp(-das * u)

            # Tight quadrature, split at the kinks: the steep curve's integrand is
            # exp(-10 u) near 0, which the default tolerances leave 4e-9 off.
            opts = dict(limit=400, epsabs=1e-14, epsrel=1e-13, points=[
                x for x in base_curve.node_tenors + curve._breakpoints() if x < T])
            i_zq, _ = quad(zq, 0.0, T, **opts)
            i_hzq, _ = quad(lambda u: curve.hazard(u) * zq(u), 0.0, T, **opts)
            survived = zq(T)
            expected = (0.06 * i_zq + survived - 0.06 / 4 * (1 - survived)
                        + R * (1 + 0.06 / 4) * i_hzq)
            assert pricing.bond_price_continuous(
                bond, base_curve, curve, R, das=das
            ) == pytest.approx(expected, abs=1e-9)

    def test_a_steep_knotted_curve_prices_without_overflow(self, base_curve):
        # 3 eta T = 720 at the knot: terms in absolute time would need exp(720).
        bond = BondSpec(coupon=0.06, freq=2, maturity=35.0)
        assert math.isfinite(pricing.cds_par_spread_continuous(
            35.0, 4, base_curve, STEEP_KNOTTED, 0.4))
        for t in (1.0, 24.5, 34.0):
            assert math.isfinite(hedging.fwd_bond_price(bond, base_curve, STEEP_KNOTTED, 0.4, t))

    def test_par_cds_continuous_flat_identity(self):
        for f, h, R, freq in [(0.04, 0.02, 0.4, 4), (0.0, 0.015, 0.4, 4),
                              (0.06, 0.05, 0.0, 4), (0.03, 0.001, 0.7, 2)]:
            base, curve = BaseCurve.flat(f), PiecewiseHazardCurve.flat(h)
            expected = (1 - R) * h / (1 - f / (2 * freq)) if h else 0.0
            assert pricing.cds_par_spread_continuous(
                5.0, freq, base, curve, R
            ) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("freq", [0, -4, math.nan])
    def test_par_cds_continuous_bad_freq_names_it(self, freq):
        with pytest.raises(ValueError, match="freq must be > 0, got"):
            pricing.cds_par_spread_continuous(5.0, freq, *_FLAT, 0.4)

    def test_par_cds_continuous_quadrature_oracle(self, base_curve):
        curve = PiecewiseHazardCurve([(1.0, 0.01), (3.0, 0.02), (7.0, 0.035)])
        R, freq, T = 0.4, 4, 6.0

        def zq(u):
            return base_curve.df(u) * curve.survival(u)

        num, _ = quad(lambda u: curve.hazard(u) * zq(u), 0.0, T, limit=400)
        den, _ = quad(lambda u: (1 - base_curve.fwd_rate(u) / (2 * freq)) * zq(u),
                      0.0, T, limit=400)
        assert pricing.cds_par_spread_continuous(
            T, freq, base_curve, curve, R
        ) == pytest.approx((1 - R) * num / den, abs=1e-9)


def direct_price_oracle(bond, base, curve, recovery, t, das):
    """P(t, T) as one interval from t to T: one ``survival_discount_integrals`` call,
    every leg divided by Z(t) Q(t) exp(-das t)."""
    C, q, T = bond.coupon, bond.freq, bond.maturity
    i_zq, i_hzq, _ = pricing.survival_discount_integrals(base, curve, t, T, extra_decay=das)
    scale = base.df(t) * curve.survival(t) * math.exp(-das * t)
    survived = base.df(T) * curve.survival(T) * math.exp(-das * T) / scale
    return (C * i_zq / scale + survived - C / (2.0 * q) * (1.0 - survived)
            + recovery * (1.0 + C / (2.0 * q)) * i_hzq / scale)


class TestContinuousPrices:
    """The backward walk prices every date as its own interval to maturity would."""

    @settings(max_examples=60, deadline=None)
    @given(base=base_curves,
           curve=st.one_of(hazard_curves, spline_curves,
                           st.sampled_from([KNOTTED_CURVE, STEEP_KNOTTED])),
           periods=st.integers(1, 70), coupon=st.floats(0.0, 0.12),
           recovery=st.floats(0.0, 0.9),
           das=st.one_of(st.just(0.0), st.floats(-0.02, 0.05)),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_walk_matches_one_interval_per_date(self, base, curve, periods, coupon, recovery,
                                                das, fractions):
        bond = BondSpec(coupon=coupon, freq=2, maturity=periods / 2)
        dates = sorted({u * bond.maturity for u in fractions})
        prices = pricing.continuous_prices(bond, base, curve, recovery, dates, das)
        assert len(prices) == len(dates)
        for t, price in zip(dates, prices):
            expected = direct_price_oracle(bond, base, curve, recovery, t, das)
            # 1e-13 on prices of order 1; on STEEP_KNOTTED, Q(t) ~ 1e-71 before its knot and
            # ~ 1e-14 after it, so a price given survival to t can reach 1e56.
            assert price == pytest.approx(expected, rel=0, abs=1e-13 * max(1.0, abs(expected)))

    @settings(max_examples=60, deadline=None)
    @given(base=base_curves,
           curve=st.one_of(hazard_curves, spline_curves, st.sampled_from([KNOTTED_CURVE])),
           periods=st.integers(1, 70), fractions=st.lists(st.floats(0.0, 1.0), min_size=1,
                                                          max_size=8))
    def test_each_interval_integrates_its_own_cuts(self, base, curve, periods, fractions):
        bond = BondSpec(coupon=0.05, freq=2, maturity=periods / 2)
        T, dates = bond.maturity, sorted({u * bond.maturity for u in fractions})
        seen, cut_integrals = [], pricing._cut_integrals

        def spy(base_, curve_, cuts, zs, extra_decay):
            seen.append((list(cuts), list(zs)))
            return cut_integrals(base_, curve_, cuts, zs, extra_decay)

        with mock.patch.object(pricing, "_cut_integrals", spy):
            pricing.continuous_prices(bond, base, curve, 0.4, dates)
        nodes = base.node_tenors + curve._breakpoints()
        expected = []
        for t, end in reversed(list(zip(dates, dates[1:] + [T]))):
            # [t, the nodes strictly inside (t, end), end], as survival_discount_integrals cuts
            cuts = [t, *sorted({x for x in nodes if t < x < end}), end] if t < end else [t]
            expected.append((cuts, [base.df(a) for a in cuts[:-1]]))
        assert seen == expected

    def test_the_walk_discounts_each_cut_once(self):
        base = _CountingBase([(2.0, 0.95), (10.0, 0.7)])
        curve = PiecewiseHazardCurve([(1.0, 0.01), (3.0, 0.02), (7.5, 0.04)])
        bond = BondSpec(coupon=0.06, freq=2, maturity=9.5)
        dates = [0.0, 1.0, 2.5, 2.75, 7.0, 9.5]
        pricing.continuous_prices(bond, base, curve, 0.4, dates)
        assert base.times == [0.0, 1.0, 2.0, 2.5, 2.75, 3.0, 7.0, 7.5, 9.5]

    def test_a_date_just_below_a_node_integrates_the_next_segment_at_its_rates(self):
        # The hazard jumps 0.01 -> 0.10 at 5: a start 5e-13 below it must not carry 0.01 on.
        base, curve = BaseCurve.flat(0.03), PiecewiseHazardCurve([(5.0, 0.01), (10.0, 0.10)])
        near = pricing.survival_discount_integrals(base, curve, 5.0 - 5e-13, 10.0)
        at = pricing.survival_discount_integrals(base, curve, 5.0, 10.0)
        assert near == pytest.approx(at, rel=0, abs=1e-11)

    @pytest.mark.parametrize("dates", [[], [1.0, 1.0], [2.0, 1.0], [-0.5], [0.0, 12.5],
                                       [0.0, math.nan, 5.0], [math.inf]])
    def test_dates_outside_the_rule_raise_naming_them(self, dates):
        bond = BondSpec(coupon=0.06, freq=2, maturity=12.0)
        with pytest.raises(ValueError, match="dates must be non-empty, finite, strictly"):
            pricing.continuous_prices(bond, *_FLAT, 0.4, dates)


def test_zero_recovery_zero_coupon_zspread_equals_zz(base_curve):
    curve = SplineSurvivalCurve(SplineBasis(eta=0.04), (0.6, 0.25, 0.15), horizon=15.0)
    bond = BondSpec(coupon=0.0, freq=2, maturity=6.0)
    price = pricing.bond_pv_frp(bond, base_curve, curve, 0.0)
    assert z_spread(bond, price, base_curve) == pytest.approx(
        curve.zz_spread(6.0), abs=1e-10
    )
