import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from creditcurves import hedging, measures, pricing
from creditcurves.calibration import calibrate_from_cds
from creditcurves.conventional import BondSpec
from creditcurves.curves import BaseCurve, grid_times
from creditcurves.errors import ScheduleError
from creditcurves.hedging import HedgeLeg, HedgePlan
from creditcurves.survival import PiecewiseHazardCurve

from conftest import HEDGE_RECOVERY


class TestForwardBondPrice:
    def test_spot_matches_continuous_price(self, hedge_market, hedge_bonds):
        base, curve = hedge_market
        for bond in hedge_bonds.values():
            assert hedging.fwd_bond_price(bond, base, curve, HEDGE_RECOVERY, 0.0) == (
                pricing.bond_price_continuous(bond, base, curve, HEDGE_RECOVERY)
            )

    def test_pulls_to_one_at_maturity(self, hedge_market, hedge_bonds):
        base, curve = hedge_market
        for bond in hedge_bonds.values():
            assert hedging.fwd_bond_price(bond, base, curve, HEDGE_RECOVERY, 5.0) == 1.0
            near = hedging.fwd_bond_price(bond, base, curve, HEDGE_RECOVERY, 4.999)
            assert near == pytest.approx(1.0, abs=2e-4)

    def test_par_bond_stays_par_riskless_flat(self):
        r = 0.04
        base, riskless = BaseCurve.flat(r), PiecewiseHazardCurve.flat(0.0)
        coupon = r / (1 - r / 4)  # prices exactly at par in the continuous form
        bond = BondSpec(coupon=coupon, freq=2, maturity=5.0)
        for t in (0.0, 1.0, 2.5, 4.75):
            assert hedging.fwd_bond_price(bond, base, riskless, 0.4, t) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_premium_bond_declines_toward_par(self, hedge_market, hedge_bonds):
        base, curve = hedge_market
        prices = [hedging.fwd_bond_price(hedge_bonds["premium"], base, curve,
                                         HEDGE_RECOVERY, t)
                  for t in np.arange(0.0, 5.01, 0.25)]
        assert all(b < a for a, b in zip(prices, prices[1:]))
        assert prices[0] > 1.1 and prices[-1] == 1.0

    def test_quadrature_oracle(self, base_curve, true_spline_curve):
        bond = BondSpec(coupon=0.06, freq=2, maturity=8.0)
        R, t = 0.4, 2.5

        def zq(u):
            return base_curve.df(u) * true_spline_curve.survival(u)

        denom = zq(t)
        i_zq, _ = quad(zq, t, 8.0, limit=400)
        i_hzq, _ = quad(lambda u: true_spline_curve.hazard(u) * zq(u), t, 8.0, limit=400)
        survived = zq(8.0) / denom
        expected = (0.06 * i_zq / denom + survived - 0.06 / 4 * (1 - survived)
                    + R * (1 + 0.06 / 4) * i_hzq / denom)
        assert hedging.fwd_bond_price(bond, base_curve, true_spline_curve, R, t) == (
            pytest.approx(expected, abs=1e-9)
        )

    def test_forward_price_ode_identity(self, hedge_market, hedge_bonds):
        # d/dt P(t,T) for the corrected continuous form equals
        # (f+h)(P + C/2q) - C - R(1 + C/2q)h between curve breakpoints.
        base, curve = hedge_market
        bond = hedge_bonds["premium"]
        R, q, C = HEDGE_RECOVERY, bond.freq, bond.coupon
        dt = 1e-6
        for t in (0.3, 1.6, 3.1, 4.6):
            up = hedging.fwd_bond_price(bond, base, curve, R, t + dt)
            down = hedging.fwd_bond_price(bond, base, curve, R, t - dt)
            numeric = (up - down) / (2 * dt)
            p = hedging.fwd_bond_price(bond, base, curve, R, t)
            drift = base.fwd_rate(t) + curve.hazard(t)
            expected = drift * (p + C / (2 * q)) - C - R * (1 + C / (2 * q)) * curve.hazard(t)
            assert numeric == pytest.approx(expected, abs=1e-6)

    def test_domain(self, hedge_market, hedge_bonds):
        base, curve = hedge_market
        with pytest.raises(ValueError):
            hedging.fwd_bond_price(hedge_bonds["premium"], base, curve, 0.5, 5.5)
        with pytest.raises(ValueError):
            hedging.fwd_bond_price(hedge_bonds["premium"], base, curve, 0.5, -0.1)


class TestComplementarity:
    def test_rfc_riskless_is_coupon(self, base_curve):
        bond = BondSpec(coupon=0.06, freq=2, maturity=5.0)
        riskless = PiecewiseHazardCurve.flat(0.0)
        assert hedging.rfc_stream(bond, base_curve, riskless, 0.4, 2.0) == (
            pytest.approx(0.06, abs=1e-14)
        )

    def test_pointwise_identity(self, hedge_market, hedge_bonds):
        base, curve = hedge_market
        for bond in hedge_bonds.values():
            for t in (0.0, 0.8, 2.2, 4.4):
                rfc = hedging.rfc_stream(bond, base, curve, HEDGE_RECOVERY, t)
                fwd_spread = (1 - HEDGE_RECOVERY) * curve.hazard(t)
                notional = hedging.fwd_hedge_notional(bond, base, curve, HEDGE_RECOVERY, t)
                assert bond.coupon - rfc - fwd_spread * notional == pytest.approx(
                    0.0, abs=1e-10
                )

    def test_rfc_profile_samples_the_stream(self, hedge_market, hedge_bonds):
        base, curve = hedge_market
        bond = hedge_bonds["premium"]
        grid = [0.0, 1.0, 2.5]
        profile = hedging.rfc_profile(bond, base, curve, HEDGE_RECOVERY, grid)
        assert [p.t for p in profile] == grid
        for point in profile:
            assert point.rfc == hedging.rfc_stream(
                bond, base, curve, HEDGE_RECOVERY, point.t
            )

    @pytest.mark.parametrize("grid", [[2.0, 1.0], [1.0, 1.0]])
    def test_rfc_profile_rejects_unsorted_or_duplicate_grid(self, hedge_market, hedge_bonds,
                                                            grid):
        base, curve = hedge_market
        with pytest.raises(ValueError, match="grid must be"):
            hedging.rfc_profile(hedge_bonds["premium"], base, curve, HEDGE_RECOVERY, grid)

    def test_rfc_composed_oracle(self):
        # Compose the forward price from quadrature with the closed-form
        # flat hazard; the stream must be C - h (P - R).
        base, curve = BaseCurve.flat(0.04), PiecewiseHazardCurve.flat(0.02)
        bond = BondSpec(coupon=0.08, freq=2, maturity=5.0)
        t, R = 2.0, 0.5

        def zq(u):
            return base.df(u) * curve.survival(u)

        i_zq, _ = quad(zq, t, 5.0, limit=200)
        denom = zq(t)
        survived = zq(5.0) / denom
        i_hzq = 0.02 * i_zq
        price = (0.08 * i_zq / denom + survived - 0.02 * (1 - survived)
                 + R * 1.02 * i_hzq / denom)
        assert hedging.rfc_stream(bond, base, curve, R, t) == pytest.approx(
            0.08 - 0.02 * (price - R), abs=1e-9
        )


class TestForwardNotional:
    def test_par_price_gives_unit_notional(self):
        base, riskless = BaseCurve.flat(0.04), PiecewiseHazardCurve.flat(0.0)
        coupon = 0.04 / (1 - 0.01)
        bond = BondSpec(coupon=coupon, freq=2, maturity=5.0)
        for R in (0.0, 0.4, 0.7):
            assert hedging.fwd_hedge_notional(bond, base, riskless, R, 1.0) == (
                pytest.approx(1.0, abs=1e-11)
            )

    def test_narrative_endpoints(self, hedge_market, hedge_bonds):
        base, curve = hedge_market
        premium = hedging.fwd_hedge_notional(
            hedge_bonds["premium"], base, curve, HEDGE_RECOVERY, 0.0
        )
        discount = hedging.fwd_hedge_notional(
            hedge_bonds["discount"], base, curve, HEDGE_RECOVERY, 0.0
        )
        assert premium == pytest.approx(1.3338, abs=0.005)
        assert discount == pytest.approx(0.8866, abs=0.005)


def quarterly_grid(maturity):
    return [i / 4 for i in range(0, int(maturity * 4) + 1)]


class TestSpotHedge:
    def test_leg_notionals_match_price_drops(self, hedge_market, hedge_bonds):
        base, curve = hedge_market
        bond = hedge_bonds["premium"]
        grid = quarterly_grid(5.0)
        plan = hedging.spot_hedge_notionals(bond, base, curve, HEDGE_RECOVERY, grid)
        prices = {t: hedging.fwd_bond_price(bond, base, curve, HEDGE_RECOVERY, t)
                  for t in grid}
        by_maturity = {leg.maturity: leg for leg in plan.legs}
        for a, b in zip(grid[1:], grid[2:]):
            expected = (prices[a] - prices[b]) / (1 - HEDGE_RECOVERY)
            if b < 5.0:
                assert by_maturity[b].notional == pytest.approx(expected, abs=1e-12)
        # terminal maturity merges the last pair leg with the forward
        # notional at the final grid point, which is 1 at maturity
        terminal = (prices[4.75] - prices[5.0]) / 0.5 + 1.0
        assert by_maturity[5.0].notional == pytest.approx(terminal, abs=1e-12)

    def test_legs_telescope_to_initial_notional(self, hedge_market, hedge_bonds):
        base, curve = hedge_market
        for bond in hedge_bonds.values():
            plan = hedging.spot_hedge_notionals(
                bond, base, curve, HEDGE_RECOVERY, quarterly_grid(5.0)
            )
            total = sum(leg.notional for leg in plan.legs)
            assert total == pytest.approx(
                hedging.fwd_hedge_notional(bond, base, curve, HEDGE_RECOVERY, 0.0),
                abs=1e-12,
            )
            assert abs(plan.residual_npv) < 1e-12

    def test_default_scenario_replication(self, hedge_market, hedge_bonds):
        base, curve = hedge_market
        grid = quarterly_grid(5.0)
        for bond in hedge_bonds.values():
            plan = hedging.spot_hedge_notionals(bond, base, curve, HEDGE_RECOVERY, grid)
            for t_def in grid[:-1]:
                payout = (1 - HEDGE_RECOVERY) * plan.protection_notional(t_def)
                target = hedging.fwd_bond_price(
                    bond, base, curve, HEDGE_RECOVERY, t_def
                ) - HEDGE_RECOVERY
                assert payout == pytest.approx(target, abs=1e-8)

    def test_near_par_legs_flip_sign_at_price_extremum(self, hedge_market, hedge_bonds):
        base, curve = hedge_market
        bond = hedge_bonds["near_par"]
        grid = quarterly_grid(5.0)
        prices = [hedging.fwd_bond_price(bond, base, curve, HEDGE_RECOVERY, t)
                  for t in grid]
        extremum = int(np.argmin(prices))
        assert 0 < extremum < len(grid) - 1  # the price path dips then recovers
        plan = hedging.spot_hedge_notionals(bond, base, curve, HEDGE_RECOVERY, grid)
        pair_legs = [leg for leg in plan.legs if leg.maturity < 5.0]
        signs = [math.copysign(1.0, leg.notional) for leg in pair_legs]
        flips = [i for i, (a, b) in enumerate(zip(signs, signs[1:])) if a != b]
        assert len(flips) == 1
        assert pair_legs[flips[0] + 1].maturity == pytest.approx(grid[extremum + 1])

    def test_grid_validation(self, hedge_market, hedge_bonds):
        base, curve = hedge_market
        bond = hedge_bonds["premium"]
        with pytest.raises(ValueError):
            hedging.spot_hedge_notionals(bond, base, curve, 0.5, [])
        with pytest.raises(ValueError):
            hedging.spot_hedge_notionals(bond, base, curve, 0.5, [0.5, 0.5])
        with pytest.raises(ValueError):
            hedging.spot_hedge_notionals(bond, base, curve, 0.5, [0.5, 6.0])
        # NaN defeats order comparisons; a date just past maturity is still outside it.
        T = bond.maturity
        for grid in ([0.0, math.nan, 5.0], [math.nan], [0.0, T + 1e-13], [0.0, 2.5, math.inf]):
            with pytest.raises(ValueError, match="grid"):
                hedging.spot_hedge_notionals(bond, base, curve, 0.5, grid)


@st.composite
def plans_and_dates(draw):
    """A plan of 1-12 legs on distinct maturities, and dates before, on, between and
    after its maturities."""
    maturities = sorted(draw(st.lists(st.floats(0.01, 30.0), min_size=1, max_size=12,
                                      unique=True)))
    notionals = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(maturities),
                              max_size=len(maturities)))
    legs = tuple(HedgeLeg(m, n, 0.01) for m, n in zip(maturities, notionals))
    dates = draw(st.lists(st.one_of(st.floats(0.0, 31.0), st.sampled_from(maturities)),
                          min_size=1, max_size=10))
    return HedgePlan(legs=legs, cost=0.01, residual_npv=0.0), dates


class TestProtectionNotional:
    @settings(max_examples=200, deadline=None)
    @given(case=plans_and_dates())
    def test_equals_the_sum_over_every_live_leg(self, case):
        plan, dates = case
        for t in dates:  # oracle: every leg maturing after t, in plan order, term by term
            oracle = 0.0
            for leg in plan.legs:
                if leg.maturity > t:
                    oracle += leg.notional
            got = plan.protection_notional(t)
            assert (type(got), float(got).hex()) == (type(oracle), float(oracle).hex())


@pytest.mark.parametrize("legs, message", [
    ((), "hedge plan needs at least one leg"),
    ((HedgeLeg(5.0, 1.0, 0.01), HedgeLeg(2.0, 0.5, 0.01)), "legs must be sorted by maturity"),
    ((HedgeLeg(2.0, 1.0, 0.01), HedgeLeg(2.0, 0.5, 0.01)), "without duplicates"),
], ids=["no legs", "unsorted", "duplicate"])
def test_a_plan_needs_legs_sorted_by_maturity(legs, message):
    with pytest.raises(ValueError, match=message):
        HedgePlan(legs=legs, cost=0.01, residual_npv=0.0)


class TestOneWalkPerHedge:
    """Each hedge integrates every closed-form cut of its grid once, through one
    ``pricing.continuous_prices`` walk, not once per date from that date to maturity,
    and reads every leg from one quarterly ``pricing.LegTable``."""

    @pytest.mark.parametrize("hedge", ["spot", "coarse"])
    def test_one_table_and_one_walk_per_call(self, hedge_market, hedge_bonds, monkeypatch,
                                             hedge):
        base, curve = hedge_market
        bond = hedge_bonds["premium"]
        tables, walks, priced = [], [], []
        init, prices = pricing.LegTable.__init__, pricing.continuous_prices
        par_spread = pricing.LegTable.par_spread

        def counting_init(table, *args, **kwargs):
            tables.append(table)
            init(table, *args, **kwargs)

        monkeypatch.setattr(pricing.LegTable, "__init__", counting_init)
        monkeypatch.setattr(pricing, "continuous_prices",
                            lambda *args: walks.append(args[4]) or prices(*args))
        monkeypatch.setattr(pricing.LegTable, "par_spread", lambda table, n, R: (
            priced.append((table, n)) or par_spread(table, n, R)))
        if hedge == "spot":
            hedging.spot_hedge_notionals(bond, base, curve, HEDGE_RECOVERY, quarterly_grid(5.0))
        else:
            hedging.coarse_hedge(bond, base, curve, HEDGE_RECOVERY, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert len(tables) == 1 and len(tables[0].zq) == 20  # the 5y quarterly table
        assert len(walks) == 1
        assert {table for table, _ in priced} == {tables[0]}
        if hedge == "coarse":  # every candidate's quarterly date, on that one table
            assert {n for _, n in priced} == {4, 8, 12, 16, 20}

    @pytest.mark.parametrize("hedge", ["spot", "coarse", "rfc"])
    def test_cut_evaluations_are_linear_in_the_grid(self, base_curve, monkeypatch, hedge):
        curve = PiecewiseHazardCurve([(t, 0.01 + 0.001 * t) for t in (1, 2, 3, 5, 7, 10, 15, 20)])
        bond = BondSpec(coupon=0.07, freq=2, maturity=20.0)
        calls = []
        exp_terms = curve._exp_terms
        monkeypatch.setattr(curve, "_exp_terms", lambda a, b: calls.append(a) or exp_terms(a, b))
        if hedge == "spot":
            grid = quarterly_grid(20.0)
            hedging.spot_hedge_notionals(bond, base_curve, curve, 0.4, grid)
        elif hedge == "coarse":
            grid = grid_times(20.0, pricing.CDS_FREQ)
            hedging.coarse_hedge(bond, base_curve, curve, 0.4, [5.0, 10.0, 20.0])
        else:
            grid = quarterly_grid(20.0)
            hedging.rfc_profile(bond, base_curve, curve, 0.4, grid)
        assert len(calls) <= len(grid) + len(base_curve.node_tenors) + len(curve._breakpoints())


class TestCoarseHedge:
    def test_par_bond_flat_curves_degenerates(self):
        base = BaseCurve.flat(0.04)
        curve = PiecewiseHazardCurve.flat(0.015, tenor=5.0)

        def par_gap(c):
            bond = BondSpec(coupon=c, freq=2, maturity=5.0)
            return pricing.bond_price_continuous(bond, base, curve, 0.4) - 1.0

        from creditcurves.rootfind import solve_bracketed
        coupon = solve_bracketed(par_gap, 0.0, 0.5)
        bond = BondSpec(coupon=coupon, freq=2, maturity=5.0)
        plan = hedging.coarse_hedge(bond, base, curve, 0.4, [2.0, 5.0])
        total = sum(leg.notional for leg in plan.legs)
        assert total == pytest.approx(1.0, abs=1e-9)
        staggered = [leg for leg in plan.legs if leg.maturity < 5.0]
        assert all(abs(leg.notional) < 1e-9 for leg in staggered)

    def test_two_cds_no_worse_than_single(self, hedge_market, hedge_bonds):
        base, curve = hedge_market
        bond = hedge_bonds["premium"]
        single = hedging.coarse_hedge(bond, base, curve, HEDGE_RECOVERY, [5.0])
        combined = hedging.coarse_hedge(
            bond, base, curve, HEDGE_RECOVERY, [1.0, 2.0, 3.0, 4.0, 5.0]
        )
        assert combined.cost <= single.cost + 1e-15
        assert abs(combined.residual_npv) < 1e-10
        assert abs(single.residual_npv) < 1e-10

    def test_plan_shape_for_premium_bond(self, hedge_market, hedge_bonds):
        base, curve = hedge_market
        plan = hedging.coarse_hedge(
            hedge_bonds["premium"], base, curve, HEDGE_RECOVERY, [1.0, 2.0, 3.0, 4.0, 5.0]
        )
        assert len(plan.legs) == 2
        assert plan.legs[-1].maturity == 5.0
        assert plan.legs[-1].notional == 1.0
        assert plan.legs[0].notional > 0.0

    def test_market_hedge_ratio_heuristic(self):
        # r = 0, R = 0.5: the midpoint of the forward notional path equals
        # the bond price exactly, and the optimal single-CDS notional sits
        # close to that midpoint.
        base = BaseCurve.flat(0.0)
        curve = PiecewiseHazardCurve.flat(0.01, tenor=5.0)
        bond = BondSpec(coupon=0.08, freq=2, maturity=5.0)
        price = pricing.bond_pv_frp(bond, base, curve, 0.5)
        n0 = hedging.fwd_hedge_notional(bond, base, curve, 0.5, 0.0)
        assert 0.5 * (n0 + 1.0) == pytest.approx(price, abs=1e-3)
        plan = hedging.coarse_hedge(bond, base, curve, 0.5, [5.0])
        total = sum(leg.notional for leg in plan.legs)
        assert total == pytest.approx(price, abs=0.02)

    def test_candidate_validation(self, hedge_market, hedge_bonds):
        base, curve = hedge_market
        bond = hedge_bonds["premium"]
        with pytest.raises(ValueError):
            hedging.coarse_hedge(bond, base, curve, 0.5, [])
        with pytest.raises(ValueError):
            hedging.coarse_hedge(bond, base, curve, 0.5, [2.0, 3.0])  # missing T
        with pytest.raises(ValueError):
            hedging.coarse_hedge(bond, base, curve, 0.5, [5.0, 6.0])
        off_quarter = BondSpec(coupon=0.08, freq=2, maturity=4.9, accrued_time=0.1)
        with pytest.raises(ScheduleError, match="4.9"):
            hedging.coarse_hedge(off_quarter, base, curve, 0.5, [4.9])

    def test_no_default_risk_leaves_no_feasible_candidate(self, base_curve, hedge_bonds):
        # With Q = 1 no candidate leg covers any protection, so every candidate is skipped.
        with pytest.raises(ValueError, match="^no feasible candidate maturity$"):
            hedging.coarse_hedge(hedge_bonds["premium"], base_curve,
                                 PiecewiseHazardCurve.flat(0.0), 0.5, [1.0, 2.0, 5.0])

    @pytest.mark.parametrize("off_grid", [0.1, 1.1])
    def test_off_grid_candidate_raises(self, hedge_market, hedge_bonds, off_grid):
        # Below the first CDS date as well as between two of them.
        base, curve = hedge_market
        with pytest.raises(ScheduleError, match=str(off_grid)):
            hedging.coarse_hedge(hedge_bonds["premium"], base, curve, 0.5, [off_grid, 5.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    def test_candidate_outside_range_names_it(self, hedge_market, hedge_bonds, bad):
        base, curve = hedge_market
        with pytest.raises(ValueError, match="candidate_maturities must lie in"):
            hedging.coarse_hedge(hedge_bonds["premium"], base, curve, 0.5, [bad, 5.0])


def date_rule_market():
    """A 5y bond on a rising base and hazard curve, R = 0.4 for the hedges."""
    base = BaseCurve.from_zero_rates([(0.5, 0.02), (2, 0.025), (5, 0.03), (10, 0.035)])
    curve = PiecewiseHazardCurve([(1.0, 0.01), (3.0, 0.02), (5.0, 0.03)])
    return BondSpec(0.06, 2, 5.0), base, curve


def plan_hex(plan):
    return ([(leg.maturity, leg.notional.hex(), leg.spread.hex()) for leg in plan.legs],
            plan.cost.hex(), plan.residual_npv.hex())


class TestHedgeDates:
    """Both hedges tell quarterly dates apart by ``curves.grid_periods``, as every other
    date check does: maturities within its 1e-8 periods of a date are that date."""

    @pytest.mark.parametrize("candidates, same_as", [
        ([4.999999998, 5.0], [5.0]),
        ([4.999999998], [5.0]),
        ([3.0, 3.000000002, 5.0], [3.0, 5.0]),
    ])
    def test_coarse_candidates_on_one_date_count_as_one(self, candidates, same_as):
        bond, base, curve = date_rule_market()
        plan = hedging.coarse_hedge(bond, base, curve, 0.4, candidates)
        assert plan_hex(plan) == plan_hex(hedging.coarse_hedge(bond, base, curve, 0.4, same_as))

    @pytest.mark.parametrize("grid, legs", [
        ([0, 1.0, 1.000000001, 2.0, 5.0], "1.0 and 1.000000001"),
        ([0, 1, 2, 4.999999999], "4.999999999 and 5.0"),
    ])
    def test_spot_legs_on_one_date_raise(self, grid, legs):
        bond, base, curve = date_rule_market()
        message = f"hedge legs at {legs} fall on one quarterly CDS date"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hedging.spot_hedge_notionals(bond, base, curve, 0.4, grid)


class TestRfcReplication:
    def test_hedged_portfolio_pv_matches_rfc_riskless_bond(self, hedge_market):
        # Theorem check with the plain continuous forward price (no coupon
        # frequency corrections), where the replication is exact: the value
        # of the credit bond equals the value of a riskless bond paying the
        # risk-free-equivalent coupon stream, and every par CDS leg of the
        # staggered hedge has zero inception value.
        base, curve = hedge_market
        bond = BondSpec(coupon=0.08, freq=2, maturity=5.0)
        R, T = HEDGE_RECOVERY, 5.0

        def plain_forward_price(t):
            i_zq, i_hzq, _ = pricing.survival_discount_integrals(base, curve, t, T)
            denom = base.df(t) * curve.survival(t)
            survived = base.df(T) * curve.survival(T) / denom
            return bond.coupon * i_zq / denom + survived + R * i_hzq / denom

        def rfc(t):
            return bond.coupon - curve.hazard(t) * (plain_forward_price(t) - R)

        rfc_bond_pv = base.df(T)
        for i in range(20):  # quarterly segments, integrated to quadrature depth
            a, b = i / 4, (i + 1) / 4
            piece, _ = quad(lambda u: rfc(u) * base.df(u), a, b, limit=100)
            rfc_bond_pv += piece
        assert rfc_bond_pv == pytest.approx(plain_forward_price(0.0), abs=1e-6)

        grid = [i / 4 for i in range(0, 21)]
        plan = hedging.spot_hedge_notionals(bond, base, curve, HEDGE_RECOVERY, grid)
        for leg in plan.legs:
            cds = pricing.CdsSpec(contractual_coupon=leg.spread, maturity=leg.maturity,
                                  recovery=R)
            assert abs(pricing.cds_upfront(cds, base, curve)) < 1e-14


class TestBasisSpread:
    @pytest.fixture
    def cds_market(self, base_curve):
        quotes = [(1.0, 0.0080), (3.0, 0.0120), (5.0, 0.0150), (7.0, 0.0160)]
        return calibrate_from_cds(quotes, base_curve, 0.40)

    def test_zero_at_cds_implied_price(self, base_curve, cds_market):
        bond = BondSpec(coupon=0.06, freq=2, maturity=5.0)
        fitted = measures.fitted_price(bond, base_curve, cds_market, 0.40)
        assert abs(hedging.basis_spread(bond, fitted, base_curve, cds_market, 0.40)) < 1e-10

    def test_one_point_cheap_is_tens_of_bp(self, base_curve, cds_market):
        bond = BondSpec(coupon=0.06, freq=2, maturity=5.0)
        fitted = measures.fitted_price(bond, base_curve, cds_market, 0.40)
        spread = hedging.basis_spread(bond, fitted - 0.01, base_curve, cds_market, 0.40)
        assert 0.0010 < spread < 0.0040
        assert spread == pytest.approx(21.79e-4, abs=2e-4)

    def test_reduces_to_das_on_the_same_curve(self, base_curve, true_spline_curve):
        bond = BondSpec(coupon=0.07, freq=2, maturity=6.0)
        for price in (0.85, 0.95, 1.05):
            assert hedging.basis_spread(
                bond, price, base_curve, true_spline_curve, 0.40
            ) == pytest.approx(
                measures.das(bond, price, base_curve, true_spline_curve, 0.40), abs=1e-12
            )


class TestApproxBasis:
    def test_consistent_markets_near_zero(self, base_curve):
        R = 0.40
        flat_quotes = [(m, 0.0120) for m in (1.0, 2.0, 3.0, 4.0, 5.0)]
        curve = calibrate_from_cds(flat_quotes, base_curve, R)
        coupon = round(measures.par_coupon(5.0, 2, base_curve, curve, R), 4)
        bond = BondSpec(coupon=coupon, freq=2, maturity=5.0)
        fitted = measures.fitted_price(bond, base_curve, curve, R)
        plan = hedging.coarse_hedge(bond, base_curve, curve, R, [1.0, 2.0, 3.0, 4.0, 5.0])
        basis = hedging.approx_basis(bond, fitted, base_curve, curve, curve, R, plan)
        assert abs(basis) < 2e-4

    def test_parallel_cds_shift_moves_basis(self, base_curve):
        R = 0.40
        flat_quotes = [(m, 0.0120) for m in (1.0, 2.0, 3.0, 4.0, 5.0)]
        curve_bond = calibrate_from_cds(flat_quotes, base_curve, R)
        curve_cds = calibrate_from_cds([(m, s + 0.0050) for m, s in flat_quotes],
                                       base_curve, R)
        coupon = round(measures.par_coupon(5.0, 2, base_curve, curve_bond, R), 4)
        bond = BondSpec(coupon=coupon, freq=2, maturity=5.0)
        fitted = measures.fitted_price(bond, base_curve, curve_bond, R)
        plan = hedging.coarse_hedge(bond, base_curve, curve_cds, R,
                                    [1.0, 2.0, 3.0, 4.0, 5.0])
        basis = hedging.approx_basis(bond, fitted, base_curve, curve_bond, curve_cds,
                                     R, plan)
        assert basis == pytest.approx(-0.0050, abs=5e-4)

    def test_zero_hazard_both_markets(self, base_curve):
        riskless = PiecewiseHazardCurve.flat(0.0)
        bond = BondSpec(coupon=0.05, freq=2, maturity=5.0)
        price = measures.fitted_price(bond, base_curve, riskless, 0.4)
        plan = HedgePlan(
            legs=(HedgeLeg(maturity=5.0, notional=1.0, spread=0.0),),
            cost=0.0,
            residual_npv=0.0,
        )
        basis = hedging.approx_basis(bond, price, base_curve, riskless, riskless, 0.4, plan)
        assert abs(basis) < 1e-11
