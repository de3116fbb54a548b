import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditcurves.conventional import (
    BondSpec,
    FrnSpec,
    discount_margin,
    i_spread,
    ytm,
    z_spread,
    z_spread_duration,
)
from creditcurves.curves import BaseCurve
from creditcurves.errors import ConvergenceError, ScheduleError


def bisect(f, lo, hi, n=200):
    """Plain bisection, independent of the library's solver."""
    flo = f(lo)
    for _ in range(n):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def price_at(bond, y, q_conv):
    """Clean price at yield y compounded q_conv times a year (continuously at math.inf)."""
    if math.isinf(q_conv):
        dirty = sum(cf * math.exp(-y * t) for t, cf in bond.cash_flows())
    else:
        dirty = sum(cf * (1 + y / q_conv) ** (-q_conv * t) for t, cf in bond.cash_flows())
    return dirty - bond.accrued_interest


@st.composite
def bullet_bonds(draw):
    """Bonds of 1 to 10 years of periods, part of the first period possibly accrued."""
    freq = draw(st.sampled_from((1, 2, 4)))
    periods = draw(st.integers(1, 10 * freq))
    accrued = draw(st.floats(0.0, 0.9)) / freq
    return BondSpec(coupon=draw(st.floats(0.0, 0.15)), freq=freq,
                    maturity=periods / freq - accrued, accrued_time=accrued)


class TestBondSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BondSpec(coupon=-0.01, freq=2, maturity=5.0)
        with pytest.raises(ValueError):
            BondSpec(coupon=0.05, freq=3, maturity=5.0)
        with pytest.raises(ValueError):
            BondSpec(coupon=0.05, freq=2, maturity=5.0, accrued_time=0.5)
        with pytest.raises(ScheduleError):
            BondSpec(coupon=0.05, freq=2, maturity=5.3)

    def test_seasoned_schedule(self):
        bond = BondSpec(coupon=0.08, freq=2, maturity=4.75, accrued_time=0.25)
        assert bond.n_payments == 10
        assert bond.payment_times[0] == pytest.approx(0.25)
        assert bond.payment_times[-1] == pytest.approx(4.75)
        assert bond.accrued_interest == pytest.approx(0.02)

    def test_cash_flows_include_principal(self):
        bond = BondSpec(coupon=0.06, freq=2, maturity=1.0)
        assert bond.cash_flows() == ((0.5, 0.03), (1.0, 1.03))


class TestYtm:
    def test_par_identity(self):
        bond = BondSpec(coupon=0.06, freq=2, maturity=7.0)
        assert ytm(bond, 1.0) == pytest.approx(0.06, abs=1e-12)

    def test_zero_coupon_continuous(self):
        bond = BondSpec(coupon=0.0, freq=1, maturity=1.0)
        y = ytm(bond, math.exp(-0.05), q_conv=math.inf)
        assert y == pytest.approx(0.05, abs=1e-12)

    @pytest.mark.parametrize("q_conv", [0, -1, -math.inf, math.nan])
    def test_compounding_outside_range_names_it(self, q_conv):
        bond = BondSpec(coupon=0.06, freq=2, maturity=7.0)
        with pytest.raises(ValueError, match=r"q_conv must be > 0 or math\.inf, got"):
            ytm(bond, 1.0, q_conv)

    def test_against_bisection_oracle(self):
        bond = BondSpec(coupon=0.08, freq=2, maturity=5.0)
        price = 0.95

        def pv_gap(y):
            pv = sum(0.04 * (1 + y / 2) ** (-2 * t) for t in bond.payment_times)
            pv += (1 + y / 2) ** (-2 * 5.0)
            return pv - price

        assert ytm(bond, price) == pytest.approx(bisect(pv_gap, 0.0, 0.5), abs=1e-10)

    @pytest.mark.parametrize("coupon,freq,t_acc", [(0.04, 1, 0.0), (0.09, 2, 0.25),
                                                   (0.0, 4, 0.1), (0.12, 4, 0.0)])
    def test_flat_curve_identity(self, coupon, freq, t_acc):
        y = 0.0475
        bond = BondSpec(coupon=coupon, freq=freq, maturity=6.0 - t_acc, accrued_time=t_acc)
        dirty = sum(cf * (1 + y / freq) ** (-freq * t) for t, cf in bond.cash_flows())
        assert ytm(bond, dirty - bond.accrued_interest) == pytest.approx(y, abs=1e-10)

    def test_no_root_raises(self):
        bond = BondSpec(coupon=0.0, freq=1, maturity=1.0)
        with pytest.raises(ConvergenceError):
            ytm(bond, 5.0)  # price above any PV on the bracket

    @settings(max_examples=300, deadline=None)
    @given(bullet_bonds(), st.floats(-0.2, 0.5),
           st.sampled_from((0.25, 0.5, 1.0, 2.0, 4.0, 12.0, math.inf)))
    def test_round_trip_in_every_compounding(self, bond, y, q_conv):
        assert ytm(bond, price_at(bond, y, q_conv), q_conv) == pytest.approx(y, abs=1e-10)

    # RATE_BRACKET bounds the continuous yield: its lower end -0.5 is an annually
    # compounded yield of expm1(-0.5), and the upper end 5.0 one of expm1(5) > 5.
    @pytest.mark.parametrize("y", [math.expm1(-0.5) + 1e-3, 6.0], ids=["near_lower_end", "6.0"])
    def test_yield_inside_the_continuous_bracket_solves(self, y):
        bond = BondSpec(coupon=0.05, freq=1, maturity=5.0)
        assert ytm(bond, price_at(bond, y, 1.0), 1.0) == pytest.approx(y, abs=1e-10)

    def test_yield_below_the_continuous_bracket_raises(self):
        bond = BondSpec(coupon=0.05, freq=1, maturity=5.0)
        price = price_at(bond, math.expm1(-0.5) - 1e-3, 1.0)
        with pytest.raises(ConvergenceError, match="no sign change"):
            ytm(bond, price, 1.0)


class TestISpread:
    def test_single_benchmark_is_yield_spread(self):
        assert i_spread(0.055, 5.0, (5.0, 0.04)) == pytest.approx(0.015)

    def test_flat_benchmarks(self):
        assert i_spread(0.055, 5.0, (2.0, 0.04), (10.0, 0.04)) == pytest.approx(0.015)

    def test_midpoint(self):
        assert i_spread(0.06, 6.0, (2.0, 0.03), (10.0, 0.05)) == pytest.approx(0.02)

    def test_left_endpoint(self):
        assert i_spread(0.06, 2.0, (2.0, 0.03), (10.0, 0.05)) == pytest.approx(0.03)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            i_spread(0.06, 1.0, (2.0, 0.03), (10.0, 0.05))
        with pytest.raises(ValueError):
            i_spread(0.06, 5.0, (10.0, 0.03), (2.0, 0.05))


class TestZSpread:
    def test_zero_when_priced_on_the_curve(self, base_curve):
        bond = BondSpec(coupon=0.05, freq=2, maturity=4.0)
        price = sum(cf * base_curve.df(t) for t, cf in bond.cash_flows())
        assert z_spread(bond, price, base_curve) == pytest.approx(0.0, abs=1e-12)

    def test_zero_coupon_flat_curve(self):
        base = BaseCurve.flat(0.03)
        bond = BondSpec(coupon=0.0, freq=1, maturity=4.0)
        price = math.exp(-(0.03 + 0.021) * 4.0)
        assert z_spread(bond, price, base) == pytest.approx(0.021, abs=1e-12)

    def test_against_bisection_oracle(self):
        base = BaseCurve.flat(0.03)
        bond = BondSpec(coupon=0.06, freq=2, maturity=3.0)
        price = 0.97

        def gap(s):
            return sum(cf * base.df(t) * math.exp(-s * t)
                       for t, cf in bond.cash_flows()) - price

        assert z_spread(bond, price, base) == pytest.approx(
            bisect(gap, -0.1, 0.5), abs=1e-10
        )

    def test_monotone_decreasing_in_price(self, base_curve):
        bond = BondSpec(coupon=0.07, freq=2, maturity=6.0)
        spreads = [z_spread(bond, p, base_curve) for p in (0.7, 0.8, 0.9, 1.0, 1.1)]
        assert all(b < a for a, b in zip(spreads, spreads[1:]))

    def test_duration_of_zero_coupon_is_maturity(self, base_curve):
        bond = BondSpec(coupon=0.0, freq=2, maturity=6.0)
        sd = z_spread_duration(bond, 0.7, base_curve)
        assert sd == pytest.approx(6.0, rel=1e-12)


class TestDiscountMargin:
    def test_par_at_reset_returns_quoted_margin(self):
        frn = FrnSpec(quoted_margin=0.015, freq=4, maturity=3.0,
                      fixings=tuple([0.03] * 12))
        assert discount_margin(frn, 1.0) == pytest.approx(0.015, abs=1e-12)

    def test_zero_margin_riskfree_price(self, base_curve):
        frn = FrnSpec(quoted_margin=0.0, freq=4, maturity=2.0)
        assert discount_margin(frn, 1.0, base_curve) == pytest.approx(0.0, abs=1e-12)

    def test_against_bisection_oracle(self):
        fixings = tuple([0.03] * 8)
        frn = FrnSpec(quoted_margin=0.02, freq=4, maturity=2.0, fixings=fixings)
        price = 0.98

        def gap(dm):
            pv, disc = 0.0, 1.0
            for i, fix in enumerate(fixings, start=1):
                disc /= 1 + (fix + dm) / 4
                pv += disc * ((fix + 0.02) / 4 + (1.0 if i == 8 else 0.0))
            return pv - price

        assert discount_margin(frn, price) == pytest.approx(
            bisect(gap, 0.0, 0.2), abs=1e-10
        )

    @pytest.mark.parametrize("fixing", [-0.5, -0.7])
    def test_fixing_that_breaks_discounting_on_the_bracket_names_it(self, fixing):
        # 1 + (fixing + dm) / freq reaches 0 (or below) at dm = -0.5, the bracket's lower end.
        frn = FrnSpec(quoted_margin=0.01, freq=1, maturity=2.0, fixings=(fixing, 0.02))
        with pytest.raises(ValueError, match=r"fixings must keep .* got \("):
            discount_margin(frn, 1.0)

    def test_fixing_just_inside_the_limit_solves(self):
        frn = FrnSpec(quoted_margin=0.01, freq=1, maturity=2.0, fixings=(-0.49, 0.02))
        assert discount_margin(frn, 1.0) == pytest.approx(0.01, abs=1e-12)

    def test_fixings_length_checked(self):
        with pytest.raises(ValueError):
            FrnSpec(quoted_margin=0.0, freq=4, maturity=2.0, fixings=(0.03,))

    def test_no_payment_frequency(self):
        with pytest.raises(ValueError, match="^freq must be >= 1$"):
            FrnSpec(quoted_margin=0.0, freq=0, maturity=2.0)

    def test_fixings_come_from_the_spec_or_a_base_curve(self):
        with pytest.raises(ValueError, match="^need either explicit fixings or a base curve$"):
            discount_margin(FrnSpec(quoted_margin=0.0, freq=4, maturity=2.0), 1.0)
