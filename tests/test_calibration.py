import itertools
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from creditcurves import calibration, measures, pricing
from creditcurves.calibration import (
    BondQuote,
    FitConfig,
    build_regressors,
    calibrate_from_cds,
    default_eta_grid,
    fit_survival,
    implied_recovery,
    load_bond_quotes,
    load_cds_quotes,
)
from creditcurves.conventional import BondSpec, z_spread_duration
from creditcurves.curves import BaseCurve, grid_times
from creditcurves.errors import (ArbitrageError, ConvergenceError, FitError,
                                InsufficientDataError, ParseError, ScheduleError)
from creditcurves.rootfind import solve_bracketed
from creditcurves.splines import SplineBasis
from creditcurves.survival import PiecewiseHazardCurve, SplineSurvivalCurve

FIT_CONFIG = FitConfig(eta_grid=(0.01, 0.025, 0.05), recovery=0.40)


class TestInputValidation:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_clean_price(self, value):
        spec = BondSpec(coupon=0.05, freq=2, maturity=5.0)
        with pytest.raises(ValueError, match="clean_price"):
            BondQuote(id="bad", spec=spec, clean_price=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_spread_duration(self, value):
        spec = BondSpec(coupon=0.05, freq=2, maturity=5.0)
        with pytest.raises(ValueError, match="spread_duration"):
            BondQuote(id="bad", spec=spec, clean_price=0.95, spread_duration=value)

    @pytest.mark.parametrize("grid", [(0.01, float("nan")), (float("inf"),), ["0.05"],
                                      (0.05, "0.1"), (True,), (0.05, None)])
    def test_non_finite_eta_grid(self, grid):
        with pytest.raises(ValueError, match="eta_grid"):
            FitConfig(eta_grid=grid)

    def test_a_generator_grid_is_kept_for_the_fit(self):
        grid = FitConfig(eta_grid=(e for e in [0.05, 0.1])).eta_grid
        assert grid == (0.05, 0.1) and grid == FitConfig(eta_grid=(0.05, 0.1)).eta_grid

    def test_a_list_grid_leaves_the_config_hashable(self):
        config = FitConfig(eta_grid=[0.05, np.float64(0.1)])
        assert config.eta_grid == (0.05, 0.1)
        assert [type(e) for e in config.eta_grid] == [float, float]
        assert hash(config) == hash(FitConfig(eta_grid=(0.05, 0.1)))

    @pytest.mark.parametrize("factors", [0, 4])
    def test_factors_outside_knot_free_range(self, factors):
        with pytest.raises(ValueError, match="factors"):
            FitConfig(factors=factors)

    def test_unknown_weight_scheme(self):
        with pytest.raises(ValueError, match="^weight_scheme must be 'formula' or 'prose'$"):
            FitConfig(weight_scheme="x")


class TestBuildRegressors:
    def test_zero_recovery_zero_coupon(self, base_curve):
        basis = SplineBasis(eta=0.05)
        spec = BondSpec(coupon=0.0, freq=2, maturity=6.0)
        quote = BondQuote(id="zc", spec=spec, clean_price=0.7)
        row, value = build_regressors(quote, base_curve, basis, 0.0)
        assert row == pytest.approx(base_curve.df(6.0) * basis.row(6.0), rel=1e-14)
        assert value == pytest.approx(0.7)

    def test_zero_coupon_with_recovery_has_recovery_terms(self, base_curve):
        basis = SplineBasis(eta=0.05)
        spec = BondSpec(coupon=0.0, freq=2, maturity=2.0)
        quote = BondQuote(id="zc", spec=spec, clean_price=0.9)
        row, value = build_regressors(quote, base_curve, basis, 0.4)
        times = spec.payment_times
        dfs = [base_curve.df(t) for t in times]
        expected = np.zeros(3)
        for i in range(len(times) - 1):
            expected += -0.4 * (dfs[i] - dfs[i + 1]) * basis.row(times[i])
        expected += dfs[-1] * (1.0 - 0.4) * basis.row(times[-1])
        assert row == pytest.approx(expected, rel=1e-13)
        assert value == pytest.approx(0.9 - 0.4 * dfs[0])

    def test_a_knotted_basis_is_refused(self, base_curve):
        quote = BondQuote(id="x", spec=BondSpec(coupon=0.05, freq=2, maturity=5.0), clean_price=0.9)
        with pytest.raises(ValueError, match="knot-free"):
            build_regressors(quote, base_curve, SplineBasis(eta=0.05, size=4, knots=((4, 3.0),)),
                             0.4)

    @pytest.mark.parametrize("beta", [(1.0, 0.0, 0.0), (0.55, 0.3, 0.15), (0.2, 0.5, 0.3)])
    @pytest.mark.parametrize("spec_args", [(0.06, 2, 5.0, 0.0), (0.08, 4, 3.4, 0.1),
                                           (0.0, 1, 7.0, 0.0)])
    def test_linear_form_reproduces_frp_price(self, base_curve, beta, spec_args):
        # sum_k beta_k U_k plus the first-period recovery constant must equal
        # the dirty FRP price of the same bond on the same curve.
        coupon, freq, maturity, t_acc = spec_args
        basis = SplineBasis(eta=0.04)
        curve = SplineSurvivalCurve(basis, beta, horizon=20.0)
        spec = BondSpec(coupon=coupon, freq=freq, maturity=maturity, accrued_time=t_acc)
        quote = BondQuote(id="x", spec=spec, clean_price=0.5)
        row, _ = build_regressors(quote, base_curve, basis, 0.4)
        rec_const = 0.4 * (1 + coupon / (2 * freq)) * base_curve.df(spec.payment_times[0])
        linear = float(np.dot(row, beta)) + rec_const
        assert linear == pytest.approx(
            pricing.bond_pv_frp(spec, base_curve, curve, 0.4), abs=1e-13
        )


class TestFitSurvival:
    def test_round_trip(self, base_curve, true_spline_curve, round_trip_quotes):
        fit = fit_survival(round_trip_quotes, base_curve, FIT_CONFIG)
        assert fit.eta == 0.025
        grid = np.arange(0.0, 15.01, 0.05)
        worst = max(abs(fit.curve.survival(t) - true_spline_curve.survival(t)) for t in grid)
        assert worst < 1e-6
        assert np.max(np.abs(fit.das)) < 0.1e-4
        assert fit.weighted_error < 1e-10

    def test_residual_identity_against_fitted_price(self, base_curve, round_trip_quotes):
        noisy = [
            replace(q, clean_price=q.clean_price + bump)
            for q, bump in zip(round_trip_quotes, np.linspace(-0.01, 0.01, 12))
        ]
        fit = fit_survival(noisy, base_curve, FIT_CONFIG)
        for quote, resid in zip(noisy, fit.residuals):
            fitted = measures.fitted_price(quote.spec, base_curve, fit.curve, 0.40)
            assert quote.clean_price - fitted == pytest.approx(resid, abs=1e-10)

    def test_single_bond_single_factor_exact(self, base_curve):
        curve = PiecewiseHazardCurve.flat(0.02, tenor=10.0)
        spec = BondSpec(coupon=0.05, freq=2, maturity=5.0)
        price = pricing.bond_pv_frp(spec, base_curve, curve, 0.40)
        quote = BondQuote(id="only", spec=spec, clean_price=price)
        config = FitConfig(factors=1, eta_grid=(0.01, 0.02, 0.04), recovery=0.40)
        fit = fit_survival([quote], base_curve, config)
        assert fit.eta == 0.02
        assert abs(fit.residuals[0]) < 1e-12

    def test_outlier_downweighted_and_curve_stable(self, base_curve, round_trip_quotes):
        clean = fit_survival(round_trip_quotes, base_curve, FIT_CONFIG)
        bumped = list(round_trip_quotes)
        target = round_trip_quotes[5]
        bumped[5] = replace(target, clean_price=target.clean_price + 0.05)
        fit = fit_survival(bumped, base_curve, FIT_CONFIG)
        assert fit.outlier_weights[5] < 0.2
        grid = np.arange(0.0, 15.01, 0.25)
        shift = max(abs(fit.curve.survival(t) - clean.curve.survival(t)) for t in grid)
        assert shift < 5e-4

    def test_objective_non_increasing(self, base_curve, round_trip_quotes):
        bumped = list(round_trip_quotes)
        bumped[5] = replace(round_trip_quotes[5],
                            clean_price=round_trip_quotes[5].clean_price + 0.05)
        fit = fit_survival(bumped, base_curve, FIT_CONFIG)
        history = fit.objective_history
        floor = max(1e-9 * history[0], 1e-18)
        assert all(b <= a + floor for a, b in zip(history, history[1:]))

    def test_insufficient_quotes(self, base_curve, round_trip_quotes):
        with pytest.raises(InsufficientDataError, match="insufficient quotes"):
            fit_survival(round_trip_quotes[:2], base_curve, FIT_CONFIG)

    def test_duplicate_ids_are_rejected(self, base_curve, round_trip_quotes):
        # Results are reported by id, as the loader's ids are.
        quotes = [replace(q, id="dup") if j in (1, 2) else q
                  for j, q in enumerate(round_trip_quotes[:5])]
        with pytest.raises(ValueError, match="^duplicate bond id 'dup'$"):
            fit_survival(quotes, base_curve, FIT_CONFIG)
        scan = [replace(q, id="dup") if j in (0, 7) else q
                for j, q in enumerate(synthetic_quotes(base_curve, 0.04, 0.30, count=8))]
        with pytest.raises(ValueError, match="^duplicate bond id 'dup'$"):
            implied_recovery(scan, base_curve, FIT_CONFIG)
        # An excluded quote is not part of the fit.
        quotes[2] = replace(quotes[2], include=False)
        assert fit_survival(quotes, base_curve, FIT_CONFIG).ids.count("dup") == 1

    def test_rank_deficient_names_bonds(self, base_curve):
        spec = BondSpec(coupon=0.05, freq=2, maturity=5.0)
        quotes = [BondQuote(id=f"dup{j}", spec=spec, clean_price=0.95, spread_duration=4.0)
                  for j in range(3)]
        with pytest.raises(FitError, match=f"^eta={FIT_CONFIG.eta_grid[0]:g}: .*dup0"):
            fit_survival(quotes, base_curve, FIT_CONFIG)

    def test_rank_deficient_skips_zero_design_rows(self):
        # At eta = 1000 every factor underflows to 0 by t = 1, so the 1y-3y zeros have
        # all-zero design rows; only the two 3-month bonds' rows are parallel and named.
        quotes = [BondQuote(id=i, spec=BondSpec(0.0, 4, 0.25), clean_price=p)
                  for i, p in (("a", 0.99), ("b", 0.98))]
        quotes += [BondQuote(id=f"z{m}", spec=BondSpec(0.0, 1, float(m)),
                             clean_price=math.exp(-0.05 * m)) for m in (1, 2, 3)]
        config = FitConfig(eta_grid=(1000.0,), recovery=0.0)
        with pytest.raises(FitError, match="rank-deficient; collinear bonds: a, b$"):
            fit_survival(quotes, BaseCurve.flat(0.03), config)

    def test_matches_closed_form_gls_when_unconstrained(self, base_curve, round_trip_quotes):
        config = replace(FIT_CONFIG, eta_grid=(0.025,))
        fit = fit_survival(round_trip_quotes, base_curve, config)
        assert fit.active_constraints == ()
        basis = SplineBasis(eta=0.025)
        rows = [build_regressors(q, base_curve, basis, 0.40) for q in round_trip_quotes]
        design = np.vstack([r for r, _ in rows])
        target = np.array([v for _, v in rows])
        sd = np.array([z_spread_duration(q.spec, q.clean_price, base_curve)
                       for q in round_trip_quotes])
        w = 1.0 / np.sqrt(sd)
        # Lagrangian closed form for min ||W^(1/2)(U b - V)||^2 s.t. 1'b = 1.
        h = design.T @ (design * w[:, None])
        g = design.T @ (w * target)
        ones = np.ones(3)
        h_inv_g = np.linalg.solve(h, g)
        h_inv_1 = np.linalg.solve(h, ones)
        lam = (ones @ h_inv_g - 1.0) / (ones @ h_inv_1)
        beta_closed = h_inv_g - lam * h_inv_1
        assert fit.curve.beta == pytest.approx(beta_closed, abs=1e-10)

    def test_prose_weighting_variant_runs(self, base_curve, round_trip_quotes):
        config = replace(FIT_CONFIG, weight_scheme="prose")
        fit = fit_survival(round_trip_quotes, base_curve, config)
        assert fit.weighted_error < 1e-9

    def test_prices_rich_to_every_decreasing_curve_meet_the_monotonicity_bound(
        self, base_curve
    ):
        # Zero-coupon prices that imply negative hazards: the constrained optimum
        # is a near-flat curve on the slope bound at the t = 0 end, and the
        # market is rich to it at every maturity.
        quotes = [
            BondQuote(id=f"W{j}", spec=BondSpec(coupon=0.0, freq=2, maturity=float(T)),
                      clean_price=p, spread_duration=float(T))
            for j, (T, p) in enumerate(
                [(1, 0.999), (2, 0.998), (3, 0.997), (5, 0.996), (8, 0.995), (10, 0.994)]
            )
        ]
        fit = fit_survival(quotes, base_curve, FitConfig(eta_grid=(0.005, 0.02), recovery=0.0))
        assert fit.eta == 0.005
        assert fit.active_constraints == ("monotonicity:b1", "monotonicity:b2")
        assert fit.curve.survival(10.0) == pytest.approx(0.99988, abs=1e-5)
        assert (fit.residuals > 0.0).all()

    def test_a_curve_error_propagates_from_the_eta_search(
        self, monkeypatch, base_curve, round_trip_quotes
    ):
        class Rejecting(SplineSurvivalCurve):
            def __init__(self, basis, beta, horizon):
                raise ValueError(f"curve rejected at eta {basis.eta:g}")

        # Only the winning eta's curve is built, so its error is the one raised.
        winner = fit_survival(round_trip_quotes, base_curve, FIT_CONFIG).eta
        assert winner != FIT_CONFIG.eta_grid[0]
        monkeypatch.setattr(calibration, "SplineSurvivalCurve", Rejecting)
        with pytest.raises(ValueError, match=f"^curve rejected at eta {winner:g}$"):
            fit_survival(round_trip_quotes, base_curve, FIT_CONFIG)

    def test_value_error_outside_curve_validation_propagates(
        self, monkeypatch, base_curve, round_trip_quotes
    ):
        def broken(residuals, tuning):
            raise ValueError("broken weights")

        monkeypatch.setattr(calibration, "_bisquare_weights", broken)
        with pytest.raises(ValueError, match="broken weights"):
            fit_survival(round_trip_quotes, base_curve, FIT_CONFIG)

    def test_default_eta_grid_is_multiplicative(self):
        grid = default_eta_grid()
        assert grid[0] == pytest.approx(0.0025)
        assert grid[-1] == pytest.approx(0.25)
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-12) for r in ratios)


def inside(stack, call, calls=None):
    """``call``, noting each call's first argument in ``calls`` and on ``stack`` while it
    runs, so spies can tell the calls it makes from the rest."""
    def wrapper(first, *rest):
        stack.append(first)
        if calls is not None:
            calls.append(first)
        try:
            return call(first, *rest)
        finally:
            stack.pop()
    return wrapper


def full_walk_bootstrap(quotes, base, rs_rate):
    """The reference bootstrap: the quote rule up front, then every trial hazard prices a
    fresh curve by ``pricing.cds_par_spread``, a walk of the whole schedule from t = 0,
    with the bracket, solver and errors of ``calibrate_from_cds``."""
    count = 0
    for maturity, spread in quotes:
        count = pricing.check_cds_quote(maturity, spread, count)
    segments = []
    for maturity, spread in quotes:
        gaps = {}

        def spread_gap(h):
            if h not in gaps:
                candidate = PiecewiseHazardCurve(segments + [(maturity, h)])
                par = pricing.cds_par_spread(maturity, pricing.CDS_FREQ, base, candidate, rs_rate)
                gaps[h] = par - spread
            return gaps[h]

        if spread_gap(0.0) > 0.0:
            raise ArbitrageError(f"no non-negative hazard reproduces the {maturity}y quote")
        hi = 1.0
        while spread_gap(hi) < 0.0:
            if hi >= 64.0:
                raise ConvergenceError(f"no hazard up to {hi:g} reproduces the {maturity}y quote")
            hi *= 2.0
        segments.append((maturity, solve_bracketed(spread_gap, 0.0, hi)))
    return PiecewiseHazardCurve(segments)


def bootstrap_outcome(bootstrap, quotes, base, rs_rate):
    """The hazards as hex floats, or the error's type and message."""
    try:
        return [h.hex() for h in bootstrap(quotes, base, rs_rate).hazard_rates]
    except (ArbitrageError, ConvergenceError, ScheduleError, ValueError) as exc:
        return type(exc).__name__, str(exc)


BOOTSTRAP_BASES = {
    "flat 0": BaseCurve.flat(0.0),
    "flat 3%": BaseCurve.flat(0.03),
    "steep": BaseCurve.from_zero_rates([(0.25, 0.001), (2.0, 0.04), (5.0, 0.12),
                                        (10.0, 0.2)]),
}
# (quotes, base, error type or None for a curve): one case per outcome of a bootstrap.
BOOTSTRAP_CASES = {
    "hazards past 1": ([(1.0, 0.9), (2.0, 0.9)], "steep", None),
    "arbitrage": ([(1.0, 0.0200), (3.0, 0.0001)], "flat 3%", ArbitrageError),
    "bracket exhausted": ([(1.0, 0.01), (2.0, 50.0)], "flat 0", ConvergenceError),
    "off grid": ([(1.0, 0.01), (2.1, 0.02)], "steep", ScheduleError),
    "shared quarter": ([(1.0, 0.01), (1.000000001, 0.0101)], "steep", ValueError),
}


def case_example(name):
    """A ``BOOTSTRAP_CASES`` case as a hypothesis example at rs_rate 0.4."""
    quotes, base, _ = BOOTSTRAP_CASES[name]
    return example(quotes=quotes, base=base, rs_rate=0.4)


@st.composite
def cds_quote_lists(draw):
    """1-6 quotes on the quarterly grid to 10y, spreads about a level from 1bp to 4
    (hazards past 1 and an exhausted bracket included) and a falling quote now and then
    (no non-negative hazard), one maturity pushed off the grid now and then (the quote
    rule rejects the list before any solve)."""
    periods = sorted(draw(st.lists(st.integers(1, 40), min_size=1, max_size=6, unique=True)))
    maturities = [p / 4 for p in periods]
    if draw(st.integers(0, 5)) == 5:
        j = draw(st.integers(0, len(maturities) - 1))
        maturities[j] += 0.1  # still below the next quarter
    level = draw(st.floats(-4.0, 0.6))
    moves = draw(st.lists(st.floats(-0.15, 0.3), min_size=len(maturities),
                          max_size=len(maturities)))
    return [(m, 10.0 ** (level + move)) for m, move in zip(maturities, moves)]


class TestCdsBootstrap:
    def test_single_quote_near_credit_triangle(self):
        base = BaseCurve.flat(0.0)
        curve = calibrate_from_cds([(5.0, 0.0080)], base, 0.40)
        assert curve.hazard_rates[0] == pytest.approx(0.0080 / 0.60, rel=2e-3)

    def test_two_equal_quotes_near_flat_hazard(self):
        base = BaseCurve.flat(0.0)
        curve = calibrate_from_cds([(1.0, 0.01), (2.0, 0.01)], base, 0.40)
        h1, h2 = curve.hazard_rates
        assert abs(h2 - h1) < 1e-4

    def test_fixed_point(self, base_curve):
        quotes = [(1.0, 0.0080), (3.0, 0.0120), (5.0, 0.0150), (7.0, 0.0160)]
        curve = calibrate_from_cds(quotes, base_curve, 0.40)
        for maturity, spread in quotes:
            reproduced = pricing.cds_par_spread(maturity, 4, base_curve, curve, 0.40)
            assert abs(reproduced - spread) < 1e-8

    @pytest.mark.parametrize("quotes", [
        [(1.0, 0.0080), (3.0, 0.0120), (5.0, 0.0150), (7.0, 0.0160)],
        [(1.0, 0.9), (2.0, 0.9)],  # hazards past 1: the bracket end doubles
    ], ids=["hazards below 1", "hazards past 1"])
    def test_each_trial_hazard_is_priced_once(self, monkeypatch, base_curve, quotes):
        # A trial is one Q read on its trial curve; the gate's repricing reads are not trials.
        trials, gating = [], []
        read, price = PiecewiseHazardCurve.survivals, pricing.cds_par_spread

        def spy(curve, times):
            if not gating:
                trials.append(curve.segments)
            return read(curve, times)

        monkeypatch.setattr(PiecewiseHazardCurve, "survivals", spy)
        monkeypatch.setattr(pricing, "cds_par_spread", inside(gating, price))
        curve = calibrate_from_cds(quotes, base_curve, 0.40)
        assert len(trials) == len(set(trials))
        # Each segment's search starts from h = 0 and the bracket end, priced before it.
        for k in range(len(quotes)):
            tried = [s[k][1] for s in trials if len(s) == k + 1]
            assert tried[:2] == [0.0, 1.0] and curve.hazard_rates[k] in tried

    def test_one_df_a_date_q_on_the_trial_segment_and_one_repricing_a_quote(
            self, monkeypatch, base_curve):
        quotes = [(1.0, 0.0080), (3.0, 0.0120), (5.0, 0.0150), (7.0, 0.0160)]
        dfs, reads, gating, priced = [], [], [], []
        df, read, price = BaseCurve.df, PiecewiseHazardCurve.survivals, pricing.cds_par_spread

        def spy_df(base, t):
            if not gating:
                dfs.append(t)
            return df(base, t)

        def spy_read(curve, times):
            if not gating:
                reads.append((curve.segments, list(times)))
            return read(curve, times)

        monkeypatch.setattr(BaseCurve, "df", spy_df)
        monkeypatch.setattr(PiecewiseHazardCurve, "survivals", spy_read)
        monkeypatch.setattr(pricing, "cds_par_spread", inside(gating, price, priced))
        calibrate_from_cds(quotes, base_curve, 0.40)
        assert dfs == list(grid_times(7.0, 4))  # the schedule to the last quote, once
        assert priced == [m for m, _ in quotes]  # the gate: one repricing a quote
        assert reads
        for segments, times in reads:  # Q only on the dates of the segment being solved
            start = segments[-2][0] if len(segments) > 1 else 0.0
            assert times == [t for t in grid_times(segments[-1][0], 4) if t > start]

    def test_fixed_point_gate_names_the_missed_quote(self, monkeypatch, base_curve):
        price = pricing.cds_par_spread
        monkeypatch.setattr(pricing, "cds_par_spread", lambda maturity, *rest: (
            price(maturity, *rest) + (1e-9 if maturity == 3.0 else 0.0)))
        with pytest.raises(ConvergenceError,
                           match=r"^the bootstrapped curve misses the 3.0y quote by 1e-09, "
                                 r"beyond 1e-12$"):
            calibrate_from_cds([(1.0, 0.0080), (3.0, 0.0120), (5.0, 0.0150)], base_curve, 0.40)

    @pytest.mark.parametrize("name", sorted(BOOTSTRAP_CASES))
    def test_each_bootstrap_case_reaches_its_outcome(self, name):
        quotes, base, kind = BOOTSTRAP_CASES[name]
        if kind is None:
            assert max(calibrate_from_cds(quotes, BOOTSTRAP_BASES[base], 0.40).hazard_rates) > 1.0
        else:
            with pytest.raises(kind, match=r"\dy quote|span"):
                calibrate_from_cds(quotes, BOOTSTRAP_BASES[base], 0.40)

    @settings(max_examples=60, deadline=None)
    @given(quotes=cds_quote_lists(), base=st.sampled_from(sorted(BOOTSTRAP_BASES)),
           rs_rate=st.sampled_from([0.0, 0.4, 0.75]))
    @case_example("hazards past 1")
    @case_example("arbitrage")
    @case_example("bracket exhausted")
    @case_example("off grid")
    @case_example("shared quarter")  # two maturities with one last date: the rule's ValueError
    # A maturity within grid_periods' 1e-8 below a quarter: that date is past the first
    # maturity, so the second segment's walk reads it again.
    @example(quotes=[(0.9999999999, 0.01), (2.0, 0.012)], base="steep", rs_rate=0.4)
    def test_hazards_are_those_of_a_full_walk_bootstrap(self, quotes, base, rs_rate):
        curve = BOOTSTRAP_BASES[base]
        assert (bootstrap_outcome(calibrate_from_cds, quotes, curve, rs_rate)
                == bootstrap_outcome(full_walk_bootstrap, quotes, curve, rs_rate))

    def test_arbitrage_error_names_maturity(self, base_curve):
        with pytest.raises(ArbitrageError, match="3.0"):
            calibrate_from_cds([(1.0, 0.0200), (3.0, 0.0001)], base_curve, 0.40)

    def test_exhausted_hazard_bracket_names_the_quote(self, base_curve):
        with pytest.raises(ConvergenceError,
                           match=r"^no hazard up to 64 reproduces the 1.0y quote$"):
            calibrate_from_cds([(1.0, 50.0)], base_curve, 0.40)

    def test_input_validation(self, base_curve):
        with pytest.raises(InsufficientDataError):
            calibrate_from_cds([], base_curve, 0.40)
        with pytest.raises(ValueError):
            calibrate_from_cds([(2.0, 0.01), (1.0, 0.02)], base_curve, 0.40)
        with pytest.raises(ValueError):
            calibrate_from_cds([(1.0, -0.01)], base_curve, 0.40)
        for maturity in (math.inf, math.nan):
            with pytest.raises(ScheduleError, match=f"^span {maturity!r} is not a whole number"):
                calibrate_from_cds([(1.0, 0.01), (maturity, 0.02)], base_curve, 0.40)


@st.composite
def raw_cds_quote_lists(draw):
    """1-5 (maturity, spread in bp) rows: quarterly maturities, in order or not (a repeat
    or an earlier quarter), now and then moved a hair above (a shared quarter) or below
    its quarter, off the grid or to a non-finite value, and now and then a non-finite or
    non-positive spread."""
    periods = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))
    if draw(st.booleans()):
        periods = sorted(set(periods))
    rows = []
    for p in periods:
        shift = draw(st.sampled_from([0.0] * 6 + [1e-9, -1e-10, 0.1, math.nan, math.inf]))
        bp = draw(st.floats(1.0, 500.0))
        if draw(st.integers(0, 9)) == 0:
            bp = draw(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -100.0]))
        rows.append((p / 4 + shift, bp))
    return rows


class TestCdsQuoteRule:
    def test_two_maturities_on_one_quarterly_date_are_bad_input(self, tmp_path):
        message = ("the 1.000000001y quote ends on or before the previous quote's last "
                   "quarterly date 1.0")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            calibrate_from_cds([(1.0, 0.01), (1.000000001, 0.01)], BaseCurve.flat(0.03), 0.4)
        path = tmp_path / "cds.csv"
        path.write_text("maturity_years,par_spread_bp\n1.0,100\n1.000000001,100\n")
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: row 3: {message}')}$"):
            load_cds_quotes(str(path))

    @settings(max_examples=150, deadline=None)
    @given(rows=raw_cds_quote_lists())
    @example(rows=[(1.0, 100.0), (1.000000001, 100.0)])
    @example(rows=[(0.9999999999, 100.0), (2.0, 120.0)])
    def test_the_loader_and_the_bootstrap_accept_the_same_lists(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("cds") / "cds.csv"
        path.write_text("maturity_years,par_spread_bp\n"
                        + "".join(f"{m!r},{bp!r}\n" for m, bp in rows))
        quotes = [(m, bp / 1e4) for m, bp in rows]
        try:
            loaded = load_cds_quotes(str(path))
        except ParseError as exc:
            prefix = re.match(rf"{re.escape(str(path))}: row (\d+): ", str(exc))
            assert prefix and int(prefix[1]) >= 2
            kind = type(exc.__cause__)
            assert kind in (ValueError, ScheduleError)
            with pytest.raises(kind) as info:
                calibrate_from_cds(quotes, BaseCurve.flat(0.03), 0.4)
            assert str(info.value) == str(exc)[prefix.end():]
            return
        assert loaded == quotes
        try:  # past the rule, only a numerical outcome is left
            calibrate_from_cds(quotes, BaseCurve.flat(0.03), 0.4)
        except (ArbitrageError, ConvergenceError):
            pass


def synthetic_quotes(base, hazard, recovery, sigma=0.0, count=8, seed=20240501):
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, count) if sigma else np.zeros(count)
    menu = [(1, 0.05), (2, 0.055), (3, 0.05), (4, 0.06), (5, 0.05),
            (6, 0.055), (7, 0.06), (8, 0.05), (9, 0.055), (10, 0.06)]
    truth = PiecewiseHazardCurve.flat(hazard, tenor=15.0)
    quotes = []
    for j in range(count):
        maturity, coupon = menu[j]
        spec = BondSpec(coupon=coupon, freq=2, maturity=float(maturity))
        price = pricing.bond_pv_frp(spec, base, truth, recovery) + noise[j]
        quotes.append(BondQuote(id=f"S{j}", spec=spec, clean_price=price))
    return quotes


class TestImpliedRecovery:
    def test_preconditions(self, base_curve):
        quotes = synthetic_quotes(base_curve, 0.02, 0.40, count=5)
        with pytest.raises(InsufficientDataError):
            implied_recovery(quotes, base_curve)
        short_span = [replace(q, spec=BondSpec(coupon=0.05, freq=2, maturity=2.0 + 0.5 * j),
                              id=f"n{j}")
                      for j, q in enumerate(synthetic_quotes(base_curve, 0.02, 0.40, count=6))]
        with pytest.raises(InsufficientDataError):
            implied_recovery(short_span, base_curve)

    def test_recovers_generating_value(self, base_curve):
        quotes = synthetic_quotes(base_curve, 0.04, 0.30)
        config = FitConfig(eta_grid=(0.005, 0.01, 0.02, 0.05, 0.1))
        rate, fit = implied_recovery(quotes, base_curve, config)
        assert 0.25 <= rate <= 0.35
        assert fit.weighted_error < 1e-6

    def test_distressed_set_identifies_recovery(self, base_curve):
        quotes = synthetic_quotes(base_curve, 0.15, 0.30, sigma=2e-4, count=10)
        config = FitConfig(eta_grid=(0.005, 0.01, 0.02, 0.05, 0.1))
        rate, _ = implied_recovery(quotes, base_curve, config)
        assert abs(rate - 0.30) < 0.05

    def test_investment_grade_noise_swamps_recovery(self, base_curve):
        # At a 50bp hazard a realistic 10bp price noise moves the optimum
        # far from the generating value: the scan is unreliable even though
        # the objective is not perfectly flat.
        quotes = synthetic_quotes(base_curve, 0.005, 0.40, sigma=1e-3)
        config = FitConfig(eta_grid=(0.005, 0.01, 0.02, 0.05, 0.1))
        rate, _ = implied_recovery(quotes, base_curve, config)
        assert abs(rate - 0.40) > 0.05

    def test_flat_objective_flags_and_returns_default(self, base_curve):
        # A cross-section with no default information in it (prices sit on
        # the risk-free curve) cannot identify recovery at any level.
        quotes = risk_free_quotes(base_curve)
        config = FitConfig(factors=1, eta_grid=(1e-9,))
        with pytest.warns(RuntimeWarning, match="not identified") as caught:
            rate, fit = implied_recovery(quotes, base_curve, config)
        assert rate == config.recovery
        assert fit is not None
        message = str(caught[0].message)
        flat = re.fullmatch(r"recovery not identified: fit error is flat across recovery rates "
                            r"\(max - min = (\S+) < 1e-06\)", message)
        assert flat, message
        assert 0.0 <= float(flat.group(1)) < calibration.FLAT_ERROR_TOL == 1e-6


def risk_free_quotes(base):
    """Prices on the risk-free curve: recovery is not identified."""
    quotes = []
    for j, maturity in enumerate((1, 2, 3, 5, 6, 8)):
        spec = BondSpec(coupon=0.05, freq=2, maturity=float(maturity))
        price = sum(cf * base.df(t) for t, cf in spec.cash_flows())
        quotes.append(BondQuote(id=f"RF{j}", spec=spec, clean_price=price))
    return quotes


class TestImpliedRecoverySharedPrecompute:
    def test_returned_fit_equals_direct_fit(self, base_curve):
        quotes = synthetic_quotes(base_curve, 0.15, 0.30, sigma=2e-4, count=8)
        config = FitConfig(eta_grid=(0.01, 0.05, 0.1))
        rate, fit = implied_recovery(quotes, base_curve, config)
        direct = fit_survival(quotes, base_curve, replace(config, recovery=rate))
        assert fit.eta == direct.eta
        assert fit.active_constraints == direct.active_constraints
        assert fit.ids == direct.ids
        assert fit.residuals.tolist() == direct.residuals.tolist()
        assert fit.das.tolist() == direct.das.tolist()
        assert fit.weighted_error == direct.weighted_error

    @pytest.mark.parametrize("scan", [False, True])
    def test_das_is_measures_das_on_the_fitted_curve(self, base_curve, scan):
        quotes = synthetic_quotes(base_curve, 0.15, 0.30, sigma=2e-4, count=8)
        config = FitConfig(eta_grid=(0.01, 0.05, 0.1), recovery=0.30)
        rate, fit = (implied_recovery(quotes, base_curve, config) if scan
                     else (0.30, fit_survival(quotes, base_curve, config)))
        assert fit.das.tolist() == [
            measures.das(q.spec, q.clean_price, base_curve, fit.curve, rate) for q in quotes]

    @pytest.mark.parametrize("flat", [False, True])
    def test_one_spread_duration_and_one_das_per_bond(self, monkeypatch, base_curve, flat):
        if flat:
            quotes = risk_free_quotes(base_curve)
            config = FitConfig(factors=1, eta_grid=(1e-9,))
        else:
            quotes = synthetic_quotes(base_curve, 0.04, 0.30, count=6)
            config = FitConfig(eta_grid=(0.01, 0.05))
        calls = {"das": 0, "spread_duration": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(calibration, "solve_spread", counted("das", calibration.solve_spread))
        monkeypatch.setattr(calibration, "spread_duration",
                            counted("spread_duration", calibration.spread_duration))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            implied_recovery(quotes, base_curve, config)
        assert calls == {"das": len(quotes), "spread_duration": len(quotes)}


def fit_fields(fit):
    """Every field of a fit, floats as bit patterns."""
    return (fit.ids, fit.eta, fit.active_constraints, fit.curve.horizon,
            [float(b).hex() for b in fit.curve.beta], fit.residuals.tobytes(),
            fit.das.tobytes(), fit.outlier_weights.tobytes(), float(fit.weighted_error).hex(),
            [float(h).hex() for h in fit.objective_history])


_FEAS_TOL, _MULT_TOL = calibration._FEAS_TOL, calibration._MULT_TOL


def reference_solve(design, target, weights, ineq, bound):
    """Minimize sum w_j (U_j beta - V_j)^2 s.t. sum(beta) = 1, G beta >= b.

    Primal active-set iteration from the strictly feasible start
    beta = (1, 0, ..., 0): solve the working-set equality problem, step
    to it clipped at the first blocking constraint, and at a working-set
    optimum drop the constraint with the most negative multiplier.  With
    no inequality active this is a single equality-constrained solve.
    """
    # The one-problem active-set routine the stacked solvers replaced, kept
    # verbatim as the oracle whose sorted active set each problem must end on.
    k = design.shape[1]
    wsqrt = np.sqrt(weights)
    dw = design * wsqrt[:, None]
    hess = 2.0 * dw.T @ dw
    lin = 2.0 * dw.T @ (wsqrt * target)
    a_eq = np.ones(k)

    beta = np.zeros(k)
    beta[0] = 1.0
    slack = ineq @ beta - bound
    if np.any(slack < -_FEAS_TOL):
        raise FitError("infeasible start: Q(H) = exp(-eta H) is below the slack")
    binding = [int(i) for i in np.argsort(slack) if slack[i] <= _FEAS_TOL]
    active: list[int] = binding[: max(k - 1, 0)]

    for _ in range(50 + 10 * len(ineq)):
        rows = [a_eq] + [ineq[i] for i in active]
        constraints = np.vstack(rows)
        m = constraints.shape[0]
        kkt = np.zeros((k + m, k + m))
        kkt[:k, :k] = hess
        kkt[:k, k:] = constraints.T
        kkt[k:, :k] = constraints
        rhs = np.concatenate([lin, np.array([1.0] + [bound[i] for i in active])])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError as exc:
            raise FitError(f"singular KKT system (active set {active})") from exc
        candidate = sol[:k]
        step = candidate - beta
        if np.max(np.abs(step)) <= 1e-13:
            # At the working-set optimum.  Stationarity reads
            # H beta + A' nu = lin, so inequality multipliers are -nu and
            # optimality requires nu <= 0.
            nu = sol[k + 1 :]
            if len(nu) == 0 or np.max(nu) <= _MULT_TOL:
                return candidate, sorted(active)
            active.pop(int(np.argmax(nu)))
            continue
        # Step toward the candidate, stopping at the first blocking
        # constraint among those not in the working set.
        slopes = ineq @ step
        rooms = ineq @ beta - bound
        alpha = 1.0
        blocker = -1
        for i in np.flatnonzero(slopes < -1e-14):
            if i in active:
                continue
            limit = max(rooms[i], 0.0) / (-slopes[i])
            if limit < alpha - 1e-14:
                alpha = limit
                blocker = int(i)
        beta = beta + alpha * step
        if blocker >= 0:
            active.append(blocker)
    raise FitError("active-set iteration did not converge")


def framed(designs, targets, weights, ineq, bound):
    """A stack of problems, each with its own G and b, as the solver's arguments."""
    return designs, targets, weights, calibration._kkt_frames(ineq, bound), np.arange(len(ineq))


def solve_stack(stack):
    """``_solve_constrained_wls`` on a stack of problems with their own G and b."""
    return calibration._solve_constrained_wls(*framed(*stack))


def reference_stack(designs, targets, weights, frames, index):
    """Each problem of a stack through ``reference_solve``, in the stacked
    solver's arguments and return shape: a failure's status is its message's index
    in ``_STATUS``, or ``_NO_SET`` for a message the stacked solver does not have."""
    ineq, bound = frames[0][index], frames[1][index]
    betas, active = np.zeros((len(designs), designs.shape[2])), np.zeros(ineq.shape[:2], bool)
    status = np.zeros(len(designs), dtype=int)
    for i, problem in enumerate(zip(designs, targets, weights, ineq, bound)):
        try:
            betas[i], rows = reference_solve(*problem)
            active[i, rows] = True
        except FitError as exc:
            status[i] = (calibration._STATUS.index(str(exc)) if str(exc) in calibration._STATUS
                         else calibration._NO_SET)
    return betas, active, status


def outcomes(betas, active, status):
    """Per problem: its error message, or beta as hex floats and its active rows."""
    return [calibration._STATUS[code].format(betas.shape[1] - 1) if code
            else ([float(b).hex() for b in beta], np.flatnonzero(rows).tolist())
            for beta, rows, code in zip(betas, active, status.tolist())]


def reference_paths(designs, targets, weights, ineq, bound):
    """The paths the reference takes on a stack: "unblocked" (a first step
    that nothing blocks), "blocked", "multiplier drop", "singular KKT" and
    "infeasible start", read off the sizes of the KKT systems it solves."""
    paths = set()
    for problem in zip(designs, targets, weights, ineq, bound):
        sizes = []

        def spy(kkt, rhs, solve=np.linalg.solve):
            sizes.append(len(kkt))
            return solve(kkt, rhs)

        with mock.patch.object(np.linalg, "solve", spy):
            try:
                reference_solve(*problem)
            except FitError as exc:
                paths.add("singular KKT" if "singular" in str(exc) else "infeasible start")
        if len(sizes) > 1 and sizes[1] == sizes[0]:
            paths.add("unblocked")
        paths.update("blocked" if b > a else "multiplier drop"
                     for a, b in zip(sizes, sizes[1:]) if b != a)
    return paths


def kkt_solve(design, target, weights, ineq, bound, active):
    """(beta, nu) from one ``np.linalg.solve`` of the KKT system of one problem with
    the rows ``active`` of G (sorted) as equalities, or None where it is singular."""
    k = design.shape[1]
    wsqrt = np.sqrt(weights)[None]
    dw = design[None] * wsqrt[:, :, None]
    dwt = 2.0 * np.swapaxes(dw, 1, 2)
    hess, lin = (dwt @ dw)[0], (dwt @ (wsqrt * target)[:, :, None])[0, :, 0]
    rows = np.vstack([np.ones(k)] + [ineq[i] for i in active])
    kkt = np.zeros((k + len(rows),) * 2)
    kkt[:k, :k], kkt[:k, k:], kkt[k:, :k] = hess, rows.T, rows
    rhs = np.concatenate([lin, [1.0], bound[active]])
    try:
        sol = np.linalg.solve(kkt[None], rhs[None, :, None])[0, :, 0]
    except np.linalg.LinAlgError:
        return None
    return sol[:k], sol[k + 1:]


def optimal_set(problem, active):
    """Whether ``active`` passes the solver's test: its KKT point is feasible
    (within ``_FEAS_TOL`` times each row's largest entry) and its multipliers
    -nu >= -``_MULT_TOL``."""
    _, _, _, ineq, bound = problem
    solved = kkt_solve(*problem, active)
    if solved is None:
        return False
    beta, nu = solved
    return bool((ineq @ beta - bound >= -_FEAS_TOL * np.abs(ineq).max(axis=1)).all()
                and (nu <= _MULT_TOL).all())


def working_sets(m, k):
    """Every working set of at most k - 1 of m rows, by size and then row index."""
    return [list(s) for size in range(min(k - 1, m) + 1)
            for s in itertools.combinations(range(m), size)]


def objective(design, target, weights, beta):
    """The WLS objective sum w (U beta - V)^2 and its gradient."""
    r = design @ beta - target
    return float(np.sum(weights * r * r)), 2.0 * design.T @ (weights * r)


def noise_floor(target, weights):
    """Objective float noise where prices fit exactly: residuals of 1e-10 of the prices."""
    return 1e-20 * float(np.sum(weights * target**2))


def assert_matches_reference(stack):
    """Each problem of ``stack`` ends on the first working set, by size and then
    row index, that passes ``optimal_set``, with the beta of one solve of that
    set's KKT system.  That set is the reference's sorted active set, or precedes
    it where the reference's set passes too (one optimum with two working sets,
    or a weighted design that leaves beta free on sum(beta) = 1), and then its
    objective is no worse.  A problem whose start is infeasible fails with the
    reference's message, and one whose equality-only KKT system is singular
    fails as the reference's first solve does from the empty set."""
    betas, active, status = solve_stack(stack)
    ref_betas, ref_active, ref_status = reference_stack(*framed(*stack))
    messages = outcomes(betas, active, status)
    sets = working_sets(*stack[3].shape[1:])
    for i, problem in enumerate(zip(*stack)):
        chosen, ref_chosen = (np.flatnonzero(mask[i]).tolist() for mask in (active, ref_active))
        if ref_status[i] == calibration._INFEASIBLE:
            assert messages[i] == "infeasible start: Q(H) = exp(-eta H) is below the slack"
            continue
        if kkt_solve(*problem, []) is None:
            assert messages[i] == "singular KKT system (active set [])"
            continue
        assert status[i] == 0
        assert betas[i].tobytes() == kkt_solve(*problem, chosen)[0].tobytes()
        first = sets.index(chosen)
        assert optimal_set(problem, chosen)
        assert not any(optimal_set(problem, s) for s in sets[:first])
        if ref_status[i] == 0 and chosen != ref_chosen:
            assert sets.index(ref_chosen) > first and optimal_set(problem, ref_chosen)
            design, target, weights = problem[:3]
            assert (objective(design, target, weights, betas[i])[0]
                    <= objective(design, target, weights, ref_betas[i])[0] * (1.0 + 1e-9)
                    + noise_floor(target, weights))


BASE = BaseCurve.from_zero_rates([(0.5, 0.02), (2.0, 0.025), (5.0, 0.03), (10.0, 0.035),
                                  (30.0, 0.04)])
RATES = [step / 100.0 for step in range(91)]


def stack_problem(hazard, recovery, sigma, eta, picks, scales, binding=None):
    """A stack of the fit's problems at one eta: one per picked recovery rate,
    weights = base weights * ``scales`` (cycled over the bonds), and row
    ``binding`` of G made binding at the start; G and b repeat per problem."""
    quotes = synthetic_quotes(BASE, hazard, recovery, sigma=sigma)
    prepared = calibration._QuoteSet(quotes, BASE, FitConfig())
    a_phi, b_phi, ineq, bound = (x[0] for x in prepared.design_grid([SplineBasis(eta=eta)])[:4])
    rates = np.array([RATES[i] for i in picks])
    designs = a_phi - rates[:, None, None] * b_phi
    targets = prepared.v0 - rates[:, None] * prepared.v1
    weights = prepared.base_w * np.resize(np.asarray(scales, dtype=float), targets.shape)
    if binding is not None:
        bound = bound.copy()
        bound[binding % len(bound)] = ineq[binding % len(bound), 0]
    return (designs, targets, weights, np.repeat(ineq[None], len(rates), axis=0),
            np.repeat(bound[None], len(rates), axis=0))


# (hazard, recovery, sigma, eta, rate picks, weight scales, binding row): one
# stack per path of the reference's active-set iteration; the row 0 made
# binding at the start has a multiplier of the wrong sign.
PATH_EXAMPLES = {
    "unblocked": (0.04, 0.4, 0.0, 0.1, [40], [1.0], None),
    "blocked": (0.04, 0.4, 1e-3, 0.02, [0, 40, 90], [1.0, 0.0, 0.3, 1.0, 1.0, 0.0, 1.0, 0.5], None),
    "multiplier drop": (0.04, 0.4, 1e-3, 0.02, [0, 40, 90], [1.0], 0),
    "singular KKT": (0.04, 0.4, 0.0, 0.1, [10, 40, 70], [1.0] * 8 + [0.0] * 8, None),
    "infeasible start": (0.04, 0.4, 0.0, 2.0, [20, 40], [1.0], None),
}


def three_factor_stack(targets, ineq, bound):
    """Problems min |beta - c|^2 s.t. sum(beta) = 1, G beta >= b, one per target c."""
    count = len(targets)
    return (np.repeat(np.eye(3)[None], count, axis=0), np.array(targets, dtype=float),
            np.ones((count, 3)), np.repeat(np.array(ineq, dtype=float)[None], count, axis=0),
            np.repeat(np.array(bound, dtype=float)[None], count, axis=0))


# Rows 0 and 1 are both beta_1 <= 0, row 2 is beta_2 <= 0.  For c = (1, 1, 0)
# the optimum (1, 0, 0) is the KKT point of {0}, {1}, {0, 2} and {1, 2}.
DEGENERATE = ([[0.0, -1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]], [0.0, 0.0, 0.0])


class TestStackedSolver:
    @settings(max_examples=40, deadline=None)
    @given(hazard=st.floats(0.005, 0.3), recovery=st.floats(0.0, 0.6),
           sigma=st.sampled_from([0.0, 1e-3]), eta=st.sampled_from([0.005, 0.02, 0.1, 0.5, 2.0]),
           picks=st.lists(st.integers(0, 90), min_size=1, max_size=8, unique=True),
           scales=st.lists(st.sampled_from([0.0, 0.3, 1.0]), min_size=1, max_size=24),
           binding=st.none() | st.integers(0, 80))
    def test_each_problem_of_a_stack_equals_the_scalar_routine(
            self, hazard, recovery, sigma, eta, picks, scales, binding):
        assert_matches_reference(stack_problem(hazard, recovery, sigma, eta, picks, scales,
                                               binding))

    @pytest.mark.parametrize("path", PATH_EXAMPLES)
    def test_each_path_occurs_and_matches_the_scalar_routine(self, path):
        stack = stack_problem(*PATH_EXAMPLES[path])
        assert path in reference_paths(*stack)
        assert_matches_reference(stack)

    def test_a_singular_problem_fails_alone(self):
        stack = stack_problem(*PATH_EXAMPLES["singular KKT"])
        together = outcomes(*solve_stack(stack))
        assert [type(o) for o in together] == [tuple, str, tuple]
        assert together[1] == "singular KKT system (active set [])"
        for i in (0, 2):
            alone = [a[i:i + 1] for a in stack]
            assert outcomes(*solve_stack(alone)) == [together[i]]

    def test_a_degenerate_optimum_keeps_the_smallest_set_then_the_lowest_index(self):
        stack = three_factor_stack([[1.0, 1.0, 0.0]], *DEGENERATE)
        problem = [a[0] for a in stack]
        beta = kkt_solve(*problem, [0])[0]
        for tied in ([1], [0, 2], [1, 2]):
            assert np.abs(kkt_solve(*problem, tied)[0] - beta).max() <= 1e-15
            assert optimal_set(problem, tied)
        assert kkt_solve(*problem, [0, 1]) is None  # a singular set drops alone
        assert outcomes(*solve_stack(stack)) == [([float(b).hex() for b in beta], [0])]

    def test_a_problem_no_set_satisfies_fails_alone(self, monkeypatch):
        # c = (1, 0, 0) is feasible and needs no row; c = (1, 1, 0) needs row 0,
        # whose multiplier no longer passes once the tolerance is below it.
        stack = three_factor_stack([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]], *DEGENERATE)
        monkeypatch.setattr(calibration, "_MULT_TOL", -10.0)
        betas, active, status = solve_stack(stack)
        assert (betas[0].tolist(), active[0].tolist()) == ([1.0, 0.0, 0.0], [False] * 3)
        assert status.tolist() == [0, calibration._NO_SET]
        assert outcomes(betas, active, status)[1] == "no working set of at most 2 rows is optimal"

    @settings(max_examples=30, deadline=None)
    @given(hazard=st.floats(0.005, 0.3), recovery=st.floats(0.0, 0.6),
           sigma=st.sampled_from([0.0, 1e-3]), eta=st.sampled_from([0.005, 0.02, 0.1, 0.5]),
           picks=st.lists(st.integers(0, 90), min_size=1, max_size=4, unique=True),
           scales=st.lists(st.sampled_from([0.3, 1.0]), min_size=1, max_size=8),
           binding=st.none() | st.integers(0, 80))
    def test_no_feasible_point_found_by_slsqp_does_better(
            self, hazard, recovery, sigma, eta, picks, scales, binding):
        # An oracle independent of the reference: scipy's SLSQP from the same start.
        optimize = pytest.importorskip("scipy.optimize")
        stack = stack_problem(hazard, recovery, sigma, eta, picks, scales, binding)
        betas, _, status = solve_stack(stack)
        for i, (design, target, weights, ineq, bound) in enumerate(zip(*stack)):
            if status[i]:
                continue
            beta = betas[i]
            assert abs(beta.sum() - 1.0) <= 1e-10
            assert (ineq @ beta - bound >= -1e-10).all()
            res = optimize.minimize(
                lambda b: objective(design, target, weights, b), np.eye(len(beta))[0],
                jac=True, method="SLSQP",
                constraints=[{"type": "eq", "fun": lambda b: b.sum() - 1.0},
                             {"type": "ineq", "fun": lambda b: ineq @ b - bound}],
                options={"ftol": 1e-15, "maxiter": 500})
            if (not res.success or abs(res.x.sum() - 1.0) > 1e-9
                    or (ineq @ res.x - bound < -1e-9).any()):
                continue
            # Where the prices fit exactly both objectives are float noise.
            assert (objective(design, target, weights, beta)[0]
                    <= res.fun * (1.0 + 1e-9) + noise_floor(target, weights))


def core_fits(prepared, rates):
    """Every rate's ``FitResult`` from one ``_fit_core`` call, and its errors."""
    errors, result = calibration._fit_core(prepared, rates)
    return [result(j) for j in range(len(rates))], errors


def recovery_case(case):
    """Quotes and config of an identified scan, or of a flat one whose default
    rate is on ("flat") or off ("flat off grid") the scan's 0.01 grid."""
    if case == "scan":
        return synthetic_quotes(BASE, 0.04, 0.30, count=8), FitConfig(eta_grid=(0.01, 0.05, 0.1))
    recovery = 0.405 if case == "flat off grid" else 0.40
    return risk_free_quotes(BASE), FitConfig(factors=1, eta_grid=(1e-9,), recovery=recovery)


def beta_tolerance(prepared, fit, rate):
    """How far two KKT solves of a fit may put beta apart: both solve systems on
    H = 2 D'D, D = sqrt(w) (A - R B) Phi(eta) the weighted design on the fit's eta and
    weights, so each is within about cond(H) = cond(D)^2 unit roundoffs of the optimum,
    relative to the largest |beta|."""
    a_phi, b_phi = (x[0] for x in prepared.design_grid([SplineBasis(eta=fit.eta)])[:2])
    design = np.sqrt(prepared.base_w * fit.outlier_weights)[:, None] * (a_phi - rate * b_phi)
    return np.linalg.cond(design) ** 2 * np.finfo(float).eps * np.abs(fit.curve.beta).max()


class TestBatchedFitCore:
    @settings(max_examples=25, deadline=None)
    @given(sigma=st.sampled_from([0.0, 2e-4, 1e-3]), hazard=st.floats(0.005, 0.2),
           recovery=st.floats(0.0, 0.6),
           picks=st.lists(st.integers(0, 90), min_size=1, max_size=6, unique=True))
    # beta in the hundreds, cond(D) 6.4e4: the stacked and reference betas differ by 2.5e-9
    # relative, 2.7e-3 of ``beta_tolerance``.
    @example(sigma=0.0, hazard=0.07585277394541208, recovery=2.220446049250313e-16,
             picks=[0, 54])
    def test_each_rate_of_a_stack_equals_its_own_fit(self, sigma, hazard, recovery, picks):
        quotes = synthetic_quotes(BASE, hazard, recovery, sigma=sigma)
        grid = (0.005, 0.02, 0.1)
        prepared = calibration._QuoteSet(quotes, BASE, FitConfig(eta_grid=grid))
        rates = [RATES[i] for i in picks]
        fits, errors = core_fits(prepared, rates)
        with mock.patch.object(calibration, "_solve_constrained_wls", reference_stack):
            reference = core_fits(prepared, rates)[0]
        singles = [calibration._QuoteSet(quotes, BASE, FitConfig(eta_grid=(eta,)))
                   for eta in grid]
        assert len(fits) == len(rates)
        assert errors.tolist() == [fit.weighted_error for fit in fits]
        for rate, fit, ref in zip(rates, fits, reference):
            # The reference's working set may end unsorted: its beta can move by the
            # conditioning of the fit's weighted design, its choices not.
            assert (fit.eta, fit.active_constraints) == (ref.eta, ref.active_constraints)
            assert (np.abs(np.subtract(fit.curve.beta, ref.curve.beta)).max()
                    <= beta_tolerance(prepared, fit, rate))
            # DAS included: a stacked rate is bit for bit its one-rate fit.
            assert fit_fields(fit) == fit_fields(core_fits(prepared, [rate])[0][0])
            # The multi-eta fit is the best of its single-eta fits, the earliest on a tie.
            alone = []
            for single in singles:
                try:
                    alone.append(core_fits(single, [rate])[0][0])
                except FitError:
                    pass
            assert fit_fields(fit) == fit_fields(
                min(alone, key=lambda f: f.objective_history[-1]))

    @pytest.mark.parametrize("case", ["scan", "flat", "flat off grid"])
    def test_implied_recovery_builds_one_curve_per_call(self, monkeypatch, case):
        quotes, config = recovery_case(case)
        core, cores, built, solves = calibration._fit_core, [], [], []

        def spy_core(prepared, recoveries):
            cores.append(len(recoveries))
            return core(prepared, recoveries)

        class Counted(SplineSurvivalCurve):
            def __init__(self, *args, **kwargs):
                built.append((cores[-1], args[0].eta))
                super().__init__(*args, **kwargs)

        def spy_solve(*args, solve=calibration.solve_spread):
            solves.append(len(cores))
            return solve(*args)

        monkeypatch.setattr(calibration, "_fit_core", spy_core)
        monkeypatch.setattr(calibration, "SplineSurvivalCurve", Counted)
        monkeypatch.setattr(calibration, "solve_spread", spy_solve)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rate, fit = implied_recovery(quotes, BASE, config)
        # Off the grid the 91-rate stack builds nothing and the one-rate refit builds one.
        assert cores == ([len(RATES), 1] if case == "flat off grid" else [len(RATES)])
        assert built == [(cores[-1], fit.eta)]
        assert solves == [len(cores)] * len(quotes)
        assert (rate == config.recovery) == (case != "scan")
        # That one DAS pass is ``measures.das`` at the returned rate.
        assert fit.das.tolist() == [
            measures.das(q.spec, q.clean_price, BASE, fit.curve, rate) for q in quotes]

    def test_failed_candidate_drops_only_its_rate(self, monkeypatch):
        quotes = synthetic_quotes(BASE, 0.04, 0.30, count=8)
        prepared = calibration._QuoteSet(quotes, BASE, FitConfig(eta_grid=(0.01, 0.05, 0.1)))
        solve = calibration._solve_constrained_wls
        seen = []

        def spy(designs, targets, *args):
            seen.extend(zip(designs.copy(), targets.copy()))
            return solve(designs, targets, *args)

        def locate(design, target):
            for eta in prepared.config.eta_grid:
                a_phi, b_phi = (x[0] for x in prepared.design_grid([SplineBasis(eta=eta)])[:2])
                for j, rate in enumerate(RATES):
                    if (np.array_equal(a_phi - rate * b_phi, design)
                            and np.array_equal(prepared.v0 - rate * prepared.v1, target)):
                        return eta, j

        monkeypatch.setattr(calibration, "_solve_constrained_wls", spy)
        clean = core_fits(prepared, RATES)[0]
        # Fail a candidate that wins its rate, in a stack that also holds
        # other rates' winners at its eta.
        bad_design, bad_target, bad_eta, j = next(
            (design, target, eta, j) for design, target in seen
            for eta, j in [locate(design, target)] if clean[j].eta == eta)

        def failing(designs, targets, *args):
            betas, active, status = solve(designs, targets, *args)
            for i, (design, target) in enumerate(zip(designs, targets)):
                if np.array_equal(design, bad_design) and np.array_equal(target, bad_target):
                    status[i] = calibration._NO_SET
            return betas, active, status

        monkeypatch.setattr(calibration, "_solve_constrained_wls", failing)
        patched = core_fits(prepared, RATES)[0]
        assert patched[j].eta != bad_eta
        assert sum(fit.eta == bad_eta for fit in patched) > 1
        for i, (before, after) in enumerate(zip(clean, patched)):
            if i != j:
                assert fit_fields(after) == fit_fields(before)

    def test_one_solver_call_per_irls_step(self, monkeypatch):
        quotes = synthetic_quotes(BASE, 0.04, 0.30, sigma=1e-3, count=8)
        grid = (0.01, 0.05, 0.1)
        prepared = calibration._QuoteSet(quotes, BASE, FitConfig(eta_grid=grid))
        solve, calls = calibration._solve_constrained_wls, []

        def spy(designs, *args):
            calls.append(len(designs))
            return solve(designs, *args)

        monkeypatch.setattr(calibration, "_solve_constrained_wls", spy)
        fits = core_fits(prepared, RATES)[0]
        steps = max(len(fit.objective_history) for fit in fits)
        assert len(calls) <= calibration.OUTLIER_MAX_ITER
        assert calls[0] == len(grid) * len(RATES)
        assert len(calls) >= steps


class TestInfeasibleEta:
    """An eta at which the start beta = (1, 0, ..., 0) breaks the positivity
    bound is skipped; the other etas still fit."""

    base = BaseCurve.from_zero_rates([(0.5, 0.02), (2, 0.025), (5, 0.03), (10, 0.035)])

    def quotes(self, maturities):
        """The README quickstart's quotes: 5% bonds on a flat 200bp hazard."""
        curve = PiecewiseHazardCurve.flat(0.02)
        specs = [BondSpec(coupon=0.05, freq=2, maturity=float(t)) for t in maturities]
        return [BondQuote(id=f"b{t}", spec=spec,
                          clean_price=pricing.bond_pv_frp(spec, self.base, curve, 0.40))
                for t, spec in zip(maturities, specs)]

    def test_the_eta_alone_fails(self):
        with pytest.raises(FitError, match="infeasible start"):
            fit_survival(self.quotes((2, 3, 5, 7, 10)), self.base, FitConfig(eta_grid=(2.0,)))

    def test_its_error_names_the_eta_and_the_violated_row(self):
        # At beta = e1 the positivity row at the horizon reads exp(-2 * 15) = 9.4e-14,
        # and every monotonicity row reads 1.
        assert math.exp(-30.0) < calibration.CONSTRAINT_SLACK
        with pytest.raises(FitError) as raised:
            fit_survival(self.quotes((2, 3, 5, 7, 10)), self.base, FitConfig(eta_grid=(2.0,)))
        assert str(raised.value) == (
            f"eta=2 (positivity@15 = {math.exp(-30.0):.3g} at beta = e1, CONSTRAINT_SLACK = "
            "1e-08): infeasible start: Q(H) = exp(-eta H) is below the slack")

    def test_fit_survival_skips_it(self):
        quotes = self.quotes((2, 3, 5, 7, 10))
        fit = fit_survival(quotes, self.base, FitConfig(eta_grid=(0.05, 2.0)))
        alone = fit_survival(quotes, self.base, FitConfig(eta_grid=(0.05,)))
        assert fit.eta == 0.05
        assert fit_fields(fit) == fit_fields(alone)

    def test_implied_recovery_skips_it(self):
        quotes = self.quotes((1, 2, 3, 5, 7, 10))
        rate, fit = implied_recovery(quotes, self.base, FitConfig(eta_grid=(0.05, 2.0)))
        alone_rate, alone = implied_recovery(quotes, self.base, FitConfig(eta_grid=(0.05,)))
        assert fit.eta == 0.05
        assert (rate, fit_fields(fit)) == (alone_rate, fit_fields(alone))


class TestMonotonicityRows:
    """The fit's monotonicity rows are the Bernstein coefficients of the slope
    polynomial g(x) = sum_k k beta_k x^(k-1) on [exp(-eta H), 1]."""

    @settings(max_examples=60, deadline=None)
    @given(eta=st.floats(0.001, 3.0), maturity=st.integers(1, 30), size=st.integers(1, 3),
           coefficients=st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3))
    def test_non_negative_rows_bound_the_slope_polynomial(self, eta, maturity, size,
                                                           coefficients):
        spec = BondSpec(coupon=0.05, freq=2, maturity=float(maturity))
        prepared = calibration._QuoteSet([BondQuote(id="b", spec=spec, clean_price=1.0)], BASE)
        _, _, ineq, bound, labels = prepared.design_grid([SplineBasis(eta=eta, size=size)])
        ineq, bound = ineq[0], bound[0]
        assert labels == [f"monotonicity:b{j}" for j in range(size)] + [
            f"positivity@{maturity + 5}"]
        assert (bound == calibration.CONSTRAINT_SLACK).all()
        rows, wanted = ineq[:size], np.array(coefficients[:size])
        assert (rows[:, 0] == 1.0).all()  # beta = e1 has g = 1
        beta = np.linalg.solve(rows, wanted)
        x0 = math.exp(-eta * prepared.horizon)
        x = np.linspace(x0, 1.0, 2001)
        s, n = (x - x0) / (1.0 - x0), size - 1
        g = sum(k * b * x ** (k - 1) for k, b in enumerate(beta, start=1))
        bernstein = sum(c * math.comb(n, j) * s**j * (1.0 - s) ** (n - j)
                        for j, c in enumerate(wanted))
        scale = 1.0 + size * np.abs(beta).sum() + wanted.sum()
        assert np.abs(g - bernstein).max() <= 1e-12 * scale
        assert g.min() >= -1e-12 * scale


def per_eta_build(prepared, basis):
    """One eta's (A Phi, B Phi, G, b, labels) built alone: Phi through ``SplineBasis.row``
    at the payment dates and at the horizon, the Bernstein rows in Python floats."""
    phi, starts = basis.row(prepared.times), [lo for lo, _ in prepared.spans]
    n, x0 = basis.size - 1, math.exp(-basis.eta * prepared.horizon)
    bernstein = [[k * sum(math.comb(j, i) * math.comb(n - j, k - 1 - i) * x0 ** (k - 1 - i)
                          for i in range(min(j, k - 1) + 1)) / math.comb(n, k - 1)
                  for k in range(1, n + 2)] for j in range(n + 1)]
    ineq = np.vstack(bernstein + [basis.row(prepared.horizon)])
    return (np.add.reduceat(prepared.a[:, None] * phi, starts, axis=0),
            np.add.reduceat(prepared.b[:, None] * phi, starts, axis=0),
            ineq, np.full(len(ineq), calibration.CONSTRAINT_SLACK),
            [f"monotonicity:b{j}" for j in range(n + 1)] + [f"positivity@{prepared.horizon:g}"])


def hexes(array):
    """An array's shape and its entries as hex floats."""
    return np.shape(array), [float(x).hex() for x in np.ravel(array)]


# (coupon, freq, periods to maturity, accrued fraction of a period)
BOND_TERMS = st.tuples(st.sampled_from([0.0, 0.03, 0.05, 0.08]), st.sampled_from([1, 2, 4]),
                       st.integers(1, 120), st.sampled_from([0.0, 0.25, 0.5]))


class TestDesignGrid:
    """``_QuoteSet.design_grid`` builds every eta of a fit at once."""

    @settings(max_examples=60, deadline=None)
    @given(terms=st.lists(BOND_TERMS, min_size=1, max_size=12),
           etas=st.lists(st.floats(1e-4, 5.0), min_size=1, max_size=13), size=st.integers(1, 3))
    def test_each_eta_is_bit_for_bit_its_own_build(self, terms, etas, size):
        specs = [BondSpec(coupon=coupon, freq=freq, accrued_time=frac / freq,
                          maturity=(min(periods, 30 * freq) - frac) / freq)
                 for coupon, freq, periods, frac in terms]
        quotes = [BondQuote(id=f"b{i}", spec=spec, clean_price=0.9) for i, spec in enumerate(specs)]
        prepared = calibration._QuoteSet(quotes, BASE)
        bases = [SplineBasis(eta=eta, size=size) for eta in etas]
        *arrays, labels = prepared.design_grid(bases)
        for e, basis in enumerate(bases):
            *alone, alone_labels = per_eta_build(prepared, basis)
            assert labels == alone_labels
            for grid_part, alone_part in zip(arrays, alone):
                assert hexes(grid_part[e]) == hexes(alone_part)

    @pytest.mark.parametrize("scan", [False, True])
    def test_one_grid_and_one_frame_build_per_fit(self, monkeypatch, scan):
        quotes, config = recovery_case("scan")
        grid, frames, cores, grids, frame_sets = (calibration._QuoteSet.design_grid,
                                                  calibration._kkt_frames,
                                                  calibration._fit_core, [], [])
        rates = []

        def spy_grid(prepared, bases):
            grids.append(len(bases))
            return grid(prepared, bases)

        def spy_frames(ineq, bound):
            frame_sets.append(ineq.shape)
            return frames(ineq, bound)

        def spy_core(prepared, recoveries):
            rates.append(len(recoveries))
            return cores(prepared, recoveries)

        monkeypatch.setattr(calibration._QuoteSet, "design_grid", spy_grid)
        monkeypatch.setattr(calibration, "_kkt_frames", spy_frames)
        monkeypatch.setattr(calibration, "_fit_core", spy_core)
        (implied_recovery if scan else fit_survival)(quotes, BASE, config)
        assert rates == [len(RATES) if scan else 1]
        assert grids == [len(config.eta_grid)]
        assert frame_sets == [(len(config.eta_grid), config.factors + 1, config.factors)]

    def test_grid_build_memory_is_a_few_eta_by_date_arrays(self):
        # An (E, dates, k) temporary next to the exponential would take 4 of them.
        quotes = [BondQuote(id=f"b{i}", spec=BondSpec(coupon=0.05, freq=2,
                                                      maturity=float(1 + i % 30)),
                            clean_price=0.95) for i in range(200)]
        prepared = calibration._QuoteSet(quotes, BASE)
        bases = [SplineBasis(eta=eta) for eta in default_eta_grid()]
        prepared.design_grid(bases)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            prepared.design_grid(bases)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        eta_by_date = len(bases) * len(prepared.times) * np.dtype(float).itemsize
        assert len(bases) == 13 and len(prepared.times) == 6000
        assert peak < 4 * eta_by_date


class TestLoaders:
    def test_bond_quotes_csv(self, tmp_path):
        path = tmp_path / "bonds.csv"
        path.write_text(
            "id,coupon,freq,maturity_years,accrued_years,clean_price,spread_duration\n"
            "a,0.05,2,5.0,0.0,0.97,4.2\n"
            "b,0.06,2,4.75,0.25,0.99,\n"
        )
        quotes = load_bond_quotes(str(path))
        assert quotes[0].spread_duration == 4.2
        assert quotes[1].spread_duration is None
        assert quotes[1].spec.accrued_time == 0.25

    def test_bond_quotes_csv_optional_column_absent(self, tmp_path):
        path = tmp_path / "bonds.csv"
        path.write_text(
            "id,coupon,freq,maturity_years,accrued_years,clean_price\n"
            "a,0.05,2,5.0,0.0,0.97\n"
        )
        assert load_bond_quotes(str(path))[0].spread_duration is None

    def test_bond_quotes_csv_names_bad_row(self, tmp_path):
        path = tmp_path / "bonds.csv"
        path.write_text(
            "id,coupon,freq,maturity_years,accrued_years,clean_price\n"
            "a,0.05,2,5.0,0.0,0.97\n"
            "b,oops,2,5.0,0.0,0.97\n"
        )
        with pytest.raises(ParseError, match="row 3"):
            load_bond_quotes(str(path))

    def test_bond_quotes_csv_header_only(self, tmp_path):
        path = tmp_path / "bonds.csv"
        path.write_text("id,coupon,freq,maturity_years,accrued_years,clean_price\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: no quote rows$"):
            load_bond_quotes(str(path))

    @pytest.mark.parametrize("maturity", ["5.1", "1e9"])
    def test_bond_quotes_csv_off_schedule_row(self, tmp_path, maturity):
        path = tmp_path / "bonds.csv"
        path.write_text(
            "id,coupon,freq,maturity_years,accrued_years,clean_price,spread_duration\n"
            "a,0.05,2,5.0,0.0,0.97,\n"
            f"B1,0.05,2,{maturity},0.0,1.0,\n"
        )
        with pytest.raises(ParseError, match=f"bonds.csv: row 3: span {float(maturity)!r} "):
            load_bond_quotes(str(path))

    @pytest.mark.parametrize("row, message", [
        ("3,nan", "the 3.0y quote's spread must be finite and > 0, got nan"),
        ("3,-inf", "the 3.0y quote's spread must be finite and > 0, got -inf"),
        ("inf,100", "span inf "),
        ("nan,100", "span nan "),
        ("5.1,100", "span 5.1 is not a whole number >= 1 of 1/4 periods"),
        ("0.1,100", "span 0.1 "),
        ("0.5,100", "the 0.5y quote ends on or before the previous quote's last quarterly "
                    "date 1.0"),
        ("1.0,100", "the 1.0y quote ends on or before the previous quote's last quarterly "
                    "date 1.0"),
        ("3,-100", "the 3.0y quote's spread must be finite and > 0, got -0.01"),
        ("3,0", "the 3.0y quote's spread must be finite and > 0, got 0.0"),
    ])
    def test_cds_quotes_csv_rejects_bad_row(self, tmp_path, row, message):
        path = tmp_path / "cds.csv"
        path.write_text(f"maturity_years,par_spread_bp\n1.0,80\n{row}\n")
        with pytest.raises(ParseError) as info:
            load_cds_quotes(str(path))
        assert str(info.value).startswith(f"{path}: row 3: ")
        assert message in str(info.value)

    def test_cds_quotes_csv_in_basis_points(self, tmp_path):
        path = tmp_path / "cds.csv"
        path.write_text("maturity_years,par_spread_bp\n1.0,80\n5.0,150\n")
        assert load_cds_quotes(str(path)) == [(1.0, 0.0080), (5.0, 0.0150)]

    def test_cds_quotes_missing_header(self, tmp_path):
        path = tmp_path / "cds.csv"
        path.write_text("tenor,spread\n1.0,80\n")
        with pytest.raises(ParseError):
            load_cds_quotes(str(path))
