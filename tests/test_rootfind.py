import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditcurves import rootfind
from creditcurves.errors import ConvergenceError
from creditcurves.rootfind import PRICE_TOL, RATE_BRACKET, solve_spread, spread_duration


def pv(times, flows, s):
    return math.fsum(w * math.exp(-s * t) for t, w in zip(times, flows))


@st.composite
def priced_flows(draw):
    """Positive flows at distinct times in (0, 40], scaled so that a true spread
    inside RATE_BRACKET prices them at a dirty price between 0.05 and 3."""
    times = sorted(draw(st.lists(st.floats(0.01, 40.0), min_size=1, max_size=60, unique=True)))
    raw = draw(st.lists(st.floats(1e-3, 1.5), min_size=len(times), max_size=len(times)))
    s = draw(st.floats(*RATE_BRACKET))
    scale = draw(st.floats(0.05, 3.0)) / pv(times, raw, s)
    flows = [w * scale for w in raw]
    return times, flows, s, pv(times, flows, s)


@settings(max_examples=300, deadline=None)
@given(priced_flows())
def test_solve_spread_reprices_within_price_tol(case):
    times, flows, _, dirty = case
    s = solve_spread(times, flows, dirty)
    assert RATE_BRACKET[0] <= s <= RATE_BRACKET[1]
    # The solver sums in order, the check exactly: allow one rounding per flow.
    assert abs(pv(times, flows, s) - dirty) <= PRICE_TOL + len(times) * 2.3e-16 * dirty


def test_newton_solves_bond_flows_without_the_bracket(monkeypatch):
    def no_fallback(*args):
        raise AssertionError("Newton fell back to the bracket")
    monkeypatch.setattr(rootfind, "solve_bracketed", no_fallback)
    times = [0.5 * i for i in range(1, 21)]
    flows = [0.03] * 19 + [1.03]
    for s_true in (-0.02, 0.0, 0.01, 0.05, 0.3):
        s = solve_spread(times, flows, pv(times, flows, s_true))
        assert s == pytest.approx(s_true, abs=1e-11)


def test_a_step_out_of_the_bracket_falls_back(monkeypatch):
    # One flow at t = 30 priced at s = -0.45: the first Newton step from s = 0,
    # -(e^13.5 - 1) / 30, lands far below the bracket's lower end -0.5.
    times, flows = [30.0], [1.0]
    dirty = math.exp(0.45 * 30.0)
    assert -(dirty - 1.0) / 30.0 < RATE_BRACKET[0]
    calls = []
    original = rootfind.solve_bracketed
    monkeypatch.setattr(rootfind, "solve_bracketed",
                        lambda f, lo, hi: calls.append((lo, hi)) or original(f, lo, hi))
    s = solve_spread(times, flows, dirty)
    assert calls == [RATE_BRACKET]
    assert s == pytest.approx(-0.45, abs=1e-12)
    assert spread_duration(times, flows, dirty) == pytest.approx(30.0, rel=1e-12)


def test_a_price_with_no_root_raises_the_bracket_error():
    # PV at the bracket's lower end is exp(0.5 * 2) = 2.718...; no spread prices 5.
    with pytest.raises(ConvergenceError, match=r"no sign change on bracket \[-0.5, 5.0\]"):
        solve_spread([2.0], [1.0], 5.0)
    with pytest.raises(ConvergenceError, match="no sign change on bracket"):
        spread_duration([2.0], [1.0], 5.0)


def test_solve_bracketed_ends_at_a_root_or_a_collapsed_bracket():
    assert rootfind.solve_bracketed(lambda x: x - 2.0, 0.0, 2.0) == 2.0  # a root at hi
    # A step has no root: the bracket closes on it with the residual at full size.
    with pytest.raises(ConvergenceError, match=r"^bracket collapsed at x=0\.3 with residual 1$"):
        rootfind.solve_bracketed(lambda x: 1.0 if x > 0.3 else -1.0, 0.0, 1.0)


def test_a_collapsed_bracket_accepts_a_residual_small_against_the_jump():
    # |f| = 1e-6 at the closing end is above PRICE_TOL but within 1e-9 * (|fa| + |fb|).
    x = rootfind.solve_bracketed(lambda x: 1e6 if x >= 0.3 else -1e-6, 0.0, 1.0)
    assert x < 0.3 and x == pytest.approx(0.3, abs=1e-14)


def test_solve_bracketed_stops_at_its_iteration_cap():
    # Halving a bracket 1e300 wide down to _X_TOL takes over 1,000 bisections.
    with pytest.raises(ConvergenceError, match="^no convergence after 200 iterations$"):
        rootfind.solve_bracketed(lambda x: 1.0 if x > 0.3 else -1.0, 0.0, 1e300)


def test_solve_bracketed_needs_lo_below_hi():
    with pytest.raises(ValueError, match="^bracket must satisfy lo < hi$"):
        rootfind.solve_bracketed(lambda x: x - 1.0, 1.0, 1.0)


# Increasing functions with slopes between 0.009 and 3 on [-10, 10]: near a root, a
# step of one ulp moves f by far less than PRICE_TOL, so both modes can meet it.
_MONOTONE = {"x": lambda x: x, "atan": math.atan, "x + sin x / 2": lambda x: x + math.sin(x) / 2,
             "exp(x / 4)": lambda x: math.exp(x / 4)}


@settings(max_examples=300, deadline=None)
@given(h=st.sampled_from(sorted(_MONOTONE)), scale=st.floats(0.01, 10.0), rising=st.booleans(),
       lo=st.floats(-10.0, 9.0), width=st.floats(0.1, 10.0), where=st.floats(-1.0, 2.0),
       starts=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_secant_starts_meet_a_root_in_the_bracket_or_name_its_side(
        h, scale, rising, lo, width, where, starts):
    hi = min(lo + width, 10.0)
    root = lo + where * (hi - lo)  # inside the bracket for where in [0, 1]
    g, sign = _MONOTONE[h], (scale if rising else -scale)
    gr = g(root)

    def f(x):
        return sign * (g(x) - gr)

    x0, x1 = (lo + u * (hi - lo) for u in starts)
    if lo <= root <= hi:
        x = rootfind.solve_bracketed(f, lo, hi, x0=x0, x1=x1)
        assert lo <= x <= hi and abs(f(x)) <= PRICE_TOL
    elif not lo - 0.01 <= root <= hi + 0.01:
        side = f"below {lo}" if root < lo else f"above {hi}"
        with pytest.raises(ConvergenceError, match=re.escape(f"; the root lies {side}") + "$"):
            rootfind.solve_bracketed(f, lo, hi, x0=x0, x1=x1)


def test_secant_starts_come_in_pairs_and_skip_to_the_bracket_outside_it():
    calls = []

    def f(x):
        calls.append(x)
        return x - 0.25

    assert rootfind.solve_bracketed(f, 0.0, 1.0, x0=0.5, x1=0.75) == 0.25
    assert calls == [0.5, 0.75, 0.25]  # one secant step from the starts, no bracket
    calls.clear()
    assert rootfind.solve_bracketed(f, 0.0, 1.0, x0=0.5, x1=2.0) == 0.25
    assert calls[:2] == [0.0, 1.0]  # a start out of [lo, hi]: the bracket search alone
    with pytest.raises(ValueError, match="^secant starts x0 and x1 must be given together$"):
        rootfind.solve_bracketed(f, 0.0, 1.0, x0=0.5)


@pytest.mark.parametrize("price", [0.0, -1.0, math.nan, math.inf])
def test_a_bad_price_is_rejected_before_any_search(price):
    for solve in (solve_spread, spread_duration):
        with pytest.raises(ValueError, match="dirty price must be finite and > 0"):
            solve([1.0, 2.0], [0.05, 1.05], price)


def test_spread_duration_is_minus_d_ln_pv_ds():
    times = [0.5 * i for i in range(1, 21)]
    flows = [0.035 * math.exp(-0.03 * t) for t in times]
    flows[-1] += math.exp(-0.03 * times[-1])
    dirty = 0.93
    s, h = solve_spread(times, flows, dirty), 1e-5
    numeric = -(math.log(pv(times, flows, s + h)) - math.log(pv(times, flows, s - h))) / (2 * h)
    assert spread_duration(times, flows, dirty) == pytest.approx(numeric, rel=1e-8)
