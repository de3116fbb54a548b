"""Scalar root finding: one spread solver and one root finder.

``solve_spread`` (DAS, basis, Z-spread, yield) and ``spread_duration`` solve
PV(s) = sum w_i exp(-s t_i) = dirty on ``RATE_BRACKET``.  For flows w_i >= 0 at
times t_i > 0 PV is convex and decreasing, so Newton's method from s = 0 lands
left of the root after one step and then climbs to it monotonically; its PV and
slope are ``pv_slope`` (also ``pricing.bond_pv_frp``'s).  Every other search,
and Newton's fallback, is ``solve_bracketed``: secant steps from two given starts
(the CDS bootstrap's credit triangle), then, on a step out of the bracket, equal
values or a spent budget, bisection refined by secant steps (the FRN discount
margin, and a spread Newton gives up on).  When the ends show no sign change its
error names the side the root lies on.  Every solve accepts a residual of at
most ``PRICE_TOL``; the tolerances are fixed here, not passed by callers.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import ConvergenceError

RATE_BRACKET = (-0.5, 5.0)  # search interval of every spread and yield solve
PRICE_TOL = 1e-12           # residual accepted by every solve
_X_TOL = 1e-14              # bracket width at which the search stops
_MAX_ITER = 200


def solve_bracketed(f: Callable[[float], float], lo: float, hi: float, *,
                    x0: float | None = None, x1: float | None = None) -> float:
    """Find x in [lo, hi] with |f(x)| <= PRICE_TOL, for f that changes sign there.

    Given starts x0 and x1, both in [lo, hi], secant steps from them come first; a
    step out of [lo, hi], equal values or ``_MAX_ITER`` steps end them.  Then the
    bracket search on [lo, hi]: bisection refined by secant steps.  Raises
    ConvergenceError when the ends show no sign change (naming the end nearer the
    root, right for a monotone f) or the search ends short of the tolerance.
    """
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    if (x0 is None) != (x1 is None):
        raise ValueError("secant starts x0 and x1 must be given together")
    if x0 is not None and lo <= x0 <= hi and lo <= x1 <= hi:
        a, b = x0, x1
        fa, fb = f(a), f(b)
        for _ in range(_MAX_ITER):
            if (abs(fb) <= PRICE_TOL or fb == fa
                    or not lo <= (x := b - fb * (b - a) / (fb - fa)) <= hi):
                break
            a, fa, b, fb = b, fb, x, f(x)
        if abs(fb) <= PRICE_TOL:
            return b
    fa = f(lo)
    if abs(fa) <= PRICE_TOL:
        return lo
    fb = f(hi)
    if abs(fb) <= PRICE_TOL:
        return hi
    if fa * fb > 0.0:
        side = f"below {lo}" if abs(fa) < abs(fb) else f"above {hi}"
        raise ConvergenceError(f"no sign change on bracket [{lo}, {hi}]: f(lo)={fa:.6g}, "
                               f"f(hi)={fb:.6g}; the root lies {side}")
    a, b = lo, hi
    for iteration in range(_MAX_ITER):
        # Secant candidate from the bracket endpoints; fall back to the
        # midpoint whenever it leaves the bracket or stalls.
        denom = fb - fa
        x = b - fb * (b - a) / denom if denom != 0.0 else 0.5 * (a + b)
        width = b - a
        if not (a + 0.01 * width < x < b - 0.01 * width) or iteration % 3 == 2:
            x = 0.5 * (a + b)
        fx = f(x)
        if abs(fx) <= PRICE_TOL:
            return x
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx
        if b - a < _X_TOL:
            # Bracket collapsed; accept the better endpoint if it meets a
            # relaxed tolerance, otherwise report failure honestly.
            x, fx = (a, fa) if abs(fa) < abs(fb) else (b, fb)
            if abs(fx) <= max(PRICE_TOL, 1e-9 * (abs(fa) + abs(fb))):
                return x
            raise ConvergenceError(
                f"bracket collapsed at x={x:.12g} with residual {fx:.6g}"
            )
    raise ConvergenceError(f"no convergence after {_MAX_ITER} iterations")


def check_price(price: float, name: str = "dirty price") -> float:
    """Reject a price that is not finite and > 0 before any root search."""
    if not 0.0 < price < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {price!r}")
    return price


def pv_slope(times: Sequence[float], flows: Sequence[float], s: float) -> tuple[float, float]:
    """(sum w exp(-s t), sum t w exp(-s t)) added term by term: the one PV at a spread."""
    pv = slope = 0.0
    for t, w in zip(times, flows):
        x = w * math.exp(-s * t)
        pv += x
        slope += t * x
    return pv, slope


def _spread_root(times: Sequence[float], flows: Sequence[float],
                 dirty: float) -> tuple[float, float]:
    """(s, sum t w exp(-s t)) at the root of sum w exp(-s t) = dirty: Newton from s = 0,
    else ``solve_bracketed`` on a step out of RATE_BRACKET, a slope <= 0 or a spent budget,
    both on one PV and slope, ``pv_slope``."""
    s, (lo, hi) = 0.0, RATE_BRACKET
    for _ in range(_MAX_ITER):
        pv, slope = pv_slope(times, flows, s)
        if abs(pv - dirty) <= PRICE_TOL:
            return s, slope
        if not (slope > 0.0 and lo <= (s := s + (pv - dirty) / slope) <= hi):
            break
    s = solve_bracketed(lambda x: pv_slope(times, flows, x)[0] - dirty, lo, hi)
    return s, pv_slope(times, flows, s)[1]


def solve_spread(times: Sequence[float], flows: Sequence[float], dirty: float) -> float:
    """Constant spread s with sum w_i * exp(-s * t_i) = dirty, on RATE_BRACKET."""
    return _spread_root(times, flows, check_price(dirty))[0]


def spread_duration(times: Sequence[float], flows: Sequence[float], dirty: float) -> float:
    """Sensitivity -d ln PV / d s at the ``solve_spread`` root, in years."""
    return _spread_root(times, flows, check_price(dirty))[1] / dirty
