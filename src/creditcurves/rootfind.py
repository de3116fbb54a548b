"""Scalar root finding on the fixed rate bracket ``RATE_BRACKET``.

``solve_spread`` (DAS, basis, Z-spread, yield) and ``spread_duration`` solve
PV(s) = sum w_i exp(-s t_i) = dirty.  For flows w_i >= 0 at times t_i > 0 PV
is convex and decreasing, so Newton's method from s = 0 lands left of the root
after one step and then climbs to it monotonically.  A step out of the bracket,
a slope not > 0 (flows pushed negative at float noise) or a spent budget falls
back to ``solve_bracketed``, bisection refined by secant steps, which also
serves the FRN discount margin and the CDS bootstrap's fallback, once a segment's
secant steps from the credit triangle fail; for a spread it reads Newton's own
PV, ``pv_slope`` (also ``pricing.bond_pv_frp``'s).  Every solve accepts a
residual of at most ``PRICE_TOL``; the tolerances are fixed here, not passed by callers.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .errors import ConvergenceError

RATE_BRACKET = (-0.5, 5.0)  # search interval of every spread and yield solve
PRICE_TOL = 1e-12           # residual accepted by every solve
_X_TOL = 1e-14              # bracket width at which the search stops
_MAX_ITER = 200


def solve_bracketed(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Find x in [lo, hi] with |f(x)| <= PRICE_TOL, assuming f changes sign.

    Raises ConvergenceError when the bracket does not straddle a root or
    the iteration budget runs out before reaching the tolerance.
    """
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    fa = f(lo)
    if abs(fa) <= PRICE_TOL:
        return lo
    fb = f(hi)
    if abs(fb) <= PRICE_TOL:
        return hi
    if fa * fb > 0.0:
        raise ConvergenceError(
            f"no sign change on bracket [{lo}, {hi}]: f(lo)={fa:.6g}, f(hi)={fb:.6g}"
        )
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
