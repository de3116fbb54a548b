"""Reference pricer used to generate inputs and to check outputs.

Written here, not imported from ``creditcurves``, so that the benchmark's
output checks do not rest on the code they check.  It covers the few
formulas the checks need: log-linear discount factors, spline and
piecewise-hazard survival, the fractional-recovery-of-par bond price and
the quarterly CDS par spread.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right

import numpy as np


class RefBase:
    """Discount curve from (tenor, zero rate) nodes, log-linear in df."""

    def __init__(self, nodes):
        self.nodes = [(float(t), float(r)) for t, r in nodes]
        self.times = [0.0] + [t for t, _ in self.nodes]
        self.dfs = [1.0] + [math.exp(-r * t) for t, r in self.nodes]
        self.fwds = [
            math.log(self.dfs[i] / self.dfs[i + 1]) / (self.times[i + 1] - self.times[i])
            for i in range(len(self.dfs) - 1)
        ]

    def df(self, t: float) -> float:
        if t == 0.0:
            return 1.0
        if t >= self.times[-1]:
            return self.dfs[-1] * math.exp(-self.fwds[-1] * (t - self.times[-1]))
        i = bisect_right(self.times, t) - 1
        return self.dfs[i] * math.exp(-self.fwds[i] * (t - self.times[i]))


class RefSpline:
    """Q(t) = sum_k beta_k exp(-k eta t) up to the horizon, flat hazard beyond."""

    def __init__(self, eta: float, beta, horizon: float):
        self.eta = float(eta)
        self.beta = [float(b) for b in beta]
        self.horizon = float(horizon)
        self.q_h = self._spline(self.horizon)
        slope = sum(-k * self.eta * b * math.exp(-k * self.eta * self.horizon)
                    for k, b in enumerate(self.beta, start=1))
        self.tail = -slope / self.q_h

    def _spline(self, t: float) -> float:
        return sum(b * math.exp(-k * self.eta * t) for k, b in enumerate(self.beta, start=1))

    def survival(self, t: float) -> float:
        if t <= self.horizon:
            return self._spline(t)
        return self.q_h * math.exp(-self.tail * (t - self.horizon))


class RefHazard:
    """Piecewise-constant hazard, segment k covering (tenor_{k-1}, tenor_k]."""

    def __init__(self, segments):
        self.segments = [(float(t), float(h)) for t, h in segments]

    def survival(self, t: float) -> float:
        cum = 0.0
        prev = 0.0
        for tenor, h in self.segments:
            if t <= tenor:
                return math.exp(-(cum + h * (t - prev)))
            cum += h * (tenor - prev)
            prev = tenor
        return math.exp(-(cum + self.segments[-1][1] * (t - prev)))


def ref_curve(record: dict):
    """Reference survival curve from a curve JSON record."""
    if record["type"] == "spline":
        if record.get("knots"):
            raise ValueError("reference pricer covers knot-free splines only")
        return RefSpline(record["eta"], record["beta"], record["horizon"])
    return RefHazard(record["segments"])


def payment_times(freq: int, maturity: float, accrued: float) -> list[float]:
    n = round((maturity + accrued) * freq)
    return [maturity - (n - i) / freq for i in range(1, n + 1)]


def bond_dirty(coupon, freq, maturity, accrued, base, curve, recovery, spread=0.0):
    """Dirty FRP price: survival-weighted coupons and principal, plus
    recovery of par and half a coupon paid at the end of the default period."""
    times = payment_times(freq, maturity, accrued)
    cpn = coupon / freq
    rec = recovery * (1.0 + coupon / (2.0 * freq))
    pv = 0.0
    q_prev = 1.0
    for t in times:
        z = base.df(t) * math.exp(-spread * t)
        q = curve.survival(t)
        pv += cpn * z * q + rec * z * (q_prev - q)
        q_prev = q
    return pv + base.df(times[-1]) * math.exp(-spread * times[-1]) * q_prev


def bond_clean(coupon, freq, maturity, accrued, base, curve, recovery, spread=0.0):
    return (bond_dirty(coupon, freq, maturity, accrued, base, curve, recovery, spread)
            - coupon * accrued)


def cds_par_spread(maturity, base, curve, recovery, freq=4):
    """Zero-upfront running premium with accrued premium paid on default."""
    n = round(maturity * freq)
    num = den = 0.0
    q_prev = 1.0
    for i in range(1, n + 1):
        t = i / freq
        z = base.df(t)
        q = curve.survival(t)
        num += z * (q_prev - q)
        den += z * (q_prev + q)
        q_prev = q
    return 2.0 * freq * (1.0 - recovery) * num / den


_KERNEL_BASE = RefBase([(0.5, 0.02), (2.0, 0.025), (5.0, 0.03), (10.0, 0.035), (30.0, 0.04)])
_KERNEL_CURVE = RefSpline(0.025, (0.55, 0.30, 0.15), 20.0)
_KERNEL_BONDS = ((2.0, 0.05), (3.0, 0.06), (5.0, 0.045), (7.0, 0.07), (10.0, 0.055), (15.0, 0.05))


def reference_kernel() -> float:
    """Seconds taken by fixed work that does not touch the program.

    A miniature fit: regression rows summed over cash flows, an
    equality-constrained least-squares solve, a median, and a bisection
    on the reference bond price.  Its mix of interpreted loops and small
    numpy calls resembles the program's, so its speed tracks the host's
    current speed for the program (see ``Clock`` in ``run.py``)."""
    start = time.perf_counter()
    rows = []
    for maturity, coupon in _KERNEL_BONDS:
        row = np.zeros(3)
        for t in payment_times(2, maturity, 0.0):
            factors = np.array([math.exp(-k * 0.025 * t) for k in (1, 2, 3)])
            row += 0.5 * coupon * _KERNEL_BASE.df(t) * factors
        rows.append(row)
    design = np.vstack(rows)
    target = design @ np.array(_KERNEL_CURVE.beta)
    kkt = np.zeros((4, 4))
    kkt[:3, :3] = 2.0 * design.T @ design
    kkt[:3, 3] = kkt[3, :3] = 1.0
    beta = np.linalg.solve(kkt, np.concatenate([2.0 * design.T @ target, [1.0]]))[:3]
    np.median(np.abs(design @ beta - target))
    price = bond_dirty(0.05, 2, 5.0, 0.0, _KERNEL_BASE, _KERNEL_CURVE, 0.4, 0.01)
    lo, hi = -0.5, 5.0
    for _ in range(12):
        mid = 0.5 * (lo + hi)
        if bond_dirty(0.05, 2, 5.0, 0.0, _KERNEL_BASE, _KERNEL_CURVE, 0.4, mid) > price:
            lo = mid
        else:
            hi = mid
    return time.perf_counter() - start
