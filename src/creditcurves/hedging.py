"""Forward bond prices, CDS hedge construction and CDS-bond basis.

A credit bond hedged with CDS leaves a residual risk-free-equivalent coupon stream;
protection on the forward notional (P(t,T) - R) / (1 - R) (``_forward_notional``, its one
statement) makes the default payout replicate the bond value at every horizon.  CDS legs
pay ``pricing.CDS_FREQ`` times a year.  Both hedges turn their legs into a plan in
``_hedge_plan``: each leg on its own quarterly date (``LegTable.n``, the
``curves.grid_periods`` rule), priced from the hedge's one quarterly ``pricing.LegTable``,
and the residual NPV weighted by the default-leg measure Z * dQ * (1 - R), since hedge
errors only realize in default states.  Forward prices on a hedge or RFC grid come from
one ``pricing.continuous_prices`` walk, and every hedge sum adds term by term
(``_total``).  The CDS-bond basis is ``measures.das`` on the CDS-implied curve;
``approx_basis`` is the excess spread less the plan's own ``cost``, not re-priced.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable

from . import measures, pricing
from .conventional import BondSpec
from .curves import BaseCurve, grid_times
from .pricing import CDS_FREQ, check_dates, check_recovery
from .survival import SurvivalCurve


@dataclass(frozen=True)
class HedgeLeg:
    maturity: float
    notional: float  # signed; positive = long protection
    spread: float    # par CDS spread at the leg maturity


@dataclass(frozen=True)
class HedgePlan:
    """CDS legs plus the rpv01-weighted aggregate spread and residual NPV."""

    legs: tuple[HedgeLeg, ...]
    cost: float
    residual_npv: float

    def __post_init__(self) -> None:
        if not self.legs:
            raise ValueError("hedge plan needs at least one leg")
        mats = [leg.maturity for leg in self.legs]
        if any(b <= a for a, b in zip(mats, mats[1:])):
            raise ValueError("legs must be sorted by maturity, without duplicates")

    def protection_notional(self, t: float) -> float:
        """Total live protection for a default just after time t: the legs maturing after t."""
        live = self.legs[bisect_right(self.legs, t, key=lambda leg: leg.maturity):]
        return _total(leg.notional for leg in live)

    def to_dict(self) -> dict:
        return {
            "legs": [
                {"maturity": leg.maturity, "notional": leg.notional,
                 "spread_bp": leg.spread * 1e4}
                for leg in self.legs
            ],
            "cost_bp": self.cost * 1e4,
            "residual_npv": self.residual_npv,
        }


@dataclass(frozen=True)
class RfcPoint:
    t: float
    rfc: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.rfc):
            raise ValueError("risk-free-equivalent coupon must be finite")


def fwd_bond_price(
    bond: BondSpec,
    base: BaseCurve,
    curve: SurvivalCurve,
    recovery: float,
    t: float,
) -> float:
    """Projected forward price P(t, T), P(T, T) = 1: ``pricing.continuous_prices`` at t alone."""
    return pricing.continuous_prices(bond, base, curve, recovery, [t])[0]


def fwd_hedge_notional(
    bond: BondSpec,
    base: BaseCurve,
    curve: SurvivalCurve,
    recovery: float,
    t: float,
) -> float:
    """Forward CDS notional (P(t,T) - R) / (1 - R) equating default payouts."""
    return _forward_notional(fwd_bond_price(bond, base, curve, recovery, t),
                             check_recovery(recovery))


def _forward_notional(price: float, R: float) -> float:
    """The one statement of the forward notional (P - R) / (1 - R) at forward price P."""
    return (price - R) / (1.0 - R)


def rfc_stream(
    bond: BondSpec,
    base: BaseCurve,
    curve: SurvivalCurve,
    recovery: float,
    t: float,
) -> float:
    """Risk-free-equivalent coupon RFC(t, T): ``rfc_profile`` at t alone."""
    return rfc_profile(bond, base, curve, recovery, [t])[0].rfc


def rfc_profile(
    bond: BondSpec,
    base: BaseCurve,
    curve: SurvivalCurve,
    recovery: float,
    grid: list[float],
) -> tuple[RfcPoint, ...]:
    """Risk-free-equivalent coupon RFC(t, T) = C - h(t) * (P(t,T) - R) on a ``check_dates``
    grid, P from one ``pricing.continuous_prices`` walk: the stream a riskless bond needs to
    track the credit bond's forward price, equivalently C less the forward CDS carry."""
    R = check_recovery(recovery)
    pts = check_dates(grid, bond.maturity, "grid")
    prices = pricing.continuous_prices(bond, base, curve, R, pts)
    return tuple(RfcPoint(t, bond.coupon - curve.hazard(t) * (p - R)) for t, p in zip(pts, prices))


def _total(terms: Iterable[float]) -> float:
    """The terms added one by one, as ``sum`` of floats does before Python 3.12 only."""
    return reduce(add, terms, 0.0)


def _hedge_plan(table: pricing.LegTable, R: float, legs: list[tuple[float, float]],
                buckets: Iterable[tuple[float, float, float]]) -> HedgePlan:
    """The one plan rule.  Each (maturity, notional) leg, sorted, sits on its own quarterly
    date n of ``table`` (``table.n``), is reported at n / freq and priced at n's par spread;
    the cost is the legs' rpv01-weighted spread, and the residual NPV adds w * (1 - R) *
    (target - live) over the caller's (Z * dQ, forward notional, live protection) ``buckets``."""
    dates = [table.n(m) for m, _ in legs]
    for (a, _), (b, _), i, j in zip(legs, legs[1:], dates, dates[1:]):
        if i == j:
            raise ValueError(f"hedge legs at {a!r} and {b!r} fall on one quarterly CDS date")
    plan_legs, num, den = [], 0.0, 0.0
    for (_, notional), n in zip(legs, dates):
        spread, pv01 = table.par_spread(n, R), table.rpv01(n)
        plan_legs.append(HedgeLeg(n / table.freq, notional, spread))
        num += notional * spread * pv01
        den += notional * pv01
    if den == 0.0:
        raise ValueError("degenerate hedge: zero aggregate rpv01")
    residual = _total(w * (1.0 - R) * (target - live) for w, target, live in buckets)
    return HedgePlan(legs=tuple(plan_legs), cost=num / den, residual_npv=residual)


def spot_hedge_notionals(
    bond: BondSpec,
    base: BaseCurve,
    curve: SurvivalCurve,
    recovery: float,
    grid: list[float],
) -> HedgePlan:
    """Staggered spot-CDS hedge on the given maturity grid.

    The leg maturing at grid point t_{i+1} carries the forward price
    drop over [t_i, t_{i+1}] scaled by 1/(1-R); the terminal leg at the
    bond maturity carries the forward notional at the last grid point.
    Legs can be negative (short protection) for discount bonds.
    """
    R = check_recovery(recovery)
    T = bond.maturity
    pts = check_dates(grid, T, "grid")
    prices = pricing.continuous_prices(bond, base, curve, R, pts)
    notionals = {b: (pa - pb) / (1.0 - R) for b, pa, pb in zip(pts[1:], prices, prices[1:])}
    notionals[T] = notionals.get(T, 0.0) + _forward_notional(prices[-1], R)
    legs = sorted(notionals.items())
    # Bucket (t_i, t_{i+1}] is covered by the legs maturing after its start, legs[i:], which
    # telescope to the forward notional there, so the residual vanishes on the plan grid.
    qs, ends = curve.survivals(pts + [T]), pts[1:] + [T]
    buckets = ((base.df(b) * (qa - qb), _forward_notional(p, R), _total(n for _, n in legs[i:]))
               for i, (a, b, p, qa, qb) in enumerate(zip(pts, ends, prices, qs, qs[1:])) if a < b)
    table = pricing.LegTable.walk(grid_times(T, CDS_FREQ), CDS_FREQ, base, curve)
    return _hedge_plan(table, R, legs, buckets)


def coarse_hedge(
    bond: BondSpec,
    base: BaseCurve,
    curve_cds: SurvivalCurve,
    recovery: float,
    candidate_maturities: list[float],
) -> HedgePlan:
    """Two-CDS hedge: face notional to final maturity plus one staggered leg.

    For each candidate staggered maturity the add-on notional zeroes the
    NPV of residual default exposures on the CDS payment grid; the plan with
    the lowest rpv01-weighted aggregate spread wins.  Candidates count by their quarterly
    date; one on the bond's last date is the single-CDS strategy.
    """
    R = check_recovery(recovery)
    T = bond.maturity
    if not candidate_maturities:
        raise ValueError("need at least one candidate maturity")
    grid = grid_times(T, CDS_FREQ)
    table = pricing.LegTable.walk(grid, CDS_FREQ, base, curve_cds)
    candidates = sorted(set(float(m) for m in candidate_maturities))
    if not all(0.0 < m < math.inf for m in candidates) or table.n(candidates[-1]) > len(grid):
        raise ValueError(f"candidate_maturities must lie in (0, maturity], got {candidates!r}")
    dates = sorted({table.n(m) for m in candidates})
    if dates[-1] != len(grid):
        raise ValueError("candidates must include the bond's final maturity")

    # Forward notionals, and their gap to face weighted by Z * dQ per grid bucket.
    fwd_n = [_forward_notional(p, R) for p in
             pricing.continuous_prices(bond, base, curve_cds, R, grid)]
    total_gap = _total(w * (n - 1.0) for w, n in zip(table.zdq, fwd_n))
    plans = []
    for k in dates:  # k: the buckets the staggered leg covers
        covered = table.protection[k - 1]
        if covered > 0.0:
            notional = total_gap / covered
            legs = [(T, 1.0 + notional)] if k == len(grid) else [(grid[k - 1], notional), (T, 1.0)]
            live = [1.0 + notional] * k + [1.0] * (len(grid) - k)  # face plus the leg to k
            plans.append(_hedge_plan(table, R, legs, zip(table.zdq, fwd_n, live)))
    if not plans:
        raise ValueError("no feasible candidate maturity")
    return min(plans, key=lambda plan: plan.cost)  # the first of equal costs


def basis_spread(
    bond: BondSpec,
    market_clean_price: float,
    base: BaseCurve,
    curve_cds: SurvivalCurve,
    recovery: float,
) -> float:
    """Constant spread reconciling the market price with the CDS-implied
    fair value: ``measures.das`` taken on the CDS-calibrated curve, with
    the same solver, rate bracket and price tolerance."""
    return measures.das(bond, market_clean_price, base, curve_cds, recovery)


def approx_basis(
    bond: BondSpec,
    market_clean_price: float,
    base: BaseCurve,
    curve_bond: SurvivalCurve,
    curve_cds: SurvivalCurve,
    recovery: float,
    plan: HedgePlan,
) -> float:
    """Excess spread over the bond-market curve less the plan's rpv01-weighted aggregate
    CDS spread, its ``cost``; ``curve_cds`` is the curve the plan was priced on."""
    return measures.excess_spread(bond, market_clean_price, base, curve_bond, recovery) - plan.cost
