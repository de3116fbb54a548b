"""Forward bond prices, CDS hedge construction and CDS-bond basis.

A credit bond hedged with CDS leaves a residual risk-free-equivalent
coupon stream; matching the protection notional to the forward price
profile makes the default payout replicate the bond value at every
horizon.  The hedge grid and CDS legs pay ``pricing.CDS_FREQ`` times a
year.  Exposure NPVs are weighted by the default-leg measure
Z * dQ * (1 - R), since hedge errors only realize in default states.
Grids come from ``curves.grid_times``; CDS legs and those weights are
read from one quarterly ``pricing.LegTable`` per hedge, the coarse hedge's cover
to a candidate maturity included (its protection sum), the forward prices on
a hedge or RFC grid from one ``pricing.continuous_prices`` walk, and the spot
hedge's residual weights from one ``survivals`` read of its grid.  The CDS-bond
basis is ``measures.das`` (one ``rootfind.solve_spread``) on the CDS-implied curve;
``approx_basis`` is the excess spread less the plan's own ``cost``, not re-priced.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

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
        return sum(leg.notional for leg in live)

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
    R = check_recovery(recovery)
    return (fwd_bond_price(bond, base, curve, recovery, t) - R) / (1.0 - R)


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


def _aggregate_spread(legs: list[tuple[float, float, float]], table: pricing.LegTable) -> float:
    """rpv01-weighted aggregate spread of (maturity, notional, spread) legs."""
    num = den = 0.0
    for maturity, notional, spread in legs:
        pv01 = table.rpv01(table.n(maturity))
        num += notional * spread * pv01
        den += notional * pv01
    if den == 0.0:
        raise ValueError("degenerate hedge: zero aggregate rpv01")
    return num / den


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
    terminal = (prices[-1] - R) / (1.0 - R)
    notionals[T] = notionals.get(T, 0.0) + terminal
    table = pricing.LegTable.walk(grid_times(T, CDS_FREQ), CDS_FREQ, base, curve)
    legs = [(m, n, table.par_spread(table.n(m), R)) for m, n in sorted(notionals.items()) if m > 0]
    cost = _aggregate_spread(legs, table)
    plan_legs = tuple(HedgeLeg(m, n, s) for m, n, s in legs)
    plan = HedgePlan(legs=plan_legs, cost=cost, residual_npv=0.0)
    # Residual exposure: each bucket (t_i, t_{i+1}] is covered by the legs
    # maturing after its start, which telescope to the forward notional at
    # the bucket start, so the replication error vanishes on the plan grid.
    residual, qs = 0.0, curve.survivals(pts + [T])
    for a, b, price, qa, qb in zip(pts, pts[1:] + [T], prices, qs, qs[1:]):
        if b <= a:
            continue
        target = (price - R) / (1.0 - R)
        weight = base.df(b) * (qa - qb) * (1.0 - R)
        residual += weight * (target - plan.protection_notional(a))
    return HedgePlan(legs=plan_legs, cost=cost, residual_npv=residual)


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
    the lowest rpv01-weighted aggregate spread wins.  The candidate at
    the bond's final maturity reproduces the single-CDS strategy.
    """
    R = check_recovery(recovery)
    T = bond.maturity
    if not candidate_maturities:
        raise ValueError("need at least one candidate maturity")
    candidates = sorted(set(float(m) for m in candidate_maturities))
    if not all(0.0 < m <= T + 1e-9 for m in candidates):
        raise ValueError(f"candidate_maturities must lie in (0, maturity], got {candidates!r}")
    if all(abs(m - T) > 1e-9 for m in candidates):
        raise ValueError("candidates must include the bond's final maturity")

    grid = grid_times(T, CDS_FREQ)
    table = pricing.LegTable.walk(grid, CDS_FREQ, base, curve_cds)
    spread_T = table.par_spread(len(grid), R)
    # Forward notionals, and default-leg weights Z * dQ per grid bucket.
    prices = pricing.continuous_prices(bond, base, curve_cds, R, grid)
    fwd_n = [(p - R) / (1.0 - R) for p in prices]
    weights = table.zdq
    total_gap = sum(w * (n - 1.0) for w, n in zip(weights, fwd_n))

    best: HedgePlan | None = None
    for m in candidates:
        k = table.n(m)  # grid dates the staggered leg covers
        covered = table.protection[k - 1]
        if covered <= 0.0:
            continue
        notional = total_gap / covered
        # NPV of residual default exposures Z * dQ * (1-R) * (target - hedged).
        residual = sum(w * (1.0 - R) * (n - (1.0 + (notional if i < k else 0.0)))
                       for i, (w, n) in enumerate(zip(weights, fwd_n)))
        if abs(m - T) <= 1e-9:
            legs = [(T, 1.0 + notional, spread_T)]
        else:
            legs = [(m, notional, table.par_spread(k, R)), (T, 1.0, spread_T)]
        plan = HedgePlan(legs=tuple(HedgeLeg(*leg) for leg in legs),
                         cost=_aggregate_spread(legs, table), residual_npv=residual)
        if best is None or plan.cost < best.cost:
            best = plan
    if best is None:
        raise ValueError("no feasible candidate maturity")
    return best


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
