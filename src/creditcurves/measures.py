"""Issuer/sector term structures and bond-specific relative value.

Everything here is derived from a base curve plus a fitted survival
curve: par coupons and P-spreads, constant coupon price (CCP) curves,
bond-implied CDS, forward CDS spreads, and the bond-level measures
(fitted price, fitted par coupon, default-adjusted spread, excess
spread).  Sign convention: DAS > 0 means the bond trades cheap to the
fitted curve.  Par coupons, CCPs and CDS spreads are reads of one
``pricing.LegTable`` per schedule (``curves.grid_times`` or the bond's own
payment times); DAS is ``rootfind.solve_spread`` on ``pricing.frp_walk``'s flows.
``term_structure_report`` walks two tables once, builds the riskless twin of one
on its discount factors, and reads every row from the three; ``fitted_p_spread``
and ``excess_spread`` read their par coupons, and the DAS flows, from one walk
of the bond's schedule.
``par_coupon``, ``p_spread`` (through ``_p_spread``'s riskless twin), ``ccp`` and
``bcds`` price one tenor each on their own walk, each its report column bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import pricing
from .conventional import BondSpec
from .curves import MAX_PERIODS, BaseCurve, grid_times
from .pricing import CDS_FREQ
from .rootfind import solve_spread
from .survival import PiecewiseHazardCurve, SurvivalCurve

DEFAULT_CCP_COUPONS = (0.06, 0.08, 0.10)


def par_coupon(
    maturity: float, freq: int, base: BaseCurve, curve: SurvivalCurve, recovery: float
) -> float:
    """Coupon making a hypothetical bond price exactly at par (clean)."""
    recovery = pricing.check_recovery(recovery)
    legs = pricing.LegTable.walk(grid_times(maturity, freq), freq, base, curve)
    return legs.par_coupon(len(legs.zq), recovery)


def p_spread(
    maturity: float, freq: int, base: BaseCurve, curve: SurvivalCurve, recovery: float
) -> float:
    """Par coupon less the risk-free par coupon of the same maturity (``_p_spread``)."""
    recovery = pricing.check_recovery(recovery)
    return _p_spread(pricing.LegTable.walk(grid_times(maturity, freq), freq, base, curve),
                     recovery)


def ccp(
    maturity: float,
    coupon: float,
    freq: int,
    base: BaseCurve,
    curve: SurvivalCurve,
    recovery: float,
) -> float:
    """Constant coupon price: clean fitted price of a coupon-C bond (the report's CCP)."""
    BondSpec(coupon=coupon, freq=freq, maturity=maturity)  # reject the terms BondSpec rejects
    recovery = pricing.check_recovery(recovery)
    legs = pricing.LegTable.walk(grid_times(maturity, freq), freq, base, curve)
    return legs.price(len(legs.zq), coupon, recovery)


def bcds(maturity: float, base: BaseCurve, curve: SurvivalCurve, recovery: float) -> float:
    """Bond-implied CDS spread: par CDS (CDS_FREQ payments a year) off the fitted curve."""
    return pricing.cds_par_spread(maturity, CDS_FREQ, base, curve, recovery)


def fwd_cds_spread(
    t1: float, t2: float, base: BaseCurve, curve: SurvivalCurve, recovery: float
) -> float:
    """Forward par CDS spread for protection over [t1, t2].

    Risky-PV01 weighted combination of the spot spreads; equivalent to
    pricing the CDS off the forward discount and survival curves.
    """
    if not 0.0 < t1 < t2:
        raise ValueError("need 0 < t1 < t2")
    recovery = pricing.check_recovery(recovery)
    legs = pricing.LegTable.walk(grid_times(t2, CDS_FREQ), CDS_FREQ, base, curve)
    n1, n2 = legs.n(t1), len(legs.zq)
    s1, s2 = legs.par_spread(n1, recovery), legs.par_spread(n2, recovery)
    kappa = legs.rpv01(n1) / legs.rpv01(n2)
    if not kappa < 1.0:
        raise ValueError(f"rpv01 must be increasing in maturity (ratio {kappa!r})")
    return (s2 - kappa * s1) / (1.0 - kappa)


def fitted_price(
    bond: BondSpec, base: BaseCurve, curve: SurvivalCurve, recovery: float
) -> float:
    """Clean price the bond would have if priced exactly on the curve."""
    return pricing.bond_pv_frp(bond, base, curve, recovery) - bond.accrued_interest


def fitted_par_coupon(
    bond: BondSpec, base: BaseCurve, curve: SurvivalCurve, recovery: float
) -> float:
    """Par coupon on the bond's own (possibly seasoned) schedule.

    The coupon accrued since the last date, C * accrued_time, is taken off
    the dirty price, so a seasoned bond at this coupon prices to par clean
    and carries a slightly higher fitted par coupon than the generic same-
    maturity one.
    """
    recovery = pricing.check_recovery(recovery)
    legs = pricing.LegTable.walk(bond.payment_times, bond.freq, base, curve)
    return legs.par_coupon(len(legs.zq), recovery, bond.accrued_time)


def fitted_base_par_coupon(bond: BondSpec, base: BaseCurve) -> float:
    """Risk-free par coupon on the bond's schedule: fitted_par_coupon on a
    zero-hazard curve with R = 0, the benchmark leg of the fitted P-spread."""
    return fitted_par_coupon(bond, base, PiecewiseHazardCurve.flat(0.0), 0.0)


def fitted_p_spread(
    bond: BondSpec, base: BaseCurve, curve: SurvivalCurve, recovery: float
) -> float:
    """``fitted_par_coupon`` less ``fitted_base_par_coupon``, from one walk of the schedule."""
    recovery = pricing.check_recovery(recovery)
    return _p_spread(pricing.LegTable.walk(bond.payment_times, bond.freq, base, curve),
                     recovery, bond.accrued_time)


def _p_spread(legs: pricing.LegTable, recovery: float, accrued_time: float = 0.0) -> float:
    """P-spread on a whole schedule's table, seasoned by accrued_time: its par coupon less
    that of its riskless twin on the same discount factors (Q = 1, R = 0; zero hazard)."""
    n = len(legs.zs)
    riskless = pricing.LegTable(legs.zs, [1.0] * n, legs.freq)
    return legs.par_coupon(n, recovery, accrued_time) - riskless.par_coupon(n, 0.0, accrued_time)


def das(bond: BondSpec, market_clean_price: float, base: BaseCurve, curve: SurvivalCurve,
        recovery: float) -> float:
    """Default-adjusted spread: constant discount spread applied to all
    legs that reconciles the fitted price with the market clean price.

    The schedule is read and the curves walked once, in ``pricing.frp_walk``;
    the root search only re-discounts those flows.
    """
    times, flows = pricing.frp_walk(bond, base, curve, recovery)
    return solve_spread(times, flows, market_clean_price + bond.accrued_interest)


def excess_spread(
    bond: BondSpec,
    market_clean_price: float,
    base: BaseCurve,
    curve: SurvivalCurve,
    recovery: float,
) -> float:
    """Fitted P-spread plus DAS.

    A total relative-value spread; not suitable for discounting because
    the P-spread leg does not refer to the bond's actual cash flows.  The
    P-spread and the DAS flows are read from one walk of the bond's schedule.
    """
    recovery = pricing.check_recovery(recovery)
    times = bond.payment_times
    legs = pricing.LegTable.walk(times, bond.freq, base, curve)
    spread = _p_spread(legs, recovery, bond.accrued_time)
    flows = pricing.frp_flows(bond.coupon, bond.freq, recovery, legs.zs, legs.qs)
    return spread + solve_spread(times, flows, market_clean_price + bond.accrued_interest)


# ---------------------------------------------------------------------------
# Term structure report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TermStructureRow:
    tenor: float
    survival: float
    hazard: float
    zz_spread: float
    par_coupon: float
    p_spread: float
    ccp: tuple[float, ...]
    bcds: float


@dataclass(frozen=True)
class TermStructureReport:
    """Per-tenor survival, hazard and spread measures on a report grid."""

    recovery: float
    ccp_coupons: tuple[float, ...]
    rows: tuple[TermStructureRow, ...]

    def csv_header(self) -> list[str]:
        labels = []
        for c in self.ccp_coupons:
            pct = c * 100.0
            labels.append(f"ccp_{pct:g}")
        return ["tenor", "Q", "hazard", "zz_spread", "par_coupon", "p_spread",
                *labels, "bcds"]

    def csv_rows(self) -> list[list[float]]:
        return [
            [r.tenor, r.survival, r.hazard, r.zz_spread, r.par_coupon, r.p_spread,
             *r.ccp, r.bcds]
            for r in self.rows
        ]


def report_grid() -> tuple[float, ...]:
    """Report tenors: half-year steps to 10y, annual to 30y."""
    half_years = [0.5 * i for i in range(1, 21)]
    years = [float(y) for y in range(11, 31)]
    return tuple(half_years + years)


def term_structure_report(
    base: BaseCurve,
    curve: SurvivalCurve,
    recovery: float,
    coupons: tuple[float, ...] = DEFAULT_CCP_COUPONS,
    grid: tuple[float, ...] | None = None,
    freq: int = 2,
) -> TermStructureReport:
    """Measures per tenor with par coupons paid ``freq`` times a year; the
    default grid is ``report_grid`` on whole 1/freq periods (freq 1: 1y-30y).

    Every column past the curve's own Q, hazard and zz-spread reads one of three
    tables to the last tenor: the ``freq`` table (par coupon, CCP), its riskless
    twin on the same discount factors (Q = 1, R = 0; the P-spread's benchmark)
    and the quarterly CDS table (BCDS)."""
    if grid is None:
        on_grid = set(grid_times(report_grid()[-1], freq))
        grid = [t for t in report_grid() if t in on_grid]
    tenors = pricing.check_dates(grid, MAX_PERIODS / CDS_FREQ, "report grid")  # BCDS table
    if tenors[0] <= 0.0:
        raise ValueError(f"report grid must be > 0, got {tenors!r}")
    for c in coupons:  # a CCP column is a coupon-c bond: reject the terms BondSpec rejects
        BondSpec(coupon=c, freq=freq, maturity=tenors[-1])
    recovery = pricing.check_recovery(recovery)
    legs = pricing.LegTable.walk(grid_times(tenors[-1], freq), freq, base, curve)
    riskless = pricing.LegTable(legs.zs, [1.0] * len(legs.zs), freq)  # Q = 1: zero hazard
    cds_legs = pricing.LegTable.walk(grid_times(tenors[-1], CDS_FREQ), CDS_FREQ, base, curve)
    rows = []
    for t in tenors:
        n = legs.n(t)
        par = legs.par_coupon(n, recovery)
        row = TermStructureRow(
            tenor=t,
            survival=curve.survival(t),
            hazard=curve.hazard(t),
            zz_spread=curve.zz_spread(t),
            par_coupon=par,
            p_spread=par - riskless.par_coupon(n, 0.0),
            ccp=tuple(legs.price(n, c, recovery) for c in coupons),
            bcds=cds_legs.par_spread(cds_legs.n(t), recovery),
        )
        for value in (row.survival, row.hazard, row.zz_spread, row.par_coupon,
                      row.p_spread, *row.ccp, row.bcds):
            if not math.isfinite(value):
                raise ValueError(f"non-finite report value at tenor {t}")
        rows.append(row)
    return TermStructureReport(recovery=recovery, ccp_coupons=tuple(coupons), rows=tuple(rows))
