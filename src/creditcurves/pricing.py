"""Survival-based (fractional recovery of par) pricing of bonds and CDS.

A defaulted bond pays the recovery fraction R of face plus R on half a
coupon of accrued interest, settled on the first coupon date after
default.  CDS legs net accrued premium against the protection payment.
All discrete schedules live on the instrument's own payment grid; CDS
pay quarterly (``CDS_FREQ``, the package's one statement of that
convention).  ``_legs`` states the per-date legs Z*Q and Z*(Q_prev - Q) once;
``LegTable`` sums them from per-date Z and Q (``LegTable.walk`` reads each curve
once a date), the one table behind every discrete CDS leg, par coupon and
hedge weight, read at any date of its schedule.  The FRP
coefficients (``frp_coefficients``, also the fit's design) apply to the legs
twice: ``LegTable.price`` applies them to the running sums, the dirty price
of a bond paying on the first n dates, and ``LegTable.par_coupon`` is that
formula solved for the coupon; ``frp_flows``, the one FRP flow rule, applies
them to the per-date legs, giving a bond's discounted expected cash flows w_i,
priced at spread s as sum w_i * exp(-s * t_i), the form ``rootfind.solve_spread``
solves.  It serves ``frp_walk`` (one schedule read, one walk per curve; behind
``frp_cash_flows``, ``bond_pv_frp`` and ``measures.das``) and the fit's DAS pass,
on the fit's own discount factors.  ``check_recovery``, ``check_dates``,
``check_cds_quote`` and ``curves.grid_periods`` are the single homes of the
recovery-range, date-list, CDS-quote and payment-grid rules.

The continuous-time forms evaluate the survival-weighted discount
integrals in closed form (``_cut_integrals``, behind ``survival_discount_integrals``):
both curve families reduce, segment by segment, to sums of exponentials
relative to the segment start, so no numerical quadrature is needed and no
term overflows.  ``continuous_prices`` is the one continuous-coupon bond price:
a backward walk from maturity giving P(t, T) at a list of dates, each
interval integrated once; the spot price is its value at t = 0.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .conventional import BondSpec
from .curves import BaseCurve, grid_periods, grid_times
from .errors import check_number
from .rootfind import pv_slope
from .survival import SurvivalCurve

CDS_FREQ = 4  # CDS premium payments per year: contracts, bootstrap, BCDS and hedges


def check_recovery(value: float, name: str = "recovery") -> float:
    """``value`` as a plain float if it is a recovery rate in [0, 1); else a
    ``ValueError`` naming the argument."""
    rate = float(value)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"{name} must be in [0, 1), got {value!r}")
    return rate


def check_dates(dates: Sequence[float], maturity: float, name: str = "dates") -> list[float]:
    """``dates`` as a list of floats if non-empty, finite, strictly increasing and
    within [0, maturity]; else a ``ValueError`` naming the argument."""
    times = [float(t) for t in dates]
    if not (times and 0.0 <= times[0] and times[-1] <= maturity
            and all(a < b for a, b in zip(times, times[1:]))):
        raise ValueError(f"{name} must be non-empty, finite, strictly increasing and "
                         f"within [0, {maturity!r}], got {times!r}")
    return times


def check_cds_quote(maturity: float, spread: float, previous: int) -> int:
    """The one CDS quote rule: a finite ``spread`` > 0 (decimal) and a ``maturity`` whose date
    count on the ``CDS_FREQ`` grid (``grid_periods``) exceeds ``previous``; returns the count."""
    if not 0.0 < spread < math.inf:
        raise ValueError(f"the {maturity}y quote's spread must be finite and > 0, got {spread}")
    n = grid_periods(maturity, CDS_FREQ)
    if n <= previous:
        raise ValueError(f"the {maturity}y quote ends on or before the previous quote's "
                         f"last quarterly date {previous / CDS_FREQ}")
    return n


class RecoveryAssumption(float):
    """Fractional recovery of par, validated; accrued recovers the same rate."""

    def __new__(cls, principal: float, accrued: float | None = None):
        check_recovery(principal, "principal")
        if accrued is not None and float(accrued) != principal:
            raise ValueError("accrued recovery must equal principal recovery")
        return super().__new__(cls, principal)

    rate = principal = accrued = property(float)  # all three are the one rate


@dataclass(frozen=True)
class CdsSpec:
    """Credit default swap contract terms."""

    contractual_coupon: float
    maturity: float
    freq: int = CDS_FREQ
    recovery: float = 0.40

    def __post_init__(self) -> None:
        if not math.isfinite(check_number(self.contractual_coupon, "contractual_coupon")):
            raise ValueError(f"contractual_coupon must be finite, got {self.contractual_coupon!r}")
        if not check_number(self.maturity, "maturity") > 0.0:
            raise ValueError(f"maturity must be > 0, got {self.maturity!r}")
        check_recovery(self.recovery)
        grid_periods(self.maturity, check_number(self.freq, "freq", whole=True))


@dataclass(frozen=True)
class TriangleQuotes:
    """Matching-maturity CDS / DDS / recovery-swap quotes."""

    cds_spread: float
    dds_spread: float
    dds_recovery: float
    rs_rate: float

    def __post_init__(self) -> None:
        for name in ("cds_spread", "dds_spread"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("dds_recovery", "rs_rate"):
            check_recovery(getattr(self, name), name)


def _legs(zs: list[float], qs: list[float],
          q_prev: float = 1.0) -> tuple[list[float], list[float]]:
    """Per-date Z*Q and Z*(Q_prev - Q), Q_prev = ``q_prev`` before the first date."""
    return [z * q for z, q in zip(zs, qs)], [z * (p - q) for z, p, q in zip(zs, [q_prev] + qs, qs)]


class LegTable:
    """One schedule's per-date Z and Q, their ``_legs`` and the legs' running sums; the one
    par spread, rpv01, bond price and par coupon to date n, 1..len(zq).  ``walk`` reads
    each curve once a date; a table on the same dates and another curve (the riskless
    twin, Q = 1) reuses its ``zs``.  A bond's per-date flows are ``frp_flows``, which
    reads the same legs and no running sum.

    ``before``, if given, is ``carried(n)`` of a table on the earlier dates of the same
    schedule: this table then holds only the later dates, numbered from 1 again; its first
    leg takes that Q as Q_prev and its running sums continue that table's, so each is the
    float one walk over all the dates gives."""

    def __init__(self, zs: list[float], qs: list[float], freq: int,
                 before: tuple[float, float, float] | None = None) -> None:
        if not zs:
            raise ValueError("empty payment schedule")
        self.zs, self.qs, self.freq = zs, qs, freq
        q_prev, annuity, protection = before or (1.0, 0.0, 0.0)
        self.zq, self.zdq = _legs(zs, qs, q_prev)
        self.annuity = list(accumulate(self.zq, initial=annuity))[1:]
        self.protection = list(accumulate(self.zdq, initial=protection))[1:]

    def carried(self, n: int) -> tuple[float, float, float]:
        """(Q, annuity, protection) at date n: the ``before`` of a table on the dates after n."""
        return self.qs[n - 1], self.annuity[n - 1], self.protection[n - 1]

    @classmethod
    def walk(cls, times: Sequence[float], freq: int, base: BaseCurve,
             curve: SurvivalCurve) -> "LegTable":
        """The table on ``times``: one ``df`` a date and one ``survivals`` read."""
        return cls([base.df(t) for t in times], curve.survivals(times), freq)

    def n(self, maturity: float) -> int:
        """Dates to ``maturity`` on the ``grid_times`` grid (``ScheduleError`` off it)."""
        return grid_periods(maturity, self.freq)

    def par_spread(self, n: int, recovery: float) -> float:
        """Breakeven CDS premium to date n.  It is paid on each period's mean survival, so
        its annuity is sum Z*(Q_prev + Q)/2 = annuity + protection/2."""
        R = check_recovery(recovery)
        den = 2.0 * self.annuity[n - 1] + self.protection[n - 1]
        if den <= 0.0:
            raise ValueError("degenerate premium annuity")
        return 2.0 * self.freq * (1.0 - R) * self.protection[n - 1] / den

    def rpv01(self, n: int) -> float:
        """Risky PV01 to the n-th date: a unit running premium paid until default."""
        return (2.0 * self.annuity[n - 1] + self.protection[n - 1]) / (2.0 * self.freq)

    def price(self, n: int, coupon: float, recovery: float) -> float:
        """Dirty FRP price of a bond paying ``coupon`` on dates 1..n:
        C/q * annuity + R (1 + C/2q) * protection + survived principal, the
        ``frp_coefficients`` applied to the running sums as ``frp_flows``
        applies them to the per-date legs."""
        cpn, load = frp_coefficients(coupon, self.freq)
        rec_factor = check_recovery(recovery) * load
        return cpn * self.annuity[n - 1] + rec_factor * self.protection[n - 1] + self.zq[n - 1]

    def par_coupon(self, n: int, recovery: float, accrued_time: float = 0.0) -> float:
        """Coupon pricing a bond paying on dates 1..n at par (clean), seasoned by accrued_time:
        the inverse of ``price``, solving price(n, C, R) - C * accrued_time = 1 for C."""
        recovery, protection = check_recovery(recovery), self.protection[n - 1]
        den = self.annuity[n - 1] + 0.5 * recovery * protection - self.freq * accrued_time
        if den <= 0.0:
            raise ValueError("non-positive par-coupon denominator")
        return self.freq * (1.0 - self.zq[n - 1] - recovery * protection) / den


def frp_coefficients(coupon: float, freq: int) -> tuple[float, float]:
    """(C/q, 1 + C/2q): coupon paid on survival to each payment date, and face plus
    half coupon, of which R is paid on default in the period ending there."""
    return coupon / freq, 1.0 + coupon / (2.0 * freq)


def frp_flows(coupon: float, freq: int, recovery: float, zs: list, qs: list) -> list[float]:
    """The one FRP flow rule: discounted expected cash flow w_i on each payment date from
    its discount factor z_i and survival q_i, ``frp_coefficients`` applied to the
    per-date ``_legs``, plus the survived principal z_N q_N on the last date."""
    cpn, load = frp_coefficients(coupon, freq)
    rec_factor = check_recovery(recovery) * load
    zq, zdq = _legs(zs, qs)
    flows = [cpn * a + rec_factor * p for a, p in zip(zq, zdq)]
    flows[-1] += zq[-1]
    return flows


def frp_walk(bond: BondSpec, base: BaseCurve, curve: SurvivalCurve,
             recovery: float) -> tuple[tuple[float, ...], list[float]]:
    """(payment times, ``frp_flows``): the bond's schedule read once, each curve once a date."""
    times = bond.payment_times
    return times, frp_flows(bond.coupon, bond.freq, recovery,
                            [base.df(t) for t in times], curve.survivals(times))


def frp_cash_flows(bond: BondSpec, base: BaseCurve, curve: SurvivalCurve,
                   recovery: float) -> list[float]:
    """Discounted expected cash flow w_i on each of the bond's payment dates (``frp_walk``)."""
    return frp_walk(bond, base, curve, recovery)[1]


def bond_pv_frp(bond: BondSpec, base: BaseCurve, curve: SurvivalCurve, recovery: float,
                das: float = 0.0) -> float:
    """Dirty present value of a credit bond under fractional recovery of par:
    sum w_i * exp(-das * t_i) over the ``frp_walk`` flows (``rootfind.pv_slope``, the PV
    every spread solve reads), so a non-zero ``das`` discounts all three legs by exp(-das * t)."""
    if not math.isfinite(das):
        raise ValueError(f"das must be finite, got {das!r}")
    return pv_slope(*frp_walk(bond, base, curve, recovery), das)[0]


def cds_upfront(cds: CdsSpec, base: BaseCurve, curve: SurvivalCurve) -> float:
    """Upfront payment equating premium and protection legs."""
    legs = LegTable.walk(grid_times(cds.maturity, cds.freq), cds.freq, base, curve)
    prem, prot, cpn = legs.annuity[-1], legs.protection[-1], cds.contractual_coupon
    return (1.0 - cds.recovery - cpn / (2.0 * cds.freq)) * prot - (cpn / cds.freq) * prem


def cds_par_spread(
    maturity: float, freq: int, base: BaseCurve, curve: SurvivalCurve, recovery: float
) -> float:
    """Breakeven running premium for zero upfront: ``LegTable.par_spread``."""
    legs = LegTable.walk(grid_times(maturity, freq), freq, base, curve)
    return legs.par_spread(len(legs.zq), recovery)


def rpv01(maturity: float, freq: int, base: BaseCurve, curve: SurvivalCurve) -> float:
    """Risky PV01: value of a unit running premium paid until default."""
    legs = LegTable.walk(grid_times(maturity, freq), freq, base, curve)
    return legs.rpv01(len(legs.zq))


def cds_mtm(cds: CdsSpec, par_spread: float, risky_pv01: float) -> float:
    """Upfront mark-to-market: (par spread - contractual coupon) * rpv01."""
    return (par_spread - cds.contractual_coupon) * risky_pv01


def recovery_swap_hedge(rs_rate: float, dds_recovery: float) -> tuple[float, float]:
    """Notionals (H_cds, H_dds) replicating a payer recovery swap.

    Short one CDS, long (1 - rs_rate)/(1 - dds_recovery) DDS: the default
    payoff nets to zero for every realized recovery.
    """
    rs_rate = check_recovery(rs_rate, "rs_rate")
    return 1.0, (1.0 - rs_rate) / (1.0 - check_recovery(dds_recovery, "dds_recovery"))


def dds_spread_from_cds(cds_spread: float, dds_recovery: float, rs_rate: float) -> float:
    """No-arbitrage digital default swap spread from CDS and recovery swap."""
    dds_recovery = check_recovery(dds_recovery, "dds_recovery")
    return cds_spread * (1.0 - dds_recovery) / (1.0 - check_recovery(rs_rate, "rs_rate"))


def credit_triangle_hazard(cds_spread: float, rs_rate: float) -> float:
    """Flat-curve hazard rate h = S / (1 - R)."""
    return cds_spread / (1.0 - check_recovery(rs_rate, "rs_rate"))


# ---------------------------------------------------------------------------
# Closed-form survival-weighted integrals and continuous-time prices
# ---------------------------------------------------------------------------


def _int_exp(decay: float, span: float) -> float:
    """Integral of exp(-decay * s) over [0, span]."""
    if abs(decay) < 1e-14:
        return span
    return -math.expm1(-decay * span) / decay


def survival_discount_integrals(
    base: BaseCurve,
    curve: SurvivalCurve,
    t0: float,
    t1: float,
    extra_decay: float = 0.0,
) -> tuple[float, float, float]:
    """Exact integrals of Z*Q, h*Z*Q and f*Z*Q times exp(-extra_decay*u) over [t0, t1].

    On each cut [a, b] between base nodes and curve breakpoints, Z(u) =
    Z(a) exp(-f (u - a)) and Q is ``curve._exp_terms``, both relative to a.
    Every node strictly inside (t0, t1) is a cut, however close to an end.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t0 and t1 must be finite, got {t0!r}, {t1!r}")
    if not math.isfinite(extra_decay):
        raise ValueError(f"extra_decay must be finite, got {extra_decay!r}")
    if t1 <= t0:
        return 0.0, 0.0, 0.0
    grid = [t0, *sorted({x for x in base.node_tenors + curve._breakpoints() if t0 < x < t1}), t1]
    return _cut_integrals(base, curve, grid, [base.df(a) for a in grid[:-1]], extra_decay)


def _cut_integrals(base: BaseCurve, curve: SurvivalCurve, cuts: Sequence[float],
                   zs: Sequence[float], extra_decay: float) -> tuple[float, float, float]:
    """The one statement of the per-cut integral: Z*Q, h*Z*Q and f*Z*Q times
    exp(-extra_decay*u), summed over the cuts [a, b] between consecutive ``cuts``
    (no base node or curve breakpoint inside), given Z(a) for each cut in ``zs``."""
    i_zq = i_hzq = i_fzq = 0.0
    for a, b, z in zip(cuts, cuts[1:], zs):
        f = base.fwd_rate(a)
        scale = z * math.exp(-extra_decay * a)
        for coef, decay in curve._exp_terms(a, b):
            piece = scale * coef * _int_exp(f + decay + extra_decay, b - a)
            i_zq += piece
            i_hzq += decay * piece
            i_fzq += f * piece
    return i_zq, i_hzq, i_fzq


def bond_price_continuous(bond: BondSpec, base: BaseCurve, curve: SurvivalCurve,
                          recovery: float, das: float = 0.0) -> float:
    """Clean price in the continuous-coupon approximation: ``continuous_prices`` at t = 0."""
    return continuous_prices(bond, base, curve, recovery, [0.0], das)[0]


def continuous_prices(bond: BondSpec, base: BaseCurve, curve: SurvivalCurve, recovery: float,
                      dates: Sequence[float], das: float = 0.0) -> list[float]:
    """Clean continuous-coupon price P(t, T) given survival to t, at each of ``dates``
    (``check_dates``), every leg divided by Z(t) Q(t) exp(-das t); P(T, T) = 1.

    One backward walk from T: the integrals from t_i to T are the piece over
    [t_i, t_{i+1}] plus the sums already held for t_{i+1}.  The dates, T, base nodes
    and curve breakpoints are merged into one list of cuts, each discounted once.
    The -C/2q * (1 - E) term and the ``frp_coefficients`` load 1 + C/2q correct the
    naive integral formula for the expected accrued coupon lost at default and for
    the early-discount bias of spreading coupons over the period.
    """
    R = check_recovery(recovery)
    if not math.isfinite(das):
        raise ValueError(f"das must be finite, got {das!r}")
    C, q, T = bond.coupon, bond.freq, bond.maturity
    load = frp_coefficients(C, q)[1]
    times = check_dates(dates, T)
    cuts = sorted({*times, T,
                   *(x for x in base.node_tenors + curve._breakpoints() if times[0] < x < T)})
    zs = [base.df(x) for x in cuts]
    end_zq = zs[-1] * curve.survival(T) * math.exp(-das * T)
    i_zq = i_hzq = 0.0
    hi, prices = len(cuts) - 1, []
    for t, qt in zip(reversed(times), reversed(curve.survivals(times))):
        lo = bisect_left(cuts, t, 0, hi)
        p_zq, p_hzq, _ = _cut_integrals(base, curve, cuts[lo:hi + 1], zs[lo:hi], das)
        i_zq, i_hzq, hi = i_zq + p_zq, i_hzq + p_hzq, lo
        scale = zs[lo] * qt * math.exp(-das * t)
        survived = end_zq / scale
        prices.append(C * i_zq / scale + survived - C / (2.0 * q) * (1.0 - survived)
                      + R * load * i_hzq / scale)
    return prices[::-1]


def cds_par_spread_continuous(
    maturity: float,
    freq: int,
    base: BaseCurve,
    curve: SurvivalCurve,
    recovery: float,
) -> float:
    """Continuous-premium par CDS spread with the finite-frequency
    discounting correction (1 - f/2q) applied to the premium annuity."""
    R = check_recovery(recovery)
    if not 0.0 < maturity < math.inf:
        raise ValueError(f"maturity must be finite and > 0, got {maturity!r}")
    if not freq > 0:
        raise ValueError(f"freq must be > 0, got {freq!r}")
    i_zq, i_hzq, i_fzq = survival_discount_integrals(base, curve, 0.0, maturity)
    den = i_zq - i_fzq / (2.0 * freq)
    if den <= 0.0:
        raise ValueError("degenerate premium annuity")
    return (1.0 - R) * i_hzq / den
