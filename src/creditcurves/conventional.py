"""Conventional yield and spread measures.

These are the strippable-cash-flow measures kept for comparison with the
survival-based ones: yield to maturity, yield/I-spread against benchmark
yields, Z-spread over a base curve, and the floating-rate-note discount
margin.  Accrued interest handling: full coupons are discounted at their
scheduled times and compared against the dirty price (clean + accrued).
The Z-spread and its duration are ``rootfind.solve_spread`` and
``rootfind.spread_duration`` on the discounted cash flows CF * Z_base(t):
the survival-based DAS with survival Q = 1.  The yield is the Z-spread over a zero
curve, converted from continuous compounding; the FRN margin uses ``solve_bracketed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curves import BaseCurve, grid_periods
from .errors import check_number
from .rootfind import RATE_BRACKET, check_price, solve_bracketed, solve_spread, spread_duration


@dataclass(frozen=True, slots=True)
class BondSpec:
    """Bullet bond: annual coupon rate, payment frequency, maturity in years.

    ``accrued_time`` is the time since the last coupon; remaining payment
    dates are t_i = maturity - (N - i)/freq, so freq * (maturity +
    accrued_time) must be a whole number of periods.  Face value is 1.
    """

    coupon: float
    freq: int
    maturity: float
    accrued_time: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= check_number(self.coupon, "coupon") < math.inf:
            raise ValueError(f"coupon must be finite and >= 0, got {self.coupon!r}")
        if check_number(self.freq, "freq", whole=True) not in (1, 2, 4):
            raise ValueError("freq must be 1, 2 or 4")
        if not check_number(self.maturity, "maturity") > 0.0:
            raise ValueError(f"maturity must be > 0, got {self.maturity!r}")
        if not 0.0 <= check_number(self.accrued_time, "accrued_time") < 1.0 / self.freq:
            raise ValueError("accrued_time must lie in [0, 1/freq)")
        grid_periods(self.maturity + self.accrued_time, self.freq)

    @property
    def n_payments(self) -> int:
        return grid_periods(self.maturity + self.accrued_time, self.freq)

    @property
    def payment_times(self) -> tuple[float, ...]:
        n = self.n_payments
        return tuple(self.maturity - (n - i) / self.freq for i in range(1, n + 1))

    @property
    def accrued_interest(self) -> float:
        return self.coupon * self.accrued_time

    def cash_flows(self) -> tuple[tuple[float, float], ...]:
        """(time, amount) pairs; the final payment includes the principal: ``_z_flows`` at z = 1."""
        times = self.payment_times
        return tuple(zip(times, self._z_flows([1.0] * len(times))))

    def _z_flows(self, zs: list[float]) -> list[float]:
        """The bond's cash-flow rule: CF * z on each payment date, z its discount factor, CF the
        coupon C/q plus the principal on the last date; the Z-spread flows and the fit's design."""
        cpn = self.coupon / self.freq
        return [cpn * z for z in zs[:-1]] + [(cpn + 1.0) * zs[-1]]


@dataclass(frozen=True)
class FrnSpec:
    """Floating rate note paying (index fixing + quoted margin) / freq.

    ``fixings`` holds the projected forward index rates per period; when
    omitted they are implied from the discount curve passed to
    ``discount_margin``.
    """

    quoted_margin: float
    freq: int
    maturity: float
    fixings: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.freq < 1:
            raise ValueError("freq must be >= 1")
        if not math.isfinite(self.quoted_margin):
            raise ValueError(f"quoted_margin must be finite, got {self.quoted_margin!r}")
        n = grid_periods(self.maturity, self.freq)
        if self.fixings is not None:
            fixings = tuple(float(x) for x in self.fixings)
            if len(fixings) != n or not all(math.isfinite(x) for x in fixings):
                raise ValueError(f"need one finite fixing per payment period, got {fixings!r}")
            object.__setattr__(self, "fixings", fixings)

    @property
    def n_payments(self) -> int:
        return grid_periods(self.maturity, self.freq)


def ytm(bond: BondSpec, clean_price: float, q_conv: float | None = None) -> float:
    """Yield to maturity in compounding q_conv (default: the bond's frequency; ``math.inf``
    for continuous): q_conv * expm1(s / q_conv), s the ``z_spread`` over a zero curve on
    ``RATE_BRACKET``, so a yield below q_conv * expm1(-0.5 / q_conv) raises ConvergenceError."""
    conv = float(bond.freq) if q_conv is None else float(q_conv)
    if not conv > 0.0:
        raise ValueError(f"q_conv must be > 0 or math.inf, got {q_conv!r}")
    s = z_spread(bond, clean_price, BaseCurve.flat(0.0))
    return s if math.isinf(conv) else conv * math.expm1(s / conv)


def i_spread(
    bond_yield: float,
    maturity: float,
    bench1: tuple[float, float],
    bench2: tuple[float, float] | None = None,
) -> float:
    """Spread over benchmark yields, linearly interpolated in maturity.

    With a single benchmark this is the plain yield spread.  With two,
    the bond maturity must lie inside the benchmark bracket.
    """
    t1, y1 = bench1
    if bench2 is None:
        return bond_yield - y1
    t2, y2 = bench2
    if not t1 < t2:
        raise ValueError("benchmark maturities must be increasing")
    if not t1 <= maturity <= t2:
        raise ValueError("bond maturity outside the benchmark bracket")
    w = (maturity - t1) / (t2 - t1)
    return bond_yield - ((1.0 - w) * y1 + w * y2)


def z_spread(bond: BondSpec, clean_price: float, base: BaseCurve) -> float:
    """Constant spread s with dirty = sum CF * Z_base(t) * exp(-s*t)."""
    times = bond.payment_times
    flows = bond._z_flows([base.df(t) for t in times])
    return solve_spread(times, flows, clean_price + bond.accrued_interest)


def z_spread_duration(bond: BondSpec, clean_price: float, base: BaseCurve) -> float:
    """Sensitivity -d ln PV / d s at the bond's fitted Z-spread, in years."""
    times = bond.payment_times
    flows = bond._z_flows([base.df(t) for t in times])
    return spread_duration(times, flows, clean_price + bond.accrued_interest)


def discount_margin(frn: FrnSpec, price: float, base: BaseCurve | None = None) -> float:
    """Zero discount margin of a floating rate note at a reset date.

    Cash flows are (L_i + QM)/q with the principal added at maturity;
    discounting compounds 1/(1 + (L_i + DM)/q) per period.  Forward
    fixings come from the spec, or are implied from ``base`` when absent.
    """
    check_price(price, "price")
    n = frn.n_payments
    delta = 1.0 / frn.freq
    if frn.fixings is not None:
        fixings = frn.fixings
    else:
        if base is None:
            raise ValueError("need either explicit fixings or a base curve")
        fixings = tuple(
            (base.df((i - 1) * delta) / base.df(i * delta) - 1.0) / delta
            for i in range(1, n + 1)
        )
    if not 1.0 + delta * (min(fixings) + RATE_BRACKET[0]) > 0.0:
        raise ValueError(f"fixings must keep 1 + (fixing + margin)/freq > 0 on {RATE_BRACKET}, "
                         f"got {fixings!r}")

    def residual(dm: float) -> float:
        pv, disc = 0.0, 1.0
        for i, fix in enumerate(fixings, start=1):
            disc /= 1.0 + delta * (fix + dm)
            cf = (fix + frn.quoted_margin) * delta
            if i == n:
                cf += 1.0
            pv += cf * disc
        return pv - price

    return solve_bracketed(residual, *RATE_BRACKET)
