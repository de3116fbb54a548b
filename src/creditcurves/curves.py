"""Risk-free (base) discount curve.

Conventions used throughout the package:

- Times are year fractions measured from the valuation date.
- Rates are continuously compounded decimals (0.05 = 5%).
- The curve is a set of (tenor, discount factor) nodes with an implicit
  node (0, 1.0).  Interpolation is log-linear in the discount factor, so
  instantaneous forward rates are piecewise constant; extrapolation past
  the last node keeps the last forward rate flat, as one more segment.

Construction rejects increasing discount factors, i.e. negative forward
rates, so every curve built here has df(t) non-increasing and fwd >= 0.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from typing import Callable, Iterable

from .errors import ParseError, ScheduleError

MAX_PERIODS = 1200  # longest schedule grid_periods allows: 100 years of monthly periods


class BaseCurve:
    """Immutable discount curve, log-linear in discount factors."""

    def __init__(self, nodes: Iterable[tuple[float, float]]):
        pts = [(float(t), float(df)) for t, df in nodes]
        if not pts:
            raise ValueError("curve needs at least one node")
        prev_t, prev_df = 0.0, 1.0
        for t, df in pts:
            if not prev_t < t < math.inf:
                raise ValueError("node tenors must be finite, strictly increasing and > 0")
            if not 0.0 < df <= 1.0:
                raise ValueError(f"discount factor at t={t} must be in (0, 1]")
            if df > prev_df:
                raise ValueError(
                    f"discount factors must be non-increasing (negative forward at t={t})"
                )
            prev_t, prev_df = t, df
        self._times = (0.0,) + tuple(t for t, _ in pts)
        self._dfs = (1.0,) + tuple(df for _, df in pts)
        # Constant forward per segment; the tail past the last node is one more, at the last rate.
        fwds = [math.log(self._dfs[i] / self._dfs[i + 1]) / (self._times[i + 1] - self._times[i])
                for i in range(len(self._dfs) - 1)]
        self._fwds = tuple(fwds + fwds[-1:])

    @classmethod
    def from_zero_rates(cls, pairs: Iterable[tuple[float, float]]) -> "BaseCurve":
        """Build from (tenor, continuously-compounded zero rate) pairs."""
        return cls([(t, _discount(r, t)) for t, r in pairs])

    @classmethod
    def flat(cls, rate: float, tenor: float = 1.0) -> "BaseCurve":
        """Flat curve df(t) = exp(-rate * t); exact at all t, not just nodes."""
        return cls([(tenor, _discount(rate, tenor))])

    @property
    def node_tenors(self) -> tuple[float, ...]:
        return self._times[1:]

    def df(self, t: float) -> float:
        """Discount factor Z(t); log-linear between nodes, flat forward beyond."""
        if not 0.0 <= t < math.inf:
            raise ValueError(f"t must be finite and >= 0, got {t!r}")
        i = bisect_right(self._times, t) - 1
        return self._dfs[i] * math.exp(-self._fwds[i] * (t - self._times[i]))

    def zero_rate(self, t: float) -> float:
        """Continuously compounded zero rate r(t) = -ln Z(t) / t, t > 0."""
        if not t > 0.0:
            raise ValueError("t must be > 0")
        return -math.log(self.df(t)) / t

    def fwd_rate(self, t: float) -> float:
        """Instantaneous forward rate; right-limit at nodes, flat beyond the end."""
        if not 0.0 <= t < math.inf:
            raise ValueError(f"t must be finite and >= 0, got {t!r}")
        return self._fwds[bisect_right(self._times, t) - 1]

    def par_yield(self, maturity: float, freq: int) -> float:
        """Coupon rate pricing a riskless bullet bond at par.

        The maturity must be an integer number of coupon periods; coupon
        dates are ``grid_times(maturity, freq)``.
        """
        annuity = 0.0  # added term by term, so no result depends on how sum() rounds
        for t in grid_times(maturity, freq):
            annuity += self.df(t)
        return freq * (1.0 - self.df(maturity)) / annuity

    def __repr__(self) -> str:
        inner = ", ".join(f"({t:g}, {df:.6g})" for t, df in zip(self._times[1:], self._dfs[1:]))
        return f"BaseCurve([{inner}])"


def _discount(rate: float, t: float) -> float:
    try:  # exp(-rate * t); where it overflows, a ValueError names the rate and t
        return math.exp(-rate * t)
    except OverflowError:
        raise ValueError(f"zero rate {rate!r} at t={t!r} overflows the discount factor") from None


def read_csv_rows(path: str, header: Callable[[list[str]], str],
                  parse: Callable[[dict, int], object], noun: str,
                  optional: tuple[str, ...] = ()) -> list:
    """The one rule for CSV input: ``header(fieldnames)`` returns "" or a fault and
    ``parse(row, line)`` builds one value.  A fault, a row that fails to parse, lacks the
    cell of a column not ``optional`` or leaves it blank (empty or whitespace), has cells
    beyond the header, bytes that are not UTF-8 or no rows is a ``ParseError``."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            fault = header(reader.fieldnames or [])
            rows = [] if fault else [(row, reader.line_num) for row in reader]
    except UnicodeDecodeError as exc:
        fault = f"not UTF-8: {exc}"
    if fault or not rows:
        raise ParseError(f"{path}: {fault or f'no {noun} rows'}")
    out = []
    for row, line in rows:
        try:
            if None in row:  # DictReader keys the cells past the header by None
                raise ValueError(f"cells beyond the header: {row[None]!r}")
            # DictReader fills the cells a short row lacks with None; a blank cell is as empty.
            short = [c for c, cell in row.items()
                     if c not in optional and (cell is None or not cell.strip())]
            if short:
                raise ValueError(f"missing cell for column {short[0]!r}")
            out.append(parse(row, line))
        except (TypeError, ValueError, ScheduleError) as exc:
            raise ParseError(f"{path}: row {line}: {exc}") from exc
    return out


def load_base_curve(path: str) -> BaseCurve:
    """Read a curve CSV with header ``tenor_years,zero_rate`` or
    ``tenor_years,discount_factor`` (exactly one of the two columns)."""
    def header(fields: list[str]) -> str:
        one_value = ("zero_rate" in fields) != ("discount_factor" in fields)
        return "" if "tenor_years" in fields and one_value else (
            "header must be tenor_years plus exactly one of zero_rate / discount_factor")

    def parse(row: dict, _: int) -> tuple[float, float]:
        t = float(row["tenor_years"])
        return t, (_discount(float(row["zero_rate"]), t) if "zero_rate" in row
                   else float(row["discount_factor"]))

    pairs = read_csv_rows(path, header, parse, "curve")
    try:
        return BaseCurve(pairs)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def grid_periods(span: float, freq: int) -> int:
    """Number n of 1/freq periods in ``span``: the single home of the payment-grid rule.

    ``span`` must be finite and lie within 1e-8 of a whole number n >= 1 of
    1/freq periods, with n at most ``MAX_PERIODS``, otherwise ``ScheduleError``
    names the offending value.
    """
    n = span * freq
    if not math.isfinite(n) or abs(n - round(n)) > 1e-8 or round(n) < 1:
        raise ScheduleError(f"span {span!r} is not a whole number >= 1 of 1/{freq} periods")
    if round(n) > MAX_PERIODS:
        raise ScheduleError(f"span {span!r} has more than {MAX_PERIODS} periods of 1/{freq}")
    return round(n)


def grid_times(span: float, freq: int) -> tuple[float, ...]:
    """Payment times (1/freq, 2/freq, ..., n/freq), n = ``grid_periods(span, freq)``."""
    return tuple(i / freq for i in range(1, grid_periods(span, freq) + 1))
