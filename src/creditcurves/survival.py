"""Survival probability term structures.

Two representations are supported:

- ``SplineSurvivalCurve``: Q(t) = sum_k beta_k * Phi_k(t | eta) on an
  exponential spline basis, the output of the cross-sectional bond fit.
- ``PiecewiseHazardCurve``: piecewise-constant hazard segments, the
  output of a CDS bootstrap.

A spline curve stores, once, Q on each knot segment [a, b] as a cubic in
y = exp(-eta (u - a)): beta times ``SplineBasis.coefficients(a)``.  Its
survival, hazard, monotonicity check and ``_exp_terms`` read those cubics.
``survivals`` is ``survival`` over a whole schedule, bit for bit, in one pass:
the form every schedule walk reads.

Invariants enforced at construction: Q(0) = 1, Q non-increasing (checked
exactly, in closed form) and Q positive at the curve horizon.  Past the
horizon both representations extrapolate with the terminal hazard rate floored
at 0 (Q may rise by ``_Q0_TOL``), so hazards stay >= 0 and survival positive forever.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from typing import Sequence

from .errors import ParseError, check_number
from .splines import SplineBasis

DEFAULT_HORIZON = 30.0
_Q0_TOL = 1e-12


class SurvivalCurve:
    """Shared behaviour; concrete curves implement survival() and hazard()."""

    horizon: float

    def survival(self, t: float) -> float:
        raise NotImplementedError

    def hazard(self, t: float) -> float:
        raise NotImplementedError

    def survivals(self, times: Sequence[float]) -> list[float]:
        """``survival`` at every date of a schedule, bit for bit; the concrete curves
        read the dates in one pass, searching for a segment only when a date is earlier
        than the one before."""
        return [self.survival(t) for t in times]

    def default_prob(self, t1: float, t2: float) -> float:
        """Probability of default inside [t1, t2]: Q(t1) - Q(t2)."""
        if not 0.0 <= t1 <= t2:
            raise ValueError("need 0 <= t1 <= t2")
        return self.survival(t1) - self.survival(t2)

    def fwd_survival(self, t: float, T: float) -> float:
        """Conditional survival to T given survival to t: Q(T)/Q(t)."""
        if not 0.0 <= t <= T:
            raise ValueError("need 0 <= t <= T")
        qt = self.survival(t)
        if qt <= 0.0:
            raise ValueError(f"survival vanishes at t={t}")
        return self.survival(T) / qt

    def zz_spread(self, T: float) -> float:
        """Average hazard to T: -ln Q(T) / T (zero-coupon zero-recovery spread)."""
        if not T > 0.0:
            raise ValueError("T must be > 0")
        q = self.survival(T)
        if q <= 0.0:
            raise ValueError(f"survival vanishes at t={T}")
        return -math.log(q) / T

    # -- segment decomposition used by the closed-form integrators ---------

    def _breakpoints(self) -> tuple[float, ...]:
        raise NotImplementedError

    def _exp_terms(self, a: float, b: float) -> list[tuple[float, float]]:
        """Q(u) = sum c * exp(-d * (u - a)) on [a, b] (no breakpoints inside), relative to
        the cut start a, so no term grows with a."""
        raise NotImplementedError

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        raise NotImplementedError

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")


class SplineSurvivalCurve(SurvivalCurve):
    """Exponential-spline survival curve with constant-hazard tail."""

    def __init__(self, basis: SplineBasis, beta: Sequence[float], horizon: float = DEFAULT_HORIZON):
        beta = tuple(float(b) for b in beta)
        if len(beta) != basis.size:
            raise ValueError("beta length must match basis size")
        if not 0.0 < horizon < math.inf:
            raise ValueError(f"horizon must be finite and > 0, got {horizon!r}")
        if not all(math.isfinite(b) for b in beta):
            raise ValueError(f"beta entries must be finite, got {beta!r}")
        self.basis, self.beta, self.horizon = basis, beta, float(horizon)
        self._starts = [0.0] + [t for t in basis.knot_tenors if t < self.horizon]
        self._cubics = [tuple(sum(b * c for b, c in zip(beta, column))
                              for column in zip(*basis.coefficients(a)))
                        for a in self._starts]
        if abs(sum(self._cubics[0]) - 1.0) > _Q0_TOL:  # knotted factors are 0 at t = 0
            raise ValueError(f"Q(0) = knot-free sum(beta) = {sum(self._cubics[0])!r} must equal 1")
        self._validate()
        self._q_horizon = self.survival(self.horizon)
        self._tail_hazard = max(self.hazard(self.horizon), 0.0)

    def _validate(self) -> None:
        """Q never rises by more than ``_Q0_TOL`` and is positive at the horizon: on each
        knot segment Q = sum p_m y^m is monotone between the roots of dQ/dy, so Q is
        compared there and at the segment end."""
        eta, prev = self.basis.eta, sum(self._cubics[0])
        for a, b, (p0, p1, p2, p3) in zip(self._starts, self._starts[1:] + [self.horizon],
                                          self._cubics):
            disc = 4.0 * p2 * p2 - 12.0 * p3 * p1
            w = -p2 - 0.5 * math.copysign(math.sqrt(max(disc, 0.0)), p2)  # no cancellation
            roots = [p1 / w] + ([w / (3.0 * p3)] if p3 else []) if disc > 0.0 else []
            y_b = math.exp(-eta * (b - a))
            for y in sorted((y for y in roots if y_b < y < 1.0), reverse=True) + [y_b]:
                q = ((p3 * y + p2) * y + p1) * y + p0
                if q > prev + _Q0_TOL:  # y_b may underflow to 0: no logarithm at the end
                    t = b if y == y_b else a - math.log(y) / eta
                    raise ValueError(f"survival probability increases near t={t:.2f}")
                prev = q
        if prev <= 0.0:
            raise ValueError("survival probability non-positive at the horizon")

    def _cubic(self, t: float) -> tuple[tuple[float, ...], float]:
        """The cubic of the knot segment (a, next start] holding t, and y at t."""
        i = bisect_left(self._starts, t, 1) - 1
        return self._cubics[i], math.exp(-self.basis.eta * (t - self._starts[i]))

    def survival(self, t: float) -> float:
        if not 0.0 <= t < math.inf:
            raise ValueError(f"t must be finite and >= 0, got {t!r}")
        if t > self.horizon:
            return self._q_horizon * math.exp(-self._tail_hazard * (t - self.horizon))
        (p0, p1, p2, p3), y = self._cubic(t)
        return ((p3 * y + p2) * y + p1) * y + p0

    def survivals(self, times: Sequence[float]) -> list[float]:
        starts, cubics, eta, horizon = self._starts, self._cubics, self.basis.eta, self.horizon
        out, i, last, top = [], 0, math.inf, len(starts) - 1
        for t in times:
            if not 0.0 <= t < math.inf:
                raise ValueError(f"t must be finite and >= 0, got {t!r}")
            if t > horizon:
                out.append(self._q_horizon * math.exp(-self._tail_hazard * (t - horizon)))
                continue
            if t < last:  # the segment (a, next start] holding t, as in ``survival``
                i = bisect_left(starts, t, 1) - 1
            while i < top and starts[i + 1] < t:
                i += 1
            last = t
            (p0, p1, p2, p3), y = cubics[i], math.exp(-eta * (t - starts[i]))
            out.append(((p3 * y + p2) * y + p1) * y + p0)
        return out

    def hazard(self, t: float) -> float:
        if not 0.0 <= t < math.inf:
            raise ValueError(f"t must be finite and >= 0, got {t!r}")
        if t > self.horizon:
            return self._tail_hazard
        (p0, p1, p2, p3), y = self._cubic(t)
        q = ((p3 * y + p2) * y + p1) * y + p0
        if q <= 0.0:
            raise ValueError(f"survival vanishes at t={t}; hazard undefined")
        return self.basis.eta * (((3.0 * p3 * y + 2.0 * p2) * y + p1) * y / q)

    def _breakpoints(self) -> tuple[float, ...]:
        return self.basis.knot_tenors + (self.horizon,)

    def _exp_terms(self, a: float, b: float) -> list[tuple[float, float]]:
        if a >= self.horizon:
            return [(self._q_horizon * math.exp(-self._tail_hazard * (a - self.horizon)),
                     self._tail_hazard)]
        i = bisect_left(self._starts, 0.5 * (a + b), 1) - 1  # the segment holding the cut
        w = math.exp(-self.basis.eta * (a - self._starts[i]))  # y at a
        return [(p * w ** m, m * self.basis.eta)
                for m, p in enumerate(self._cubics[i]) if p != 0.0]

    def to_dict(self) -> dict:
        record = {"type": "spline", "eta": self.basis.eta, "beta": list(self.beta),
                  "horizon": self.horizon}
        if self.basis.knots:
            record["knots"] = [[k, t] for k, t in self.basis.knots]
        return record


class PiecewiseHazardCurve(SurvivalCurve):
    """Piecewise-constant hazard; segment k covers (tenor_{k-1}, tenor_k]."""

    def __init__(self, segments: Sequence[tuple[float, float]]):
        segs = tuple((float(check_number(t, "segment tenor")),
                      float(check_number(h, "hazard rate"))) for t, h in segments)
        if not segs:
            raise ValueError("need at least one hazard segment")
        cum, prev = [0.0], 0.0  # cumulative hazard at the segment ends
        for t, h in segs:
            if not prev < t < math.inf:
                raise ValueError("segment tenors must be finite, strictly increasing and > 0")
            if not 0.0 <= h < math.inf:
                raise ValueError(f"hazard rate at tenor {t} must be finite and >= 0, got {h!r}")
            cum.append(cum[-1] + h * (t - prev))
            prev = t
        self.segments, self.horizon, self._cum = segs, segs[-1][0], tuple(cum)
        self._tenors = tuple(t for t, _ in segs)
        # Segment i of len(tenors) + 1 starts at _starts[i] with hazard _rates[i]; the last
        # one is the tail past the horizon, at the terminal rate.
        self._starts = (0.0,) + self._tenors
        self._rates = tuple(h for _, h in segs) + (segs[-1][1],)

    @classmethod
    def flat(cls, hazard: float, tenor: float = 1.0) -> "PiecewiseHazardCurve":
        return cls([(tenor, hazard)])

    @property
    def hazard_rates(self) -> tuple[float, ...]:
        return tuple(h for _, h in self.segments)

    def survival(self, t: float) -> float:
        if not 0.0 <= t < math.inf:
            raise ValueError(f"t must be finite and >= 0, got {t!r}")
        i = bisect_left(self._tenors, t)  # the segment (tenor_{i-1}, tenor_i] holding t
        return math.exp(-(self._cum[i] + self._rates[i] * (t - self._starts[i])))

    def survivals(self, times: Sequence[float]) -> list[float]:
        tenors, cum, rates, starts = self._tenors, self._cum, self._rates, self._starts
        out, i, last, top = [], 0, math.inf, len(tenors)
        for t in times:
            if not 0.0 <= t < math.inf:
                raise ValueError(f"t must be finite and >= 0, got {t!r}")
            if t < last:
                i = bisect_left(tenors, t)
            while i < top and tenors[i] < t:
                i += 1
            last = t
            out.append(math.exp(-(cum[i] + rates[i] * (t - starts[i]))))
        return out

    def hazard(self, t: float) -> float:
        """Right-continuous hazard rate; terminal rate past the last tenor."""
        if not 0.0 <= t < math.inf:
            raise ValueError(f"t must be finite and >= 0, got {t!r}")
        return self._rates[bisect_right(self._tenors, t)]

    def _breakpoints(self) -> tuple[float, ...]:
        return self._tenors

    def _exp_terms(self, a: float, b: float) -> list[tuple[float, float]]:
        return [(self.survival(a), self.hazard(a))]

    def to_dict(self) -> dict:
        return {"type": "piecewise_hazard",
                "segments": [[t, h] for t, h in self.segments]}


def survival_curve_from_dict(record: dict) -> SurvivalCurve:
    """Rebuild a curve from its JSON record {type, eta, beta[] | segments[]}."""
    kind = record["type"]
    if kind == "spline":
        knots = tuple((int(k), float(t)) for k, t in record.get("knots", []))
        basis = SplineBasis(eta=float(record["eta"]),
                            size=len(record["beta"]), knots=knots)
        horizon = float(record.get("horizon", DEFAULT_HORIZON))
        return SplineSurvivalCurve(basis, record["beta"], horizon=horizon)
    if kind == "piecewise_hazard":
        return PiecewiseHazardCurve([(float(t), float(h)) for t, h in record["segments"]])
    raise ValueError(f"unknown survival curve type {kind!r}")


def load_survival_curve(path: str) -> SurvivalCurve:
    """Read a curve JSON record; a malformed one raises ``ParseError`` naming the path."""
    with open(path) as handle:
        try:
            return survival_curve_from_dict(json.load(handle))
        except KeyError as exc:
            raise ParseError(f"{path}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
