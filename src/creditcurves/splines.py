"""Exponential spline basis for survival probability curves.

The basis consists of decaying exponentials sharing one long-term decay
rate eta.  Factors 1..3 are knot-free, exp(-k*eta*t).  Factors 4 and up
switch on above a knot tenor T and are built so that both the value and
the first derivative vanish at the knot (C1 continuity), levelling off
at 1/3 far above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SplineBasis:
    """Factor family Phi_k(t | eta), k = 1..size."""

    eta: float
    size: int = 3
    knots: tuple[tuple[int, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 0.0 < self.eta < math.inf:
            raise ValueError(f"eta must be finite and > 0, got {self.eta!r}")
        if self.size < 1:
            raise ValueError("need at least one factor")
        knots = tuple((int(k), float(t)) for k, t in self.knots)
        object.__setattr__(self, "knots", knots)
        expected = list(range(4, self.size + 1))
        if [k for k, _ in knots] != expected:
            raise ValueError("factors 4..size each require exactly one knot, in order")
        tenors = [t for _, t in knots]
        if any(not 0.0 < t < math.inf for t in tenors) or any(
            b <= a for a, b in zip(tenors, tenors[1:])
        ):
            raise ValueError("knot tenors must be strictly increasing and > 0")

    def knot_tenor(self, k: int) -> float:
        return self.knots[k - 4][1]

    @property
    def knot_tenors(self) -> tuple[float, ...]:
        return tuple(t for _, t in self.knots)

    def factor(self, k: int, t: float) -> float:
        """Value of Phi_k at tenor t >= 0."""
        if not 1 <= k <= self.size:
            raise ValueError(f"factor index {k} out of range 1..{self.size}")
        if not t >= 0.0:
            raise ValueError("t must be >= 0")
        if k <= 3:
            return math.exp(-k * self.eta * t)
        x = t - self.knot_tenor(k)
        if x <= 0.0:
            return 0.0
        e = math.exp(-self.eta * x)
        return 1.0 / 3.0 - e + e * e - e * e * e / 3.0

    def factor_slope(self, k: int, t: float) -> float:
        """d Phi_k / dt; knotted factors are C1, zero at and below the knot."""
        if not 1 <= k <= self.size:
            raise ValueError(f"factor index {k} out of range 1..{self.size}")
        if k <= 3:
            return -k * self.eta * math.exp(-k * self.eta * t)
        x = t - self.knot_tenor(k)
        if x <= 0.0:
            return 0.0
        e = math.exp(-self.eta * x)
        return self.eta * (e - 2.0 * e * e + e * e * e)

    def row(self, t: float) -> np.ndarray:
        """All factor values at t as a vector (regression design row)."""
        return np.array([self.factor(k, t) for k in range(1, self.size + 1)])

    def exp_terms(self, k: int, above_knot: bool) -> list[tuple[float, float]]:
        """Phi_k as a sum of c * exp(-d * t) terms in absolute time.

        For knotted factors the expansion is only valid above the knot;
        callers split integration segments at knot tenors first.
        """
        if k <= 3:
            return [(1.0, k * self.eta)]
        if not above_knot:
            return []
        T = self.knot_tenor(k)
        eta = self.eta
        return [
            (1.0 / 3.0, 0.0),
            (-math.exp(eta * T), eta),
            (math.exp(2.0 * eta * T), 2.0 * eta),
            (-math.exp(3.0 * eta * T) / 3.0, 3.0 * eta),
        ]
