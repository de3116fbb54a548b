"""Exponential spline basis for survival probability curves.

The basis consists of decaying exponentials sharing one long-term decay
rate eta.  Factors 1..3 are knot-free, exp(-k*eta*t).  Factors 4 and up
switch on above a knot tenor T and are built so that both the value and
the first derivative vanish at the knot (C1 continuity), levelling off
at 1/3 far above it.  On a knot segment that starts at a, every factor is
a cubic in y = exp(-eta (u - a)); ``SplineBasis.coefficients`` is the one
statement of those cubics, in Python floats, and ``row`` and the survival curve
read them.  Only ``row``, which builds the fit's design, imports numpy, so the
survival curve and everything that prices off it load without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import check_number

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SplineBasis:
    """Factor family Phi_k(t | eta), k = 1..size."""

    eta: float
    size: int = 3
    knots: tuple[tuple[int, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 0.0 < check_number(self.eta, "eta") < math.inf:
            raise ValueError(f"eta must be finite and > 0, got {self.eta!r}")
        if check_number(self.size, "size", whole=True) < 1:
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

    def coefficients(self, a: float) -> list[list[float]]:
        """The one statement of the factors, in Python floats: C (size lists of 4) with
        Phi_k(u) = sum_m C[k-1][m] y^m, y = exp(-eta (u - a)), on a knot segment that
        starts at a.  Factor k <= 3 has exp(-k eta a) at m = k; a knotted factor at or
        above its knot T has (1/3, -z, z^2, -z^3/3) with z = exp(-eta (a - T)) <= 1, so
        no entry overflows however large eta T is, and zeros below it."""
        c = [[0.0] * 4 for _ in range(self.size)]
        for k in range(1, min(self.size, 3) + 1):
            c[k - 1][k] = math.exp(-k * self.eta * a)
        for k, tenor in self.knots:
            if a >= tenor:
                z = math.exp(-self.eta * (a - tenor))
                c[k - 1] = [1.0 / 3.0, -z, z * z, -z * z * z / 3.0]
        return c

    def row(self, t) -> np.ndarray:
        """Phi(t) through ``coefficients``: the factor vector at a scalar t >= 0, or one row
        per entry of a 1-D array.  t in (T_j, T_j+1] reads the segment that starts at
        knot T_j, so a knotted factor is exactly 0 at and below its knot."""
        import numpy as np  # the fit's design only (see the module docstring)
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0.0):
            raise ValueError("t must be >= 0")
        starts = np.array((0.0,) + self.knot_tenors)
        seg = np.maximum(np.searchsorted(starts, t) - 1, 0)
        c = np.array([self.coefficients(a) for a in starts])[seg]
        y = np.exp(-self.eta * (t - starts[seg]))[..., None]
        return ((c[..., 3] * y + c[..., 2]) * y + c[..., 1]) * y + c[..., 0]
