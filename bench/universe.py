"""Seeded input generator.

Every input the benchmark feeds the library is drawn here from
``numpy.random.Generator`` streams keyed on the seed, the workload and
the cycle, so the same seed gives the same inputs.  Prices come from the
benchmark's own reference pricer, never from ``creditcurves``.

A workload's issuers come in cycles.  What sets an issuer's cost (its
size, maturities, frequencies, curves and kind, and the base curve) is
drawn from a shape generator keyed on (workload, cycle) only; the seed
draws coupons, price noise and outliers.  Different cycles differ, so a run
still sees a varied universe, but a run at one seed and a run at another
do the same amount of work: the spread between runs then measures the
program and the host, not a lucky draw of cheap issuers.

Schedule rules the generator keeps: ``(maturity + accrued) * freq`` is a
whole number, bonds used for hedging sit on the quarterly grid, and CDS
maturities increase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from refprice import RefBase, RefHazard, RefSpline, bond_clean, cds_par_spread

WORKLOADS = ("issuer_eod", "recovery_scan", "cds_hedge", "cli_pipeline")
BASE_TENORS = (0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0)
CDS_TENORS = (0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0)
DEFAULT_RECOVERY = 0.40


def eta_grid_point(i: int) -> float:
    """Point i of the fit's default decay-rate grid (25bp to 25%, 13 points).

    Noise-free spline issuers use a decay rate on this grid, so the
    default fit can reproduce them exactly."""
    return 0.0025 * 100.0 ** (i / 12.0)


@dataclass
class Bond:
    id: str
    coupon: float
    freq: int
    maturity: float
    accrued: float
    price: float  # clean, fraction of face


@dataclass
class Issuer:
    id: str
    kind: str
    bonds: list[Bond]
    truth: object  # RefSpline or RefHazard
    recovery: float
    noise_free: bool
    cds: list[tuple[float, float]] = field(default_factory=list)  # (maturity, par spread)
    bond_curve: RefSpline | None = None


@dataclass
class Universe:
    seed: int
    workload: str
    base: RefBase
    cycles: dict[int, list[Issuer]] = field(default_factory=dict)

    def cycle(self, index: int) -> list[Issuer]:
        if index not in self.cycles:
            self.cycles[index] = _CYCLE_BUILDERS[self.workload](self, index)
        return self.cycles[index]


def make_universe(seed: int, workload: str) -> Universe:
    rng = _shape_rng(workload, -1)  # one valuation date: the base curve is shape
    short = rng.uniform(0.005, 0.035)
    rise = rng.uniform(0.0, 0.025)
    nodes = [(t, short + rise * (1.0 - math.exp(-t / 5.0)) / (1.0 - math.exp(-6.0)))
             for t in BASE_TENORS]
    return Universe(seed=seed, workload=workload, base=RefBase(nodes))


def _rng(seed: int, workload: str, cycle: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), cycle + 1])


def _shape_rng(workload: str, cycle: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), cycle + 1, 0xC0FFEE])


# -- bonds and curves --------------------------------------------------------


def _bond_terms(rng, t_min, t_max, quarterly, seasoned_share):
    """(freq, maturity, accrued) on the bond's own coupon grid."""
    freq = int(rng.choice((1, 2, 4)))
    accrued = 0.0
    if rng.random() < seasoned_share:
        if quarterly:
            steps = int(round(4 / freq)) - 1  # accrued on the quarterly grid
            if steps > 0:
                accrued = 0.25 * int(rng.integers(1, steps + 1))
        else:
            accrued = round(rng.uniform(0.05, 0.95) / freq * 360.0) / 360.0
    n_lo = math.ceil((t_min + accrued) * freq - 1e-9)
    n_hi = math.floor((t_max + accrued) * freq + 1e-9)
    n = int(rng.integers(max(n_lo, 1), n_hi + 1))
    return freq, n / freq - accrued, accrued


def _coupon(rng):
    """2% to 10% in eighths of a percent."""
    return round(rng.uniform(0.02, 0.10) * 800.0) / 800.0


def _spline_truth(rng, eta, horizon):
    b1 = rng.uniform(0.35, 0.65)
    b2 = rng.uniform(0.1, 0.9 - b1)
    return RefSpline(eta, (b1, b2, 1.0 - b1 - b2), horizon)


def _hazard_truth(rng, level, slope):
    """Piecewise hazard on the CDS tenors from `level` at the short end,
    moving by `slope` (a fraction of level) towards 10y; flat beyond."""
    out = []
    for t in CDS_TENORS + (30.0,):
        x = min(t, 10.0) / 10.0
        out.append((t, max(level * (1.0 + slope * x) * rng.uniform(0.95, 1.05), 1e-4)))
    return RefHazard(out)


def _priced_bonds(rng, issuer_id, terms, base, truth, recovery, noise):
    bonds = []
    for j, (freq, maturity, accrued) in enumerate(terms):
        coupon = _coupon(rng)
        price = bond_clean(coupon, freq, maturity, accrued, base, truth, recovery)
        if noise:
            price += rng.normal(0.0, noise)
        bonds.append(Bond(f"{issuer_id}-B{j:03d}", coupon, freq, maturity, accrued, price))
    return bonds


def _distinct_terms(rng, count, t_min, t_max, quarterly, seasoned_share):
    terms = []
    seen = set()
    while len(terms) < count:
        term = _bond_terms(rng, t_min, t_max, quarterly, seasoned_share)
        key = round(term[1] * 1e6)
        if key not in seen:
            seen.add(key)
            terms.append(term)
    return terms


# -- issuer_eod --------------------------------------------------------------

# Mostly 8-40 bonds per issuer; the first cycle ends with one 200-bond
# issuer, so gains that scale with cross-section size show in the tail.
EOD_SIZES = (6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 20, 22, 24, 26, 28, 30, 34, 38, 40)
EOD_KINDS = ("clean", "noisy", "distressed", "noisy")


def _eod_cycle(u: Universe, index: int) -> list[Issuer]:
    rng = _rng(u.seed, u.workload, index)
    shape = _shape_rng(u.workload, index)
    slots = [(size, EOD_KINDS[i % len(EOD_KINDS)]) for i, size in enumerate(EOD_SIZES)]
    order = list(shape.permutation(len(slots)))
    if index == 0:
        slots.append((200, "noisy"))
        order.append(len(slots) - 1)
    issuers = []
    for pos in order:
        size, kind = slots[pos]
        issuer_id = f"E{index:03d}-{pos:02d}"
        terms = _distinct_terms(shape, size, 0.5, 30.0, False, 0.5)
        t_max = max(m for _, m, _ in terms)
        if kind == "clean":
            truth = _spline_truth(shape, eta_grid_point(int(shape.integers(5, 8))), t_max + 5.0)
            noise = 0.0
        elif kind == "distressed":
            truth = _hazard_truth(shape, shape.uniform(0.08, 0.2), shape.uniform(-0.5, 0.2))
            noise = 5e-4
        else:
            truth = _hazard_truth(shape, shape.uniform(0.003, 0.03), shape.uniform(0.0, 2.0))
            noise = shape.uniform(5e-4, 2e-3)
        bonds = _priced_bonds(rng, issuer_id, terms, u.base, truth, DEFAULT_RECOVERY, noise)
        if kind != "clean" and size >= 10:
            victim = bonds[int(rng.integers(0, size))]
            victim.price += float(rng.choice((-1.0, 1.0))) * rng.uniform(0.03, 0.06)
        issuers.append(Issuer(issuer_id, kind, bonds, truth, DEFAULT_RECOVERY, noise == 0.0))
    return issuers


# -- recovery_scan -----------------------------------------------------------

# Two noise-free distressed scans to each noisy investment-grade one
# (10-20 bonds).  IG scans cost more and vary more (outlier reweighting);
# the distressed scans of a cycle share one size and one curve shape and
# differ in recovery, so they cost the same.  With this order the median of
# any prefix of the sequence (after the fast risk-free scan) falls among
# the distressed scans and does not move with the number of scans a run
# completes.
SCAN_SLOTS = (("distressed", 6), ("noisy_ig", 10), ("distressed", 6), ("distressed", 6),
              ("noisy_ig", 14), ("distressed", 6), ("distressed", 6), ("noisy_ig", 20),
              ("distressed", 6))
SCAN_YEARS = (1.0, 7.0)  # maturities spread evenly on the quarterly grid
SCAN_RECOVERIES = (0.20, 0.25, 0.30, 0.35, 0.45)
# The decay-rate grid the package's own implied-recovery tests scan with;
# the default 13-point grid would allow only three or four scans per run.
SCAN_ETA_GRID = (0.005, 0.01, 0.02, 0.05, 0.1)


def _scan_cycle(u: Universe, index: int) -> list[Issuer]:
    rng = _rng(u.seed, u.workload, index)
    shape = _shape_rng(u.workload, index)
    issuers = []
    if index == 0:
        issuers.append(_risk_free_issuer(rng, u.base))
    distressed_eta = float(shape.choice(SCAN_ETA_GRID[3:]))
    distressed_beta = _spline_truth(shape, distressed_eta, 15.0).beta
    for pos, (kind, size) in enumerate(SCAN_SLOTS):
        issuer_id = f"S{index:03d}-{pos:02d}"
        quarters = np.rint(np.linspace(4.0 * SCAN_YEARS[0], 4.0 * SCAN_YEARS[1], size))
        terms = [(2 if q % 2 == 0 else 4, q / 4.0, 0.0) for q in quarters.astype(int)]
        if kind == "distressed":
            # Noise-free distressed spline: the fit is exact only at the
            # generating recovery, so the scan identifies it.
            truth = RefSpline(distressed_eta, distressed_beta, 15.0)
            recovery = float(shape.choice(SCAN_RECOVERIES))
            bonds = _priced_bonds(rng, issuer_id, terms, u.base, truth, recovery, 0.0)
            issuers.append(Issuer(issuer_id, kind, bonds, truth, recovery, True))
        else:
            # Investment grade with 10bp price noise: recovery not identified.
            truth = _hazard_truth(shape, shape.uniform(0.003, 0.01), shape.uniform(0.0, 1.0))
            bonds = _priced_bonds(rng, issuer_id, terms, u.base, truth, DEFAULT_RECOVERY, 1e-3)
            issuers.append(Issuer(issuer_id, kind, bonds, truth, DEFAULT_RECOVERY, False))
    return issuers


def _risk_free_issuer(rng, base) -> Issuer:
    """Bonds priced on the risk-free curve: no default information at all."""
    truth = RefHazard([(30.0, 0.0)])
    terms = [(2, m, 0.0) for m in (1.0, 2.0, 3.0, 5.0, 6.0, 8.0)]
    bonds = _priced_bonds(rng, "S-RF", terms, base, truth, DEFAULT_RECOVERY, 0.0)
    return Issuer("S-RF", "risk_free", bonds, truth, DEFAULT_RECOVERY, True)


# -- cds_hedge and cli_pipeline ----------------------------------------------

HEDGE_SIZES = (4, 5, 6, 7, 8, 9, 10, 12)
HEDGE_KINDS = ("upward", "upward", "upward", "steep", "steep", "inverted", "inverted", "flat")
CLI_SIZES = (8, 12, 10)


def _strip_issuer(rng, shape, base, issuer_id, size, kind) -> Issuer:
    level, slope = {
        "upward": (shape.uniform(0.004, 0.015), shape.uniform(0.5, 1.5)),
        "steep": (shape.uniform(0.01, 0.03), shape.uniform(2.0, 4.0)),
        "inverted": (shape.uniform(0.12, 0.25), shape.uniform(-0.6, -0.3)),
        "flat": (shape.uniform(0.005, 0.03), 0.0),
    }[kind]
    recovery = float(shape.choice((0.25, 0.40, 0.50)))
    truth = _hazard_truth(shape, level, slope)
    cds = [(m, cds_par_spread(m, base, truth, recovery)) for m in CDS_TENORS]
    # The bond market prices off its own spline curve near the CDS level,
    # plus noise: the gap between the two is the basis.
    hazard = -math.log(truth.survival(5.0)) / 5.0
    eta_index = min(12, max(0, round(12.0 * math.log(max(hazard / 1.8, 0.0025) / 0.0025)
                                     / math.log(100.0))))
    bond_curve = _spline_truth(shape, eta_grid_point(eta_index), 15.0)
    terms = _distinct_terms(shape, size, 1.0, 10.0, True, 0.5)
    bonds = _priced_bonds(rng, issuer_id, terms, base, bond_curve, recovery, 5e-3)
    return Issuer(issuer_id, kind, bonds, truth, recovery, False, cds, bond_curve)


def _hedge_cycle(u: Universe, index: int) -> list[Issuer]:
    rng = _rng(u.seed, u.workload, index)
    shape = _shape_rng(u.workload, index)
    order = shape.permutation(len(HEDGE_SIZES))
    return [_strip_issuer(rng, shape, u.base, f"H{index:03d}-{pos:02d}", HEDGE_SIZES[pos],
                          HEDGE_KINDS[pos]) for pos in order]


def _cli_cycle(u: Universe, index: int) -> list[Issuer]:
    rng = _rng(u.seed, u.workload, index)
    shape = _shape_rng(u.workload, index)
    kinds = ("upward", "steep", "inverted")
    return [_strip_issuer(rng, shape, u.base, f"C{index:03d}-{pos:02d}", size, kinds[pos])
            for pos, size in enumerate(CLI_SIZES)]


_CYCLE_BUILDERS = {
    "issuer_eod": _eod_cycle,
    "recovery_scan": _scan_cycle,
    "cds_hedge": _hedge_cycle,
    "cli_pipeline": _cli_cycle,
}
