"""Survival curve estimation.

``fit_survival`` runs the cross-sectional regression of bond prices on
exponential spline factors: survival probabilities enter the pricing
equation linearly, so for a fixed decay rate eta the problem is a
weighted least squares with one equality constraint (Q(0) = 1) and
linear inequalities: Q decreasing, stated exactly by the Bernstein
coefficients of its slope polynomial, and positive at the horizon.  The
decay rate is chosen by an outer grid search on the converged objective,
and outliers are down-weighted by iteratively reweighted least squares
with a Tukey bisquare on median/MAD-standardized residuals.

Recovery enters linearly too: the design is the FRP cash-flow map of
``pricing.frp_coefficients`` applied to the spline factors,
U(eta, R) = (A - R B) Phi(eta), and the target V(R) = v0 - R v1, with A,
B, v0, v1 free of eta and R.  Each fit precomputes them, the Phi products of
the whole eta grid and each eta's constraint half of every KKT system once,
and hands every (eta, R) problem to the constrained-WLS solver as one stack
per IRLS step, which fills in only the weighted blocks.  Each problem's
status, objective history and active rows are arrays, and only the fit
returned is built, so ``implied_recovery`` (91 rates) is one precompute, one
stack per IRLS step, one curve and one DAS pass.

The solver enumerates KKT systems.  Once the weighted design pins beta on
sum(beta) = 1 the QP is strictly convex, so its optimum is unique, and with
K factors it needs at most K - 1 of the m = K + 1 inequality rows besides
Q(0) = 1: the working sets of at most K - 1 rows, 1 + 4 + 6 for K = 3, are
tried by size and then row index, and the first whose KKT point is feasible
with multipliers of the right sign is the optimum (Nocedal & Wright 2006,
ch. 16).  Knots (factors above 3) would raise both m and K, and the set
count with them (sum of C(m, s) for s < K), so they need a cap on the set
count or an iterative active-set solve.

``calibrate_from_cds`` bootstraps a piecewise-constant hazard curve from
par CDS quotes instead, one segment a quote (O'Kane & Turnbull 2003), each
quote first passing ``pricing.check_cds_quote``.  A trial hazard walks only
its own segment's dates, bit for bit a walk from t = 0, and a fixed-point
gate reprices every quote on the returned curve.

Only the regression needs arrays, so numpy is imported inside the fit's own
functions: the quote types, the loaders and the CDS bootstrap are scalar code,
and a program that prices, reports or hedges without fitting never loads numpy.
"""

from __future__ import annotations

import itertools
import math
import warnings
from bisect import bisect_right
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import pricing
from .conventional import BondSpec
from .curves import BaseCurve, grid_times, read_csv_rows
from .errors import (ArbitrageError, ConvergenceError, CreditCurveError, FitError,
                     InsufficientDataError, check_number)
from .rootfind import PRICE_TOL, check_price, solve_bracketed, solve_spread, spread_duration
from .splines import SplineBasis
from .survival import PiecewiseHazardCurve, SplineSurvivalCurve

if TYPE_CHECKING:  # annotations only (see the module docstring)
    import numpy as np

CONSTRAINT_SLACK = 1e-8  # strict inequalities relaxed to >= this margin
OUTLIER_TUNING = 4.685   # Tukey bisquare constant, in robust standard deviations
OUTLIER_TOL = 1e-8       # IRLS stops once no weight moves this much or no residual > PRICE_TOL
OUTLIER_MAX_ITER = 10    # IRLS cap: weighted solves per eta candidate
FLAT_ERROR_TOL = 1e-6    # recovery not identified: fit error spread across the scan below this
_FEAS_TOL = 1e-10
_MULT_TOL = 1e-10
# A stacked problem's status indexes its message: 0 solved, then the solver's failures.
_STATUS = ("solved", "infeasible start: Q(H) = exp(-eta H) is below the slack",
           "singular KKT system (active set [])", "no working set of at most {} rows is optimal")
_INFEASIBLE, _SINGULAR, _NO_SET, _RANK_DEFICIENT = 1, 2, 3, 4  # 4: the fit's, see ``_rank_error``


def default_eta_grid() -> tuple[float, ...]:
    """Multiplicative grid of candidate decay rates, 25bp to 25%."""
    return tuple(0.0025 * 100.0 ** (i / 12.0) for i in range(13))


@dataclass(frozen=True, slots=True)
class BondQuote:
    """One bond observation for the cross-sectional fit."""

    id: str
    spec: BondSpec
    clean_price: float
    spread_duration: float | None = None
    include: bool = True

    def __post_init__(self) -> None:
        check_price(self.clean_price, f"{self.id}: clean_price")
        sd = self.spread_duration
        if sd is not None and not 0.0 < sd < math.inf:
            raise ValueError(f"{self.id}: spread_duration must be finite and > 0, got {sd!r}")

    @contextmanager
    def _naming(self):
        """Re-raise a failure in the block as its own type, this bond's id in front."""
        try:
            yield
        except (CreditCurveError, ValueError) as exc:
            raise type(exc)(f"{self.id}: {exc}") from exc


@dataclass(frozen=True)
class FitConfig:
    """Settings of ``fit_survival``: ``factors`` (1 to 3), ``eta_grid`` (CLI
    ``--eta-grid``), ``recovery`` (``--recovery``) and ``weight_scheme``
    ("formula" 1/sqrt(SD) or "prose" 1/SD**2, ``--weights``); no flag sets
    ``factors``."""

    factors: int = 3
    eta_grid: tuple[float, ...] = field(default_factory=default_eta_grid)
    recovery: float = 0.40
    weight_scheme: str = "formula"

    def __post_init__(self) -> None:
        # Knot-free factors only: there is no setting for the knots that
        # factors 4 and up need.
        if check_number(self.factors, "factors", whole=True) not in (1, 2, 3):
            raise ValueError(f"factors must be 1, 2 or 3, got {self.factors!r}")
        grid = tuple(self.eta_grid)
        if not grid or not all(0.0 < check_number(e, "eta_grid") < math.inf for e in grid):
            raise ValueError(f"eta_grid must be non-empty, finite and > 0, got {grid!r}")
        object.__setattr__(self, "eta_grid", tuple(map(float, grid)))
        if self.weight_scheme not in ("formula", "prose"):
            raise ValueError("weight_scheme must be 'formula' or 'prose'")
        pricing.check_recovery(self.recovery)


@dataclass(frozen=True)
class FitResult:
    """Fitted curve plus per-bond diagnostics (arrays aligned with ids)."""

    curve: SplineSurvivalCurve
    ids: tuple[str, ...]
    residuals: np.ndarray            # market clean - fitted clean, price units
    das: np.ndarray                  # per-bond default-adjusted spread
    outlier_weights: np.ndarray
    weighted_error: float            # sqrt(OF) with weights normalized to 1
    eta: float
    active_constraints: tuple[str, ...]
    objective_history: tuple[float, ...]


def build_regressors(
    quote: BondQuote, base: BaseCurve, basis: SplineBasis, recovery: float
) -> tuple[np.ndarray, float]:
    """Design row U_j (one entry per spline factor) and adjusted value V_j.

    Substituting Q(t) = sum_k beta_k Phi_k(t) into the bond pricing
    equation makes the dirty price linear in beta; the first-period
    recovery term R*(1 + C/2q)*Z(t_1), which multiplies Q(0) = 1, moves
    to the left-hand side.  A one-bond view of the fit's precompute.
    """
    one = _QuoteSet([quote], base)
    a_phi, b_phi = one.design_grid([basis])[:2]
    return a_phi[0, 0] - recovery * b_phi[0, 0], float(one.v0[0] - recovery * one.v1[0])


class _QuoteSet:
    """The parts of one quote set's regression that depend on neither eta nor R.

    A bond's FRP price is sum_i (a_i - R b_i) Q(t_i) + R v1, with z_i the
    discount factors at its payment times t_i, a_i = CF_i z_i (its Z-spread
    flows, ``BondSpec._z_flows``), b_i = g (z_i - z_{i+1}), z_{N+1} = 0,
    and v1 = g z_1, for the recovery load g = 1 + C/2q.  So its design row is sum_i (a_i -
    R b_i) Phi(t_i) and its target v0 - R v1, v0 the dirty price.  Each schedule is read
    once; ``zs`` keeps the z_i for the fit's DAS pass.  A fit passes its config, which adds
    the base weights and checks the count and ids.
    """

    def __init__(self, quotes: list[BondQuote], base: BaseCurve,
                 config: FitConfig | None = None) -> None:
        import numpy as np
        if config is not None and len(quotes) < config.factors:
            raise InsufficientDataError(
                f"insufficient quotes: need at least {config.factors}, got {len(quotes)}"
            )
        ids = [q.id for q in quotes]
        if config is not None and len(set(ids)) < len(ids):  # results are reported by id
            raise ValueError(f"duplicate bond id {next(i for i in ids if ids.count(i) > 1)!r}")
        self.quotes, self.base, self.config = quotes, base, config
        # Python floats, not numpy scalars, feed the scalar loops of the solves.
        self.times, self.zs, self.cf_z, self.spans, b, v1 = [], [], [], [], [], []
        for q in quotes:
            times = q.spec.payment_times
            z = [base.df(t) for t in times]
            g = pricing.frp_coefficients(q.spec.coupon, q.spec.freq)[1]
            self.spans.append((len(self.times), len(self.times) + len(z)))
            self.times += times
            self.zs += z
            self.cf_z += q.spec._z_flows(z)
            b += [g * (zi - z_next) for zi, z_next in zip(z, z[1:] + [0.0])]
            v1.append(g * z[0])
        self.a, self.b, self.v1 = np.array(self.cf_z), np.array(b), np.array(v1)
        self.dirty = [q.clean_price + q.spec.accrued_interest for q in quotes]
        self.v0 = np.array(self.dirty)
        self.horizon = 0.5 * round((max(q.spec.maturity for q in quotes) + 5.0) / 0.5)
        if config is not None:
            sd = []
            for q, (lo, hi), dirty in zip(quotes, self.spans, self.dirty):
                with q._naming():
                    sd.append(spread_duration(self.times[lo:hi], self.cf_z[lo:hi], dirty)
                              if q.spread_duration is None else q.spread_duration)
            sd = np.array(sd)
            self.base_w = 1.0 / np.sqrt(sd) if config.weight_scheme == "formula" else 1.0 / sd**2

    def design_grid(self, bases: list[SplineBasis]) -> tuple:
        """(A Phi, B Phi, constraint rows G, bounds b, labels) of knot-free bases of one size,
        stacked by eta, with G beta >= b keeping Q decreasing to the horizon H and positive
        there (row Phi(H)).  For factors 1..3, -Q'(t) = eta x g(x), x = exp(-eta t), g(x) =
        sum_k k beta_k x^(k-1); row j is g's j-th Bernstein coefficient on [exp(-eta H), 1]
        (j = 0 at H), 1 at beta = e1, and rows >= 0 give g >= 0 (Farouki 2012).  Phi is one
        exponential over (eta, date), summed factor by factor in place."""
        import numpy as np
        if any(basis.knots for basis in bases):  # Phi and G read the first segment only
            raise ValueError("the fit's design takes knot-free bases only")
        n, starts, dates = bases[0].size - 1, [lo for lo, _ in self.spans], len(self.times)
        y = np.exp(-np.array([[basis.eta] for basis in bases]) * (self.times + [self.horizon]))
        c = np.array([basis.coefficients(0.0) for basis in bases])[:, :, :, None]
        phi, (a_phi, b_phi) = np.empty_like(y), np.empty((2, len(bases), len(starts), n + 1))
        ineq = np.empty((len(bases), n + 2, n + 1))
        for f in range(n + 1):
            phi[:] = c[:, f, 3]
            for m in (2, 1, 0):  # Horner, as ``SplineBasis.row``
                phi *= y
                phi += c[:, f, m]
            a_phi[:, :, f] = np.add.reduceat(self.a * phi[:, :dates], starts, axis=1)
            b_phi[:, :, f] = np.add.reduceat(self.b * phi[:, :dates], starts, axis=1)
            ineq[:, n + 1, f] = phi[:, dates]
        for e, basis in enumerate(bases):
            x0 = math.exp(-basis.eta * self.horizon)  # x0 and its powers in Python floats
            ineq[e, :n + 1] = [[k * sum(math.comb(j, i) * math.comb(n - j, k - 1 - i)
                                        * x0 ** (k - 1 - i) for i in range(min(j, k - 1) + 1))
                                / math.comb(n, k - 1) for k in range(1, n + 2)]
                               for j in range(n + 1)]
        return (a_phi, b_phi, ineq, np.full(ineq.shape[:2], CONSTRAINT_SLACK),
                [f"monotonicity:b{j}" for j in range(n + 1)] + [f"positivity@{self.horizon:g}"])


def _row_medians(x: np.ndarray) -> np.ndarray:
    """``np.median(x, axis=1, keepdims=True)`` of rows of finite values, by one partition."""
    import numpy as np
    lo, hi = (x.shape[1] - 1) // 2, x.shape[1] // 2
    part = np.partition(x, (lo, hi), axis=1)
    return (part[:, lo:lo + 1] + part[:, hi:hi + 1]) / 2


def _bisquare_weights(residuals: np.ndarray, tuning: float) -> np.ndarray:
    """Tukey bisquare weights of each row of a stack of residual vectors."""
    import numpy as np
    centered = residuals - _row_medians(residuals)
    # Residuals at float noise are treated as clean.
    u = centered / (tuning * np.maximum(_row_medians(np.abs(centered)) / 0.6745, 1e-10))
    return np.where(np.abs(u) < 1.0, (1.0 - u**2) ** 2, 0.0)


def _kkt_frames(ineq: np.ndarray, bound: np.ndarray) -> tuple:
    """The weight-free part of the KKT levels of E constraint sets G beta >= b: G, b,
    each row's bound -``_FEAS_TOL`` times its largest entry, whether beta = e1 breaks a
    row, and per working-set size the sets (rows in sorted order), their KKT matrices,
    principal submatrices of [0 1 G'; 1' 0 0; G 0 0], and right-hand sides (0, 1, b)."""
    import numpy as np
    (count, m, k), levels = ineq.shape, []
    for size in range(min(k - 1, m) + 1):
        sets, n = np.array(list(itertools.combinations(range(m), size)), dtype=int), k + 1 + size
        kkt, rhs = np.zeros((count, len(sets), n, n)), np.zeros((count, len(sets), n))
        kkt[:, :, :k, k] = kkt[:, :, k, :k] = rhs[:, :, k] = 1.0
        g = ineq[:, sets]
        kkt[:, :, k + 1:, :k], kkt[:, :, :k, k + 1:] = g, np.swapaxes(g, 2, 3)
        rhs[:, :, k + 1:] = bound[:, sets]
        levels.append((sets, kkt, rhs))
    # The fit's monotonicity rows read 1 at e1, so only its positivity row can fail the start.
    return (ineq, bound, -_FEAS_TOL * np.abs(ineq).max(axis=2),
            (ineq[:, :, 0] - bound < -_FEAS_TOL).any(axis=1), levels)


def _solve_constrained_wls(
    designs: np.ndarray,
    targets: np.ndarray,
    weights: np.ndarray,
    frames: tuple,
    index: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimize sum w (U beta - V)^2 s.t. sum(beta) = 1, G beta >= b for each problem
    (U, V, w) of a stack, G and b those of its eta ``index[i]`` in ``_kkt_frames``: the
    betas, a (count, m) mask of each chosen working set's rows, and each status (0
    where solved, else the index of its message in ``_STATUS``).

    KKT enumeration by level (Nocedal & Wright 2006, ch. 16).  Once the weighted
    design pins beta on sum(beta) = 1 the QP is strictly convex, so the first working
    set whose KKT point is feasible (G beta >= b - ``_FEAS_TOL`` times each row's
    largest entry) with multipliers of the right sign (-nu >= -``_MULT_TOL``) gives
    the unique optimum, which needs at most k - 1 rows of G.  Sets are tried by size
    and then row index, one stacked solve per size over the problems still open: the
    empty set, the m one-row sets, the C(m, 2) two-row sets (1 + 4 + 6 for the fit's
    k = 3), each filling only H and lin into a copy of its frames.  Where two sets give
    one beta the smaller set, then the lower index, wins.  A problem whose start
    beta = e1 breaks a row fails before any solve (``_INFEASIBLE``), one whose
    equality-only KKT matrix is singular (its weighted design leaves beta free on
    sum(beta) = 1, e.g. too many zero weights) fails with it (``_SINGULAR``) while any
    other singular set drops only itself, and one that no set satisfies fails last
    (``_NO_SET``).
    """
    import numpy as np
    (count, _, k), (ineq, bound, tol, infeasible, levels) = designs.shape, frames
    wsqrt = np.sqrt(weights)
    dw = designs * wsqrt[:, :, None]
    dwt = np.swapaxes(dw, 1, 2)  # a view: doubling after the products is exact
    hess, lin = 2.0 * (dwt @ dw), 2.0 * (dwt @ (wsqrt * targets)[:, :, None])[:, :, 0]
    del dw, dwt  # the largest array here: free it before the level solves
    betas, active = np.zeros((count, k)), np.zeros((count, ineq.shape[1]), dtype=bool)
    status = np.where(infeasible[index], _INFEASIBLE, -1)  # -1 while open
    for size, (sets, kkt_frame, rhs_frame) in enumerate(levels):
        open_ = np.flatnonzero(status < 0)
        if not len(open_):
            break
        at, n = index[open_], k + 1 + size
        kkt, rhs = kkt_frame[at], rhs_frame[at]
        kkt[:, :, :k, :k], rhs[:, :, :k] = hess[open_, None], lin[open_, None]
        kkt, rhs = kkt.reshape(-1, n, n), rhs.reshape(-1, n, 1)
        try:
            sols = np.linalg.solve(kkt, rhs)[:, :, 0]
        except np.linalg.LinAlgError:  # find the singular ones: each drops alone
            sols = np.full(rhs.shape[:2], np.nan)
            for i, (matrix, vector) in enumerate(zip(kkt, rhs)):
                try:
                    sols[i] = np.linalg.solve(matrix, vector)[:, 0]
                except np.linalg.LinAlgError:
                    pass
        sols = sols.reshape(len(open_), len(sets), n)
        if size == 0:  # a NaN KKT point passes no test below
            status[open_[np.isnan(sols[:, 0, 0])]] = _SINGULAR
        # H beta + A' nu = lin: the multipliers are -nu, of the right sign once nu <= 0.
        cand = sols[:, :, :k]
        slack = (ineq[at, None] @ cand[:, :, :, None])[:, :, :, 0] - bound[at, None]
        ok = ((slack >= tol[at, None]).all(axis=2)
              & (sols[:, :, k + 1:] <= _MULT_TOL).all(axis=2))
        hit = np.flatnonzero(ok.any(axis=1))
        won, first = open_[hit], ok[hit].argmax(axis=1)
        betas[won], status[won], active[won[:, None], sets[first]] = cand[hit, first], 0, True
    status[status < 0] = _NO_SET
    return betas, active, status


def _rank_error(design: np.ndarray, quotes: list[BondQuote]) -> FitError:
    """The error for a rank-deficient design, naming its collinear bonds."""
    import numpy as np
    # Point at near-parallel design rows first; they are the usual cause.
    norms = np.linalg.norm(design, axis=1)
    culprits = set()
    for i in range(len(quotes)):
        for j in range(i + 1, len(quotes)):
            if norms[i] == 0.0 or norms[j] == 0.0:
                continue
            cosine = abs(design[i] @ design[j]) / (norms[i] * norms[j])
            if cosine > 1.0 - 1e-10:
                culprits.update((quotes[i].id, quotes[j].id))
    names = sorted(culprits) if culprits else [q.id for q in quotes]
    return FitError(f"design matrix rank-deficient; collinear bonds: {', '.join(names)}")


def _fit_core(prepared: _QuoteSet, recoveries: list[float]) -> tuple[np.ndarray, Callable]:
    """Eta grid search with IRLS outlier weights per recovery rate: (errors, result),
    errors[j] rate j's weighted fit error and result(j) its ``FitResult``, curve and
    DAS built on call.  Built once per fit: one ``design_grid`` and ``_kkt_frames``,
    and every (eta, rate) problem as one row of one stack, eta the outer axis.  Per
    IRLS step: one ``_solve_constrained_wls`` call, which fills in the weighted blocks
    only; a problem leaves the stack once converged or once its status (a ``_STATUS``
    index, or ``_RANK_DEFICIENT``) is not 0.  Each rate takes the argmin over eta of
    the final objective, failed problems at +inf (an earlier eta wins ties); a rate
    whose every eta failed raises."""
    import numpy as np
    config, base_w, quotes = prepared.config, prepared.base_w, prepared.quotes
    rates = np.asarray(recoveries, dtype=float)
    count, k = len(rates), config.factors
    bases = [SplineBasis(eta=eta, size=k) for eta in config.eta_grid]
    a_phi, b_phi, ineq, bound, labels = prepared.design_grid(bases)
    frames = _kkt_frames(ineq, bound)
    # Problem e * count + j is rate j at eta e.
    designs = rates[:, None, None] * b_phi[:, None]
    designs = np.subtract(a_phi[:, None], designs, out=designs).reshape(-1, *a_phi.shape[1:])
    targets = np.tile(prepared.v0 - rates[:, None] * prepared.v1, (len(bases), 1))
    status = np.where(np.linalg.matrix_rank(designs) < k, _RANK_DEFICIENT, 0)
    betas, eps, w_out = np.zeros((len(designs), k)), np.zeros(targets.shape), np.ones(targets.shape)
    active = np.zeros((len(designs), ineq.shape[1]), dtype=bool)
    history, steps = np.zeros((len(designs), OUTLIER_MAX_ITER)), np.zeros(len(designs), dtype=int)
    # The working stack keeps only the problems still iterating: live[i] is row i's problem.
    live = np.flatnonzero(status == 0)
    designs, targets = designs[live], targets[live]
    for step in range(OUTLIER_MAX_ITER):
        if not len(live):
            break
        w_live = w_out[live]
        weights = w_live * base_w
        betas[live], active[live], status[live] = _solve_constrained_wls(
            designs, targets, weights, frames, live // count)
        eps[live] = residuals = targets - (designs @ betas[live, :, None])[:, :, 0]
        w_out[live] = w_new = _bisquare_weights(residuals, OUTLIER_TUNING)
        history[live, step], steps[live] = np.sum(weights * residuals**2, axis=1), step + 1
        keep = ~((np.max(np.abs(w_new - w_live), axis=1) < OUTLIER_TOL)
                 | (np.max(np.abs(residuals), axis=1) <= PRICE_TOL)) & (status[live] == 0)
        del w_live, weights, residuals, w_new  # free the step's arrays before compacting
        live, designs, targets = live[keep], designs[keep], targets[keep]
    final = np.where(status == 0, history[np.arange(len(status)), steps - 1], np.inf)
    wins = final.reshape(len(bases), count).argmin(axis=0) * count + np.arange(count)
    lost = np.flatnonzero(status[wins])  # rates no eta fits: report the first at eta 0
    if len(lost):
        j = int(lost[0])
        low = int(np.argmin(ineq[0, :, 0] - bound[0]))  # G beta - b at the start beta = e1
        note = (f" ({labels[low]} = {ineq[0, low, 0]:.3g} at beta = e1, CONSTRAINT_SLACK = "
                f"{CONSTRAINT_SLACK:g})" if ineq[0, low, 0] - bound[0, low] < -_FEAS_TOL else "")
        cause = (_rank_error(a_phi[0] - rates[j] * b_phi[0], quotes)
                 if status[j] == _RANK_DEFICIENT else _STATUS[status[j]].format(k - 1))
        raise FitError(f"eta={config.eta_grid[0]:g}{note}: {cause}")
    weights = w_out[wins] * base_w
    total = np.sum(weights, axis=1)
    errors = np.sqrt(np.sum(weights * eps[wins]**2, axis=1) / np.where(total > 0, total, np.nan))

    def result(j: int) -> FitResult:
        win, e = wins[j], wins[j] // count
        curve = SplineSurvivalCurve(bases[e], tuple(betas[win]), horizon=prepared.horizon)
        times, zs, qs = prepared.times, prepared.zs, curve.survivals(prepared.times)
        das = []
        for q, (lo, hi), dirty in zip(quotes, prepared.spans, prepared.dirty):
            with q._naming():  # as measures.das
                das.append(solve_spread(times[lo:hi], pricing.frp_flows(
                    q.spec.coupon, q.spec.freq, recoveries[j], zs[lo:hi], qs[lo:hi]), dirty))
        return FitResult(
            curve=curve, ids=tuple(q.id for q in quotes), residuals=eps[win].copy(),
            das=np.array(das),
            outlier_weights=w_out[win].copy(), weighted_error=float(errors[j]),
            eta=config.eta_grid[e],
            active_constraints=tuple(itertools.compress(labels, active[win])),
            objective_history=tuple(history[win, :steps[win]].tolist()),
        )
    return errors, result


def fit_survival(
    quotes: list[BondQuote], base: BaseCurve, config: FitConfig | None = None
) -> FitResult:
    """Fit a spline survival curve to a cross-section of bond prices.

    The quote set is precomputed once for all eta candidates, and DAS is
    solved only for the winning curve.
    """
    config = config or FitConfig()
    prepared = _QuoteSet([q for q in quotes if q.include], base, config)
    return _fit_core(prepared, [config.recovery])[1](0)


def calibrate_from_cds(quotes: list[tuple[float, float]], base: BaseCurve,
                       rs_rate: float) -> PiecewiseHazardCurve:
    """Bootstrap a piecewise-constant hazard curve from par CDS quotes.

    Quotes are (maturity, par spread in decimal), each checked up front by
    ``pricing.check_cds_quote``; each segment hazard is solved so the par spread
    of the partial curve (``pricing.CDS_FREQ`` payments a year) reproduces it.

    The schedule is read once, one ``base.df`` a date.  A trial hazard reads Q only
    on the dates past the last solved maturity (the trial curve's ``survivals``) and
    continues the solved dates' last Q and running sums there (``pricing.LegTable``'s
    ``before``): each par spread is the float a walk from t = 0 gives.  A fixed-point
    gate then reprices every quote on the returned curve with ``pricing.cds_par_spread``;
    a miss beyond ``PRICE_TOL`` is a ``ConvergenceError`` naming the quote.
    """
    if not quotes:
        raise InsufficientDataError("no CDS quotes")
    counts = [0]  # each quote's date count, 0 before the first
    for maturity, spread in quotes:
        counts.append(pricing.check_cds_quote(maturity, spread, counts[-1]))
    rs_rate = pricing.check_recovery(rs_rate, "rs_rate")

    freq, segments = pricing.CDS_FREQ, []
    times = grid_times(quotes[-1][0], freq)  # the schedule to the last quote, one base.df a date
    zs = [base.df(t) for t in times]
    first, before = 0, None  # dates up to the last solved maturity, and their carried sums
    for (maturity, spread), n in zip(quotes, counts[1:]):
        dates, dfs = times[first:n], zs[first:n]
        trials: dict[float, pricing.LegTable] = {}  # each trial hazard walked once

        def spread_gap(h: float) -> float:
            if h not in trials:
                qs = PiecewiseHazardCurve(segments + [(maturity, h)]).survivals(dates)
                trials[h] = pricing.LegTable(dfs, qs, freq, before)
            return trials[h].par_spread(len(dates), rs_rate) - spread

        if spread_gap(0.0) > 0.0:
            raise ArbitrageError(f"no non-negative hazard reproduces the {maturity}y quote")
        hi = 1.0
        while spread_gap(hi) < 0.0:
            if hi >= 64.0:
                raise ConvergenceError(f"no hazard up to {hi:g} reproduces the {maturity}y quote")
            hi *= 2.0
        h = solve_bracketed(spread_gap, 0.0, hi)
        segments.append((maturity, h))
        reach = bisect_right(times, maturity)  # a maturity a hair below its date leaves it out
        if reach > first:
            before, first = trials[h].carried(reach - first), reach

    curve = PiecewiseHazardCurve(segments)
    for maturity, spread in quotes:
        miss = pricing.cds_par_spread(maturity, freq, base, curve, rs_rate) - spread
        if not abs(miss) <= PRICE_TOL:
            raise ConvergenceError(f"the bootstrapped curve misses the {maturity}y quote by "
                                   f"{miss:.3g}, beyond {PRICE_TOL:g}")
    return curve


def implied_recovery(
    quotes: list[BondQuote], base: BaseCurve, config: FitConfig | None = None
) -> tuple[float, FitResult]:
    """Scan recovery rates for the lowest weighted fit error.

    Requires at least six quotes spanning five years of maturity.  When
    the objective is flat across the scan the recovery is not identified
    by the cross-section; a warning is issued and the config default is
    returned.

    The 91 rates share one precompute of the quote set and one stack per IRLS
    step; only the returned rate's curve and DAS are built.
    """
    config = config or FitConfig()
    live = [q for q in quotes if q.include]
    if len(live) < 6:
        raise InsufficientDataError("implied recovery needs at least 6 quotes")
    span = max(q.spec.maturity for q in live) - min(q.spec.maturity for q in live)
    if span < 5.0:
        raise InsufficientDataError("implied recovery needs >= 5y of maturity span")

    prepared = _QuoteSet(live, base, config)
    rates = [step / 100.0 for step in range(91)]
    errors, result = _fit_core(prepared, rates)
    spread = float(errors.max() - errors.min())
    if spread < FLAT_ERROR_TOL:
        warnings.warn(
            "recovery not identified: fit error is flat across recovery rates "
            f"(max - min = {spread:.2g} < {FLAT_ERROR_TOL:g})",
            RuntimeWarning,
            stacklevel=2,
        )
        rate = config.recovery
        return rate, (result(rates.index(rate)) if rate in rates
                      else _fit_core(prepared, [rate])[1](0))
    j = int(errors.argmin())  # the first minimum: the lowest rate wins ties
    return rates[j], result(j)


# ---------------------------------------------------------------------------
# Quote file loaders
# ---------------------------------------------------------------------------

BOND_CSV_FIELDS = ("id", "coupon", "freq", "maturity_years", "accrued_years",
                   "clean_price", "spread_duration")


def load_bond_quotes(path: str) -> list[BondQuote]:
    """Read bond quotes CSV; ``spread_duration`` may be absent or empty.

    Bond ids must be unique: results are reported by id.
    """
    rows_by_id: dict[str, int] = {}

    def header(fields: list[str]) -> str:
        missing = ", ".join(sorted(set(BOND_CSV_FIELDS[:-1]) - set(fields)))
        return missing and f"missing columns: {missing}"

    def parse(row: dict, line: int) -> BondQuote:
        sd_raw = (row.get("spread_duration") or "").strip()
        spec = BondSpec(float(row["coupon"]), int(row["freq"]), float(row["maturity_years"]),
                        accrued_time=float(row["accrued_years"]))
        quote = BondQuote(id=row["id"], spec=spec, clean_price=float(row["clean_price"]),
                          spread_duration=float(sd_raw) if sd_raw else None)
        first = rows_by_id.setdefault(quote.id, line)
        if first != line:
            raise ValueError(f"duplicate bond id {quote.id!r}, first on row {first}")
        return quote

    return read_csv_rows(path, header, parse, "quote", optional=BOND_CSV_FIELDS[-1:])


def load_cds_quotes(path: str) -> list[tuple[float, float]]:
    """Read CDS quotes CSV with header ``maturity_years,par_spread_bp``, each row a quote
    of ``pricing.check_cds_quote``; spreads are returned in decimals."""
    counts = [0]

    def parse(row: dict, _: int) -> tuple[float, float]:
        maturity, spread = float(row["maturity_years"]), float(row["par_spread_bp"]) / 1e4
        counts.append(pricing.check_cds_quote(maturity, spread, counts[-1]))
        return maturity, spread

    return read_csv_rows(
        path, lambda fields: "" if {"maturity_years", "par_spread_bp"} <= set(fields)
        else "header must be maturity_years,par_spread_bp", parse, "quote")
