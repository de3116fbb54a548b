"""Tracing installed from outside the package.

``Tracer.install`` replaces public functions of ``creditcurves`` with
wrappers, in every module that holds a reference to them (``solve_bracketed``
is imported by name into four modules, the loaders into ``cli``), and
``uninstall`` puts the originals back.  Nothing in ``src/`` changes.

Two kinds of wrapper keep the overhead bounded:

- coarse boundaries (fits, scans, DAS solves, reports, hedges, loaders)
  record a span: name, start, end, parent span, issuer id;
- leaf functions called tens of thousands of times per fit (``df``,
  ``survival``, ``row``, ``bond_pv_frp``, ...) only bump counters, some
  also a time total.

Spans stay in memory; ``write_spans`` writes them once at the end.  Self
time is a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
from collections import defaultdict
from time import perf_counter

PACKAGE_MODULES = ("curves", "splines", "survival", "conventional", "pricing", "rootfind",
                   "calibration", "measures", "hedging", "cli")

# (module, attribute, layer metric prefix); a dotted attribute is a method.
SPANS = (
    ("calibration", "fit_survival", "calibration.fit_survival"),
    ("calibration", "build_regressors", "calibration.build_regressors"),
    ("calibration", "implied_recovery", "calibration.implied_recovery"),
    ("calibration", "calibrate_from_cds", "calibration.calibrate_from_cds"),
    ("calibration", "load_bond_quotes", "calibration.load_bond_quotes"),
    ("survival", "SplineSurvivalCurve.__init__", "survival.spline_curve_init"),
    ("conventional", "z_spread_duration", "conventional.z_spread_duration"),
    ("measures", "das", "measures.das"),
    ("measures", "term_structure_report", "measures.term_structure_report"),
    ("measures", "fitted_price", "measures.fitted_price"),
    ("measures", "excess_spread", "measures.excess_spread"),
    ("hedging", "coarse_hedge", "hedging.coarse_hedge"),
    ("hedging", "spot_hedge_notionals", "hedging.spot_hedge_notionals"),
    ("hedging", "basis_spread", "hedging.basis_spread"),
    ("hedging", "approx_basis", "hedging.approx_basis"),
)
# (module, attribute, metric prefix, also accumulate time)
LEAVES = (
    ("curves", "BaseCurve.df", "curves.df", True),
    ("splines", "SplineBasis.row", "splines.row", False),
    ("survival", "SplineSurvivalCurve.survival", "survival.spline_survival", False),
    ("survival", "PiecewiseHazardCurve.survival", "survival.piecewise_survival", False),
    ("pricing", "bond_pv_frp", "pricing.bond_pv_frp", True),
    ("pricing", "cds_par_spread", "pricing.cds_par_spread", True),
    ("pricing", "rpv01", "pricing.rpv01", False),
    ("pricing", "survival_discount_integrals", "pricing.survival_discount_integrals", True),
    ("hedging", "fwd_bond_price", "hedging.fwd_bond_price", False),
)
CLI_COMMANDS = ("fit", "report", "price", "basis", "hedge")

# Every per-layer metric: name -> (unit, better).  BENCHMARK.json lists the
# same names; the self-test checks that the two agree.
PER_LAYER = {
    "curves.df.calls": ("count", "lower"),
    "curves.df.ms": ("ms", "lower"),
    "splines.row.calls": ("count", "lower"),
    "survival.spline_survival.calls": ("count", "lower"),
    "survival.piecewise_survival.calls": ("count", "lower"),
    "survival.spline_curve_init.calls": ("count", "lower"),
    "survival.spline_curve_init.failed": ("count", "lower"),
    "survival.spline_curve_init.ms": ("ms", "lower"),
    "conventional.z_spread_duration.calls": ("count", "lower"),
    "conventional.z_spread_duration.ms": ("ms", "lower"),
    "pricing.bond_pv_frp.calls": ("count", "lower"),
    "pricing.bond_pv_frp.ms": ("ms", "lower"),
    "pricing.cds_par_spread.calls": ("count", "lower"),
    "pricing.cds_par_spread.ms": ("ms", "lower"),
    "pricing.rpv01.calls": ("count", "lower"),
    "pricing.survival_discount_integrals.calls": ("count", "lower"),
    "pricing.survival_discount_integrals.ms": ("ms", "lower"),
    "calibration.fit_survival.calls": ("count", "lower"),
    "calibration.fit_survival.ms": ("ms", "lower"),
    "calibration.fit_survival.self_ms": ("ms", "lower"),
    "calibration.build_regressors.calls": ("count", "lower"),
    "calibration.build_regressors.ms": ("ms", "lower"),
    "calibration.implied_recovery.ms": ("ms", "lower"),
    "calibration.calibrate_from_cds.ms": ("ms", "lower"),
    "calibration.load_bond_quotes.ms": ("ms", "lower"),
    "calibration.regressor_builds_per_bond": ("ratio", "lower"),
    "calibration.eta_valid_ratio": ("ratio", "higher"),
    "calibration.das_used_ratio": ("ratio", "higher"),
    "measures.das.calls": ("count", "lower"),
    "measures.das.ms": ("ms", "lower"),
    "measures.term_structure_report.ms": ("ms", "lower"),
    "measures.fitted_price.ms": ("ms", "lower"),
    "measures.excess_spread.ms": ("ms", "lower"),
    "hedging.coarse_hedge.ms": ("ms", "lower"),
    "hedging.spot_hedge_notionals.ms": ("ms", "lower"),
    "hedging.basis_spread.ms": ("ms", "lower"),
    "hedging.approx_basis.ms": ("ms", "lower"),
    "hedging.fwd_bond_price.calls": ("count", "lower"),
    "rootfind.solve_bracketed.calls": ("count", "lower"),
    "rootfind.evals": ("count", "lower"),
    "rootfind.evals_per_solve": ("ratio", "lower"),
    "cli.interpreter_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    **{f"cli.main.{c}.ms": ("ms", "lower") for c in CLI_COMMANDS},
    "cli.startup_share": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _resolve(module_name: str, attr: str):
    """(owner object, attribute name, original) for module.attr or Class.method."""
    owner = importlib.import_module(f"creditcurves.{module_name}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Counters and spans for one traced run (or one traced CLI child)."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        # (name, start, end, parent index, issuer id, ok, info)
        self.spans: list[tuple] = []
        self.issuer = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing wrappers -------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in SPANS:
            self._patch(module_name, attr, lambda fn, n=name: self._span_wrapper(n, fn))
        for module_name, attr, name, timed in LEAVES:
            self._patch(module_name, attr,
                        lambda fn, n=name, t=timed: self._leaf_wrapper(n, fn, t))
        self._patch("rootfind", "solve_bracketed", self._solver_wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, module_name: str, attr: str, make) -> None:
        owner, name, original = _resolve(module_name, attr)
        wrapper = make(original)
        if "." in attr:  # a method: the class is the only holder
            holders = [owner]
        else:
            holders = [importlib.import_module("creditcurves")]
            holders += [importlib.import_module(f"creditcurves.{m}") for m in PACKAGE_MODULES]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def _leaf_wrapper(self, name: str, fn, timed: bool):
        calls = self.calls
        if not timed:
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        seconds = self.seconds

        def timed_leaf(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - start
                calls[name] += 1
        return timed_leaf

    def _solver_wrapper(self, fn):
        calls = self.calls

        def solve(f, lo, hi, **kwargs):
            calls["rootfind.solve_bracketed"] += 1

            def counted_residual(x):
                calls["rootfind.evals"] += 1
                return f(x)
            return fn(counted_residual, lo, hi, **kwargs)
        return solve

    def _span_wrapper(self, name: str, fn):
        def spanned(*args, **kwargs):
            return self.span(name, fn, *args, _info=_span_info(name, args, kwargs), **kwargs)
        return spanned

    def span(self, name: str, fn, *args, _info=None, **kwargs):
        """Call fn inside a span; an exception marks the span failed."""
        stack = self._stack
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        self.spans.append(None)
        stack.append(index)
        ok = False
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent, self.issuer, ok, _info)

    # -- combining traces ----------------------------------------------------

    def export(self) -> dict:
        return {"calls": dict(self.calls), "seconds": dict(self.seconds),
                "spans": [list(s) for s in self.spans]}

    def merge(self, state: dict, issuer: str) -> None:
        """Add a child process's trace; its top-level spans become roots."""
        for key, value in state["calls"].items():
            self.calls[key] += value
        for key, value in state["seconds"].items():
            self.seconds[key] += value
        offset = len(self.spans)
        for name, start, end, parent, _, ok, info in state["spans"]:
            self.spans.append((name, start, end, parent + offset if parent >= 0 else -1,
                               issuer, ok, info))

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt") as handle:
            handle.write("name,start,end,parent,issuer,ok,info\n")
            for name, start, end, parent, issuer, ok, info in self.spans:
                if isinstance(info, (tuple, list)):
                    info = "/".join(str(x) for x in info)
                handle.write(f"{name},{start!r},{end!r},{parent},{issuer},{int(ok)},"
                             f"{'' if info is None else info}\n")

    # -- per-layer metrics ---------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except the CLI start-up and overhead ones,
        which the harness measures itself."""
        out: dict[str, float] = {}
        total = defaultdict(float)
        count = defaultdict(int)
        self_time = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        fit_bonds = eta_tried = fits_ok = 0
        curve_ok_in_fit = failed_inits = regressors_in_fit = 0
        das_used = 0
        for i, (name, start, end, parent, _, ok, info) in enumerate(self.spans):
            key = f"cli.main.{info}" if name == "cli.main" else name
            total[key] += end - start
            count[key] += 1
            self_time[key] += end - start - child_time[i]
            parent_name = self.spans[parent][0] if parent >= 0 else None
            top_level = parent_name in (None, "cli.main")
            if name == "calibration.fit_survival":
                live, tried = info
                fit_bonds += live
                eta_tried += tried
                fits_ok += ok
                if top_level:
                    das_used += live
            elif name == "calibration.implied_recovery" and top_level:
                das_used += info
            elif name == "measures.das" and parent_name != "calibration.fit_survival":
                das_used += 1
            elif name == "survival.spline_curve_init":
                failed_inits += not ok
                if parent_name == "calibration.fit_survival":
                    curve_ok_in_fit += ok
            elif name == "calibration.build_regressors":
                regressors_in_fit += parent_name == "calibration.fit_survival"

        for metric in PER_LAYER:
            layer, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = self.calls.get(layer, 0) + count.get(layer, 0)
            elif stat == "ms":
                out[metric] = (self.seconds.get(layer, 0.0) + total.get(layer, 0.0)) * 1e3
            elif stat == "self_ms":
                out[metric] = self_time.get(layer, 0.0) * 1e3
        out["survival.spline_curve_init.failed"] = failed_inits
        solves = self.calls.get("rootfind.solve_bracketed", 0)
        evals = self.calls.get("rootfind.evals", 0)
        out["rootfind.evals"] = evals
        out["rootfind.evals_per_solve"] = _ratio(evals, solves)
        out["calibration.regressor_builds_per_bond"] = _ratio(regressors_in_fit, fit_bonds)
        # The last valid curve of each successful fit is the rebuilt winner.
        out["calibration.eta_valid_ratio"] = _ratio(curve_ok_in_fit - fits_ok, eta_tried)
        out["calibration.das_used_ratio"] = _ratio(das_used, count.get("measures.das", 0))
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _span_info(name: str, args: tuple, kwargs: dict):
    """What a span must remember for the waste ratios."""
    if name in ("calibration.fit_survival", "calibration.implied_recovery"):
        live = sum(1 for q in args[0] if q.include)
        if name == "calibration.implied_recovery":
            return live
        config = args[2] if len(args) > 2 else kwargs.get("config")
        if config is None:
            config = importlib.import_module("creditcurves.calibration").FitConfig()
        return live, len(config.eta_grid)
    return None
