"""Command line front end.

Subcommands: fit, report, price, basis, hedge.  Each registers only the
flags its runner reads, so an unread flag is a parse error.  Inputs are the
CSV/JSON schemas of the library loaders; outputs are deterministic (no
timestamps, floats written with full round-trip precision).

Exit codes: 0 ok, 2 parse error, 3 insufficient data, 4 missing input,
5 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

from . import calibration, hedging, measures
from .calibration import FitConfig, load_bond_quotes, load_cds_quotes
from .curves import load_base_curve
from .errors import CreditCurveError, InsufficientDataError, ParseError
from .survival import load_survival_curve

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INSUFFICIENT = 3
EXIT_MISSING_INPUT = 4
EXIT_NUMERICAL = 5


class _MissingInput(Exception):
    pass


def _require(path: str | None, label: str) -> str:
    if not path:
        raise _MissingInput(f"{label} required")
    if not os.path.isfile(path):  # a directory is no input file either
        raise _MissingInput(f"{label} not found: {path}")
    return path


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            # repr of a builtin float is the shortest exact round-trip form
            writer.writerow([cell if isinstance(cell, str) else repr(float(cell))
                             for cell in row])


def _write_json(path: str, payload) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _fit_config(args: argparse.Namespace) -> FitConfig:
    config = FitConfig(recovery=args.recovery, weight_scheme=args.weights)
    if args.eta_grid is None:
        return config
    try:
        return replace(config, eta_grid=tuple(float(x) for x in args.eta_grid.split(",")))
    except ValueError as exc:
        raise ParseError(f"--eta-grid: {exc}") from exc


def _run_fit(args: argparse.Namespace) -> int:
    base = load_base_curve(_require(args.base, "base curve"))
    quotes = load_bond_quotes(_require(args.bonds, "bond quotes"))
    fit = calibration.fit_survival(quotes, base, _fit_config(args))
    os.makedirs(args.out, exist_ok=True)
    fit.curve.save(os.path.join(args.out, "curve.json"))
    by_id = {q.id: q for q in quotes}
    rows = []
    for bond_id, resid, das in zip(fit.ids, fit.residuals, fit.das):
        market = by_id[bond_id].clean_price
        rows.append([bond_id, market, market - resid, float(resid), float(das) * 1e4])
    _write_csv(os.path.join(args.out, "residuals.csv"),
               ["id", "market", "fitted", "residual", "das_bp"], rows)
    _write_json(os.path.join(args.out, "diagnostics.json"), {
        "weighted_error": fit.weighted_error,
        "eta": fit.eta,
        "active_constraints": list(fit.active_constraints),
    })
    return EXIT_OK


def _run_report(args: argparse.Namespace) -> int:
    base = load_base_curve(_require(args.base, "base curve"))
    curve = load_survival_curve(_require(args.curve, "survival curve"))
    report = measures.term_structure_report(base, curve, args.recovery)
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "termstructure.csv"),
               report.csv_header(), report.csv_rows())
    _write_json(os.path.join(args.out, "termstructure.json"), {
        "recovery": report.recovery,
        "columns": report.csv_header(),
        "rows": report.csv_rows(),
    })
    return EXIT_OK


def _write_table(args: argparse.Namespace, stem: str, header: list[str], rows: list[list]) -> None:
    """Write rows as ``<stem>.csv`` or, with ``--format json``, as one record per row."""
    if args.format == "json":
        _write_json(os.path.join(args.out, stem + ".json"), [dict(zip(header, r)) for r in rows])
    else:
        _write_csv(os.path.join(args.out, stem + ".csv"), header, rows)


def _run_price(args: argparse.Namespace) -> int:
    base = load_base_curve(_require(args.base, "base curve"))
    curve = load_survival_curve(_require(args.curve, "survival curve"))
    quotes = load_bond_quotes(_require(args.bonds, "bond quotes"))
    rows = []
    for q in quotes:
        with q._naming():
            fitted = measures.fitted_price(q.spec, base, curve, args.recovery)
            das = measures.das(q.spec, q.clean_price, base, curve, args.recovery)
        rows.append([q.id, q.clean_price, fitted, q.clean_price - fitted, das * 1e4])
    os.makedirs(args.out, exist_ok=True)
    _write_table(args, "prices", ["id", "market", "fitted", "residual", "das_bp"], rows)
    return EXIT_OK


def _cds_hedges(args: argparse.Namespace):
    """Inputs, CDS-bootstrapped curve and coarse hedge plans of basis and hedge."""
    base = load_base_curve(_require(args.base, "base curve"))
    quotes = load_bond_quotes(_require(args.bonds, "bond quotes"))
    cds_quotes = load_cds_quotes(_require(args.cds, "CDS quotes"))
    curve_cds = calibration.calibrate_from_cds(cds_quotes, base, args.recovery)
    plans = {}
    for q in quotes:
        candidates = sorted({m for m, _ in cds_quotes if m < q.spec.maturity} | {q.spec.maturity})
        with q._naming():
            plans[q.id] = hedging.coarse_hedge(q.spec, base, curve_cds, args.recovery, candidates)
    return base, quotes, curve_cds, plans


def _run_basis(args: argparse.Namespace) -> int:
    base, quotes, curve_cds, plans = _cds_hedges(args)
    fit = calibration.fit_survival(quotes, base, _fit_config(args))
    rows = []
    for q in quotes:
        with q._naming():
            bs = hedging.basis_spread(q.spec, q.clean_price, base, curve_cds, args.recovery)
            ab = hedging.approx_basis(q.spec, q.clean_price, base, fit.curve, curve_cds,
                                      args.recovery, plans[q.id])
        rows.append([q.id, bs * 1e4, ab * 1e4])
    os.makedirs(args.out, exist_ok=True)
    _write_table(args, "basis", ["id", "basis_spread_bp", "approx_basis_bp"], rows)
    _write_json(os.path.join(args.out, "hedge_plans.json"),
                {bond_id: plan.to_dict() for bond_id, plan in plans.items()})
    return EXIT_OK


def _run_hedge(args: argparse.Namespace) -> int:
    plans = _cds_hedges(args)[3]
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "hedge_plans.json"),
                {bond_id: plan.to_dict() for bond_id, plan in plans.items()})
    return EXIT_OK


# Each subcommand registers exactly the flags its runner reads, so an
# unread flag is a parse error (exit 2) rather than a silent no-op.
_FLAGS = {
    "--base": {"help": "base curve CSV"},
    "--bonds": {"help": "bond quotes CSV"},
    "--cds": {"help": "CDS quotes CSV"},
    "--curve": {"help": "survival curve JSON"},
    "--recovery": {"type": float, "default": 0.40},
    "--out": {"default": ".", "help": "output directory"},
    "--format": {"choices": ("csv", "json"), "default": "csv"},
    "--eta-grid": {"help": "comma-separated decay rates for the fit"},
    "--weights": {"choices": ("formula", "prose"), "default": "formula",
                  "help": "duration weighting: 1/sqrt(SD) or 1/SD^2"},
}
_COMMON = ("--base", "--recovery", "--out")
_COMMANDS = {
    "fit": ("fit a survival curve to bond prices", _run_fit,
            ("--bonds", "--eta-grid", "--weights")),
    "report": ("emit the term structure report for a fitted curve", _run_report,
               ("--curve",)),
    "price": ("price bonds and compute DAS off a fitted curve", _run_price,
              ("--curve", "--bonds", "--format")),
    "basis": ("CDS-bond basis measures and hedge plans", _run_basis,
              ("--bonds", "--cds", "--format", "--eta-grid", "--weights")),
    "hedge": ("coarse-grained CDS hedge plans per bond", _run_hedge, ("--bonds", "--cds")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="creditcurves",
        description="Survival-based credit term structure analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, runner, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in _COMMON + flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(runner=runner)
    return parser


# Exit code per failure.  The first match wins, so the numerical catch-all
# (fit, root, schedule, arbitrage) comes last.
_EXIT_CODES = ((ParseError, EXIT_PARSE), (InsufficientDataError, EXIT_INSUFFICIENT),
               (_MissingInput, EXIT_MISSING_INPUT),
               ((CreditCurveError, ValueError), EXIT_NUMERICAL))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not 0.0 <= args.recovery <= 0.9:
            raise ParseError("--recovery must be in [0, 0.9]")
        return args.runner(args)
    except (CreditCurveError, ValueError, _MissingInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
