"""Command line front end.

Subcommands: fit, report, price, basis, hedge, each in three stages: ``_load`` reads the
input files of the flags it registers, in their order; its runner maps them and its other
flags to output files; ``_write`` writes them all to ``--out``, so a failure writes none.
Each registers only the flags its stages read, so an unread flag is a parse error.
Inputs are the CSV/JSON schemas of the library loaders; outputs are deterministic (no
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


# Each lambda looks its loader up when called, so a patched ``cli.load_*`` is the one run.
_INPUTS = {
    "--base": ("base curve", lambda path: load_base_curve(path)),
    "--bonds": ("bond quotes", lambda path: load_bond_quotes(path)),
    "--cds": ("CDS quotes", lambda path: load_cds_quotes(path)),
    "--curve": ("survival curve", lambda path: load_survival_curve(path)),
}


def _load(args: argparse.Namespace, flags: tuple[str, ...]) -> dict:
    """The load stage: each input flag among ``flags``, in order, loaded under its dest."""
    inputs = {}
    for flag in (f for f in flags if f in _INPUTS):
        (label, loader), path = _INPUTS[flag], getattr(args, flag[2:])
        if not path:
            raise _MissingInput(f"{label} required")
        if not os.path.isfile(path):  # a directory is no input file either
            raise _MissingInput(f"{label} not found: {path}")
        inputs[flag[2:]] = loader(path)
    return inputs


def _write(out: str, files: dict) -> None:
    """The write stage, into ``out``: ``name -> (header, rows)`` as a CSV, floats in their
    shortest round-trip form, any other ``name -> payload`` as indented JSON."""
    os.makedirs(out, exist_ok=True)
    for name, content in files.items():
        is_csv = name.endswith(".csv")
        with open(os.path.join(out, name), "w", newline="" if is_csv else None) as handle:
            if is_csv:
                writer = csv.writer(handle)
                writer.writerow(content[0])
                writer.writerows([cell if isinstance(cell, str) else repr(float(cell))
                                  for cell in row] for row in content[1])
            else:
                json.dump(content, handle, indent=2)
                handle.write("\n")


def _table(args: argparse.Namespace, stem: str, header: list[str], rows: list[list]) -> dict:
    """Rows as ``<stem>.csv`` or, with ``--format json``, as one record per row."""
    if args.format == "json":
        return {stem + ".json": [dict(zip(header, r)) for r in rows]}
    return {stem + ".csv": (header, rows)}


def _fit_config(args: argparse.Namespace) -> FitConfig:
    config = FitConfig(recovery=args.recovery, weight_scheme=args.weights)
    if args.eta_grid is None:
        return config
    try:
        return replace(config, eta_grid=tuple(float(x) for x in args.eta_grid.split(",")))
    except ValueError as exc:
        raise ParseError(f"--eta-grid: {exc}") from exc


def _run_fit(args: argparse.Namespace, base, bonds) -> dict:
    fit = calibration.fit_survival(bonds, base, _fit_config(args))
    market = {q.id: q.clean_price for q in bonds}
    rows = [[i, market[i], market[i] - resid, float(resid), float(das) * 1e4]
            for i, resid, das in zip(fit.ids, fit.residuals, fit.das)]
    return {"curve.json": fit.curve.to_dict(),
            "residuals.csv": (["id", "market", "fitted", "residual", "das_bp"], rows),
            "diagnostics.json": {"weighted_error": fit.weighted_error, "eta": fit.eta,
                                 "active_constraints": list(fit.active_constraints)}}


def _run_report(args: argparse.Namespace, base, curve) -> dict:
    report = measures.term_structure_report(base, curve, args.recovery)
    header, rows = report.csv_header(), report.csv_rows()
    return {"termstructure.csv": (header, rows),
            "termstructure.json": {"recovery": report.recovery, "columns": header, "rows": rows}}


def _run_price(args: argparse.Namespace, base, curve, bonds) -> dict:
    rows = []
    for q in bonds:
        with q._naming():
            fitted = measures.fitted_price(q.spec, base, curve, args.recovery)
            das = measures.das(q.spec, q.clean_price, base, curve, args.recovery)
        rows.append([q.id, q.clean_price, fitted, q.clean_price - fitted, das * 1e4])
    return _table(args, "prices", ["id", "market", "fitted", "residual", "das_bp"], rows)


def _cds_hedges(args: argparse.Namespace, base, bonds, cds):
    """The CDS-bootstrapped curve, the coarse hedge plan per bond and the plans' file."""
    curve_cds = calibration.calibrate_from_cds(cds, base, args.recovery)
    plans = {}
    for q in bonds:
        candidates = sorted({m for m, _ in cds if m < q.spec.maturity} | {q.spec.maturity})
        with q._naming():
            plans[q.id] = hedging.coarse_hedge(q.spec, base, curve_cds, args.recovery, candidates)
    return curve_cds, plans, {"hedge_plans.json": {i: plan.to_dict() for i, plan in plans.items()}}


def _run_basis(args: argparse.Namespace, base, bonds, cds) -> dict:
    curve_cds, plans, files = _cds_hedges(args, base, bonds, cds)
    fit = calibration.fit_survival(bonds, base, _fit_config(args))
    rows = []
    for q in bonds:
        with q._naming():
            bs = hedging.basis_spread(q.spec, q.clean_price, base, curve_cds, args.recovery)
            ab = hedging.approx_basis(q.spec, q.clean_price, base, fit.curve, curve_cds,
                                      args.recovery, plans[q.id])
        rows.append([q.id, bs * 1e4, ab * 1e4])
    return {**_table(args, "basis", ["id", "basis_spread_bp", "approx_basis_bp"], rows), **files}


def _run_hedge(args: argparse.Namespace, base, bonds, cds) -> dict:
    return _cds_hedges(args, base, bonds, cds)[2]


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
        prog="creditcurves", description="Survival-based credit term structure analytics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in _COMMON + flags:
            p.add_argument(flag, **_FLAGS[flag])
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
        _, runner, flags = _COMMANDS[args.command]
        _write(args.out, runner(args, **_load(args, _COMMON + flags)))
        return EXIT_OK
    except (CreditCurveError, ValueError, _MissingInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
