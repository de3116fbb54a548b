"""The four workloads and the checks on every output they time.

Each workload turns generated issuers into blocks of timed operations.  A
block is one issuer's work; an operation is what one closed-loop client
call measures: one issuer's whole pipeline (issuer_eod, cds_hedge), one
``implied_recovery`` call (recovery_scan) or one CLI subprocess
(cli_pipeline).  Every call goes through a module attribute of
``creditcurves`` at call time, so a traced run sees it.

Checks use the reference pricer in ``refprice.py`` at the tolerances of
the package's acceptance tests; a check returns a list of problems, empty
when the output is right.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from typing import Callable

import creditcurves.calibration as cal
import creditcurves.curves as curves
import creditcurves.hedging as hed
import creditcurves.measures as meas
from creditcurves.conventional import BondSpec
from creditcurves.splines import SplineBasis
from creditcurves.survival import SplineSurvivalCurve

from refprice import bond_clean, bond_dirty, cds_par_spread, ref_curve
from universe import CDS_TENORS, SCAN_ETA_GRID, Issuer, make_universe

PAR_TOL = 1e-10          # report par coupons reprice to par
RESIDUAL_TOL = 1e-12     # fitted price = market - residual
PRICE_TOL = 1e-10        # DAS / basis spread reprice the market; fitted price vs reference
ROUND_TRIP_TOL = 1e-6    # noise-free issuers: fitted Q against the generating Q
CDS_TOL = 1e-8           # bootstrap reproduces its quotes
HEDGE_TOL = 1e-10        # hedge residual NPV
RECOVERY_TOL = 0.05      # implied recovery on identified issuers
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    issuer: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    label: str = ""


@dataclass
class Block:
    bonds: int
    ops: list[Op]


def _spec(bond) -> BondSpec:
    return BondSpec(coupon=bond.coupon, freq=bond.freq, maturity=bond.maturity,
                    accrued_time=bond.accrued)


def _quotes(issuer: Issuer) -> list:
    return [cal.BondQuote(id=b.id, spec=_spec(b), clean_price=b.price) for b in issuer.bonds]


def _bad(label: str, error: float, tol: float) -> list[str]:
    return [] if abs(error) <= tol else [f"{label}: error {error:.3g} > {tol:g}"]


def _check_report(report, base, qref, recovery) -> list[str]:
    problems = []
    for row in report.rows:
        price = bond_dirty(row.par_coupon, 2, row.tenor, 0.0, base, qref, recovery)
        problems += _bad(f"par identity at {row.tenor}y", price - 1.0, PAR_TOL)
    return problems


def _check_das(bonds, das_values, base, qref, recovery, label="DAS") -> list[str]:
    problems = []
    for bond, das in zip(bonds, das_values):
        price = bond_clean(bond.coupon, bond.freq, bond.maturity, bond.accrued, base, qref,
                           recovery, spread=float(das))
        problems += _bad(f"{label} reprices {bond.id}", price - bond.price, PRICE_TOL)
    return problems


def _check_fit(issuer, fit, base, recovery) -> list[str]:
    """Residual identity and DAS repricing for a fit result."""
    qref = ref_curve(fit.curve.to_dict())
    problems = []
    if list(fit.ids) != [b.id for b in issuer.bonds]:
        return ["fit ids do not match the quotes"]
    for bond, resid in zip(issuer.bonds, fit.residuals):
        ref = bond_clean(bond.coupon, bond.freq, bond.maturity, bond.accrued, base, qref,
                         recovery)
        problems += _bad(f"market - residual vs reference for {bond.id}",
                         bond.price - float(resid) - ref, PRICE_TOL)
    return problems + _check_das(issuer.bonds, fit.das, base, qref, recovery)


class Workload:
    """Base: a universe, its library inputs, and blocks of operations."""

    name = ""
    trace_blocks = 1

    def __init__(self, seed: int, root: str) -> None:
        self.root = root
        self.tracer = None
        self.universe = make_universe(seed, self.name)
        self.base = curves.BaseCurve.from_zero_rates(self.universe.base.nodes)
        self.prepared: list[Block] = []

    def prepare(self, cycles: int = 2) -> None:
        """Generate the first cycles and build their library inputs."""
        for index in range(cycles):
            self.prepared += [self.block(i) for i in self.universe.cycle(index)]

    def blocks(self):
        yield from self.prepared
        index = len(self.universe.cycles)
        while True:
            for issuer in self.universe.cycle(index):
                yield self.block(issuer)
            index += 1

    def block(self, issuer: Issuer) -> Block:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class IssuerEod(Workload):
    """Daily job: fit, report, fitted price and DAS for every bond."""

    name = "issuer_eod"
    trace_blocks = 21

    def block(self, issuer):
        quotes = _quotes(issuer)
        base = self.base
        recovery = cal.FitConfig().recovery

        def run():
            fit = cal.fit_survival(quotes, base)
            report = meas.term_structure_report(base, fit.curve, recovery)
            fitted = [meas.fitted_price(q.spec, base, fit.curve, recovery) for q in quotes]
            das = [meas.das(q.spec, q.clean_price, base, fit.curve, recovery) for q in quotes]
            return fit, report, fitted, das

        def check(out):
            fit, report, fitted, das = out
            ref_base = self.universe.base
            qref = ref_curve(fit.curve.to_dict())
            problems = _check_fit(issuer, fit, ref_base, recovery)
            problems += _check_report(report, ref_base, qref, recovery)
            for bond, resid, price in zip(issuer.bonds, fit.residuals, fitted):
                problems += _bad(f"fitted = market - residual for {bond.id}",
                                 bond.price - float(resid) - price, RESIDUAL_TOL)
            problems += _check_das(issuer.bonds, das, ref_base, qref, recovery)
            if issuer.noise_free:
                t_max = max(b.maturity for b in issuer.bonds)
                grid = [0.25 * i for i in range(int(t_max / 0.25) + 1)] + [t_max]
                worst = max(abs(qref.survival(t) - issuer.truth.survival(t)) for t in grid)
                problems += _bad("round-trip Q", worst, ROUND_TRIP_TOL)
            return problems

        return Block(len(quotes), [Op(issuer.id, run, check)])

    def warm_up(self):
        smallest = min(self.universe.cycle(0), key=lambda i: len(i.bonds))
        cal.fit_survival(_quotes(smallest), self.base)


class RecoveryScan(Workload):
    """implied_recovery: 91 full fits over one quote set."""

    name = "recovery_scan"
    trace_blocks = 2

    def block(self, issuer):
        quotes = _quotes(issuer)
        base = self.base
        if issuer.kind == "risk_free":
            # Q = 1 is representable only by a one-factor curve with eta -> 0;
            # the fit error is then flat in recovery.
            config = cal.FitConfig(factors=1, eta_grid=(1e-9,))
        else:
            config = cal.FitConfig(eta_grid=SCAN_ETA_GRID)

        def run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rate, fit = cal.implied_recovery(quotes, base, config)
            return rate, fit, [str(w.message) for w in caught]

        def check(out):
            rate, fit, messages = out
            problems = _check_fit(issuer, fit, self.universe.base, rate)
            flagged = any("not identified" in m for m in messages)
            if issuer.kind == "risk_free":
                if not flagged or rate != config.recovery:
                    problems.append(f"risk-free issuer: rate {rate}, warnings {messages}")
            elif issuer.kind == "distressed":
                if flagged:
                    problems.append("identified issuer flagged as not identified")
                problems += _bad("implied recovery", rate - issuer.recovery, RECOVERY_TOL)
            elif not 0.0 <= rate <= 0.9:
                problems.append(f"implied recovery {rate} outside the scan")
            return problems

        return Block(len(quotes), [Op(issuer.id, run, check)])

    def warm_up(self):
        issuer = self.universe.cycle(0)[1]  # a distressed issuer
        cal.fit_survival(_quotes(issuer), self.base, cal.FitConfig(eta_grid=SCAN_ETA_GRID))


def _hedge_inputs(issuer: Issuer):
    """(spec, price, coarse-hedge candidates, spot-hedge grid) per bond."""
    out = []
    for bond in issuer.bonds:
        spec = _spec(bond)
        maturity = spec.maturity
        candidates = sorted({m for m in CDS_TENORS if m < maturity} | {maturity})
        grid = [i / 4 for i in range(round(maturity * 4) + 1)]
        out.append((spec, bond.price, candidates, grid))
    return out


def _spline_curve(ref):
    return SplineSurvivalCurve(SplineBasis(eta=ref.eta), ref.beta, horizon=ref.horizon)


class CdsHedge(Workload):
    """CDS bootstrap, report on the CDS curve, hedges and basis per bond."""

    name = "cds_hedge"
    trace_blocks = 8

    def block(self, issuer):
        base = self.base
        recovery = issuer.recovery
        quotes = list(issuer.cds)
        bond_curve = _spline_curve(issuer.bond_curve)
        inputs = _hedge_inputs(issuer)

        def run():
            curve = cal.calibrate_from_cds(quotes, base, recovery)
            report = meas.term_structure_report(base, curve, recovery)
            per_bond = []
            for spec, price, candidates, grid in inputs:
                plan = hed.coarse_hedge(spec, base, curve, recovery, candidates)
                spot = hed.spot_hedge_notionals(spec, base, curve, recovery, grid)
                basis = hed.basis_spread(spec, price, base, curve, recovery)
                approx = hed.approx_basis(spec, price, base, bond_curve, curve, recovery, plan)
                per_bond.append((plan, spot, basis, approx))
            return curve, report, per_bond

        def check(out):
            curve, report, per_bond = out
            ref_base = self.universe.base
            qref = ref_curve(curve.to_dict())
            problems = []
            for maturity, spread in quotes:
                model = cds_par_spread(maturity, ref_base, qref, recovery)
                problems += _bad(f"CDS fixed point at {maturity}y", model - spread, CDS_TOL)
            problems += _check_report(report, ref_base, qref, recovery)
            problems += _check_das(issuer.bonds, [p[2] for p in per_bond], ref_base, qref,
                                   recovery, label="basis spread")
            for bond, (plan, spot, _, approx) in zip(issuer.bonds, per_bond):
                problems += _bad(f"coarse hedge residual for {bond.id}", plan.residual_npv,
                                 HEDGE_TOL)
                problems += _bad(f"spot hedge residual for {bond.id}", spot.residual_npv,
                                 HEDGE_TOL)
                if not (math.isfinite(approx) and math.isfinite(plan.cost)):
                    problems.append(f"non-finite basis measures for {bond.id}")
            return problems

        return Block(len(inputs), [Op(issuer.id, run, check)])

    def warm_up(self):
        issuer = self.universe.cycle(0)[0]
        curve = cal.calibrate_from_cds(list(issuer.cds), self.base, issuer.recovery)
        spec, price, candidates, _ = _hedge_inputs(issuer)[0]
        hed.coarse_hedge(spec, self.base, curve, issuer.recovery, candidates)


class CliPipeline(Workload):
    """fit, report, price, basis and hedge as one subprocess each."""

    name = "cli_pipeline"
    trace_blocks = 2

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.workdir = os.path.join(root, ".bench_out", f"cli-{os.getpid()}-{id(self)}")
        self.shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_shim.py")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.startup: list[tuple[float, float, float]] = []  # interpreter, import, wall
        self.expected: dict[str, dict] = {}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _write_inputs(self, issuer: Issuer) -> str:
        folder = os.path.join(self.workdir, issuer.id)
        os.makedirs(folder, exist_ok=True)
        with open(os.path.join(folder, "base.csv"), "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["tenor_years", "zero_rate"])
            writer.writerows([repr(t), repr(r)] for t, r in self.universe.base.nodes)
        with open(os.path.join(folder, "bonds.csv"), "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(cal.BOND_CSV_FIELDS)
            writer.writerows([b.id, repr(b.coupon), b.freq, repr(b.maturity), repr(b.accrued),
                              repr(b.price), ""] for b in issuer.bonds)
        with open(os.path.join(folder, "cds.csv"), "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["maturity_years", "par_spread_bp"])
            writer.writerows([repr(m), repr(s * 1e4)] for m, s in issuer.cds)
        return folder

    def _argv(self, command, folder, recovery):
        p = lambda name: os.path.join(folder, name)  # noqa: E731
        argv = [command, "--base", p("base.csv"), "--recovery", repr(recovery),
                "--out", p(command)]
        if command in ("report", "price"):
            argv += ["--curve", p("fit/curve.json")]
        if command in ("fit", "price", "basis", "hedge"):
            argv += ["--bonds", p("bonds.csv")]
        if command in ("basis", "hedge"):
            argv += ["--cds", p("cds.csv")]
        return argv

    def block(self, issuer):
        folder = self._write_inputs(issuer)
        ops = []
        for command in ("fit", "report", "price", "basis", "hedge"):
            argv = self._argv(command, folder, issuer.recovery)
            ops.append(Op(issuer.id, lambda a=argv, i=issuer.id: self._invoke(a, i),
                          lambda out, c=command, f=folder, i=issuer: self._check(out, c, f, i),
                          label=command))
        return Block(len(issuer.bonds), ops)

    def _invoke(self, argv, issuer_id):
        if self.tracer is None:
            proc = subprocess.run([sys.executable, "-m", "creditcurves.cli", *argv],
                                  env=self.env, cwd=self.root, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
            return proc.returncode, proc.stderr
        state_path = os.path.join(self.workdir, "trace.json")
        started = time.monotonic()
        proc = subprocess.run([sys.executable, self.shim, state_path, *argv],
                              env=self.env, cwd=self.root, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        wall = time.monotonic() - started
        with open(state_path) as handle:
            state = json.load(handle)
        os.remove(state_path)
        self.tracer.merge(state["trace"], issuer_id)
        self.startup.append((state["started"] - started, state["import_s"], wall))
        return proc.returncode, proc.stderr

    def warm_up(self):
        subprocess.run([sys.executable, "-m", "creditcurves.cli", "--help"], env=self.env,
                       cwd=self.root, capture_output=True, timeout=CLI_TIMEOUT_S, check=True)

    # -- checks: files equal the in-process results at repr precision ------

    def _expected(self, issuer: Issuer, folder: str) -> dict:
        if issuer.id in self.expected:
            return self.expected[issuer.id]
        recovery = issuer.recovery
        base = curves.load_base_curve(os.path.join(folder, "base.csv"))
        quotes = cal.load_bond_quotes(os.path.join(folder, "bonds.csv"))
        cds = cal.load_cds_quotes(os.path.join(folder, "cds.csv"))
        fit = cal.fit_survival(quotes, base, cal.FitConfig(recovery=recovery))
        by_id = {q.id: q for q in quotes}
        residuals = []
        for bond_id, resid, das in zip(fit.ids, fit.residuals, fit.das):
            market = by_id[bond_id].clean_price
            residuals.append([bond_id, market, market - resid, resid, das * 1e4])
        report = meas.term_structure_report(base, fit.curve, recovery)
        prices = []
        for q in quotes:
            fitted = meas.fitted_price(q.spec, base, fit.curve, recovery)
            das = meas.das(q.spec, q.clean_price, base, fit.curve, recovery)
            prices.append([q.id, q.clean_price, fitted, q.clean_price - fitted, das * 1e4])
        curve_cds = cal.calibrate_from_cds(cds, base, recovery)
        maturities = [m for m, _ in cds]
        plans, basis = {}, []
        for q in quotes:
            candidates = sorted({m for m in maturities if m < q.spec.maturity}
                                | {q.spec.maturity})
            plans[q.id] = hed.coarse_hedge(q.spec, base, curve_cds, recovery, candidates)
            bs = hed.basis_spread(q.spec, q.clean_price, base, curve_cds, recovery)
            ab = hed.approx_basis(q.spec, q.clean_price, base, fit.curve, curve_cds, recovery,
                                  plans[q.id])
            basis.append([q.id, bs * 1e4, ab * 1e4])
        plan_json = {k: plan.to_dict() for k, plan in plans.items()}
        expected = {
            "fit": {"curve.json": fit.curve.to_dict(),
                    "residuals.csv": _csv_rows(["id", "market", "fitted", "residual",
                                                "das_bp"], residuals),
                    "diagnostics.json": {"weighted_error": fit.weighted_error, "eta": fit.eta,
                                         "active_constraints": list(fit.active_constraints)}},
            "report": {"termstructure.csv": _csv_rows(report.csv_header(), report.csv_rows()),
                       "termstructure.json": {"recovery": report.recovery,
                                              "columns": report.csv_header(),
                                              "rows": report.csv_rows()}},
            "price": {"prices.csv": _csv_rows(["id", "market", "fitted", "residual", "das_bp"],
                                              prices)},
            "basis": {"basis.csv": _csv_rows(["id", "basis_spread_bp", "approx_basis_bp"],
                                             basis),
                      "hedge_plans.json": plan_json},
            "hedge": {"hedge_plans.json": plan_json},
        }
        self.expected[issuer.id] = expected
        return expected

    def _check(self, out, command, folder, issuer) -> list[str]:
        code, stderr = out
        if code != 0:
            return [f"{command} exited {code}: {stderr.strip()[-200:]}"]
        problems = []
        for name, want in self._expected(issuer, folder)[command].items():
            path = os.path.join(folder, command, name)
            if not os.path.exists(path):
                problems.append(f"{command}: {name} missing")
                continue
            with open(path, newline="") as handle:
                if name.endswith(".json"):
                    got = json.load(handle)
                    want = json.loads(json.dumps(want))
                else:
                    got = list(csv.reader(handle))
            if got != want:
                problems.append(f"{command}: {name} differs from the in-process result")
        return problems


def _csv_rows(header, rows) -> list[list[str]]:
    """Rows as the CLI writes them: floats at full repr precision."""
    return [list(header)] + [[c if isinstance(c, str) else repr(float(c)) for c in row]
                             for row in rows]


WORKLOAD_CLASSES = {cls.name: cls for cls in (IssuerEod, RecoveryScan, CdsHedge, CliPipeline)}
