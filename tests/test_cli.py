import argparse
import csv
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import creditcurves
from creditcurves import cli, hedging, measures, pricing
from creditcurves.calibration import calibrate_from_cds
from creditcurves.cli import build_parser, main
from creditcurves.conventional import BondSpec
from creditcurves.curves import BaseCurve
from creditcurves.errors import InsufficientDataError
from creditcurves.splines import SplineBasis
from creditcurves.survival import PiecewiseHazardCurve, SplineSurvivalCurve, load_survival_curve

BASE_PAIRS = [(0.5, 0.02), (2.0, 0.025), (5.0, 0.03), (10.0, 0.035), (30.0, 0.04)]
TRUE_BETA = (0.55, 0.30, 0.15)
TRUE_ETA = 0.025
RECOVERY = 0.40
BONDS = [(1, 0.05), (2, 0.06), (3, 0.045), (4, 0.07), (5, 0.055), (6, 0.05),
         (7, 0.065), (8, 0.06), (9, 0.05), (10, 0.07), (12, 0.06), (15, 0.055)]


def base_curve():
    return BaseCurve.from_zero_rates(BASE_PAIRS)


def write_base(path):
    lines = ["tenor_years,zero_rate"] + [f"{t},{r}" for t, r in BASE_PAIRS]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_bonds(path, curve, subset=None, prices=None):
    base = base_curve()
    rows = ["id,coupon,freq,maturity_years,accrued_years,clean_price,spread_duration"]
    chosen = BONDS if subset is None else BONDS[:subset]
    for j, (maturity, coupon) in enumerate(chosen):
        spec = BondSpec(coupon=coupon, freq=2, maturity=float(maturity))
        price = (prices[j] if prices is not None
                 else pricing.bond_pv_frp(spec, base, curve, RECOVERY))
        rows.append(f"B{j},{coupon},2,{maturity},0.0,{price!r},")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def write_cds(path, quotes):
    rows = ["maturity_years,par_spread_bp"]
    rows += [f"{m},{s * 1e4!r}" for m, s in quotes]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.fixture
def true_curve():
    return SplineSurvivalCurve(SplineBasis(eta=TRUE_ETA), TRUE_BETA, horizon=20.0)


@pytest.fixture
def fixture_dir(tmp_path, true_curve):
    write_base(tmp_path / "base.csv")
    write_bonds(tmp_path / "bonds.csv", true_curve)
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestFit:
    def test_round_trip_fixture(self, fixture_dir):
        out = fixture_dir / "out"
        code = run(["fit", "--base", fixture_dir / "base.csv",
                    "--bonds", fixture_dir / "bonds.csv",
                    "--recovery", "0.40", "--eta-grid", "0.01,0.025,0.05",
                    "--out", out])
        assert code == 0
        with open(out / "residuals.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 12
        assert all(abs(float(r["residual"])) < 1e-8 for r in rows)
        for r in rows:  # every cell parses back as a plain float
            assert float(r["market"]) - float(r["fitted"]) == pytest.approx(
                float(r["residual"]), abs=1e-15
            )
        curve = load_survival_curve(str(out / "curve.json"))
        assert curve.survival(5.0) > 0.0
        diagnostics = json.loads((out / "diagnostics.json").read_text())
        assert diagnostics["eta"] == pytest.approx(TRUE_ETA)
        assert "weighted_error" in diagnostics and "active_constraints" in diagnostics

    @pytest.mark.parametrize("grid", ["nan", "-0.1", "", "0.01,,0.02"])
    def test_bad_eta_grid_exits_2(self, fixture_dir, capsys, grid):
        out = fixture_dir / "out"
        code = run(["fit", "--base", fixture_dir / "base.csv",
                    "--bonds", fixture_dir / "bonds.csv", "--eta-grid", grid, "--out", out])
        assert code == 2
        assert "error: --eta-grid: " in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_row_exits_2(self, tmp_path, capsys):
        write_base(tmp_path / "base.csv")
        bonds = tmp_path / "bonds.csv"
        bonds.write_text(
            "id,coupon,freq,maturity_years,accrued_years,clean_price,spread_duration\n"
            "a,0.05,2,5.0,0.0,0.97,\n"
            "b,not_a_number,2,5.0,0.0,0.97,\n"
        )
        code = run(["fit", "--base", tmp_path / "base.csv", "--bonds", bonds,
                    "--out", tmp_path / "out"])
        assert code == 2
        assert "row 3" in capsys.readouterr().err

    def test_duplicate_bond_id_exits_2(self, tmp_path, capsys):
        write_base(tmp_path / "base.csv")
        bonds = tmp_path / "bonds.csv"
        bonds.write_text(
            "id,coupon,freq,maturity_years,accrued_years,clean_price,spread_duration\n"
            "a,0.05,2,5.0,0.0,0.97,\n"
            "b,0.06,2,7.0,0.0,0.99,\n"
            "a,0.04,2,3.0,0.0,0.98,\n"
        )
        code = run(["fit", "--base", tmp_path / "base.csv", "--bonds", bonds,
                    "--out", tmp_path / "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert "duplicate bond id 'a'" in err and "row 4" in err and "row 2" in err

    @pytest.mark.parametrize("maturity", ["5.1", "1e9"])
    def test_off_schedule_maturity_exits_2(self, tmp_path, capsys, maturity):
        write_base(tmp_path / "base.csv")
        bonds = tmp_path / "bonds.csv"
        bonds.write_text(
            "id,coupon,freq,maturity_years,accrued_years,clean_price,spread_duration\n"
            "a,0.05,2,5.0,0.0,0.97,\n"
            f"B1,0.05,2,{maturity},0.0,1.0,\n"
        )
        code = run(["fit", "--base", tmp_path / "base.csv", "--bonds", bonds,
                    "--out", tmp_path / "out"])
        assert code == 2
        assert f"{bonds}: row 3: span" in capsys.readouterr().err

    def test_too_few_bonds_exits_3(self, tmp_path, true_curve, capsys):
        write_base(tmp_path / "base.csv")
        write_bonds(tmp_path / "bonds.csv", true_curve, subset=2)
        code = run(["fit", "--base", tmp_path / "base.csv",
                    "--bonds", tmp_path / "bonds.csv", "--out", tmp_path / "out"])
        assert code == 3
        assert "insufficient quotes" in capsys.readouterr().err

    def test_missing_base_exits_4(self, fixture_dir):
        assert run(["fit", "--bonds", fixture_dir / "bonds.csv",
                    "--out", fixture_dir / "out"]) == 4


class TestReport:
    def test_report_grid_and_columns(self, tmp_path):
        write_base(tmp_path / "base.csv")
        curve = PiecewiseHazardCurve.flat(0.02, tenor=30.0)
        curve.save(str(tmp_path / "curve.json"))
        out = tmp_path / "out"
        code = run(["report", "--base", tmp_path / "base.csv",
                    "--curve", tmp_path / "curve.json", "--recovery", "0.4",
                    "--out", out])
        assert code == 0
        with open(out / "termstructure.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 40
        assert float(rows[0]["tenor"]) == 0.5 and float(rows[-1]["tenor"]) == 30.0
        for row in rows:
            assert float(row["bcds"]) == pytest.approx(0.6 * 0.02, abs=2e-4)
        mirror = json.loads((out / "termstructure.json").read_text())
        assert mirror["columns"][0] == "tenor" and len(mirror["rows"]) == 40

    def test_zero_hazard_p_spread_column(self, tmp_path):
        write_base(tmp_path / "base.csv")
        PiecewiseHazardCurve.flat(0.0, tenor=30.0).save(str(tmp_path / "curve.json"))
        out = tmp_path / "out"
        assert run(["report", "--base", tmp_path / "base.csv",
                    "--curve", tmp_path / "curve.json", "--out", out]) == 0
        with open(out / "termstructure.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert all(abs(float(r["p_spread"])) < 1e-12 for r in rows)

    def test_deterministic_and_full_precision(self, tmp_path):
        write_base(tmp_path / "base.csv")
        curve = PiecewiseHazardCurve([(1.0, 0.013), (7.0, 0.029)])
        curve.save(str(tmp_path / "curve.json"))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            assert run(["report", "--base", tmp_path / "base.csv",
                        "--curve", tmp_path / "curve.json", "--out", out]) == 0
        assert (out1 / "termstructure.csv").read_bytes() == (
            out2 / "termstructure.csv"
        ).read_bytes()
        # every value round-trips through the file exactly
        base = base_curve()
        with open(out1 / "termstructure.csv", newline="") as handle:
            for row in csv.DictReader(handle):
                tenor = float(row["tenor"])
                assert float(row["Q"]) == curve.survival(tenor)
                assert float(row["par_coupon"]) == measures.par_coupon(
                    tenor, 2, base, curve, 0.40
                )


class TestPrice:
    def test_prices_and_das(self, tmp_path, true_curve):
        write_base(tmp_path / "base.csv")
        write_bonds(tmp_path / "bonds.csv", true_curve)
        true_curve.save(str(tmp_path / "curve.json"))
        out = tmp_path / "out"
        code = run(["price", "--base", tmp_path / "base.csv",
                    "--curve", tmp_path / "curve.json",
                    "--bonds", tmp_path / "bonds.csv", "--out", out])
        assert code == 0
        with open(out / "prices.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert all(abs(float(r["residual"])) < 1e-12 for r in rows)
        assert all(abs(float(r["das_bp"])) < 1e-6 for r in rows)


class TestBasisAndHedge:
    def test_consistent_markets_small_basis(self, tmp_path):
        write_base(tmp_path / "base.csv")
        base = base_curve()
        quotes = [(1.0, 0.0080), (2.0, 0.0100), (3.0, 0.0120), (5.0, 0.0150)]
        write_cds(tmp_path / "cds.csv", quotes)
        curve = calibrate_from_cds(quotes, base, RECOVERY)
        prices = []
        for maturity, coupon in BONDS[:6]:
            spec = BondSpec(coupon=coupon, freq=2, maturity=float(maturity))
            prices.append(measures.fitted_price(spec, base, curve, RECOVERY))
        write_bonds(tmp_path / "bonds.csv", curve, subset=6, prices=prices)
        out = tmp_path / "out"
        code = run(["basis", "--base", tmp_path / "base.csv",
                    "--bonds", tmp_path / "bonds.csv", "--cds", tmp_path / "cds.csv",
                    "--out", out])
        assert code == 0
        with open(out / "basis.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 6
        assert all(abs(float(r["basis_spread_bp"])) < 1.0 for r in rows)
        plans = json.loads((out / "hedge_plans.json").read_text())
        assert set(plans) == {f"B{j}" for j in range(6)}

    def test_missing_cds_exits_4(self, fixture_dir, capsys):
        code = run(["basis", "--base", fixture_dir / "base.csv",
                    "--bonds", fixture_dir / "bonds.csv", "--out", fixture_dir / "o"])
        assert code == 4
        assert "CDS quotes required" in capsys.readouterr().err

    def test_hedge_premium_bond_plan(self, tmp_path):
        write_base(tmp_path / "base.csv")
        base = base_curve()
        quotes = [(1.0, 0.0080), (2.0, 0.0100), (3.0, 0.0120), (5.0, 0.0150)]
        write_cds(tmp_path / "cds.csv", quotes)
        curve = calibrate_from_cds(quotes, base, RECOVERY)
        bonds = tmp_path / "bonds.csv"
        bonds.write_text(
            "id,coupon,freq,maturity_years,accrued_years,clean_price,spread_duration\n"
            f"prem,0.09,2,5.0,0.0,"
            f"{pricing.bond_pv_frp(BondSpec(0.09, 2, 5.0), base, curve, RECOVERY)!r},\n"
        )
        out = tmp_path / "out"
        code = run(["hedge", "--base", tmp_path / "base.csv", "--bonds", bonds,
                    "--cds", tmp_path / "cds.csv", "--out", out])
        assert code == 0
        plan = json.loads((out / "hedge_plans.json").read_text())["prem"]
        assert len(plan["legs"]) == 2
        assert plan["legs"][-1]["maturity"] == 5.0
        assert plan["legs"][-1]["notional"] == 1.0
        assert abs(plan["residual_npv"]) < 1e-10

    def test_hedge_plans_write_each_leg_at_its_quarterly_date(self, tmp_path):
        write_base(tmp_path / "base.csv")
        quotes = [(3.000000002, 0.0120), (5.0, 0.0150)]
        write_cds(tmp_path / "cds.csv", quotes)
        curve = calibrate_from_cds(quotes, base_curve(), RECOVERY)
        price = pricing.bond_pv_frp(BondSpec(0.09, 2, 5.0), base_curve(), curve, RECOVERY)
        bonds = tmp_path / "bonds.csv"
        bonds.write_text("id,coupon,freq,maturity_years,accrued_years,clean_price\n"
                         f"prem,0.09,2,5.0,0.0,{price!r}\n")
        out = tmp_path / "out"
        assert run(["hedge", "--base", tmp_path / "base.csv", "--bonds", bonds,
                    "--cds", tmp_path / "cds.csv", "--out", out]) == 0
        plan = json.loads((out / "hedge_plans.json").read_text())["prem"]
        assert [leg["maturity"] for leg in plan["legs"]] == [3.0, 5.0]

    @pytest.mark.parametrize("command", ["hedge", "price"])
    def test_header_only_bond_file_exits_2_and_writes_nothing(self, pipeline_dir, capsys,
                                                              command):
        bonds = pipeline_dir / "empty.csv"
        bonds.write_text("id,coupon,freq,maturity_years,accrued_years,clean_price\n")
        out = pipeline_dir / "out"
        inputs = (["--cds", pipeline_dir / "cds.csv"] if command == "hedge"
                  else ["--curve", pipeline_dir / "curve.json"])
        code = run([command, "--base", pipeline_dir / "base.csv", "--bonds", bonds,
                    *inputs, "--out", out])
        assert code == 2
        assert f"{bonds}: no quote rows" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_recovery_flag(self, fixture_dir):
        assert run(["fit", "--base", fixture_dir / "base.csv",
                    "--bonds", fixture_dir / "bonds.csv",
                    "--recovery", "0.95", "--out", fixture_dir / "o"]) == 2


CDS_QUOTES = [(1.0, 0.0080), (2.0, 0.0100), (3.0, 0.0120), (5.0, 0.0150)]
ETA_GRID = "0.01,0.025,0.05"
# The flags each subcommand's runner reads, and so the only ones it accepts.
FLAGS = {
    "fit": ("--base", "--bonds", "--recovery", "--out", "--eta-grid", "--weights"),
    "report": ("--base", "--curve", "--recovery", "--out"),
    "price": ("--base", "--curve", "--bonds", "--recovery", "--out", "--format"),
    "basis": ("--base", "--bonds", "--cds", "--recovery", "--out", "--format",
              "--eta-grid", "--weights"),
    "hedge": ("--base", "--bonds", "--cds", "--recovery", "--out"),
}


@pytest.fixture
def pipeline_dir(tmp_path):
    """Consistent inputs for every subcommand: bonds priced off the CDS curve."""
    write_base(tmp_path / "base.csv")
    write_cds(tmp_path / "cds.csv", CDS_QUOTES)
    curve = calibrate_from_cds(CDS_QUOTES, base_curve(), RECOVERY)
    write_bonds(tmp_path / "bonds.csv", curve, subset=6)
    curve.save(str(tmp_path / "curve.json"))
    return tmp_path


def full_argv(folder, command):
    """Every flag the subcommand accepts, each with a valid value."""
    values = {"--base": folder / "base.csv", "--bonds": folder / "bonds.csv",
              "--cds": folder / "cds.csv", "--curve": folder / "curve.json",
              "--recovery": "0.4", "--out": folder / "out", "--format": "json",
              "--eta-grid": ETA_GRID, "--weights": "formula"}
    return [command] + [str(x) for flag in FLAGS[command] for x in (flag, values[flag])]


def subparsers():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


class _Reads:
    """Namespace proxy recording every attribute ``main`` and its stages read."""

    def __init__(self, namespace):
        self._namespace, self.names = namespace, set()

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self._namespace, name)


class TestFlags:
    def test_each_subcommand_accepts_exactly_its_flags(self):
        accepted = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                    for name, p in subparsers().items()}
        assert accepted == {name: set(flags) for name, flags in FLAGS.items()}
        assert sum(map(len, accepted.values())) == 29

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_runner_reads_every_flag_it_accepts(self, pipeline_dir, monkeypatch, command):
        # The whole run reads the parsed flags through the proxy: the load stage, the
        # runner and the write stage, so a flag none of them reads is caught.
        argv = full_argv(pipeline_dir, command)
        reads = _Reads(build_parser().parse_args(argv))
        monkeypatch.setattr(cli, "build_parser",
                            lambda: types.SimpleNamespace(parse_args=lambda _: reads))
        assert main(argv) == 0
        options = [a for a in subparsers()[command]._actions if a.option_strings]
        dests = {a.dest for a in options} - {"help"}
        assert reads.names == dests | {"command"}
        assert (pipeline_dir / "out").is_dir()
        # The runner alone reads every flag but the input files and --out, which the load
        # and write stages consume: ``main``'s own --recovery range check reads none for it.
        _, runner, flags = cli._COMMANDS[command]
        args = reads._namespace
        inputs = cli._load(args, cli._COMMON + flags)
        runner_reads = _Reads(args)
        runner(runner_reads, **inputs)
        assert runner_reads.names == dests - set(inputs) - {"out"}

    @pytest.mark.parametrize("command, extra", [
        ("report", ["--format", "json"]),
        ("hedge", ["--eta-grid", "0.1"]),
        ("fit", ["--cds", "x.csv"]),
        ("price", ["--weights", "prose"]),
        ("basis", ["--curve", "c.json"]),
    ])
    def test_unread_flag_exits_2_and_writes_nothing(self, pipeline_dir, capsys, command, extra):
        with pytest.raises(SystemExit) as info:
            run(full_argv(pipeline_dir, command) + extra)
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
        assert not (pipeline_dir / "out").exists()


class TestBadInputRows:
    @pytest.mark.parametrize("row", ["3,nan", "inf,100", "5.1,100", "0.5,100", "3,-100"])
    def test_bad_cds_row_exits_2(self, pipeline_dir, capsys, row):
        cds = pipeline_dir / "cds.csv"
        cds.write_text(f"maturity_years,par_spread_bp\n1,80\n{row}\n")
        assert run(full_argv(pipeline_dir, "hedge")) == 2
        assert f"{cds}: row 3: " in capsys.readouterr().err
        assert not (pipeline_dir / "out").exists()

    def test_overflowing_base_rate_exits_2_naming_tenor_and_rate(self, pipeline_dir, capsys):
        base = pipeline_dir / "base.csv"
        base.write_text("tenor_years,zero_rate\n1.0,0.02\n2.0,-500\n")
        assert run(full_argv(pipeline_dir, "report")) == 2
        assert f"{base}: row 3: zero rate -500.0 at t=2.0 " in capsys.readouterr().err
        assert not (pipeline_dir / "out").exists()

    @pytest.mark.parametrize("row, message", [
        (b"\xff\xfe,0.05,2,5.0,0.0,0.97,\n", "not UTF-8: "),
        (b"c,0.05,2,5.0,0.0,0.97,,0.98\n", "row 8: cells beyond the header: ['0.98']"),
    ], ids=["undecodable", "extra-cells"])
    def test_undecodable_or_overlong_bond_row_exits_2(self, pipeline_dir, capsys, row, message):
        bonds = pipeline_dir / "bonds.csv"
        bonds.write_bytes(bonds.read_bytes() + row)
        assert run(full_argv(pipeline_dir, "price")) == 2
        assert f"error: {bonds}: {message}" in capsys.readouterr().err
        assert not (pipeline_dir / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "price"])
    def test_a_bond_row_without_its_id_cell_exits_2(self, pipeline_dir, capsys, command):
        bonds = pipeline_dir / "bonds.csv"
        bonds.write_text("coupon,freq,maturity_years,accrued_years,clean_price,id\n"
                         "0.05,2,5.0,0.0,0.97,a\n0.05,2,5.0,0.0,0.97\n")
        assert run(full_argv(pipeline_dir, command)) == 2
        assert f"error: {bonds}: row 3: missing cell for column 'id'" in capsys.readouterr().err
        assert not (pipeline_dir / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "price"])
    def test_a_bond_row_with_a_blank_id_cell_exits_2(self, pipeline_dir, capsys, command):
        bonds = pipeline_dir / "bonds.csv"
        bonds.write_text("id,coupon,freq,maturity_years,accrued_years,clean_price\n"
                         "a,0.05,2,5.0,0.0,0.97\n,0.05,2,7.0,0.0,0.99\n")
        assert run(full_argv(pipeline_dir, command)) == 2
        assert f"error: {bonds}: row 3: missing cell for column 'id'" in capsys.readouterr().err
        assert not (pipeline_dir / "out").exists()

    @pytest.mark.parametrize("command, flag", [("price", "--bonds"), ("hedge", "--cds"),
                                               ("report", "--base")])
    def test_a_directory_as_input_exits_4(self, pipeline_dir, capsys, command, flag):
        argv = full_argv(pipeline_dir, command)
        argv[argv.index(flag) + 1] = str(pipeline_dir)
        assert run(argv) == 4
        assert f"not found: {pipeline_dir}" in capsys.readouterr().err
        assert not (pipeline_dir / "out").exists()

    def test_cds_quote_beyond_the_hazard_bracket_exits_5_naming_it(self, pipeline_dir, capsys):
        (pipeline_dir / "cds.csv").write_text("maturity_years,par_spread_bp\n1,500000\n")
        assert run(full_argv(pipeline_dir, "hedge")) == 5
        assert "reproduces the 1.0y quote" in capsys.readouterr().err
        assert not (pipeline_dir / "out").exists()

    @pytest.mark.parametrize("command", ["hedge", "basis"])
    def test_cds_quote_no_non_negative_hazard_reproduces_exits_5_naming_it(
            self, pipeline_dir, capsys, command):
        (pipeline_dir / "cds.csv").write_text("maturity_years,par_spread_bp\n1.0,200\n3.0,1\n")
        assert run(full_argv(pipeline_dir, command)) == 5
        assert "no non-negative hazard reproduces the 3.0y quote" in capsys.readouterr().err
        assert not (pipeline_dir / "out").exists()

    @pytest.mark.parametrize("command", ["hedge", "basis"])
    def test_two_cds_maturities_on_one_quarterly_date_exit_2_naming_both(
            self, pipeline_dir, capsys, command):
        cds = pipeline_dir / "cds.csv"
        cds.write_text("maturity_years,par_spread_bp\n1.0,100\n1.000000001,100\n")
        assert run(full_argv(pipeline_dir, command)) == 2
        assert (f"error: {cds}: row 3: the 1.000000001y quote ends on or before the previous "
                "quote's last quarterly date 1.0\n") == capsys.readouterr().err
        assert not (pipeline_dir / "out").exists()

    @pytest.mark.parametrize("command", ["hedge", "basis"])
    def test_a_seasoned_bond_off_the_cds_grid_exits_5_naming_it(
            self, pipeline_dir, capsys, command):
        (pipeline_dir / "bonds.csv").write_text(
            "id,coupon,freq,maturity_years,accrued_years,clean_price\n"
            "B0,0.05,2,3.0,0.0,0.99\nB1,0.05,2,4.9,0.1,0.97\n")
        assert run(full_argv(pipeline_dir, command)) == 5
        assert capsys.readouterr().err == (
            "error: B1: span 4.9 is not a whole number >= 1 of 1/4 periods\n")
        assert not (pipeline_dir / "out").exists()

    def test_a_basis_failure_names_the_bond_and_keeps_its_type(
            self, pipeline_dir, capsys, monkeypatch):
        approx_basis = hedging.approx_basis

        def failing(bond, *rest):
            if bond.maturity == 3.0:
                raise InsufficientDataError("no basis")
            return approx_basis(bond, *rest)

        monkeypatch.setattr(hedging, "approx_basis", failing)
        assert run(full_argv(pipeline_dir, "basis")) == 3  # the exit code of its type
        assert capsys.readouterr().err == "error: B2: no basis\n"
        assert not (pipeline_dir / "out").exists()

    def test_a_price_failure_names_the_bond_and_keeps_its_exit_code(self, pipeline_dir, capsys):
        (pipeline_dir / "curve.json").write_text(
            '{"type": "piecewise_hazard", "segments": [[10.0, 0.02]]}')
        (pipeline_dir / "bonds.csv").write_text(
            "id,coupon,freq,maturity_years,accrued_years,clean_price\n"
            "B0,0.05,2,2.0,0.0,0.99\nB7,0.05,2,3.0,0.0,0.0001\n")
        assert run(full_argv(pipeline_dir, "price")) == 5
        assert capsys.readouterr().err.startswith(
            "error: B7: no sign change on bracket [-0.5, 5.0]: ")
        assert not (pipeline_dir / "out").exists()

    # No spread at all prices the 5y bond at 0.0001: without a spread_duration column its
    # duration solve fails as the fit starts, with one its DAS solve on the fitted curve.
    @pytest.mark.parametrize("durations", [("",) * 5, ("1", "2", "3", "4", "4.5")],
                             ids=["duration solve", "DAS solve"])
    def test_a_fit_failure_names_the_bond_and_keeps_its_exit_code(
            self, pipeline_dir, capsys, durations):
        prices = ("1.0", "0.99", "0.98", "0.97", "0.0001")
        (pipeline_dir / "bonds.csv").write_text(
            "id,coupon,freq,maturity_years,accrued_years,clean_price,spread_duration\n"
            + "".join(f"B{m},0.05,2,{m}.0,0.0,{p},{d}\n"
                      for m, p, d in zip(range(1, 6), prices, durations)))
        assert run(full_argv(pipeline_dir, "fit")) == 5
        assert capsys.readouterr().err.startswith(
            "error: B5: no sign change on bracket [-0.5, 5.0]: ")
        assert not (pipeline_dir / "out").exists()

    @pytest.mark.parametrize("text", [
        '{"type": "spline", "beta": [1.0]}',
        '{"type": "spline", "eta": 0.05,',
        '{"type": "spline", "eta": 0.05, "beta": [0.6, 0.5]}',
    ])
    def test_bad_curve_json_exits_2(self, pipeline_dir, capsys, text):
        curve = pipeline_dir / "curve.json"
        curve.write_text(text)
        assert run(full_argv(pipeline_dir, "report")) == 2
        assert f"error: {curve}: " in capsys.readouterr().err


# Runs in a fresh interpreter: each argv list of argv[1] is one ``cli.main`` call,
# and ``numpy`` is looked up in sys.modules after the scalar commands and after the fit.
_NUMPY_PROBE = """
import json, sys
import creditcurves
import creditcurves.cli as cli
scalar, fitting = json.loads(sys.argv[1])
loaded = {"import": "numpy" in sys.modules}
for argv in scalar:
    if cli.main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
loaded["scalar"] = "numpy" in sys.modules
if cli.main(fitting) != 0:
    sys.exit("fit failed")
loaded["fit"] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def test_report_price_and_hedge_load_no_numpy(pipeline_dir, true_curve):
    """Only the fit needs numpy: the package, the CLI and the report, price and hedge
    commands (on a hazard curve and on a spline curve) never import it, and a fit
    does, so the check cannot pass by never reaching a numpy import."""
    true_curve.save(str(pipeline_dir / "spline.json"))
    scalar = [full_argv(pipeline_dir, "hedge")]
    for curve in ("curve.json", "spline.json"):
        for command in ("report", "price"):
            argv = full_argv(pipeline_dir, command)
            argv[argv.index("--curve") + 1] = str(pipeline_dir / curve)
            scalar.append(argv)
    src = pathlib.Path(creditcurves.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, json.dumps([scalar, full_argv(pipeline_dir, "fit")])],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import": False, "scalar": False, "fit": True}
    assert {p.name for p in (pipeline_dir / "out").iterdir()} >= {
        "termstructure.csv", "prices.json", "hedge_plans.json", "curve.json"}
