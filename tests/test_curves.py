import csv
import math
import re

import pytest
from hypothesis import given, strategies as st

from creditcurves.calibration import load_bond_quotes, load_cds_quotes
from creditcurves.curves import BaseCurve, load_base_curve
from creditcurves.errors import ParseError, ScheduleError


def test_df_at_zero_is_one():
    curve = BaseCurve([(1.0, 0.95)])
    assert curve.df(0.0) == 1.0


def test_df_log_linear_between_nodes():
    curve = BaseCurve([(1.0, math.exp(-0.05))])
    assert curve.df(0.5) == pytest.approx(math.exp(-0.025), rel=1e-15)


def test_df_flat_forward_extrapolation():
    curve = BaseCurve([(1.0, 0.95), (2.0, 0.90)])
    assert curve.df(3.0) == pytest.approx(0.90 * (0.90 / 0.95), rel=1e-14)


def test_repr_lists_the_nodes():
    assert repr(BaseCurve([(1.0, 0.95), (2.5, 0.9)])) == "BaseCurve([(1, 0.95), (2.5, 0.9)])"


def test_df_rejects_negative_time():
    curve = BaseCurve([(1.0, 0.95)])
    with pytest.raises(ValueError):
        curve.df(-0.1)


def test_construction_rejects_bad_nodes():
    with pytest.raises(ValueError):
        BaseCurve([(1.0, 0.95), (1.0, 0.94)])           # non-increasing tenor
    with pytest.raises(ValueError):
        BaseCurve([(1.0, 0.95), (2.0, 0.96)])           # increasing df
    with pytest.raises(ValueError):
        BaseCurve([(1.0, 1.05)])                        # df > 1
    with pytest.raises(ValueError):
        BaseCurve([(1.0, 0.0)])                         # df <= 0
    with pytest.raises(ValueError):
        BaseCurve([])


def test_zero_rate_definition():
    curve = BaseCurve([(2.0, math.exp(-0.08))])
    assert curve.zero_rate(2.0) == pytest.approx(0.04, abs=1e-15)
    assert BaseCurve([(1.0, 0.95)]).zero_rate(1.0) == pytest.approx(
        -math.log(0.95), abs=1e-15
    )


def test_zero_rate_flat_curve_everywhere():
    curve = BaseCurve.flat(0.03)
    for t in (0.1, 0.7, 1.0, 2.5, 10.0):
        assert curve.zero_rate(t) == pytest.approx(0.03, abs=1e-14)


def test_zero_rate_rejects_nonpositive_time():
    curve = BaseCurve.flat(0.03)
    for t in (0.0, -1.0):
        with pytest.raises(ValueError):
            curve.zero_rate(t)


def test_zero_rate_round_trip_at_nodes():
    pairs = [(0.5, 0.015), (1.0, 0.02), (3.0, 0.028), (7.0, 0.033), (20.0, 0.04)]
    curve = BaseCurve.from_zero_rates(pairs)
    for t, r in pairs:
        assert abs(curve.zero_rate(t) - r) < 1e-12


def test_fwd_rate_flat_and_segment():
    assert BaseCurve.flat(0.03).fwd_rate(2.4) == pytest.approx(0.03, abs=1e-14)
    curve = BaseCurve([(1.0, 0.95), (2.0, 0.90)])
    assert curve.fwd_rate(1.5) == pytest.approx(math.log(0.95 / 0.90), rel=1e-14)
    # right-limit at the node and flat extrapolation beyond the end
    assert curve.fwd_rate(1.0) == curve.fwd_rate(1.5)
    assert curve.fwd_rate(5.0) == curve.fwd_rate(1.5)


def test_fwd_rate_integrates_to_zero_rate():
    curve = BaseCurve.from_zero_rates([(1.0, 0.02), (2.0, 0.03), (5.0, 0.033), (10.0, 0.04)])
    times = (0.0,) + curve.node_tenors
    integral = 0.0
    for a, b in zip(times, times[1:]):
        integral += curve.fwd_rate(a) * (b - a)   # forwards are flat per segment
        assert abs(integral / b - curve.zero_rate(b)) < 1e-10


@given(
    rates=st.lists(st.floats(min_value=0.0, max_value=0.2), min_size=1, max_size=6),
    steps=st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=1, max_size=6),
)
def test_nonincreasing_df_gives_nonnegative_forwards(rates, steps):
    n = min(len(rates), len(steps))
    nodes, t, df = [], 0.0, 1.0
    for f, dt in zip(rates[:n], steps[:n]):
        t += dt
        df *= math.exp(-f * dt)
        nodes.append((t, df))
    curve = BaseCurve(nodes)
    probe = [0.0] + [x - 1e-9 for x, _ in nodes] + [x + 1e-9 for x, _ in nodes]
    assert all(curve.fwd_rate(max(x, 0.0)) >= -1e-15 for x in probe)
    assert all(curve.df(max(x, 0.0)) > 0.0 for x in probe)


def test_par_yield_zero_rates():
    curve = BaseCurve([(1.0, 1.0), (5.0, 1.0)])
    assert curve.par_yield(5.0, 1) == pytest.approx(0.0, abs=1e-15)


def test_par_yield_flat_one_year():
    curve = BaseCurve.flat(0.05)
    expected = (1.0 - math.exp(-0.05)) / math.exp(-0.05)
    assert curve.par_yield(1.0, 1) == pytest.approx(expected, rel=1e-12)


def test_par_yield_semiannual_against_direct_sum():
    curve = BaseCurve.flat(0.05)
    annuity = sum(math.exp(-0.05 * i / 2) for i in range(1, 11))
    expected = 2.0 * (1.0 - math.exp(-0.25)) / annuity
    assert curve.par_yield(5.0, 2) == pytest.approx(expected, rel=1e-13)


def test_par_yield_schedule_error():
    curve = BaseCurve.flat(0.05)
    with pytest.raises(ScheduleError):
        curve.par_yield(1.3, 2)


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_load_curve_csv_zero_rates(tmp_path):
    path = _write(tmp_path / "c.csv", "tenor_years,zero_rate\n1.0,0.02\n5.0,0.03\n")
    curve = load_base_curve(path)
    assert curve.df(5.0) == pytest.approx(math.exp(-0.15), rel=1e-14)


def test_load_curve_csv_discount_factors(tmp_path):
    path = _write(tmp_path / "c.csv", "tenor_years,discount_factor\n1.0,0.98\n2.0,0.95\n")
    assert load_base_curve(path).df(2.0) == pytest.approx(0.95, rel=1e-15)


def test_load_curve_csv_requires_exactly_one_value_column(tmp_path):
    both = _write(tmp_path / "b.csv",
                  "tenor_years,zero_rate,discount_factor\n1.0,0.02,0.98\n")
    with pytest.raises(ParseError):
        load_base_curve(both)
    neither = _write(tmp_path / "n.csv", "tenor_years,price\n1.0,0.9\n")
    with pytest.raises(ParseError):
        load_base_curve(neither)


def test_load_curve_csv_names_bad_row(tmp_path):
    path = _write(tmp_path / "c.csv", "tenor_years,zero_rate\n1.0,0.02\nxx,0.03\n")
    with pytest.raises(ParseError, match="row 3"):
        load_base_curve(path)


@pytest.mark.parametrize("rows, message", [
    ("1.0,0.98\n2.0,0.99\n",
     "discount factors must be non-increasing (negative forward at t=2.0)"),
    ("2.0,0.95\n1.0,0.98\n", "node tenors must be finite, strictly increasing and > 0"),
], ids=["rising discount factors", "unsorted tenors"])
def test_load_curve_csv_names_the_file_of_a_curve_it_rejects(tmp_path, rows, message):
    path = _write(tmp_path / "c.csv", "tenor_years,discount_factor\n" + rows)
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_base_curve(path)


@pytest.mark.parametrize("build", [lambda: BaseCurve.from_zero_rates([(1.0, 0.02), (2.0, -500)]),
                                   lambda: BaseCurve.flat(-1000, 2.0)])
def test_an_overflowing_zero_rate_names_tenor_and_rate(build):
    with pytest.raises(ValueError, match=r"^zero rate -(500|1000) at t=2.0 overflows"):
        build()


def test_a_negative_rate_that_does_not_overflow_keeps_its_message():
    with pytest.raises(ValueError, match=r"^discount factor at t=1.0 must be in \(0, 1\]$"):
        BaseCurve.from_zero_rates([(1.0, -0.01)])


# Per loader: header, two good rows, a bad row, and the noun of its empty-file message.
CSV_LOADERS = {
    "curve": (load_base_curve, "tenor_years,zero_rate", "1.0,0.02", "2.0,0.03", "2.0,xx",
              "curve"),
    "bonds": (load_bond_quotes, "id,coupon,freq,maturity_years,accrued_years,clean_price",
              "a,0.05,2,5.0,0.0,0.97", "b,0.05,2,7.0,0.0,0.99", "b,oops,2,5.0,0.0,0.97",
              "quote"),
    "cds": (load_cds_quotes, "maturity_years,par_spread_bp", "1.0,80", "2.0,90", "2.0,oops",
            "quote"),
}


@pytest.mark.parametrize("fault", ["header", "row", "empty", "undecodable", "extra cells"])
@pytest.mark.parametrize("kind", sorted(CSV_LOADERS))
def test_every_csv_loader_names_file_and_row(tmp_path, kind, fault):
    """The three CSV loaders share ``read_csv_rows`` and so its failure messages."""
    load, header, good, good2, bad, noun = CSV_LOADERS[kind]
    lines = {"header": ["wrong,columns", good], "row": [header, good, bad], "empty": [header],
             "undecodable": [header, good, "\xff\xfe"], "extra cells": [header, good, good2 + ",9"]}
    path = tmp_path / f"{kind}.csv"
    path.write_bytes("\n".join(lines[fault]).encode("latin-1") + b"\n")
    with pytest.raises(ParseError) as info:
        load(str(path))
    message = str(info.value)
    assert message.startswith(f"{path}: row 3: " if fault in ("row", "extra cells")
                              else f"{path}: ")
    assert fault in ("row", "extra cells") or " row " not in message
    assert message.endswith({"empty": f": no {noun} rows", "extra cells": ": cells beyond the "
                             "header: ['9']"}.get(fault, ""))
    assert (fault == "undecodable") == ("not UTF-8" in message)


@pytest.mark.parametrize("kind, header, row, column", [
    ("curve", "tenor_years,zero_rate", "2.0", "zero_rate"),
    ("bonds", "coupon,freq,maturity_years,accrued_years,clean_price,id", "0.05,2,7.0,0.0,0.99",
     "id"),
    ("cds", "maturity_years,par_spread_bp", "2.0", "par_spread_bp"),
], ids=["curve", "bonds", "cds"])
def test_a_row_without_a_required_cell_names_file_row_and_column(tmp_path, kind, header, row,
                                                                 column):
    load, _, good = CSV_LOADERS[kind][:3]
    good = {"bonds": "0.05,2,5.0,0.0,0.97,a"}.get(kind, good)  # this header puts id last
    path = tmp_path / f"{kind}.csv"
    path.write_text(f"{header}\n{good}\n{row}\n")
    message = f"{path}: row 3: missing cell for column '{column}'"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load(str(path))


@pytest.mark.parametrize("kind, row, column", [
    ("curve", "2.0,", "zero_rate"),
    ("bonds", ",0.05,2,7.0,0.0,0.99", "id"),
    ("bonds", "b, ,2,7.0,0.0,0.99", "coupon"),
    ("cds", "2.0,  ", "par_spread_bp"),
], ids=["curve zero_rate", "bonds id", "bonds coupon", "cds par_spread_bp"])
def test_a_blank_required_cell_names_file_row_and_column(tmp_path, kind, row, column):
    load, header, good = CSV_LOADERS[kind][:3]
    path = tmp_path / f"{kind}.csv"
    path.write_text(f"{header}\n{good}\n{row}\n")
    message = f"{path}: row 3: missing cell for column '{column}'"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load(str(path))


@pytest.mark.parametrize("lines", [
    ["id,coupon,freq,maturity_years,accrued_years,clean_price", "a,0.05,2,5.0,0.0,0.97"],
    ["id,coupon,freq,maturity_years,accrued_years,clean_price,spread_duration",
     "a,0.05,2,5.0,0.0,0.97,", "b,0.05,2,7.0,0.0,0.99"],
], ids=["no column", "blank or short"])
def test_the_optional_spread_duration_cell_may_be_absent_or_blank(tmp_path, lines):
    path = tmp_path / "bonds.csv"
    path.write_text("\n".join(lines) + "\n")
    quotes = load_bond_quotes(str(path))
    assert [q.id for q in quotes] == ["a", "b"][:len(lines) - 1]
    assert all(q.spread_duration is None for q in quotes)
