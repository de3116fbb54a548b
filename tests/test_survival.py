import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from creditcurves.errors import ParseError
from creditcurves.splines import SplineBasis
from creditcurves.survival import (
    _Q0_TOL,
    PiecewiseHazardCurve,
    SplineSurvivalCurve,
    load_survival_curve,
    survival_curve_from_dict,
)


@pytest.fixture
def spline_curve():
    return SplineSurvivalCurve(SplineBasis(eta=0.05), (0.5, 0.3, 0.2), horizon=25.0)


def test_flat_hazard_survival():
    curve = PiecewiseHazardCurve.flat(0.02)
    assert curve.survival(5.0) == pytest.approx(math.exp(-0.1), rel=1e-15)
    assert curve.survival(0.0) == 1.0


def test_single_factor_spline_is_exponential():
    curve = SplineSurvivalCurve(SplineBasis(eta=0.03), (1.0, 0.0, 0.0))
    assert curve.survival(10.0) == pytest.approx(math.exp(-0.3), rel=1e-14)
    for t in (0.0, 1.0, 7.5, 20.0):
        assert curve.hazard(t) == pytest.approx(0.03, abs=1e-14)


def test_spline_survival_scalar_sum(spline_curve):
    expected = 0.5 * math.exp(-0.2) + 0.3 * math.exp(-0.4) + 0.2 * math.exp(-0.6)
    assert spline_curve.survival(4.0) == pytest.approx(expected, rel=1e-14)


def test_spline_hazard_closed_form_at_zero(spline_curve):
    # eta * sum(k * beta_k) / sum(beta_k) at t = 0
    assert spline_curve.hazard(0.0) == pytest.approx(0.085, abs=1e-14)


def test_spline_hazard_matches_log_derivative(spline_curve):
    dt = 1e-5
    for t in (0.5, 2.0, 5.0, 13.0):
        numeric = -(math.log(spline_curve.survival(t + dt))
                    - math.log(spline_curve.survival(t - dt))) / (2 * dt)
        assert spline_curve.hazard(t) == pytest.approx(numeric, abs=1e-6)


def test_default_prob_basics():
    curve = PiecewiseHazardCurve.flat(0.02)
    assert curve.default_prob(3.0, 3.0) == 0.0
    assert curve.default_prob(0.0, 1.0) == pytest.approx(1 - math.exp(-0.02), rel=1e-12)
    with pytest.raises(ValueError):
        curve.default_prob(2.0, 1.0)


def test_forward_survival_needs_ordered_dates(spline_curve):
    with pytest.raises(ValueError, match=r"^need 0 <= t <= T$"):
        spline_curve.fwd_survival(3.0, 2.0)


def test_spline_beta_must_fit_the_basis():
    with pytest.raises(ValueError, match="^beta length must match basis size$"):
        SplineSurvivalCurve(SplineBasis(eta=0.05), (0.6, 0.4))


def test_default_prob_telescopes(spline_curve):
    grid = [0.5 * i for i in range(0, 41)]
    total = sum(spline_curve.default_prob(a, b) for a, b in zip(grid, grid[1:]))
    assert total == pytest.approx(1.0 - spline_curve.survival(20.0), abs=1e-12)


def test_fwd_survival_endpoints(spline_curve):
    assert spline_curve.fwd_survival(0.0, 7.0) == spline_curve.survival(7.0)
    assert spline_curve.fwd_survival(4.0, 4.0) == 1.0
    flat = PiecewiseHazardCurve.flat(0.03)
    assert flat.fwd_survival(2.0, 5.0) == pytest.approx(math.exp(-0.09), rel=1e-12)


@given(t=st.floats(min_value=0.0, max_value=20.0), dt=st.floats(min_value=0.0, max_value=15.0))
def test_fwd_survival_chain_identity(t, dt):
    curve = SplineSurvivalCurve(SplineBasis(eta=0.05), (0.5, 0.3, 0.2), horizon=25.0)
    left = curve.survival(t) * curve.fwd_survival(t, t + dt)
    assert left == pytest.approx(curve.survival(t + dt), abs=1e-12)


def test_zz_spread_values(spline_curve):
    flat = PiecewiseHazardCurve.flat(0.017)
    for T in (1.0, 4.0, 9.0):
        assert flat.zz_spread(T) == pytest.approx(0.017, abs=1e-14)
    curve = PiecewiseHazardCurve([(5.0, -math.log(0.9) / 5.0)])
    assert curve.zz_spread(5.0) == pytest.approx(-math.log(0.9) / 5.0, rel=1e-12)


def test_zz_spread_where_survival_vanishes_names_the_tenor():
    curve = PiecewiseHazardCurve([(30.0, 40.0)])
    assert curve.zz_spread(10.0) == pytest.approx(40.0, rel=1e-12)
    with pytest.raises(ValueError, match=r"^survival vanishes at t=25\.0$"):
        curve.zz_spread(25.0)


def test_zz_spread_is_average_hazard(spline_curve):
    # quadrature of the hazard via fine trapezoid against -ln Q / T
    T, n = 8.0, 4000
    step = T / n
    grid = [i * step for i in range(n + 1)]
    integral = sum(
        0.5 * (spline_curve.hazard(a) + spline_curve.hazard(b)) * step
        for a, b in zip(grid, grid[1:])
    )
    assert integral / T == pytest.approx(spline_curve.zz_spread(T), abs=1e-8)


def test_spline_constructor_enforces_invariants():
    basis = SplineBasis(eta=0.05)
    with pytest.raises(ValueError):
        SplineSurvivalCurve(basis, (0.5, 0.3, 0.1))        # Q(0) != 1
    with pytest.raises(ValueError):
        SplineSurvivalCurve(basis, (3.0, -2.0, 0.0))       # Q increasing at 0
    with pytest.raises(ValueError):
        SplineSurvivalCurve(basis, (-1.0, 0.0, 2.0), horizon=30.0)  # goes negative


def test_knotted_factors_do_not_count_towards_q0():
    # Factor 4 is 0 at t = 0, so Q(0) = 1.5 although beta sums to 1.
    basis = SplineBasis(eta=0.05, size=4, knots=((4, 5.0),))
    with pytest.raises(ValueError, match=r"Q\(0\) = knot-free sum\(beta\) = 1.5 must equal 1"):
        SplineSurvivalCurve(basis, (1.5, 0.0, 0.0, -0.5))


def test_tail_past_the_horizon_never_rises():
    # Q rises by ~1e-13 (within the Q(0) tolerance) just before the horizon, so the
    # hazard there is about -285; the tail must not extrapolate that rise.
    basis = SplineBasis(eta=10.0, size=4, knots=((4, 29.99),))
    curve = SplineSurvivalCurve(basis, (1.0 - 1e-12, 0.0, 0.0, 1e-12), horizon=30.0)
    assert curve.hazard(30.0) < -100.0
    q_h = curve.survival(30.0)
    for t in (30.2, 33.0, 100.0, 1e6):
        assert math.isfinite(curve.survival(t)) and curve.survival(t) <= q_h
        assert curve.hazard(t) == 0.0


BULGE = {"type": "spline", "eta": 3.0, "horizon": 30.0,
         "beta": [1.8888371986009336, -0.1665285385433002, -0.7223086600576334]}


def test_a_rise_between_quarter_points_is_rejected(tmp_path):
    # Q(0) = 1, hazard(0) = -1.83 and Q peaks at 1.042 near t = 0.05, yet Q
    # falls from each quarter-year point to the next.
    basis, beta = SplineBasis(eta=BULGE["eta"]), BULGE["beta"]
    quarters = list(basis.row(0.25 * np.arange(121)) @ beta)
    assert all(b < a for a, b in zip(quarters, quarters[1:]))
    assert sampled_rise(basis, beta, 0.25) > 0.04
    with pytest.raises(ValueError, match="survival probability increases near t=0.05"):
        SplineSurvivalCurve(basis, beta, horizon=BULGE["horizon"])
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(BULGE))
    with pytest.raises(ParseError, match="increases"):
        load_survival_curve(str(path))


def test_a_steep_knotted_record_is_a_parse_error(tmp_path):
    # 3 eta T = 750 at the knot: exp(3 eta T) overflows a float, so the check
    # must not form it; Q rises from ~0 to ~1/30 above the knot.
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"type": "spline", "eta": 10.0, "beta": [0.6, 0.2, 0.2, 0.1],
                                "knots": [[4, 25.0]], "horizon": 30.0}))
    with pytest.raises(ParseError, match="survival probability increases near t=30.00"):
        load_survival_curve(str(path))


def test_a_rise_at_an_underflowed_segment_end_is_named():
    # eta (b - a) = 760: y at the segment end underflows to 0, where Q = -y + 2 y^3
    # climbs back from its interior minimum -0.27 to 0.
    with pytest.raises(ValueError, match="survival probability increases near t=38.00"):
        SplineSurvivalCurve(SplineBasis(eta=20.0, size=3), (-1.0, 0.0, 2.0), horizon=38.0)


def sampled_rise(basis, beta, horizon, points=4001):
    """Largest Q(t_j) - Q(t_i), t_i < t_j, over a dense grid of [0, horizon],
    with Q summed from the factor formulas."""
    t = np.linspace(0.0, horizon, points)
    x = np.exp(-basis.eta * t)
    q = beta[0] * x + beta[1] * x**2 + beta[2] * x**3
    for (_, tenor), b in zip(basis.knots, beta[3:]):
        e = np.exp(-basis.eta * np.maximum(t - tenor, 0.0))
        q = q + b * np.where(t > tenor, 1.0 / 3.0 - e + e * e - e**3 / 3.0, 0.0)
    return float(np.max(q - np.minimum.accumulate(q)))


@st.composite
def spline_curves(draw):
    """(basis, beta, horizon) with Q(0) = beta_1 + beta_2 + beta_3 = 1 (knotted factors
    are 0 at t = 0): knot-free or with 1-2 knots; eta up to 20 puts 3 eta T far past
    the float range of exp."""
    knots = sorted(draw(st.lists(st.floats(0.1, 45.0), max_size=2, unique=True)))
    basis = SplineBasis(eta=draw(st.floats(0.01, 20.0)), size=3 + len(knots),
                        knots=tuple((4 + i, t) for i, t in enumerate(knots)))
    rest = draw(st.lists(st.floats(-2.0, 2.0), min_size=basis.size - 1,
                         max_size=basis.size - 1))
    return basis, (1.0 - math.fsum(rest[:2]), *rest), draw(st.floats(1.0, 40.0))


@settings(max_examples=200, deadline=None)
@given(spline_curves())
def test_constructor_rejects_every_sampled_rise(case):
    basis, beta, horizon = case
    rise = sampled_rise(basis, beta, horizon)
    try:
        SplineSurvivalCurve(basis, beta, horizon=horizon)
    except ValueError as exc:
        if rise > 1e-9:
            assert "survival probability increases" in str(exc)
    else:
        assert rise <= _Q0_TOL


def test_piecewise_constructor_enforces_invariants():
    with pytest.raises(ValueError):
        PiecewiseHazardCurve([])
    with pytest.raises(ValueError):
        PiecewiseHazardCurve([(1.0, 0.02), (1.0, 0.03)])
    with pytest.raises(ValueError):
        PiecewiseHazardCurve([(1.0, -0.01)])


def test_piecewise_hazard_steps_and_extrapolation():
    curve = PiecewiseHazardCurve([(1.0, 0.01), (3.0, 0.03)])
    assert curve.hazard(0.5) == 0.01
    assert curve.hazard(1.0) == 0.03          # right-continuous at the node
    assert curve.hazard(10.0) == 0.03
    q3 = curve.survival(3.0)
    assert curve.survival(7.0) == pytest.approx(q3 * math.exp(-0.03 * 4.0), rel=1e-12)


def test_spline_tail_extrapolates_constant_hazard(spline_curve):
    h_tail = spline_curve.hazard(spline_curve.horizon)
    q_h = spline_curve.survival(spline_curve.horizon)
    assert spline_curve.survival(spline_curve.horizon + 4.0) == pytest.approx(
        q_h * math.exp(-4.0 * h_tail), rel=1e-12
    )
    assert spline_curve.hazard(spline_curve.horizon + 4.0) == h_tail


def test_json_round_trip(tmp_path, spline_curve):
    knotted = SplineSurvivalCurve(SplineBasis(eta=0.12, size=5, knots=((4, 3.0), (5, 8.0))),
                                  (0.55, 0.30, 0.15, 0.05, -0.05), horizon=20.0)
    for curve in (spline_curve, knotted, PiecewiseHazardCurve([(1.0, 0.01), (5.0, 0.04)])):
        clone = survival_curve_from_dict(curve.to_dict())
        for t in (0.0, 0.5, 3.3, 12.0, 28.0):
            assert clone.survival(t) == pytest.approx(curve.survival(t), rel=1e-15)
        path = tmp_path / "curve.json"
        curve.save(str(path))
        loaded = load_survival_curve(str(path))
        assert loaded.survival(4.0) == pytest.approx(curve.survival(4.0), rel=1e-15)
        assert json.loads(path.read_text())["type"] == curve.to_dict()["type"]
        assert loaded.to_dict() == curve.to_dict()  # knots included


def test_from_dict_rejects_unknown_type():
    with pytest.raises(ValueError):
        survival_curve_from_dict({"type": "mystery"})


@pytest.mark.parametrize("text, message", [
    ('{"type": "spline", "beta": [1.0]}', "missing key 'eta'"),
    ('{"beta": [1.0], "eta": 0.05}', "missing key 'type'"),
    ('{"type": "spline", "eta": 0.05, "beta": [0.6, 0.5]}', "sum(beta) = 1.1"),
    ('{"type": "spline", "eta": null, "beta": [1.0]}', "NoneType"),
    ('{"type": "piecewise_hazard", "segments": [[1.0, -0.01]]}', "hazard rate"),
    ('{"type": "spline", "eta": 0.05,', "Expecting"),
    ("[1.0]", "list indices"),
])
def test_load_rejects_malformed_record_naming_path(tmp_path, text, message):
    path = tmp_path / "curve.json"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        load_survival_curve(str(path))
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)


# Valid: Q rises above the knot by less than 1e-13 / 3, within the curve's tolerance.
STEEP_KNOTTED = SplineSurvivalCurve(SplineBasis(eta=10.0, size=4, knots=((4, 24.0),)),
                                    (1.0 - 1e-13, 0.0, 0.0, 1e-13), horizon=30.0)
SCHEDULE_CURVES = (
    SplineSurvivalCurve(SplineBasis(eta=0.12, size=5, knots=((4, 3.0), (5, 8.0))),
                        (0.55, 0.30, 0.15, 0.05, -0.05), horizon=20.0),
    STEEP_KNOTTED,
    PiecewiseHazardCurve.flat(0.02),
    PiecewiseHazardCurve([(1.0, 0.01), (3.0, 0.0), (7.5, 0.04), (10.0, 0.025)]),
)
schedule_curves = st.one_of(
    st.sampled_from(SCHEDULE_CURVES),
    st.builds(lambda eta, w2, w3: SplineSurvivalCurve(SplineBasis(eta=eta),
                                                      (1.0 - w2 - w3, w2, w3), 25.0),
              st.floats(0.01, 0.1), st.floats(0.0, 0.5), st.floats(0.0, 0.5)),
    st.lists(st.floats(0.0, 0.3), min_size=1, max_size=5).map(
        lambda hs: PiecewiseHazardCurve([(1.5 * (i + 1), h) for i, h in enumerate(hs)])),
)


@st.composite
def schedules(draw):
    """A curve and dates on it: 0, its knots or tenors and horizon, their float
    neighbours, any date up to 10y past the horizon; in any order, with repeats."""
    curve = draw(schedule_curves)
    marks = [0.0, *curve._breakpoints(), curve.horizon]
    date = st.one_of(
        st.sampled_from(marks),
        st.sampled_from(marks).map(lambda t: math.nextafter(t, math.inf)),
        st.sampled_from(marks[1:]).map(lambda t: math.nextafter(t, 0.0)),
        st.floats(0.0, curve.horizon + 10.0))
    times = draw(st.lists(date, max_size=40))
    order = draw(st.sampled_from(["as drawn", "increasing", "decreasing"]))
    return curve, {"as drawn": times, "increasing": sorted(times),
                   "decreasing": sorted(times, reverse=True)}[order]


@settings(max_examples=300, deadline=None)
@given(schedules())
def test_survivals_is_survival_at_each_date_bit_for_bit(case):
    curve, times = case
    assert [q.hex() for q in curve.survivals(times)] == [curve.survival(t).hex() for t in times]


@pytest.mark.parametrize("bad", [-1e-300, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("curve", SCHEDULE_CURVES, ids=["knotted", "steep knotted", "flat",
                                                        "piecewise"])
def test_survivals_rejects_a_bad_date_as_survival_does(curve, bad):
    with pytest.raises(ValueError) as scalar:
        curve.survival(bad)
    for times in ([bad], [0.5, 2.0, bad, 4.0], [5.0, bad]):
        with pytest.raises(ValueError, match=f"^{re.escape(str(scalar.value))}$"):
            curve.survivals(times)
