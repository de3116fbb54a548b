import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from creditcurves.splines import SplineBasis
from creditcurves.survival import SplineSurvivalCurve


def test_no_knot_factors_start_at_one():
    basis = SplineBasis(eta=0.07)
    assert basis.row(0.0).tolist() == [1.0, 1.0, 1.0]


def test_no_knot_factor_value():
    basis = SplineBasis(eta=0.1)
    assert basis.row(5.0)[1] == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_knotted_factor_is_c1_at_the_knot():
    basis = SplineBasis(eta=0.1, size=4, knots=((4, 7.0),))
    assert abs(basis.row(7.0)[3]) < 1e-12
    h = 1e-4
    slope = (basis.row(7.0 + h)[3] - basis.row(7.0 - h)[3]) / (2 * h)
    assert abs(slope) < 1e-6
    # Factor 4 adds no slope at its knot: the curve's hazard there is factor 1's, eta.
    curve = SplineSurvivalCurve(basis, (1.0, 0.0, 0.0, 0.01), horizon=10.0)  # Q(0) = 1
    assert curve.hazard(7.0) == basis.eta


def test_knotted_factor_zero_below_and_third_above():
    basis = SplineBasis(eta=0.1, size=4, knots=((4, 7.0),))
    assert basis.row(3.0)[3] == 0.0
    assert basis.row(7.0 + 200.0 / 0.1)[3] == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_row_values():
    basis = SplineBasis(eta=0.05)
    assert basis.row(0.0) == pytest.approx([1.0, 1.0, 1.0])
    assert basis.row(10.0) == pytest.approx(
        [math.exp(-0.5), math.exp(-1.0), math.exp(-1.5)], rel=1e-15
    )
    with_knot = SplineBasis(eta=0.05, size=4, knots=((4, 7.0),))
    assert with_knot.row(5.0)[3] == 0.0


def test_invalid_configuration():
    with pytest.raises(ValueError):
        SplineBasis(eta=0.0)
    with pytest.raises(ValueError):
        SplineBasis(eta=0.05, size=4)                      # missing knot
    with pytest.raises(ValueError):
        SplineBasis(eta=0.05, size=4, knots=((4, -1.0),))  # bad tenor
    with pytest.raises(ValueError):
        SplineBasis(eta=0.05, size=5, knots=((4, 3.0), (5, 2.0)))  # not increasing
    with pytest.raises(ValueError, match="^need at least one factor$"):
        SplineBasis(eta=0.1, size=0)
    with pytest.raises(ValueError, match="^t must be >= 0$"):
        SplineBasis(eta=0.1).row(-1.0)


def numpy_coefficients(basis, a):
    """``SplineBasis.coefficients`` restated as a size x 4 array."""
    c = np.zeros((basis.size, 4))
    for k in range(1, min(basis.size, 3) + 1):
        c[k - 1, k] = math.exp(-k * basis.eta * a)
    for k, tenor in basis.knots:
        if a >= tenor:
            z = math.exp(-basis.eta * (a - tenor))
            c[k - 1] = 1.0 / 3.0, -z, z * z, -z * z * z / 3.0
    return c


KNOT_FREE = SplineBasis(eta=0.3)
KNOTTED = SplineBasis(eta=0.3, size=4, knots=((4, 7.0),))


@pytest.mark.parametrize("basis", [KNOT_FREE, KNOTTED], ids=["knot_free", "knotted"])
@pytest.mark.parametrize("a", [0.0, 6.5, 7.0, 9.25], ids=["zero", "below", "at", "above"])
def test_coefficients_are_builtin_floats_equal_to_the_array_form(basis, a):
    c = basis.coefficients(a)
    assert len(c) == basis.size and all(len(factor) == 4 for factor in c)
    assert all(type(x) is float for factor in c for x in factor)
    assert c == numpy_coefficients(basis, a).tolist()


@pytest.mark.parametrize("basis", [KNOT_FREE, KNOTTED], ids=["knot_free", "knotted"])
def test_row_is_horner_on_the_coefficients(basis):
    """Bit for bit, for a scalar t and for an array: t in (T_j, T_j+1] reads the
    cubic of the segment that starts at T_j, at y = exp(-eta (t - T_j))."""
    times = [0.0, 3.0, 6.5, 7.0, 7.0 + 1e-9, 9.25, 40.0]
    starts = [0.0, *basis.knot_tenors]
    expected = []
    for t in times:
        a = starts[max(bisect.bisect_left(starts, t) - 1, 0)]
        y = float(np.exp(-basis.eta * (np.array([t]) - a))[0])  # row's exp
        expected.append([((c3 * y + c2) * y + c1) * y + c0
                         for c0, c1, c2, c3 in basis.coefficients(a)])
    assert basis.row(np.array(times)).tolist() == expected
    assert [basis.row(t).tolist() for t in times] == expected


@given(
    eta=st.floats(min_value=1e-3, max_value=0.5),
    t=st.floats(min_value=0.0, max_value=50.0),
    dt=st.floats(min_value=1e-3, max_value=5.0),
    k=st.integers(min_value=1, max_value=3),
)
def test_no_knot_factors_bounded_and_decreasing(eta, t, dt, k):
    basis = SplineBasis(eta=eta)
    now, later = basis.row(t)[k - 1], basis.row(t + dt)[k - 1]
    assert 0.0 < later < now <= 1.0


# Curves that isolate factors 1..3, and one that adds factor 4 to factor 1.
FACTOR_BETAS = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0),
                (1.0, 0.0, 0.0, 0.2))  # factor 4 is 0 at t = 0, so Q(0) = 1


def test_factor_slope_matches_central_difference():
    basis = SplineBasis(eta=0.12, size=4, knots=((4, 4.0),))
    h = 1e-6
    for beta in FACTOR_BETAS:
        curve = SplineSurvivalCurve(basis, beta, horizon=10.0)
        for t in (0.5, 2.0, 4.5, 9.0):
            numeric = (curve.survival(t + h) - curve.survival(t - h)) / (2 * h)
            slope = -curve.hazard(t) * curve.survival(t)
            assert slope == pytest.approx(numeric, abs=5e-8)


def test_exp_terms_reconstruct_factors():
    basis = SplineBasis(eta=0.08, size=4, knots=((4, 3.0),))
    for beta in FACTOR_BETAS:
        curve = SplineSurvivalCurve(basis, beta)
        t = 6.0
        value = sum(c * math.exp(-d * (t - 3.0)) for c, d in curve._exp_terms(3.0, 10.0))
        assert value == pytest.approx(curve.survival(t), rel=1e-12)
    # Below its knot factor 4 has no terms.
    assert curve._exp_terms(0.0, 3.0) == [(1.0, 0.08)]


@st.composite
def bases_and_curves(draw):
    """A basis, knot-free or with 1-2 knots and eta up to 20, and a curve on it that
    is valid by construction: non-negative weights w on factors 1..3 and knotted
    betas <= 0 (Phi_j rises, so each term falls), each at most 0.9 / n_knots of
    m = sum w_k exp(-k eta H) in size, so Q(H) >= m (1 - 0.9) > 0."""
    knots = sorted(draw(st.lists(st.floats(0.1, 60.0), max_size=2, unique=True)))
    eta = draw(st.floats(0.01, 20.0))
    basis = SplineBasis(eta=eta, size=3 + len(knots),
                        knots=tuple((4 + i, t) for i, t in enumerate(knots)))
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(any))
    w = [x / math.fsum(raw) for x in raw]
    horizon = min(draw(st.floats(0.5, 40.0)), 200.0 / eta)  # exp(-3 eta H) > 0
    m = math.fsum(wk * math.exp(-k * eta * horizon) for k, wk in enumerate(w, 1))
    knotted = [-3.0 * m * draw(st.floats(0.0, 0.9)) / len(knots) for _ in knots]
    beta = w + knotted  # knotted factors are 0 at t = 0, so Q(0) = sum(w) = 1
    return basis, SplineSurvivalCurve(basis, beta, horizon=horizon)


def closed_form(basis, k, t):
    """Phi_k(t) written out: exp(-k eta t), or 1/3 - e + e^2 - e^3/3 with
    e = exp(-eta (t - T)) above the knot T and 0 at and below it."""
    if k <= 3:
        return math.exp(-k * basis.eta * t)
    tenor = basis.knot_tenor(k)
    if t <= tenor:
        return 0.0
    e = math.exp(-basis.eta * (t - tenor))
    return 1.0 / 3.0 - e + e * e - e ** 3 / 3.0


@settings(max_examples=300, deadline=None)
@given(bases_and_curves(), st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8))
def test_row_and_curve_match_the_closed_forms(case, times):
    basis, curve = case
    times = sorted(set(times) | {0.0, *basis.knot_tenors})
    rows = basis.row(np.array(times))
    for t, row in zip(times, rows):
        assert row.tolist() == basis.row(t).tolist()
        expected = [closed_form(basis, k, t) for k in range(1, basis.size + 1)]
        assert row.tolist() == pytest.approx(expected, rel=1e-12, abs=1e-14)
        for k, tenor in basis.knots:
            if t <= tenor:
                assert row[k - 1] == 0.0
    # The curve's terms rebuild Q on every cut, the tail past the horizon included.
    cuts = sorted({0.0, 100.0, *curve._breakpoints(), *times})
    for a, b in zip(cuts, cuts[1:]):
        terms = curve._exp_terms(a, b)
        for u in (a, 0.5 * (a + b), b):
            rebuilt = math.fsum(c * math.exp(-d * (u - a)) for c, d in terms)
            assert rebuilt == pytest.approx(curve.survival(u), rel=1e-10, abs=1e-300)
    h = 1e-6
    for t in times:
        if t < h or abs(t - curve.horizon) < 1e-4 or curve.survival(t + h) < 1e-280:
            continue
        numeric = -(math.log(curve.survival(t + h)) - math.log(curve.survival(t - h))) / (2 * h)
        assert curve.hazard(t) == pytest.approx(numeric, rel=1e-6, abs=1e-6)
