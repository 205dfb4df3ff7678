"""Map construction, evaluation, fixed points and case classification."""

import math
from fractions import Fraction

import pytest

import acimlab.wmap as wmap
import exact_oracle
from acimlab.errors import ParameterError
from acimlab.wmap import (
    WParams,
    build_w_map,
    classify_case,
    fixed_points,
    invariant_interval_check,
    restricted_turning_map,
)
from conftest import draw_any_case, draw_case_i, draw_rates, valid_a_max

FIG_PARAMS = WParams(s1=1.5, s2=3.0, p=3.0, q=2.0, r=2.0, a=0.05)


def test_build_w_map_slopes_and_anchors():
    w = build_w_map(FIG_PARAMS)
    # slopes straight from the branch formulas
    assert w.slopes[0] == pytest.approx(-3.3 / 0.45, abs=1e-12)
    assert w.slopes[1] == pytest.approx(1.65, abs=1e-12)
    assert w.slopes[2] == pytest.approx(-3.1, abs=1e-12)
    assert w.slopes[3] == pytest.approx(6.2 / 1.9, abs=1e-12)
    assert w(0.0) == 1.0
    assert w(1.0) == 1.0
    assert w(0.5) == pytest.approx(0.6, abs=1e-12)


def test_breakpoints_formula():
    w = build_w_map(FIG_PARAMS)
    assert w.breakpoints[1] == pytest.approx(0.5 - 0.6 / 1.65, abs=1e-12)
    assert w.breakpoints[2] == 0.5
    assert w.breakpoints[3] == pytest.approx(0.5 + 0.6 / 3.1, abs=1e-12)


def test_eval_third_branch():
    w = build_w_map(FIG_PARAMS)
    # point-slope form of the falling branch through (1/2, 0.6)
    assert w(0.6) == pytest.approx(-3.1 * 0.1 + 0.6, abs=1e-12)


def test_eval_domain_error():
    w = build_w_map(FIG_PARAMS)
    with pytest.raises(ParameterError, match="outside"):
        w(1.2)
    with pytest.raises(ParameterError, match="outside"):
        w(-0.1)


def test_iterate_turning_point():
    w = build_w_map(FIG_PARAMS)
    orbit = w.iterate(0.5, 2)
    assert orbit == pytest.approx([0.5, 0.6, 0.29], abs=1e-12)
    assert list(w.iterate(0.37, 0)) == [0.37]


def test_iterate_small_lift_family():
    w = build_w_map(WParams(2, 2, 1, 1, 1, 0.01))
    # second image from the falling-branch formula: lift - r*a*(s2 + q*a)
    orbit = w.iterate(0.5, 2)
    assert orbit == pytest.approx([0.5, 0.51, -0.01 * 2.01 + 0.51], abs=1e-12)


def test_branch_index():
    # steps reports the 0-based branch of the point each image comes from
    w = build_w_map(FIG_PARAMS)
    assert next(w.steps(0.01))[0] == 0
    assert next(w.steps(0.4))[0] == 1
    assert next(w.steps(0.55))[0] == 2
    assert next(w.steps(0.9))[0] == 3
    # interior breakpoints belong to the branch on their right, 1 to the last
    assert [next(w.steps(x))[0] for x in w.breakpoints] == [0, 1, 2, 3, 3]


def _raw_images(w, x):
    """slope*x + intercept over every branch whose closed interval holds x."""
    bp, slopes, intercepts = w.breakpoints, w.slopes, w.intercepts
    return [slopes[i] * x + intercepts[i] for i in range(len(slopes)) if bp[i] <= x <= bp[i + 1]]


def test_map_rule_stays_in_the_domain(rng):
    # Unclamped, an image of x1 or x3 could land an ulp below 0, and
    # iterate(x, 2) then raised on its own image in about 1 case of 5.
    for _ in range(20000):
        w = build_w_map(draw_any_case(rng))
        for x in (w.breakpoints[1], 0.5, w.breakpoints[3]):
            orbit = w.iterate(x, 2)
            assert orbit[1] == w(x)
            assert all(0.0 <= y <= 1.0 for y in orbit)
            for z, y in zip(orbit, orbit[1:]):
                assert all(abs(y - raw) <= 1e-12 for raw in _raw_images(w, z))


def test_restricted_map_rule_stays_in_its_interval(rng):
    for _ in range(300):
        w = restricted_turning_map(draw_case_i(rng))
        lo, hi = w.domain
        for x in (lo, 0.5, hi):
            orbit = w.iterate(x, 3)
            assert all(lo <= y <= hi for y in orbit)
            for z, y in zip(orbit, orbit[1:]):
                assert all(abs(y - raw) <= 1e-12 for raw in _raw_images(w, z))


def test_classify_case():
    assert classify_case(1.5, 3.0) == "II"
    assert classify_case(4 / 3, 5 / 2) == "I"
    assert classify_case(3, 3) == "III"
    assert classify_case(Fraction(3, 2), Fraction(3, 1)) == "II"
    assert classify_case(Fraction(4, 3), Fraction(5, 2)) == "I"


def test_classify_swap_symmetry(rng):
    for _ in range(50):
        s1 = float(rng.uniform(1.05, 4.0))
        s2 = float(rng.uniform(1.05, 4.0))
        assert classify_case(s1, s2) == classify_case(s2, s1)


def test_fixed_points_fig_family():
    x_l, x_r = fixed_points(FIG_PARAMS)
    assert x_l == pytest.approx(0.45 / 1.3, abs=1e-12)
    # independent route: x_r solves the falling-branch equation W(x_r) = x_l
    s2qa = 3.0 + 2.0 * 0.05
    expected_r = 0.5 + (0.6 - x_l) / s2qa
    assert x_r == pytest.approx(expected_r, abs=1e-12)


def test_fixed_points_collapse_at_zero():
    x_l, x_r = fixed_points(WParams(1.7, 2.4, 1, 1, 1, 0.0))
    assert x_l == pytest.approx(0.5, abs=1e-15)
    assert x_r == pytest.approx(0.5, abs=1e-15)


def test_fixed_points_case_i_ordering():
    params = WParams(4 / 3, 5 / 2, 3.0, 2.0, 2.0, 0.05)
    _, x_r = fixed_points(params)
    w = build_w_map(params)
    assert x_r == pytest.approx(0.618, abs=5e-4)
    assert w(0.5) < x_r


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(s1=1.0), "s1 > 1"),
        (dict(s2=0.9), "s2 > 1"),
        (dict(p=0.0), "p > 0"),
        (dict(q=-1.0), "q > 0"),
        (dict(r=0.0), "r > 0"),
        (dict(a=-0.01), "a >= 0"),
        (dict(r=3.0, a=0.2), "r*a < 1/2"),
        (dict(s1=1.05, r=3.0, a=0.15), "s1 - 1 + p*a - 2*r*a"),
        (dict(s2=1.05, s1=3.0, r=3.0, a=0.15), "s2 - 1 + q*a - 2*r*a"),
        (dict(s1=float("inf")), "finite s1"),
        (dict(s2=float("nan")), "finite s2"),
        (dict(p=float("inf")), "finite p"),
        (dict(q=float("-inf")), "finite q"),
        (dict(r=float("nan")), "finite r"),
        (dict(a=float("inf")), "finite a"),
        (dict(a=float("nan")), "finite a"),
    ],
)
def test_invalid_params_rejected(kwargs, fragment):
    base = dict(s1=2.0, s2=2.5, p=1.0, q=1.0, r=1.0, a=0.05)
    base.update(kwargs)
    with pytest.raises(ParameterError) as err:
        WParams(**base)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "params, fragment",
    [
        ((1.5, 3.0, 0.5, 1.0, 5.25, 0.05), "first breakpoint"),
        ((3.0, 1.5, 1.0, 0.5, 5.25, 0.05), "third breakpoint"),
    ],
)
def test_breakpoint_rounding_onto_the_boundary_is_rejected(params, fragment):
    # s - 1 + p*a - 2*r*a vanishes at r = 5.25; just below it the rule holds
    # algebraically, yet the breakpoint can round onto 0 (or 1), and on the
    # s2 side the outer slope grows so large that an image leaves [0, 1].
    # WParams rejects both, naming the breakpoint or the image, and every
    # map it accepts builds.
    s1, s2, p, q, r, a = params
    rejected = 0
    for _ in range(300):
        r = math.nextafter(r, 0.0)
        assert s1 - 1 + p * a - 2 * r * a > 0 and s2 - 1 + q * a - 2 * r * a > 0
        try:
            w_params = WParams(s1, s2, p, q, r, a)
        except ParameterError as exc:
            assert fragment in str(exc) or "leaves [0, 1]" in str(exc)
            rejected += 1
            continue
        x1, x3 = build_w_map(w_params).breakpoints[1:4:2]
        assert 0.0 < x1 < 0.5 < x3 < 1.0
    assert rejected > 0
    with pytest.raises(ParameterError, match=fragment):
        WParams(s1, s2, p, q, 5.249999999999999, a)


def test_piecewise_linear_map_checks_its_arrays():
    with pytest.raises(ParameterError, match="inconsistent branch arrays"):
        wmap.PiecewiseLinearMap((0.0, 1.0), (2.0, 3.0), (0.0,))
    with pytest.raises(ParameterError, match="inconsistent branch arrays"):
        wmap.PiecewiseLinearMap((0.0, 1.0), (2.0,), (0.0, 1.0))
    with pytest.raises(ParameterError, match="strictly increasing"):
        wmap.PiecewiseLinearMap((0.0, 0.5, 0.5), (1.0, 1.0), (0.0, 0.0))


def test_invariant_interval_fig2_family():
    report = invariant_interval_check(WParams(4 / 3, 5 / 2, 3.0, 2.0, 2.0, 0.05))
    assert report.contained
    assert report.sign_wa_half_minus_xr < 0


def test_invariant_interval_shrinks():
    big = invariant_interval_check(WParams(4 / 3, 5 / 2, 3.0, 2.0, 2.0, 0.05))
    small = invariant_interval_check(WParams(4 / 3, 5 / 2, 3.0, 2.0, 2.0, 0.01))
    def length(rep):
        return rep.interval[1] - rep.interval[0]
    assert length(small) < length(big)
    assert length(small) < 0.12  # collapses toward the turning point


def test_invariant_interval_requires_case_i():
    with pytest.raises(ParameterError, match="case I"):
        invariant_interval_check(FIG_PARAMS)


# ---------------------------------------------------------------------------
# randomized invariants


def test_expansion_property(rng):
    for _ in range(1000):
        params = draw_any_case(rng)
        assert build_w_map(params).min_abs_slope > 1.0


def test_expansion_of_lower_bound_family(rng):
    # the family behind the no-lower-bound example keeps all slopes above 2
    for _ in range(200):
        r = float(rng.uniform(0.5, 8.0))
        a = float(rng.uniform(1e-6, 0.4 / r))
        params = WParams(2.0, 2.0, 1.0, 1.0, r, a)
        assert build_w_map(params).min_abs_slope > 2.0


def test_fixed_point_residuals(rng):
    for _ in range(1000):
        params = draw_any_case(rng)
        w = build_w_map(params)
        x_l, x_r = fixed_points(params)
        assert abs(w(x_l) - x_l) < 1e-12
        assert abs(w(x_r) - x_l) < 1e-12


def test_continuity_at_breakpoints(rng):
    for _ in range(1000):
        params = draw_any_case(rng)
        w = build_w_map(params)
        for i, x in enumerate(w.breakpoints[1:-1]):
            left = w.slopes[i] * x + w.intercepts[i]
            branch, right = next(w.steps(x))
            assert branch == i + 1
            assert abs(left - right) < 1e-12


def test_case_i_containment_random(rng):
    for _ in range(200):
        params = draw_case_i(rng)
        report = invariant_interval_check(params)
        assert report.contained
        assert report.sign_wa_half_minus_xr < 0


# ---------------------------------------------------------------------------
# the invariant interval: a closed-form rule, checked exactly

CONTAINMENT_FAMILIES = [(1.5, 2.0, 1.0, 1.0, 1.0), (1.9, 2.05, 3.0, 3.0, 1.0)]


def a_at_margin(s1, s2, p, q, margin):
    """The a where 1/(s1 + p*a) + 1/(s2 + q*a) - 1 falls to margin, by bisection."""
    lo, hi = 0.0, 0.4
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        if 1 / (s1 + p * mid) + 1 / (s2 + q * mid) - 1 > margin:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("margin", [1e-3, -1e-3, 1e-6, -1e-6, 1e-9, -1e-9])
@pytest.mark.parametrize("family", CONTAINMENT_FAMILIES)
def test_invariant_interval_matches_the_exact_oracle(family, margin):
    s1, s2, p, q, r = family
    a = a_at_margin(s1, s2, p, q, margin)
    s1_, s2_, p_, q_, r_, a_ = map(Fraction, (*family, a))
    exact_margin = 1 / (s1_ + p_ * a_) + 1 / (s2_ + q_ * a_) - 1
    assert abs(exact_margin / Fraction(margin) - 1) < 1e-6  # a sits at its margin
    x_l, x_r, invariant = exact_oracle.invariant_interval(*family, a)
    assert invariant == (margin > 0)

    params = WParams(*family, a)
    report = invariant_interval_check(params)
    assert report.contained == invariant
    assert abs(report.interval[0] - x_l) <= 4e-16 and abs(report.interval[1] - x_r) <= 4e-16
    exact_sign = Fraction(1, 2) + r_ * a_ - x_r
    assert (report.sign_wa_half_minus_xr < 0) == (exact_sign < 0)
    assert abs(report.sign_wa_half_minus_xr - exact_sign) <= 1e-15
    if invariant:
        tent = restricted_turning_map(params)
        assert tent.domain == report.interval
        for x in (*tent.domain, 0.5):
            assert x_l - 1e-15 <= tent(x) <= x_r + 1e-15
    else:
        with pytest.raises(ParameterError, match="not invariant"):
            restricted_turning_map(params)


def test_invariance_rule_agrees_with_the_exact_oracle_on_random_draws(rng):
    # a case-I family over its whole valid range of a, on both sides of the rule
    seen = set()
    for _ in range(300):
        s1 = float(rng.uniform(1.1, 3.0))
        s2 = float(rng.uniform(1.1, s1 / (s1 - 1)))
        p, q, r = draw_rates(rng)
        a = float(rng.uniform(0.0, 0.99 * valid_a_max(s1, s2, p, q, r)))
        *_, invariant = exact_oracle.invariant_interval(s1, s2, p, q, r, a)
        assert invariant_interval_check(WParams(s1, s2, p, q, r, a)).contained == invariant
        seen.add(invariant)
    assert seen == {True, False}


def test_restricted_turning_map_needs_an_interval():
    with pytest.raises(ParameterError, match="single point 1/2"):
        restricted_turning_map(WParams(1.5, 2.0, 1.0, 1.0, 1.0, 0.0))
    with pytest.raises(ParameterError, match="case I"):
        restricted_turning_map(FIG_PARAMS)


def test_interval_closed_forms_build_and_evaluate_no_map(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a map was built or evaluated")

    monkeypatch.setattr(wmap, "build_w_map", forbidden)
    monkeypatch.setattr(wmap.PiecewiseLinearMap, "__call__", forbidden)
    params = WParams(4 / 3, 5 / 2, 3.0, 2.0, 2.0, 0.05)
    assert fixed_points(params) == invariant_interval_check(params).interval
