"""Series density machinery: orbit, Lambda, bounds, integrals, invariance."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import acimlab.density as density
from acimlab.density import (
    PiecewiseConstantDensity,
    _accumulate,
    bounding_densities,
    h0,
    l1_distance,
    normalize,
    refine_pair,
    region_integrals,
    renormalized_density_vartheta0,
    solve_series,
    transfer_operator_apply,
    vartheta,
)
from acimlab.errors import ComputationError, ParameterError
from acimlab.ulam import limit_measure
from acimlab.wmap import WParams, build_w_map, fixed_points
import exact_oracle
from conftest import draw_any_case, draw_case_ii, draw_case_iii, valid_a_max

FIG_PARAMS = WParams(1.5, 3.0, 3.0, 2.0, 2.0, 0.05)
SMALL_LIFT = WParams(2.0, 2.0, 1.0, 1.0, 1.0, 0.01)


def draw_case_iii_negative_lambda(rng, a_cap=0.1):
    """Case-III draw restricted to the regime where both Lambda estimates
    are negative (where the two-sided bounds are actually proven)."""
    while True:
        params = draw_case_iii(rng, a_cap=a_cap)
        if vartheta(params.s1, params.s2) >= 0:
            continue
        lam = solve_series(params).lam
        while not (lam.lam < 0 and lam.lam_low < 0 and lam.lam_high < 0):
            params = WParams(
                params.s1, params.s2, params.p, params.q, params.r, params.a * 0.5
            )
            lam = solve_series(params).lam
        return params, lam


# ---------------------------------------------------------------------------
# piecewise-constant container


def accumulate(terms, base=0.0):
    """base + sum of w * chi_[lo, hi] over (lo, hi, w) triples on [0, 1]."""
    lo, hi, w = np.array(terms, dtype=float).T
    return _accumulate(lo, hi, w, base, (0.0, 1.0))


def test_accumulate_indicators_basic():
    f = accumulate([(0.0, 0.5, 2.0), (0.25, 1.0, 1.0)], base=1.0)
    assert f.value_at(0.1) == 3.0
    assert f.value_at(0.3) == 4.0
    assert f.value_at(0.7) == 2.0
    assert f.integral() == pytest.approx(0.25 * 3 + 0.25 * 4 + 0.5 * 2, abs=1e-15)


def test_value_at_breakpoints_and_outside_the_domain():
    f = PiecewiseConstantDensity(np.array([0.25, 0.5, 0.75]), np.array([3.0, 4.0]))
    x = np.array([0.0, 0.25, 0.3, 0.5, 0.6, 0.75, 1.0])
    # a breakpoint belongs to the cell on its right; outer cells extend outward
    assert f.value_at(x).tolist() == [3.0, 3.0, 3.0, 4.0, 4.0, 4.0, 4.0]
    assert f.value_at(0.5) == 4.0 and isinstance(f.value_at(0.5), float)
    one_cell = PiecewiseConstantDensity(np.array([0.0, 1.0]), np.array([2.0]))
    assert one_cell.value_at(np.array([-1.0, 0.5, 2.0])).tolist() == [2.0, 2.0, 2.0]


def test_accumulate_merges_close_points():
    eps = 1e-16
    f = accumulate([(0.0, 0.5, 1.0), (0.0, 0.5 + eps, 1.0)])
    assert np.all(np.diff(f.breakpoints) > 1e-14)
    assert f.value_at(0.25) == 2.0


def test_integral_over_clips():
    f = PiecewiseConstantDensity(np.array([0.0, 0.5, 1.0]), np.array([1.5, 0.5]))
    assert f.integral_over(0.25, 0.75) == pytest.approx(0.25 * 1.5 + 0.25 * 0.5)
    assert f.integral_over(-1.0, 2.0) == pytest.approx(1.0)


def test_h0_values():
    two = h0(2.0, 2.0)
    assert list(two.values) == [1.5, 0.5]
    fig = h0(1.5, 3.0)
    assert fig.values == pytest.approx([1.6, 0.4], abs=1e-12)


def test_h0_normalized(rng):
    for _ in range(100):
        s1 = float(rng.uniform(2.05, 4.0))
        s2 = float(rng.uniform(s1, 6.0))
        assert h0(s1, s2).integral() == pytest.approx(1.0, abs=1e-12)


def test_h0_rejects_case_i():
    with pytest.raises(ParameterError):
        h0(4 / 3, 5 / 2)


def test_normalize_constant():
    f = PiecewiseConstantDensity(np.array([0.0, 1.0]), np.array([2.0]))
    assert list(normalize(f).values) == [1.0]


def test_normalize_keeps_h0():
    f = h0(2.0, 2.0)
    assert list(normalize(f).values) == list(f.values)


def test_density_rejects_non_finite_input():
    nan, inf = float("nan"), float("inf")
    for bp, values in (
        ([0.0, nan, 1.0], [1.0, 1.0]),
        ([0.0, inf], [1.0]),
        ([-inf, 0.0], [1.0]),
        ([0.0, 1.0], [nan]),
        ([0.0, 0.5, 1.0], [1.0, -inf]),
    ):
        with pytest.raises(ParameterError, match="finite"):
            PiecewiseConstantDensity(np.array(bp), np.array(values))


def test_normalize_degenerate():
    f = PiecewiseConstantDensity(np.array([0.0, 1.0]), np.array([0.0]))
    with pytest.raises(ComputationError, match="degenerate"):
        normalize(f)


# ---------------------------------------------------------------------------
# turning orbit


def test_turning_orbit_small_lift():
    orbit = solve_series(SMALL_LIFT).orbit
    assert orbit.orbit[0] == pytest.approx(0.51, abs=1e-15)
    assert orbit.orbit[1] == pytest.approx(0.4899, abs=1e-14)
    assert orbit.k == 13
    assert orbit.closed_form_k == 13
    assert orbit.k1 == 8
    assert orbit.cum_slopes[0] == pytest.approx(2.01, abs=1e-15)
    assert orbit.cum_slopes[1] == pytest.approx(-2.01 * 2.01, abs=1e-12)


def test_turning_orbit_second_point(rng):
    for _ in range(50):
        p = draw_case_ii(rng)
        orbit = solve_series(p).orbit
        expected = -p.r * p.a * (p.s2 + p.q * p.a) + 0.5 + p.r * p.a
        assert orbit.orbit[1] == pytest.approx(expected, rel=1e-12)


def test_turning_orbit_geometric_cumulative_slopes(rng):
    for _ in range(50):
        p = draw_case_iii(rng)
        orbit = solve_series(p).orbit
        rise, fall = p.s1 + p.p * p.a, p.s2 + p.q * p.a
        for n in range(2, orbit.k + 1):
            expected = -fall * rise ** (n - 1)
            assert orbit.cum_slopes[n - 1] == pytest.approx(expected, rel=1e-12)


def test_orbit_matches_closed_form(rng):
    for draw in (draw_case_ii, draw_case_iii):
        for _ in range(50):
            p = draw(rng)
            orbit = solve_series(p).orbit
            x_l, dist, beta2 = density._closed_form_offset(p)
            for m in range(3, orbit.k + 1):
                closed = x_l - dist * beta2 ** (m - 2)
                assert abs(orbit.point(m) - closed) / abs(closed) < 1e-9


@pytest.mark.parametrize("m", range(6, 13))
@pytest.mark.parametrize(
    "family",
    [(Fraction(3, 2), 3, 3, 2, 2), (2, 2, 1, 1, 1), (3, 5, Fraction(1, 2), 2, Fraction(3, 2))],
)
def test_turning_orbit_matches_the_exact_orbit(family, m):
    """At dyadic parameters every slope is a float, so the float orbit only
    rounds its steps: B_n stays within a few ulps, and z_n, whose rounding
    the map amplifies like B_n, within eps * |B_n|.  Both k agree with the
    exact k, at points whose exact orbit is farther from the threshold
    than that rounding."""
    a = Fraction(1, 2**m)
    exact_z, exact_b, k = exact_oracle.turning_orbit(*family, a)
    orbit = solve_series(WParams(*map(float, family), float(a))).orbit
    eps = 2.0**-52
    x1 = exact_oracle.w_branches(*family, a)[1][0]
    for n in (k - 1, k):
        margin = eps * abs(exact_b[n - 1]) + abs(Fraction(orbit.threshold) - x1)
        assert abs(exact_z[n - 1] - x1) > margin
    assert orbit.k == orbit.closed_form_k == k
    for z, b, z_n, b_n in zip(orbit.orbit, orbit.cum_slopes, exact_z, exact_b, strict=True):
        assert abs(Fraction(b) - b_n) <= 4 * eps * abs(b_n)
        assert abs(Fraction(z) - z_n) <= eps * abs(b_n)


@pytest.mark.parametrize("s2, a, k", [(2 + 1e-6, 3e-7, 41), (2 + 4e-7, 1e-7, 44)])
def test_k_past_the_last_s_series_step(s2, a, k):
    """Case III next to the case-II boundary, at small a: the S-series meet
    their cutoff after 40 steps, while the orbit still rides the rising
    branch, so solve_series walks on to k."""
    family = (2.0, s2, 1.0, 1.0, 1.0)
    solution = solve_series(WParams(*family, a))
    assert solution.lam.n_terms < k  # the walk went past the S-series' last step
    assert solution.orbit.k == solution.orbit.closed_form_k == k
    assert exact_oracle.turning_orbit(*map(Fraction, family), Fraction(a))[2] == k


def test_closed_form_offset_is_measured_from_the_maps_fixed_point(rng):
    for _ in range(300):
        p = draw_any_case(rng)
        assert density._closed_form_offset(p)[0] == fixed_points(p)[0]


def test_ak_trend_to_zero():
    values = []
    for a in (1e-2, 1e-3, 1e-4):
        values.append(a * solve_series(WParams(2, 2, 1, 1, 1, a)).orbit.k)
    assert values[0] > values[1] > values[2]


def test_turning_orbit_rejects_case_i():
    with pytest.raises(ParameterError):
        solve_series(WParams(4 / 3, 5 / 2, 3.0, 2.0, 2.0, 0.05))
    with pytest.raises(ParameterError):
        solve_series(WParams(2.0, 2.0, 1.0, 1.0, 1.0, 0.0))


def test_turning_orbit_truncation_error(monkeypatch):
    # at a = 1e-8 the float64 orbit of (2, 2, 1, 1, 1) sticks to the rising
    # branch's fixed point; the walk gives up after 2 * closed_form_k steps
    params = WParams(2, 2, 1, 1, 1, 1e-8)
    assert density._closed_form_k(params, build_w_map(params).breakpoints[1]) == 53
    walk = density._orbit_steps
    steps = []

    def counted(pl_map):
        for step in walk(pl_map):
            steps.append(step)
            yield step

    monkeypatch.setattr(density, "_orbit_steps", counted)
    with pytest.raises(ComputationError, match="precision floor"):
        solve_series(params)
    assert len(steps) == 2 * 53


def test_s_series_cutoff_error(monkeypatch):
    # SMALL_LIFT needs 34 S-terms to meet the cutoff
    monkeypatch.setattr(density, "MAX_SERIES_TERMS", 10)
    with pytest.raises(ComputationError, match="S-series did not meet the cutoff"):
        solve_series(SMALL_LIFT)


def test_density_series_convergence_error(monkeypatch):
    # S-series (34 terms) and k (13) fit in 100 steps; at tail_tol 1e-300
    # the density series needs 902
    monkeypatch.setattr(density, "MAX_SERIES_TERMS", 100)
    with pytest.raises(ComputationError, match="density series did not converge"):
        solve_series(SMALL_LIFT, tail_tol=1e-300)


def synthetic_walk(monkeypatch, first_cum, n_idle):
    """Replace the turning orbit of LAMBDA_PROBE (beta = fall, so
    S11 = S22 = 1/B_n on counted steps) by a walk that never leaves the
    rising branch: one counted step with cumulative slope first_cum, n_idle
    steps that S11 and S22 skip, then a step that meets the cutoff.  Returns
    the list of steps taken."""
    walk = [(0.75, first_cum)] + [(0.75, -2.0)] * n_idle + [(0.75, 1e300)]
    taken = []

    def steps(pl_map):
        for step in walk:
            taken.append(step)
            yield step

    monkeypatch.setattr(density, "_orbit_steps", steps)
    return taken


LAMBDA_PROBE = WParams(3.0, 3.0, 1.0, 1.0, 1.0, 0.01)  # closed_form_k = 5


@pytest.mark.parametrize(
    "first_cum, n_idle, message",
    [
        (2.0, 0, "Lambda is numerically singular"),  # S11 + S22 = 1/2 + 1/2
        (2.0, 15, "Lambda is numerically singular"),
        (4.0, 15, "precision floor"),
    ],
)
def test_singular_lambda_and_the_precision_floor(monkeypatch, first_cum, n_idle, message):
    # with 15 idle steps the S-series outlast 2 * closed_form_k = 10 and k is
    # never found: a singular Lambda is still reported first, and a regular
    # one lets the walk stop at once with the precision-floor error
    taken = synthetic_walk(monkeypatch, first_cum, n_idle)
    with pytest.raises(ComputationError, match=message):
        solve_series(LAMBDA_PROBE)
    assert len(taken) == n_idle + 2


# ---------------------------------------------------------------------------
# Lambda


def test_lambda_case_ii_below_minus_one(rng):
    for _ in range(30):
        p = draw_case_ii(rng, a_cap=0.03)
        lam = solve_series(p).lam
        assert lam.lam < -1
        assert lam.lam_low < -1 and lam.lam_high < -1


def test_lambda_limit_strong_expansion():
    # vartheta(4, 4) = 1/3, so Lambda approaches 3 from the estimate squeeze
    lams = [solve_series(WParams(4, 4, 1, 1, 1, a)).lam for a in (1e-2, 1e-3, 1e-4)]
    errors = [abs(lam.lam - 3.0) for lam in lams]
    assert errors[-1] < 1e-2
    assert lams[-1].vartheta == pytest.approx(1 / 3)


def test_lambda_negative_branch():
    lam = solve_series(WParams(2.2, 2.2, 1, 1, 1, 0.01)).lam
    assert lam.vartheta == pytest.approx(-2 / 3, abs=1e-12)
    assert lam.lam_low < 0 and lam.lam_high < 0


def test_s_matrix_relation(rng):
    for draw in (draw_case_ii, draw_case_iii):
        for _ in range(30):
            p = draw(rng)
            lam = solve_series(p).lam
            ratio = (p.s2 + p.q * p.a) / (p.s1 + p.p * p.a)
            assert abs(lam.s11 - ratio * lam.s22) < 1e-11


def test_lambda_bracketing(rng):
    # tested where the geometric tail comparison is valid: case II draws
    # (rising slope is the smallest) and case III with both estimates negative
    for _ in range(40):
        p = draw_case_ii(rng)
        lam = solve_series(p).lam
        assert lam.lam_low - 1e-10 <= lam.lam <= lam.lam_high + 1e-10
    for _ in range(40):
        _, lam = draw_case_iii_negative_lambda(rng)
        assert lam.lam_low - 1e-10 <= lam.lam <= lam.lam_high + 1e-10


# ---------------------------------------------------------------------------
# series density


def test_first_term_coefficient():
    # crossing the lift from below drops exactly the first series term
    solution = solve_series(FIG_PARAMS)
    lam, f = solution.lam.lam, solution.density
    lift = 0.5 + FIG_PARAMS.r * FIG_PARAMS.a
    jump = f.value_at(lift - 1e-12) - f.value_at(lift + 1e-12)
    coeff = (1 + 1.65 / 3.1) * lam / 1.65
    assert jump == pytest.approx(coeff, rel=1e-12)


def same_bits(x, y) -> bool:
    """Whether two dataclass instances of one type hold the same bytes, field by field."""
    return type(x) is type(y) and all(
        np.asarray(getattr(x, f.name)).tobytes() == np.asarray(getattr(y, f.name)).tobytes()
        for f in dataclasses.fields(x)
    )


@pytest.mark.parametrize("p", [FIG_PARAMS, WParams(4, 4, 1, 1, 1, 0.01)])
def test_views_return_their_solve_series_field(p):
    """turning_orbit, lambda_solve and density_series are solve_series' fields, bit for bit."""
    solution = solve_series(p)
    assert same_bits(density.turning_orbit(p), solution.orbit)
    assert same_bits(density.lambda_solve(p), solution.lam)
    assert same_bits(density.density_series(p), solution.density)
    coarse = solve_series(p, 1e-6).density
    assert coarse.values.size < solution.density.values.size  # the tolerance reaches the solve
    assert same_bits(density.density_series(p, tail_tol=1e-6), coarse)


def test_invariance_under_transfer_operator(rng):
    tail_tol = 1e-10
    cases = [FIG_PARAMS, SMALL_LIFT, WParams(4, 4, 1, 1, 1, 0.01)]
    cases += [draw_case_ii(rng) for _ in range(5)]
    cases += [draw_case_iii(rng) for _ in range(5)]
    for p in cases:
        f = solve_series(p, tail_tol).density
        pf = transfer_operator_apply(build_w_map(p), f)
        assert l1_distance(pf, f) < 10 * tail_tol


@pytest.mark.parametrize("a", [1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize(
    "family", [(1.5, 3.0, 3.0, 2.0, 2.0), (2.0, 2.0, 1.0, 1.0, 1.0), (1.25, 5.0, 1.0, 2.0, 1.0)]
)
def test_case_ii_series_density_keeps_its_relative_invariance(family, a):
    """In case II ||f||_1 shrinks like a; the residual relative to it, taken
    exactly, stays within twice the tail tolerance."""
    f = solve_series(WParams(*family, a)).density
    residual = exact_oracle.relative_invariance_residual((*family, a), f.breakpoints, f.values)
    assert residual <= 2 * density.DEFAULT_TAIL_TOL


@pytest.mark.parametrize(
    "family", [(1.5, 3.0, 3.0, 2.0, 2.0), (2.0, 2.0, 1.0, 1.0, 1.0), (1.25, 5.0, 1.0, 2.0, 1.0)]
)
def test_case_ii_peak_is_a_plateau_carrying_the_limit_atom(family):
    """On J_a = [1/2 - r*a/(s1 - 1), 1/2 + r*a] the normalized density is
    flat to first order and carries the limit's atom weight atom/den, so its
    mass tends to atom/den and sup * a to (atom/den)*(s1 - 1)/(r*s1).  The
    relative gaps shrink about sevenfold per decade (1.8e-2 at a = 1e-3 for
    the first family, 1.2e-5 to 5.0e-5 at a = 1e-6)."""
    s1, s2, p, q, r = family
    atom = limit_measure(*family).atoms[0][1]
    height = atom * (s1 - 1) / (r * s1)
    mass_gaps, sup_gaps = [], []
    for a in (1e-3, 1e-4, 1e-5, 1e-6):
        h = normalize(solve_series(WParams(*family, a)).density)
        mass = h.integral_over(0.5 - r * a / (s1 - 1), 0.5 + r * a)
        mass_gaps.append(abs(mass - atom) / atom)
        sup_gaps.append(abs(h.sup() * a - height) / height)
    for gaps in (mass_gaps, sup_gaps):
        assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
        assert gaps[-1] < 1e-4


def test_transfer_operator_fixes_h0():
    for s1, s2 in ((2.0, 2.0), (1.5, 3.0), (4.0, 4.0)):
        params = WParams(s1, s2, 1.0, 1.0, 1.0, 0.0)
        f = h0(s1, s2)
        pf = transfer_operator_apply(build_w_map(params), f)
        _, fv, pv = refine_pair(f, pf)
        assert np.max(np.abs(fv - pv)) < 1e-13


def test_transfer_operator_preserves_mass(rng):
    for _ in range(20):
        p = draw_case_iii(rng)
        w = build_w_map(p)
        f = accumulate(
            [(float(rng.uniform(0, 0.5)), float(rng.uniform(0.5, 1)), float(rng.uniform(-1, 2)))
             for _ in range(5)],
            base=1.0,
        )
        pf = transfer_operator_apply(w, f)
        assert abs(pf.integral() - f.integral()) < 1e-12


@st.composite
def w_params(draw):
    """Any valid map of the family: cases I-III, a from 0 to near its limit."""
    s1, s2 = (draw(st.floats(1.05, 5.0)) for _ in range(2))
    p, q, r = (draw(st.floats(0.3, 3.0)) for _ in range(3))
    a = draw(st.floats(0.0, 0.9)) * valid_a_max(s1, s2, p, q, r)
    return WParams(s1, s2, p, q, r, a)


@settings(max_examples=40, deadline=None)
@given(params=w_params(), log_bins=st.integers(6, 12), seed=st.integers(0, 2**32 - 1))
@example(params=WParams(2.0, 2.0, 1.0, 1.0, 1.0, 5e-15), log_bins=12, seed=0)
@example(params=WParams(1.0625, 1.0625, 2.1875, 2.1796875, 2.0, 3.43e-12), log_bins=6, seed=0)
def test_transfer_operator_matches_ulam_on_its_grid(params, log_bins, seed):
    """Ulam's matrix is push-forward followed by bin averaging, exactly.

    The two sides round differently, piece by piece.  Both split the mass of
    source bin i into the same pieces, one per matrix entry (i, j): the
    Ulam side cuts bin i at the rounded preimages of bin j's edges, the
    push-forward side cuts the image of bin i at bin j's edges after
    rounding the images of bin i's edges.  Each of a piece's two ends is off
    by about eps in source coordinates, so its mass f_i * width is off by
    about eps * f_i on either side, and f = values / mean(values) is about
    2 at most.  The running sums over cells that the push-forward and the
    CDF add round once per cell, and the cells number no more than the
    entries.  So the L1 gap is bounded by 2 * 2 * eps per entry, 4 * nnz *
    eps, and not by a multiple of n * eps: a steep map has several entries
    per bin.  The second example's outer slopes are +-34, and its 64 bins
    hold 254 entries; its gap reached 1.9 * nnz * eps over 200 seeds, and
    4 * n * eps failed on 170 of them.
    """
    from acimlab.ulam import build_ulam

    w = build_w_map(params)
    ulam = build_ulam(w, 2**log_bins)
    widths = np.diff(ulam.edges)
    values = np.random.default_rng(seed).uniform(0.1, 2.0, ulam.n_bins)
    f = PiecewiseConstantDensity(ulam.edges, values / (values @ widths))
    pf = transfer_operator_apply(w, f)
    cdf = np.concatenate(([0.0], np.cumsum(pf.values * pf.widths)))
    bin_mass = np.diff(np.interp(ulam.edges, pf.breakpoints, cdf))
    ulam_mass = (f.values * widths) @ ulam.matrix
    # L1 distance of the bin averages, bin_mass / widths against ulam_mass / widths
    assert np.abs(bin_mass - ulam_mass).sum() <= 4 * ulam.data.size * np.finfo(float).eps
    assert abs(pf.integral() - f.integral()) <= 1e-12


def reference_refine_pair(f, g):
    """np.union1d of the breakpoints, value_at the midpoints, 0 outside each domain."""
    bp = np.union1d(f.breakpoints, g.breakpoints)
    mids = 0.5 * (bp[:-1] + bp[1:])

    def on_grid(h):
        outside = (bp[:-1] < h.breakpoints[0]) | (bp[1:] > h.breakpoints[-1])
        return np.where(outside, 0.0, h.value_at(mids))

    return bp, on_grid(f), on_grid(g)


@st.composite
def breakpoint_sets(draw, anchors):
    """Sorted distinct breakpoints: picks from anchors, random points between
    them, and the doubles adjacent to either."""
    points = set()
    for _ in range(draw(st.integers(2, 12))):
        x = float(draw(st.sampled_from(anchors)))
        if draw(st.booleans()):
            x += (draw(st.sampled_from(anchors)) - x) * draw(st.floats(0.0, 1.0))
        points.add(float(np.nextafter(x, draw(st.sampled_from([-np.inf, x, np.inf])))))
    if len(points) < 2:
        points.add(float(np.nextafter(max(points), np.inf)))
    return np.array(sorted(points))


@st.composite
def density_pairs(draw):
    """Two functions on the same or on different domains, sharing breakpoints or not."""
    anchors = draw(
        st.sampled_from(
            [(0.0, 0.5, 1.0), (0.2, 0.9), (-0.5, 0.25, 1.5), (0.3, float(np.nextafter(0.3, 1.0)))]
        )
    )
    f_bp = draw(breakpoint_sets(anchors))
    g_bp = f_bp if draw(st.booleans()) else draw(breakpoint_sets(anchors + tuple(f_bp[:3])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return tuple(PiecewiseConstantDensity(bp, rng.uniform(-2.0, 2.0, bp.size - 1)) for bp in (f_bp, g_bp))


@settings(max_examples=200, deadline=None)
@given(pair=density_pairs())
def test_refine_pair_matches_a_union_grid_and_lookups(pair):
    f, g = pair
    got, want = refine_pair(f, g), reference_refine_pair(f, g)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    bp, fv, gv = want
    exact = float(np.einsum("i,i->", np.abs(fv - gv), np.diff(bp)))  # l1_distance's sum
    if f.domain == g.domain:  # one domain: the same sum, bit for bit
        assert l1_distance(f, g) == exact
    else:
        assert l1_distance(f, g) == pytest.approx(exact, rel=1e-12, abs=1e-300)


def test_transfer_operator_constant_mass():
    one = PiecewiseConstantDensity(np.array([0.0, 1.0]), np.array([1.0]))
    pf = transfer_operator_apply(build_w_map(FIG_PARAMS), one)
    assert pf.integral() == pytest.approx(1.0, abs=1e-12)


def test_series_vs_ulam_smoke():
    from acimlab.ulam import build_ulam, stationary_density

    h = normalize(solve_series(FIG_PARAMS).density)
    ulam = build_ulam(build_w_map(FIG_PARAMS), 2**12)
    assert l1_distance(h, stationary_density(ulam)) < 0.05


# ---------------------------------------------------------------------------
# bounding densities


def test_sandwich_case_ii(rng):
    for _ in range(60):
        p = draw_case_ii(rng)
        solution = solve_series(p)
        bounds, f = bounding_densities(solution), solution.density
        _, low, mid = refine_pair(bounds.f_low, f)
        assert np.all(low <= mid + 1e-9)
        _, mid2, high = refine_pair(f, bounds.f_high)
        assert np.all(mid2 <= high + 1e-9)
        assert bounds.which == "case-II pair f_l/f_h"


def test_sandwich_case_iii_negative_lambda(rng):
    for _ in range(40):
        p, _ = draw_case_iii_negative_lambda(rng)
        solution = solve_series(p)
        bounds, f = bounding_densities(solution), solution.density
        _, low, mid = refine_pair(bounds.f_low, f)
        assert np.all(low <= mid + 1e-9)
        _, mid2, high = refine_pair(f, bounds.f_high)
        assert np.all(mid2 <= high + 1e-9)
        assert bounds.which == "case-III pair f_l_hat/f_h_hat"


def test_positive_lambda_series_at_least_one(rng):
    # with positive Lambda every series coefficient is positive
    for _ in range(30):
        p = draw_case_iii(rng)
        solution = solve_series(p)
        if solution.lam.lam <= 0:
            continue
        assert np.min(solution.density.values) >= 1.0 - 1e-12


def _indicator_coefficients(p):
    """Coefficients of the two-sided bound representation, per estimate."""
    solution = solve_series(p)
    lam, orbit = solution.lam, solution.orbit
    rise, fall = p.s1 + p.p * p.a, p.s2 + p.q * p.a
    total = p.s1 + p.s2 + p.p * p.a + p.q * p.a
    out = []
    for est in (lam.lam_low, lam.lam_high):
        chi1 = total / (fall * rise) * est + 1.0
        chic = lam.eta * (1 - rise ** -(orbit.k1 - 1)) * est + 1.0
        chij = [total / fall**2 * est / rise ** (j - 1) for j in range(2, orbit.k1 + 1)]
        out.append((chi1, chic, chij))
    return solution, out


def test_case_ii_coefficients_negative(rng):
    # the all-negative coefficient regime is reached once a is small enough
    for _ in range(40):
        p = draw_case_ii(rng, a_cap=0.03)
        for _ in range(60):
            solution, coeffs = _indicator_coefficients(p)
            if all(
                chi1 < 0 and chic < 0 and all(c < 0 for c in chij)
                for chi1, chic, chij in coeffs
            ):
                break
            p = WParams(p.s1, p.s2, p.p, p.q, p.r, p.a * 0.5)
        else:
            pytest.fail(f"coefficients never all negative for {p}")
        # cross-check the chi_1 coefficient against the built f_high plateau
        rise, fall = p.s1 + p.p * p.a, p.s2 + p.q * p.a
        total = p.s1 + p.s2 + p.p * p.a + p.q * p.a
        bounds = bounding_densities(solution)
        orbit = solution.orbit
        plateau = bounds.f_high.value_at(orbit.point(orbit.k1) * 0.5)
        assert plateau == pytest.approx(
            total / (fall * rise) * solution.lam.lam_high + 1.0, rel=1e-9
        )


def test_g_l_sup_bound(rng):
    # |g_l| <= 1/s1 + 1/(s2*(s1-1)); read g_l off f_high
    for _ in range(40):
        p = draw_case_iii(rng)
        solution = solve_series(p)
        bounds = bounding_densities(solution)
        coeff = (1 + (p.s1 + p.p * p.a) / (p.s2 + p.q * p.a)) * solution.lam.lam_high
        g_values = (bounds.f_high.values - 1.0) / coeff
        assert np.max(np.abs(g_values)) <= 1 / p.s1 + 1 / (p.s2 * (p.s1 - 1)) + 1e-12


# ---------------------------------------------------------------------------
# region integrals


def test_region_integrals_of_h0():
    reg = region_integrals(solve_series(SMALL_LIFT).orbit, h0(2.0, 2.0))
    assert reg.b == pytest.approx(1.0, abs=1e-12)
    assert reg.c1 + reg.c2 + reg.c3 == pytest.approx(1.0, abs=1e-12)


def test_region_integrals_mass_additivity(rng):
    for _ in range(30):
        solution = solve_series(draw_case_ii(rng))
        f = solution.density
        reg = region_integrals(solution.orbit, f)
        assert reg.c1 + reg.c2 + reg.c3 == pytest.approx(f.integral(), abs=1e-12)


def test_case_ii_region_signs(rng):
    for _ in range(30):
        solution = solve_series(draw_case_ii(rng, a_cap=0.02))
        reg = region_integrals(solution.orbit, solution.density)
        assert reg.c1 < 0 and reg.c2 < 0 and reg.c3 < 0 and reg.b < 0
        assert np.min(normalize(solution.density).values) >= 0.0


def test_case_iii_region_limits():
    # strongly expanding symmetric family: region integrals settle at
    # 1.25, 0, 0.75 with total 2
    solution = solve_series(WParams(4, 4, 1, 1, 1, 1e-4))
    reg = region_integrals(solution.orbit, solution.density)
    assert reg.c1 == pytest.approx(1.25, rel=0.02)
    assert abs(reg.c2) < 0.02
    assert reg.c3 == pytest.approx(0.75, rel=0.02)
    assert reg.b == pytest.approx(2.0, rel=0.02)


# ---------------------------------------------------------------------------
# vartheta = 0 renormalization


def test_vartheta_values():
    assert vartheta(3.0, 3.0) == pytest.approx(0.0, abs=1e-12)
    assert vartheta(2.2, 2.2) == pytest.approx(-2 / 3, abs=1e-12)
    assert vartheta(4.0, 4.0) == pytest.approx(1 / 3, abs=1e-12)


def test_renormalized_plateaus():
    lefts, rights, integrals = [], [], []
    for a in (1e-2, 1e-3, 1e-4):
        g = renormalized_density_vartheta0(WParams(3, 3, 1, 1, 1, a))
        lefts.append(g.value_at(1e-9))
        rights.append(g.value_at(1 - 1e-9))
        integrals.append(g.integral())
    left_errors = [abs(v - 2 / 3) for v in lefts]
    right_errors = [abs(v - 1 / 3) for v in rights]
    assert left_errors[0] > left_errors[-1] and left_errors[-1] < 1e-3
    assert right_errors[0] > right_errors[-1] and right_errors[-1] < 1e-3
    assert all(v > 0.25 for v in integrals)  # separated from zero


def test_renormalized_invariance():
    p = WParams(3, 3, 1, 1, 1, 1e-3)
    g = renormalized_density_vartheta0(p)
    pg = transfer_operator_apply(build_w_map(p), g)
    assert l1_distance(pg, g) < 1e-9


def test_renormalized_normalization_matches_h0_trend():
    errors = []
    for a in (1e-2, 1e-3, 1e-4):
        h = normalize(renormalized_density_vartheta0(WParams(3, 3, 1, 1, 1, a)))
        errors.append(l1_distance(h, h0(3.0, 3.0)))
    assert errors[0] > errors[1] > errors[2]


def test_renormalized_preconditions():
    with pytest.raises(ParameterError, match="vartheta"):
        renormalized_density_vartheta0(WParams(4, 4, 1, 1, 1, 0.01))
    with pytest.raises(ParameterError):
        renormalized_density_vartheta0(WParams(2.0, 2.0, 1, 1, 1, 0.01))


def test_normalize_case_iii_bound_toward_h0():
    errors = []
    for a in (0.05, 0.01, 0.001):
        bounds = bounding_densities(solve_series(WParams(4, 4, 1, 1, 1, a)))
        errors.append(l1_distance(normalize(bounds.f_high), h0(4.0, 4.0)))
    assert errors[0] > errors[1] > errors[2]
