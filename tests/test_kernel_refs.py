"""The series sweep's array kernels, pinned bit for bit against reference
formulations.

Each reference below is the straightforward numpy formulation a kernel had
before it was rewritten to make fewer small-array calls.  The rewritten
kernels must give the same bytes (``tobytes``) or the same ``float.hex``,
and raise the same error with the same text, on every input, edge cases
included: merge clusters, endpoints outside the domain, terms with no live
cell, atoms, and densities that do not cover [0, 1].
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acimlab.density as density
from acimlab.density import (
    DEFAULT_TAIL_TOL,
    MAX_SERIES_TERMS,
    MERGE_TOL,
    SERIES_CUTOFF,
    PiecewiseConstantDensity,
    _accumulate,
    _lambda_system,
    region_integrals,
    solve_series,
)
from acimlab.errors import ComputationError, ParameterError
from acimlab.ulam import MeasureRepr, limit_measure, wasserstein1
from acimlab.wmap import WParams, build_w_map
from conftest import valid_a_max

# ---------------------------------------------------------------------------
# reference formulations


def reference_accumulate(lo, hi, w, base, domain):
    d0, d1 = domain
    ends = np.minimum(np.maximum(np.column_stack((lo, hi)).ravel(), d0), d1)
    pts = np.sort(np.concatenate(([d0, d1], ends)))
    keep = np.empty(pts.size, dtype=bool)
    keep[0] = True
    np.greater(np.diff(pts), MERGE_TOL, out=keep[1:])
    bp = pts[keep]
    if bp[-1] < d1:
        bp[-1] = d1
    n_cells = bp.size - 1
    if n_cells < 1:
        raise ParameterError("degenerate domain")
    cells = (np.searchsorted(bp, ends, side="right") - 1).reshape(-1, 2)
    live = cells[:, 1] > cells[:, 0]
    jumps = np.outer(w[live], (1.0, -1.0)).ravel()
    delta = np.bincount(cells[live].ravel(), weights=jumps, minlength=n_cells + 1)
    return bp, base + np.cumsum(delta[:-1])


def reference_integral_over(f, lo, hi):
    left = np.maximum(f.breakpoints[:-1], lo)
    right = np.minimum(f.breakpoints[1:], hi)
    return float(f.values @ np.maximum(right - left, 0.0))


def reference_total_mass(m):
    mass = float(m.density.values @ m.density.widths) if m.density is not None else 0.0
    return mass + sum(w for _, w in m.atoms)


def reference_cumulative(m, points):
    out = np.zeros(points.size)
    if m.density is not None:
        bp, values = m.density.breakpoints, m.density.values
        prefix = np.concatenate(([0.0], (values * m.density.widths).cumsum()))
        idx = bp[1:-1].searchsorted(points, side="right")
        out += prefix[idx] + values[idx] * (points - bp[idx])
        out[points < bp[0]] = 0.0
        out[points >= bp[-1]] = prefix[-1]
    for loc, weight in m.atoms:
        out[points >= loc] += weight
    return out


def reference_density_on(m, grid, mids):
    if m.density is None:
        return 0.0
    values = m.density.value_at(mids)
    lo, hi = m.density.domain
    if lo > 0.0 or hi < 1.0:
        values[(grid[:-1] < lo) | (grid[1:] > hi)] = 0.0
    return values


def reference_wasserstein1(mu, nu):
    for name, m in (("mu", mu), ("nu", nu)):
        mass = reference_total_mass(m)
        if abs(mass - 1.0) > 1e-12:
            raise ParameterError(
                f"wasserstein1 requires probability measures ({name} has mass {mass})"
            )
    parts = [(0.0, 1.0)]
    for m in (mu, nu):
        if m.density is not None:
            parts.append(m.density.breakpoints)
        parts.append([loc for loc, _ in m.atoms])
    points = np.concatenate(parts)
    points.sort(kind="stable")
    keep = (points >= 0.0) & (points <= 1.0)
    keep[1:] &= points[1:] != points[:-1]
    grid = points[keep]
    mids = 0.5 * (grid[:-1] + grid[1:])
    seg_w = grid[1:] - grid[:-1]
    left = (reference_cumulative(mu, grid) - reference_cumulative(nu, grid))[:-1]
    right = left + (reference_density_on(mu, grid, mids) - reference_density_on(nu, grid, mids)) * seg_w
    total = np.where(
        left * right >= 0,
        0.5 * (np.abs(left) + np.abs(right)) * seg_w,
        0.5 * (left * left + right * right) / np.maximum(np.abs(right - left), 1e-300) * seg_w,
    )
    return float(total.sum())


def reference_solve_series(params, tail_tol=DEFAULT_TAIL_TOL):
    """One walk with the three stopping rules tested step by step in Python,
    the 2x2 cross-check by np.linalg.solve and the reference accumulation.

    Returns the orbit, the LambdaData fields and the density's arrays.
    """
    density._require_series_case(params)
    if not (math.isfinite(tail_tol) and tail_tol > 0):
        raise ParameterError(f"tail_tol must be finite and > 0 (got {tail_tol!r})")
    s1, s2, p, q, a = params.s1, params.s2, params.p, params.q, params.a
    pl_map = build_w_map(params)
    gap = pl_map.min_abs_slope - 1.0
    threshold = pl_map.breakpoints[1]
    ratio_12 = -(s2 + q * a) / (s1 + p * a)
    steps = density._orbit_steps(pl_map)
    zs, cums = [], []
    n = k = 0
    s11 = s22 = 0.0
    for z, cum in steps:
        zs.append(z)
        cums.append(cum)
        n += 1
        if not k and z <= threshold:
            k = n
        if (cum > 0 and z > 0.5) or (cum < 0 and z < 0.5):
            s11 += 1.0 / abs(cum)
        cum2 = cum * ratio_12
        if (cum2 < 0 and z > 0.5) or (cum2 > 0 and z < 0.5):
            s22 += 1.0 / abs(cum2)
        if 1.0 / (abs(cum) * gap) < SERIES_CUTOFF:
            break
        if n >= MAX_SERIES_TERMS:
            raise ComputationError("S-series did not meet the cutoff", steps=n)
    n_terms = n
    denominator = 1.0 - (s11 + s22)
    if abs(denominator) < 1e-14:
        raise ComputationError("Lambda is numerically singular (1 - S11 - S22 ~ 0)")
    lam = 1.0 / denominator
    d1, d2 = np.linalg.solve(np.array([[1.0 - s11, -s22], [-s11, 1.0 - s22]]), np.ones(2))
    assert abs(d1 - lam) <= 1e-6 * abs(lam) and abs(d2 - lam) <= 1e-6 * abs(lam)
    closed_form_k = density._closed_form_k(params, threshold)
    limit = 2 * closed_form_k
    while not k and n < limit:
        z, cum = next(steps)
        zs.append(z)
        cums.append(cum)
        n += 1
        if z <= threshold:
            k = n
    if not 0 < k <= limit:
        raise ComputationError(
            f"turning orbit did not exit the rising branch within 2 * closed_form_k "
            f"= {limit} steps: its offset from the fixed point is lost to "
            f"float64 rounding, so a = {params.a!r} is below the precision floor"
        )
    k1 = (2 * k) // 3
    kappa = (s1 + s2 + p * a + q * a) / ((s1 + p * a) * (s2 + q * a))
    eta = (s1 + s2 + p * a + q * a) / ((s2 + q * a) ** 2 * (s1 + p * a - 1))
    lam_fields = (
        s11, s22, lam,
        1.0 / (1.0 - (kappa + eta * (1.0 - (s1 + p * a) ** -(k1 - 1)))),
        1.0 / (1.0 - (kappa + eta)),
        kappa, eta, density.vartheta(s1, s2), n_terms,
    )  # fmt: skip
    coeff = density._series_prefactor(params) * lam
    n_density = 0
    while True:
        if n_density == n:
            z, cum = next(steps)
            zs.append(z)
            cums.append(cum)
            n += 1
        n_density += 1
        if abs(coeff) / (abs(cums[n_density - 1]) * gap) < tail_tol:
            break
        if n_density >= MAX_SERIES_TERMS:
            raise ComputationError("density series did not converge", steps=n_density)
    z = np.array(zs[:n_density])
    cum = np.array(cums[:n_density])
    rising = cum > 0
    bp, values = reference_accumulate(
        np.where(rising, 0.0, z), np.where(rising, z, 1.0), coeff / np.abs(cum), 1.0, (0.0, 1.0)
    )
    orbit = (np.array(zs[:k]), np.array(cums[:k]), k, k1, closed_form_k, threshold)
    return orbit, lam_fields, (bp, values)


# ---------------------------------------------------------------------------
# comparison helpers


def exact(value):
    """A comparable form that tells every bit apart: bytes for arrays, hex
    for floats, type and text for exceptions."""
    if isinstance(value, BaseException):
        return type(value), str(value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(exact(v) for v in value)
    return value


def outcome(fn, *args):
    try:
        return exact(fn(*args))
    except (ParameterError, ComputationError) as exc:
        return exact(exc)


# ---------------------------------------------------------------------------
# _accumulate


DOMAINS = [(0.0, 1.0), (-0.5, 2.0), (0.25, 0.75), (1.0, 3.5), (0.0, 1e-3)]


@st.composite
def accumulate_inputs(draw):
    """Terms whose ends sit on the domain's ends or outside it, in clusters
    narrower than MERGE_TOL, one ulp off a point, or anywhere inside; some of
    zero width or reversed, and sometimes none at all."""
    d0, d1 = draw(st.sampled_from(DOMAINS))
    base = draw(st.sampled_from([0.0, 1.0, -0.0]) | st.floats(-10.0, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_terms = int(rng.integers(0, 25))
    span = d1 - d0
    centers = np.concatenate(
        ([d0, d1, d0 - 0.25 * span, d1 + 0.25 * span], d0 + span * rng.random(rng.integers(1, 5)))
    )
    ends = centers[rng.integers(0, centers.size, 2 * n_terms)]
    kind = rng.integers(0, 4, ends.size)  # exact, cluster, one ulp off, anywhere
    ends[kind == 1] += rng.integers(-3, 4, np.count_nonzero(kind == 1)) * 0.3 * MERGE_TOL
    toward = rng.choice([-np.inf, np.inf], np.count_nonzero(kind == 2))
    ends[kind == 2] = np.nextafter(ends[kind == 2], toward)
    ends[kind == 3] = d0 - 0.1 * span + 1.2 * span * rng.random(np.count_nonzero(kind == 3))
    lo, hi = ends[0::2].copy(), ends[1::2].copy()
    shape = rng.integers(0, 4, n_terms)  # interval (twice as likely), zero width, reversed
    lo[shape < 2], hi[shape < 2] = np.minimum(lo, hi)[shape < 2], np.maximum(lo, hi)[shape < 2]
    hi[shape == 2] = lo[shape == 2]
    w = rng.uniform(-1.0, 1.0, n_terms) * 10.0 ** rng.uniform(-12, 6, n_terms)
    w[rng.random(n_terms) < 0.1] = rng.choice([0.0, -0.0])
    return lo, hi, w, base, (d0, d1)


def run_accumulate(lo, hi, w, base, domain):
    f = _accumulate(lo, hi, w, base, domain)
    return f.breakpoints, f.values


@settings(max_examples=400, deadline=None)
@given(args=accumulate_inputs())
def test_accumulate_matches_reference(args):
    assert outcome(run_accumulate, *args) == outcome(reference_accumulate, *args)


def test_accumulate_edge_cases_match_reference():
    one = np.array([0.5])
    cases = [
        (np.empty(0), np.empty(0), np.empty(0), 1.0, (0.0, 1.0)),  # no term
        (one, one, np.array([2.0]), 1.0, (0.0, 1.0)),  # no live term: int64 slots
        (np.array([0.2]), np.array([0.2 + 0.5 * MERGE_TOL]), one, 0.0, (0.0, 1.0)),
        (np.array([-1.0]), np.array([2.0]), one, 0.0, (0.0, 1.0)),  # covers the domain
        (np.array([0.1, 0.1]), np.array([0.9, 0.9]), np.array([0.1, 0.2]), 0.0, (0.0, 1.0)),
        (one, one, one, 0.0, (0.5, 0.5)),  # degenerate domain
    ]
    for args in cases:
        assert outcome(run_accumulate, *args) == outcome(reference_accumulate, *args)
    _, values = run_accumulate(*cases[1])
    assert values.dtype == np.float64


# ---------------------------------------------------------------------------
# measures: cumulative and wasserstein1


@st.composite
def measures(draw, probability=True):
    """A density on a domain that may or may not cover [0, 1] (or reach past
    it), and up to three atoms; with probability, a total mass of 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    has_density = draw(st.booleans())
    atoms = draw(st.integers(0 if has_density else 1, 3))
    locations = [draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(-0.2, 1.2)) for _ in range(atoms)]
    share = draw(st.floats(0.05, 0.95)) if has_density and atoms else float(has_density)
    dens = None
    if has_density:
        lo, hi = draw(st.sampled_from([(0.0, 1.0), (0.0, 0.5), (0.25, 0.75), (-0.5, 1.5), (0.3, 1.0)]))
        inner = rng.uniform(lo, hi, draw(st.integers(0, 20)))
        inner = np.concatenate((inner, [0.5] * draw(st.integers(0, 1))))
        bp = np.unique(np.concatenate(([lo, hi], inner)))
        values = rng.uniform(0.0, 2.0, bp.size - 1) * (rng.random(bp.size - 1) < 0.9)
        if not values.any():
            values[0] = 1.0
        if probability:
            values *= share / (values @ np.diff(bp))
        else:
            values -= 1.0
        dens = PiecewiseConstantDensity(bp, values)
    weights = rng.dirichlet(np.ones(atoms)) * (1.0 - share) if atoms else []
    if not probability:
        weights = rng.uniform(-1.0, 1.0, atoms)
    return MeasureRepr(density=dens, atoms=tuple(zip(locations, map(float, weights))))


@st.composite
def sorted_points(draw, m):
    """Sorted points left of, on and right of the density, on and next to atoms."""
    anchors = [-1.0, 0.0, 0.5, 1.0, 2.0] + [loc for loc, _ in m.atoms]
    if m.density is not None:
        anchors += list(m.density.breakpoints)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = np.array(anchors)[rng.integers(0, len(anchors), draw(st.integers(1, 30)))]
    kind = rng.integers(0, 4, points.size)  # on an anchor, one ulp either side, anywhere
    points[kind == 1] = np.nextafter(points[kind == 1], -np.inf)
    points[kind == 2] = np.nextafter(points[kind == 2], np.inf)
    points[kind == 3] = rng.uniform(-1.0, 2.0, np.count_nonzero(kind == 3))
    return np.sort(points)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cumulative_matches_reference(data):
    m = data.draw(measures(probability=data.draw(st.booleans())))
    points = data.draw(sorted_points(m))
    assert exact(m.cumulative(points)) == exact(reference_cumulative(m, points))


@st.composite
def measure_pairs(draw):
    mu = draw(measures())
    kind = draw(st.sampled_from(["independent", "same", "same density"]))
    if kind == "same":  # the CDFs agree: every segment has left * right == 0
        return mu, mu
    if kind == "same density" and mu.density is not None:
        return mu, MeasureRepr(density=mu.density, atoms=draw(measures()).atoms)
    return mu, draw(measures())


@settings(max_examples=400, deadline=None)
@given(pair=measure_pairs())
def test_wasserstein1_matches_reference(pair):
    assert outcome(wasserstein1, *pair) == outcome(reference_wasserstein1, *pair)


def test_wasserstein1_of_series_points_matches_reference():
    for fam in ((1.5, 3.0, 3.0, 2.0, 2.0), (2.0, 2.0, 1.0, 1.0, 1.0), (3.0, 5.0, 0.5, 2.0, 1.5)):
        limit = limit_measure(*fam)
        for a in (1e-2, 1e-4, 1e-6):
            h = density.normalize(solve_series(WParams(*fam, a)).density)
            mu = MeasureRepr(density=h)
            assert exact(wasserstein1(mu, limit)) == exact(reference_wasserstein1(mu, limit))


# ---------------------------------------------------------------------------
# the series solution: sums, stopping rules, region integrals, 2x2 system


@st.composite
def series_params(draw):
    """Case II and III maps from a = 1e-1 down past the precision floor."""
    if draw(st.booleans()):
        s1 = draw(st.floats(1.2, 2.0))
        s2 = s1 / (s1 - 1)
    else:
        s1 = draw(st.floats(2.05, 3.5))
        s2 = draw(st.floats(s1, 5.0))
    p, q, r = (draw(st.floats(0.3, 3.0)) for _ in range(3))
    cap = min(valid_a_max(s1, s2, p, q, r), 0.45 / (r * (s2 + q * 0.1 - 1)), 0.1)
    a = min(10.0 ** draw(st.floats(-9.5, -1.0)), 0.6 * cap)
    return WParams(s1, s2, p, q, r, a)


def run_solve_series(params):
    sol = solve_series(params)
    o, lam, f = sol.orbit, sol.lam, sol.density
    orbit = (o.orbit, o.cum_slopes, o.k, o.k1, o.closed_form_k, o.threshold)
    lam_fields = (
        lam.s11, lam.s22, lam.lam, lam.lam_low, lam.lam_high,
        lam.kappa, lam.eta, lam.vartheta, lam.n_terms,
    )  # fmt: skip
    return orbit, lam_fields, (f.breakpoints, f.values)


@settings(max_examples=150, deadline=None)
@given(params=series_params())
def test_solve_series_matches_reference(params):
    assert outcome(run_solve_series, params) == outcome(reference_solve_series, params)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_region_integrals_match_integral_over(data):
    params = data.draw(series_params())
    try:
        sol = solve_series(params)
    except ComputationError:
        return
    f = sol.density
    if data.draw(st.booleans()):  # a density that does not cover [0, 1]
        f = PiecewiseConstantDensity(f.breakpoints * 0.5 + 0.25, f.values)
    reg = region_integrals(sol.orbit, f)
    t1, t2 = sol.orbit.point(sol.orbit.k1), sol.orbit.point(1)
    want = [reference_integral_over(f, lo, hi) for lo, hi in ((0.0, t1), (t1, t2), (t2, 1.0))]
    assert exact([reg.c1, reg.c2, reg.c3]) == exact(want)


@settings(max_examples=300, deadline=None)
@given(s11=st.floats(0.0, 2.0), s22=st.floats(0.0, 2.0))
def test_lambda_system_closed_form_matches_a_linear_solve(s11, s22):
    if abs(1.0 - s11 - s22) < 1e-2:  # ill-conditioned: the two solves part further
        return
    solved = np.linalg.solve(np.array([[1.0 - s11, -s22], [-s11, 1.0 - s22]]), np.ones(2))
    for got, want in zip(_lambda_system(s11, s22), solved):
        assert got == pytest.approx(want, rel=1e-12)


def test_lambda_system_singular_gives_no_lambda():
    assert _lambda_system(0.5, 0.5) == (math.inf, math.inf)
