"""Explicit invariant-density machinery for the W-map family.

For 1/s1 + 1/s2 <= 1 and a > 0 the non-normalized invariant density of a
W map is

    f = 1 + (1 + (s1+pa)/(s2+qa)) * Lambda * sum_n chi(B_n, z_n) / |B_n|

where z_n is the orbit of the turning point 1/2, B_n the cumulative slope
along that orbit (first factor taken on the rising branch 2 by convention),
chi(t, x) the indicator of [0, x] for t > 0 and of [x, 1] for t < 0, and
Lambda solves a 2x2 linear system whose coefficients are the series
S11, S22 of selected reciprocal cumulative slopes.

The orbit stays on branch 2 and decreases geometrically until some stopping
index k, after which it is continued numerically; all series are truncated
once a geometric tail bound (ratio 1/min|slope|) drops below the requested
tolerance.  Everything here is piecewise constant, so integrals, distances
and the transfer operator can be evaluated exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ComputationError, ParameterError
from .wmap import PiecewiseLinearMap, WParams, _rising_fixed_point, build_w_map, classify_case

MERGE_TOL = 1e-14  # breakpoints closer than this are treated as one point
SERIES_CUTOFF = 1e-12  # truncation of the S-series behind Lambda
DEFAULT_TAIL_TOL = 1e-10
MAX_SERIES_TERMS = 1_000_000


# ---------------------------------------------------------------------------
# piecewise-constant functions


@dataclass(frozen=True)
class PiecewiseConstantDensity:
    """A piecewise-constant function on an interval, cell values per cell.

    ``breakpoints`` has one more entry than ``values`` and is strictly
    increasing.  Instances represent densities (nonnegative, usually on
    [0, 1]) as well as signed intermediates such as the raw series output,
    which is negative-valued in case II before normalization.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or vals.ndim != 1 or bp.size != vals.size + 1:
            raise ParameterError("need n+1 breakpoints for n cell values")
        if not (np.isfinite(bp).all() and np.isfinite(vals).all()):
            raise ParameterError("breakpoints and values must be finite")
        if not np.all(np.diff(bp) > 0):
            raise ParameterError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _trusted(cls, breakpoints: np.ndarray, values: np.ndarray) -> "PiecewiseConstantDensity":
        """An instance over float arrays its caller has built valid, unchecked."""
        f = object.__new__(cls)
        object.__setattr__(f, "breakpoints", breakpoints)
        object.__setattr__(f, "values", values)
        return f

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    @property
    def widths(self) -> np.ndarray:
        bp = self.breakpoints
        return bp[1:] - bp[:-1]

    def integral(self) -> float:
        return float(self.values.dot(self.widths))

    def integral_over(self, lo: float, hi: float) -> float:
        """Exact integral over [lo, hi] (clipped to the domain)."""
        if hi < lo:
            raise ParameterError("integral_over needs lo <= hi")
        left = np.maximum(self.breakpoints[:-1], lo)
        right = np.minimum(self.breakpoints[1:], hi)
        overlap = np.maximum(right - left, 0.0)
        return float(self.values.dot(overlap))

    def value_at(self, x) -> np.ndarray | float:
        """Cell value at x; at a breakpoint, the cell on the right.

        Points left (right) of the domain get the first (last) cell's value.
        """
        out = self.values[self.breakpoints[1:-1].searchsorted(x, side="right")]
        return float(out) if np.isscalar(x) else out

    def scale(self, c: float) -> "PiecewiseConstantDensity":
        values = np.asarray(self.values * c, dtype=float)
        return PiecewiseConstantDensity._trusted(self.breakpoints.copy(), values)

    def sup(self) -> float:
        return float(self.values.max())

    def essential_infimum(self) -> float:
        """Smallest cell value over the support (cells with positive value)."""
        positive = self.values[self.values > 0]
        return float(positive.min()) if positive.size else 0.0

    def embedded(self) -> "PiecewiseConstantDensity":
        """The same function extended by zero cells to cover [0, 1]."""
        bp, vals = self.breakpoints, self.values
        if bp[0] > 0.0:
            bp, vals = np.concatenate(([0.0], bp)), np.concatenate(([0.0], vals))
        if bp[-1] < 1.0:
            bp, vals = np.concatenate((bp, [1.0])), np.concatenate((vals, [0.0]))
        return PiecewiseConstantDensity(bp, vals)


def _distinct(points: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """The sorted, finite points without each point within tol of its
    predecessor: runs of nearly identical points keep their first.  With
    tol = 0 that drops exact repeats, since b - a > 0 exactly when b != a."""
    keep = np.empty(points.size, dtype=bool)
    keep[0] = True
    np.greater(points[1:] - points[:-1], tol, out=keep[1:])
    return points[keep]


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The dot product of two vectors, added in an order of its own: BLAS's
    threaded dot splits long vectors among its threads, so its sum depends on
    the thread count."""
    return float(np.einsum("i,i->", a, b))


def _accumulate(
    lo: np.ndarray,
    hi: np.ndarray,
    w: np.ndarray,
    base: float,
    domain: tuple[float, float],
) -> PiecewiseConstantDensity:
    """Build base + sum_t w[t] * chi_[lo[t], hi[t]] from parallel arrays.

    Endpoints are clipped to the domain and endpoints closer than MERGE_TOL
    are merged before cells are formed, so near-coincident orbit points
    cannot create zero-width cells.  Each endpoint snaps to the first
    (smallest) point of its merge cluster.  A term whose ends share a cell
    is dropped.

    The cell values are a running sum, not a term-by-term sum per cell.
    Each breakpoint gets a jump: the +w of the terms that start there and
    the -w of the terms that end there, added in term order.  Cell i is
    base plus the running sum (cumsum) of the jumps at breakpoints 0..i,
    so its rounding depends on every jump to its left.  In case II the
    smallest cells are 1 minus jumps that nearly cancel it, of order a, so
    that rounding grows like eps/a relative to the cell: against a
    term-by-term sum it reaches 6.7e-10 at a = 1e-6 for
    (s1, s2, p, q, r) = (1.5, 3, 3, 2, 2).
    """
    d0, d1 = domain
    ends = np.empty(2 * lo.size)
    ends[0::2] = lo  # (lo, hi) pairs interleaved in term order
    ends[1::2] = hi
    np.maximum(ends, d0, out=ends)
    np.minimum(ends, d1, out=ends)
    pts = np.empty(ends.size + 2)
    pts[0], pts[1] = d0, d1
    pts[2:] = ends
    pts.sort()
    bp = _distinct(pts, MERGE_TOL)
    if bp[-1] < d1:
        bp[-1] = d1
    n_cells = bp.size - 1
    if n_cells < 1:
        raise ParameterError("degenerate domain")
    # slot s holds the jumps at bp[s - 1], where cell s - 1 starts; slot 0
    # stays empty, and slot n_cells + 1, at d1, starts no cell
    slots = bp.searchsorted(ends, side="right").reshape(-1, 2)
    live = (slots[:, 1] > slots[:, 0]).nonzero()[0]
    # each live term's (i, j) and (+w, -w) stay interleaved in term order, and
    # bincount adds in input order, so each slot sums its jumps in term order
    w_live = w.take(live)
    jumps = np.empty(2 * live.size)
    jumps[0::2] = w_live
    np.negative(w_live, out=jumps[1::2])
    delta = np.bincount(slots.take(live, axis=0).ravel(), weights=jumps, minlength=n_cells + 2)
    # with no live term bincount returns int64, so add base out of place
    values = base + delta[1:-1].cumsum()
    # merged, clipped and sorted, bp is strictly increasing by construction
    return PiecewiseConstantDensity._trusted(bp, values)


def refine_pair(f: PiecewiseConstantDensity, g: PiecewiseConstantDensity):
    """(grid, f values, g values) on the common refinement of two functions.

    The grid holds every breakpoint of either function once, and each
    function is 0 on the cells outside its own breakpoints.  A cell's value
    is the function's value at the cell's midpoint.
    """
    fb, gb = f.breakpoints, g.breakpoints
    both = np.concatenate((fb, gb))
    order = both.argsort(kind="stable")  # merges the two sorted runs
    pts = both[order]
    last = np.empty(pts.size, dtype=bool)
    np.not_equal(pts[1:], pts[:-1], out=last[:-1])
    last[-1] = True
    at = np.flatnonzero(last)
    bp = pts[at]
    # how many breakpoints of f, and of g, lie at or left of each grid point
    f_count = np.cumsum(order < fb.size)[at]
    g_count = at + 1 - f_count
    mids = 0.5 * (bp[:-1] + bp[1:])
    onto_right = np.flatnonzero(mids >= bp[1:])  # midpoints of adjacent doubles
    return bp, _cell_values(f, f_count, onto_right), _cell_values(g, g_count, onto_right)


def _cell_values(f: PiecewiseConstantDensity, count: np.ndarray, onto_right: np.ndarray) -> np.ndarray:
    """f on the cells of a refined grid, from the count of f's breakpoints at
    or left of each grid point; 0 outside f's breakpoints.

    Cell j takes f's cell that holds its midpoint, which is the one right of
    f's count[j]-th breakpoint; where the midpoint has rounded onto the
    cell's right end and the cell lies in f's domain, the count there
    decides, as a lookup at the midpoint would.
    """
    n = f.breakpoints.size
    padded = np.concatenate(([0.0], f.values, [0.0]))
    index = count[:-1]
    if onto_right.size:
        index = index.copy()
        inside = onto_right[(index[onto_right] > 0) & (index[onto_right] < n)]
        index[inside] = np.minimum(count[inside + 1], n - 1)
    return padded[index]


def l1_distance(f: PiecewiseConstantDensity, g: PiecewiseConstantDensity) -> float:
    """Exact L1 distance on the common refinement grid; each function is 0
    outside its own breakpoints.

    The cells inside both domains are summed first and the rest added after,
    so functions that vanish outside their common domain get the sum over
    that domain alone, rounding included.
    """
    bp, fv, gv = refine_pair(f, g)
    gap = np.abs(fv - gv)
    widths = np.diff(bp)
    i0 = bp.searchsorted(max(f.breakpoints[0], g.breakpoints[0]))
    i1 = max(bp.searchsorted(min(f.breakpoints[-1], g.breakpoints[-1])), i0)  # i0 if disjoint
    common = _dot(gap[i0:i1], widths[i0:i1])
    return common + _dot(gap[:i0], widths[:i0]) + _dot(gap[i1:], widths[i1:])


def normalize(f: PiecewiseConstantDensity) -> PiecewiseConstantDensity:
    """Divide by the total integral so the result has integral 1.

    The raw series output can carry tiny negative cell values after division;
    those are clamped to 0.  A value below -1e-9 is no rounding residue (a
    series truncated by a loose tail_tol, say) and raises ComputationError.
    """
    total = f.integral()
    if abs(total) < 1e-300:
        raise ComputationError(
            "degenerate normalization: integral is numerically zero",
            integral=total,
        )
    values = f.values / total
    worst = values.min()
    if worst < -1e-9:
        raise ComputationError(
            f"normalized density has a cell at {worst:.3e} < -1e-9, beyond "
            f"rounding: not a density (a loose tail_tol truncates the series early)",
            worst=float(worst),
        )
    np.maximum(values, 0.0, out=values)
    return PiecewiseConstantDensity._trusted(f.breakpoints.copy(), values)


def h0(s1: float, s2: float) -> PiecewiseConstantDensity:
    """Invariant density of the unperturbed map: two cells split at 1/2."""
    if classify_case(s1, s2) == "I":
        raise ParameterError("h0 requires 1/s1 + 1/s2 <= 1")
    denom = 2 * s1 * s2 + s1 - s2
    left = 2 * s1 * (s2 + 1) / denom
    right = 2 * s2 * (s1 - 1) / denom
    return PiecewiseConstantDensity._trusted(
        np.array([0.0, 0.5, 1.0]), np.array([left, right], dtype=float)
    )


def _case_ii_sums(s1, s2, p, q, r) -> tuple[float, float, float, float]:
    """(theta, num, atom, den) behind the case-II limit as a -> 0.

    theta = q*s1 + p*s2 - p - q; the limit measure puts num/den on h0 and
    atom/den on the atom at 1/2, with num = theta*(s2 + 2),
    atom = 2*r*s1*s2^2 and den = num + atom, and the raw series density's
    mass B tends to -a * den / (2*s1*s2).  theta also sets the offset of the
    turning orbit from the rising branch's fixed point in every case.
    """
    theta = q * s1 + p * s2 - p - q
    num = theta * (s2 + 2)
    atom = 2 * r * s1 * s2 * s2
    return theta, num, atom, num + atom


# ---------------------------------------------------------------------------
# turning-point orbit


@dataclass(frozen=True)
class TurningOrbit:
    """Orbit of the turning point and its cumulative slopes up to exit.

    ``orbit[i]`` is W^(i+1)(1/2) and ``cum_slopes[i]`` the cumulative slope
    over the first i+1 steps, with the first factor s1 + p*a taken on the
    rising branch.  ``k``, the first index whose orbit point drops to or
    below the left breakpoint of the rising branch, comes from the orbit's
    closed form, and the walk is checked against it; ``closed_form_k`` is
    the same index.  ``k1 = floor(2k/3)``.
    """

    orbit: np.ndarray
    cum_slopes: np.ndarray
    k: int
    k1: int
    closed_form_k: int
    threshold: float

    def point(self, n: int) -> float:
        """W^n(1/2) for 1 <= n <= k."""
        return float(self.orbit[n - 1])


def _orbit_steps(pl_map: PiecewiseLinearMap):
    """Yield (z_n, B_n) for n = 1, 2, ...: z_n = W^n(1/2), B_n the cumulative slope.

    The first slope factor is the rising-branch slope (two-sided convention
    at the turning point); afterwards the branch actually containing the
    current point decides each factor.
    """
    slopes = pl_map.slopes
    z = pl_map(0.5)
    cum = slopes[1]
    yield z, cum
    for i, z in pl_map.steps(z):
        cum *= slopes[i]
        yield z, cum


def _require_series_case(params: WParams) -> str:
    """The case, "II" or "III", of parameters inside the regime the series
    route is built for; a ParameterError outside it.

    Besides 1/s1 + 1/s2 <= 1 and a > 0, the lifted turning value 1/2 + r*a
    must land on the falling branch 3, i.e. r*a*(s2 + q*a - 1) < 1/2;
    beyond that it lands on branch 4, the orbit's closed form no longer
    holds, and k, the Lambda estimates and the region integrals lose their
    meaning.
    """
    case = classify_case(params.s1, params.s2)
    if case == "I":
        raise ParameterError("the series route requires 1/s1 + 1/s2 <= 1 (got case I)")
    if not params.a > 0:
        raise ParameterError("the series route requires a > 0")
    lift_excess = params.r * params.a * (params.s2 + params.q * params.a - 1)
    if not lift_excess < 0.5:
        raise ParameterError(
            "the series route requires r*a*(s2 + q*a - 1) < 1/2, so that the "
            f"lifted turning value lands on the falling branch (got {lift_excess!r})"
        )
    return case


def _closed_form_offset(params: WParams) -> tuple[float, float, float]:
    """(x_l, D, beta2) with W^m(1/2) = x_l - D * beta2^(m-2) for 2 <= m <= k."""
    s1, s2, p, q, r, a = params.s1, params.s2, params.p, params.q, params.r, params.a
    beta2 = s1 + p * a
    x_l = _rising_fixed_point(params)
    theta = _case_ii_sums(s1, s2, p, q, r)[0]
    if classify_case(s1, s2) == "II":
        dist = a * a * (r * theta + r * p * q * a) / (beta2 - 1)
    else:
        dist = a * r * (s1 * s2 - s1 - s2 + a * (theta + p * q * a)) / (beta2 - 1)
    return x_l, dist, beta2


def _closed_form_k(params: WParams, threshold: float) -> int:
    """Smallest m with closed-form W^m(1/2) <= threshold."""
    x_l, offset, beta2 = _closed_form_offset(params)

    def point(m):
        return x_l - offset * beta2 ** (m - 2)

    z2 = point(2)
    if z2 <= threshold:
        return 2
    dist = x_l - z2
    if not dist > 0:
        raise ComputationError(
            f"closed-form stopping index: x_l - W^2(1/2) = {dist!r} has cancelled "
            f"in float64; the offset of the turning orbit from the fixed point "
            f"must exceed the float64 spacing at x_l ({math.ulp(x_l):.1e}), so "
            f"a = {params.a!r} is below the precision floor",
            dist=dist,
        )
    # z_m <= threshold  iff  dist * beta2^(m-2) >= x_l - threshold
    guess = 2 + math.ceil(math.log((x_l - threshold) / dist) / math.log(beta2))
    m = max(2, guess - 3)
    while point(m) > threshold:
        m += 1
    while m > 2 and point(m - 1) <= threshold:
        m -= 1
    return m


# ---------------------------------------------------------------------------
# the series solution: orbit, Lambda and density from one walk


@dataclass(frozen=True)
class LambdaData:
    """Series sums, the solved coefficient and its two-sided estimates."""

    s11: float
    s22: float
    lam: float
    lam_low: float
    lam_high: float
    kappa: float
    eta: float
    vartheta: float
    n_terms: int


def vartheta(s1: float, s2: float) -> float:
    """Sign indicator for Lambda in the strongly expanding regime."""
    return 1.0 - ((s1 + s2) / (s1 * s2) + (s1 + s2) / (s2 * s2 * (s1 - 1)))


@dataclass(frozen=True)
class SeriesSolution:
    """The turning orbit, Lambda and the raw (non-normalized) series density
    of one map, all taken from a single walk of the turning orbit."""

    params: WParams
    orbit: TurningOrbit
    lam: LambdaData
    density: PiecewiseConstantDensity


def _lambda_system(s11: float, s22: float) -> tuple[float, float]:
    """(d1, d2) solving the 2x2 system (-S^T + Id) D^T = [1, 1]^T by Cramer's
    rule; both are 1/(1 - S11 - S22) in exact arithmetic.  A system whose
    determinant rounds to 0 gives infinities, which no Lambda matches."""
    det = (1.0 - s11) * (1.0 - s22) - s11 * s22
    if det == 0.0:
        return math.inf, math.inf
    return ((1.0 - s22) + s22) / det, ((1.0 - s11) + s11) / det


def solve_series(params: WParams, tail_tol: float = DEFAULT_TAIL_TOL) -> SeriesSolution:
    """Walk the turning orbit once and derive k, Lambda and the series density.

    k, the first step at or below the left breakpoint of the rising branch,
    comes from the orbit's closed form.  One loop takes the steps, records
    each once, and tests two stopping rules as it goes; it ends at the
    first step where both are met and the walk has reached k:

    * S11 counts steps whose cumulative slope sign matches the side of 1/2
      the orbit point falls on; S22 uses the opposite pairing with the
      cumulative slope started on the falling branch.  Both grow term by
      term as the walk takes its steps, and stop once their geometric tail
      bound drops below SERIES_CUTOFF.  Lambda = 1/(1 - S11 - S22) is
      cross-checked against the 2x2 system, and lam_low, lam_high bound the
      series by geometric sums cut at k1.
    * The density adds, per step, an indicator of [0, z_n] (positive
      cumulative slope) or [z_n, 1] (negative) weighted by the reciprocal
      cumulative slope, until the remaining mass, prefactor and Lambda
      included, is below tail_tol; the exact transfer operator then
      reproduces it to within twice that truncation.  This rule needs
      Lambda, so the loop tests it from the step that fixes Lambda on, and
      a binary search over the recorded steps finds where it stopped.

    After the loop the walk must reach the threshold first at step k.  A
    walk that does not has lost the orbit's offset from the rising branch's
    fixed point to rounding (a below the precision floor), and raises.

    In case II ||f||_1 shrinks like a, so there both SERIES_CUTOFF and
    tail_tol are relative to ||f||_1, taken as its a -> 0 limit |B/a| * a;
    in case III, where ||f||_1 stays of order one, they are absolute.

    Each rule stops at the step, and each sum adds in the order, that a
    walk of its own would.  The errors come in this order: an S-series that
    misses the cutoff within MAX_SERIES_TERMS steps, a singular Lambda, a
    density series that misses tail_tol (or a walk that has not reached k)
    within MAX_SERIES_TERMS steps, then a walk that disagrees with k.
    """
    case = _require_series_case(params)
    if not (math.isfinite(tail_tol) and tail_tol > 0):
        raise ParameterError(f"tail_tol must be finite and > 0 (got {tail_tol!r})")
    s1, s2, p, q, a = params.s1, params.s2, params.p, params.q, params.a
    mass = 1.0  # ||f||_1 in case II, where the stopping rules are relative to it
    if case == "II":
        mass = a * _case_ii_sums(s1, s2, p, q, params.r)[3] / (2 * s1 * s2)
    cutoff, tol = SERIES_CUTOFF * mass, tail_tol * mass
    pl_map = build_w_map(params)
    beta, fall = pl_map.slopes[1], -pl_map.slopes[2]  # s1 + p*a and s2 + q*a
    gap = pl_map.min_abs_slope - 1.0  # the geometric tail of a term 1/|B_n| is 1/(|B_n| gap)
    threshold = pl_map.breakpoints[1]
    # raises first below the precision floor, where a case-II cutoff can
    # underflow to 0 and the S-series would never meet it
    k = _closed_form_k(params, threshold)
    ratio_12 = -fall / beta  # cum-slope ratio of the two sides

    def below_tol(cum):  # the density's tail bound, once Lambda fixes it
        return bound / (abs(cum) * gap) < tol

    zs, cums = [], []
    s11 = s22 = 0.0
    n_terms = 0
    for z, cum in islice(_orbit_steps(pl_map), MAX_SERIES_TERMS):
        zs.append(z)
        cums.append(cum)
        if not n_terms:
            # S11 takes the steps whose cumulative slope (never 0) has the sign
            # of the point's side of 1/2; ratio_12 < 0 flips that sign, so S22's
            # opposite pairing takes the same steps
            abs_cum = abs(cum)
            if z > 0.5 if cum > 0 else z < 0.5:
                s11 += 1.0 / abs_cum
                s22 += 1.0 / abs(cum * ratio_12)
            if not 1.0 / (abs_cum * gap) < cutoff:
                continue
            n_terms = len(zs)
            denominator = 1.0 - (s11 + s22)
            if abs(denominator) < 1e-14:
                raise ComputationError(
                    "Lambda is numerically singular (1 - S11 - S22 ~ 0)",
                    denominator=denominator,
                )
            lam = 1.0 / denominator
            d1, d2 = _lambda_system(s11, s22)
            if not (abs(d1 - lam) <= 1e-6 * abs(lam) and abs(d2 - lam) <= 1e-6 * abs(lam)):
                raise ComputationError(  # pragma: no cover - consistency guard
                    "series and linear-system values of Lambda disagree",
                    series=lam,
                    solved=(d1, d2),
                )
            coeff = (1.0 + beta / fall) * lam
            bound = abs(coeff)
        if len(zs) >= k and below_tol(cum):
            break
    else:
        if not n_terms:
            raise ComputationError("S-series did not meet the cutoff", steps=MAX_SERIES_TERMS)
        raise ComputationError("density series did not converge", steps=MAX_SERIES_TERMS)
    if not zs[k - 1] <= threshold < min(zs[: k - 1], default=math.inf):
        raise ComputationError(
            f"turning orbit does not first reach the rising branch's left end at "
            f"the closed form's k = {k}: its offset from the fixed point is lost "
            f"to float64 rounding, so a = {params.a!r} is below the precision floor",
            k=k,
        )

    k1 = (2 * k) // 3
    kappa = (s1 + s2 + p * a + q * a) / (beta * fall)
    eta = (s1 + s2 + p * a + q * a) / (fall**2 * (beta - 1))
    lam_low = 1.0 / (1.0 - (kappa + eta * (1.0 - beta ** -(k1 - 1))))
    lam_high = 1.0 / (1.0 - (kappa + eta))
    # |B_n| grows at every step, so the tail bound only falls along the walk
    n_density = bisect_left(cums, True, key=below_tol) + 1

    z = np.array(zs)
    cum = np.array(cums)
    orbit = TurningOrbit(
        orbit=z[:k].copy(),
        cum_slopes=cum[:k].copy(),
        k=k,
        k1=k1,
        closed_form_k=k,
        threshold=threshold,
    )
    lam_data = LambdaData(
        s11=s11,
        s22=s22,
        lam=lam,
        lam_low=lam_low,
        lam_high=lam_high,
        kappa=kappa,
        eta=eta,
        vartheta=vartheta(s1, s2),
        n_terms=n_terms,
    )
    z, cum = z[:n_density], cum[:n_density]
    rising = cum > 0
    density = _accumulate(
        np.where(rising, 0.0, z), np.where(rising, z, 1.0), coeff / np.abs(cum), 1.0, (0.0, 1.0)
    )
    return SeriesSolution(params=params, orbit=orbit, lam=lam_data, density=density)


# ---------------------------------------------------------------------------
# companions of the series density


@dataclass(frozen=True)
class BoundingDensities:
    f_low: PiecewiseConstantDensity
    f_high: PiecewiseConstantDensity
    which: str  # "case-II pair f_l/f_h" or "case-III pair f_l_hat/f_h_hat"


def bounding_densities(solution: SeriesSolution) -> BoundingDensities:
    """Two-sided companions built from the k1-truncated series.

    f_high pairs the upper Lambda estimate with the truncated sum g_l, and
    f_low the lower estimate with g_h = g_l + geometric closure of the cut
    tail.  Whenever both estimates are negative these bracket the series
    density pointwise; for positive Lambda they are analysis tools only (the
    density is then bracketed by 1 and a constant).
    """
    params, orbit, lam = solution.params, solution.orbit, solution.lam
    beta2 = params.s1 + params.p * params.a
    fall = params.s2 + params.q * params.a
    coeff = 1.0 + beta2 / fall

    # g_l = chi_[0, z_1] / beta2 + sum_{j=2}^{k1} chi_[z_j, 1] / (fall * beta2^(j-1)).
    # The weights use Python's float ** int: numpy's float ** int-array rounds
    # some of them differently.
    k1 = orbit.k1
    lo = np.concatenate(([0.0], orbit.orbit[1:k1]))
    hi = np.concatenate((orbit.orbit[:1], np.ones(k1 - 1)))
    w = np.array([1.0 / beta2] + [1.0 / (fall * beta2 ** (j - 1)) for j in range(2, k1 + 1)])
    closure = 1.0 / (fall * (beta2 - 1.0) * beta2 ** (k1 - 1))

    low = coeff * lam.lam_low
    f_low = _accumulate(lo, hi, low * w, 1.0 + low * closure, (0.0, 1.0))
    f_high = _accumulate(lo, hi, coeff * lam.lam_high * w, 1.0, (0.0, 1.0))
    if classify_case(params.s1, params.s2) == "II":
        which = "case-II pair f_l/f_h"
    else:
        which = "case-III pair f_l_hat/f_h_hat"
    return BoundingDensities(f_low=f_low, f_high=f_high, which=which)


@dataclass(frozen=True)
class RegionIntegrals:
    c1: float
    c2: float
    c3: float
    b: float


def region_integrals(orbit: TurningOrbit, f: PiecewiseConstantDensity) -> RegionIntegrals:
    """Integrals of f over [0, z_k1], (z_k1, lift] and (lift, 1].

    The middle region collapses the peak around the turning point; its left
    edge is the k1-th orbit point and its right edge the lifted turning
    value 1/2 + r*a, the first orbit point.
    """
    t1 = orbit.point(orbit.k1)
    t2 = orbit.point(1)
    c1 = f.integral_over(0.0, t1)
    c2 = f.integral_over(t1, t2)
    c3 = f.integral_over(t2, 1.0)
    return RegionIntegrals(c1=c1, c2=c2, c3=c3, b=c1 + c2 + c3)


# ---------------------------------------------------------------------------
# single-field views of solve_series.  They are not public names: the package
# reads solve_series, and the benchmark harness in benchmark/, which wraps
# and calls them by name, is their last caller.  Each runs a whole solve.


def turning_orbit(params: WParams) -> TurningOrbit:
    """The turning-point orbit up to its exit from the rising branch."""
    return solve_series(params).orbit


def lambda_solve(params: WParams) -> LambdaData:
    """The S-series along the turning orbit and the Lambda they determine."""
    return solve_series(params).lam


def density_series(
    params: WParams, tail_tol: float = DEFAULT_TAIL_TOL
) -> PiecewiseConstantDensity:
    """The non-normalized invariant density as a piecewise-constant function."""
    return solve_series(params, tail_tol).density


def renormalized_density_vartheta0(
    params: WParams, tail_tol: float = DEFAULT_TAIL_TOL
) -> PiecewiseConstantDensity:
    """The series density scaled by 1/Lambda for the vartheta = 0 boundary.

    When vartheta(s1, s2) = 0 the coefficient Lambda diverges as a -> 0 and
    the raw series is useless for uniform bounds; dividing by Lambda keeps
    the left and right plateau coefficients at order one and the integral
    separated from zero, after which normalization proceeds as usual.
    """
    if classify_case(params.s1, params.s2) != "III":
        raise ParameterError("renormalized route requires 1/s1 + 1/s2 < 1")
    if abs(vartheta(params.s1, params.s2)) >= 1e-9:
        raise ParameterError(
            "renormalized route requires vartheta ~ 0 "
            f"(got {vartheta(params.s1, params.s2)})"
        )
    solution = solve_series(params, tail_tol)
    return solution.density.scale(1.0 / solution.lam.lam)


# ---------------------------------------------------------------------------
# exact transfer operator


def transfer_operator_apply(
    pl_map: PiecewiseLinearMap, f: PiecewiseConstantDensity
) -> PiecewiseConstantDensity:
    """Exact Perron-Frobenius action on a piecewise-constant function.

    Every cell of f clipped to a branch domain is linearly pushed forward,
    contributing value/|slope| on the image interval; the results are summed
    on the merged grid.  Mass is preserved exactly up to rounding.
    """
    bp, ends = f.breakpoints, pl_map.breakpoints
    lows, highs, weights = [], [], []
    for d0, d1, slope, intercept in zip(ends[:-1], ends[1:], pl_map.slopes, pl_map.intercepts):
        # the cells that meet the branch domain: bp[i + 1] > d0 and bp[i] < d1
        i0 = max(bp.searchsorted(d0, side="right") - 1, 0)
        i1 = min(bp.searchsorted(d1), bp.size - 1)
        lefts = np.maximum(bp[i0:i1], d0)
        rights = np.minimum(bp[i0 + 1 : i1 + 1], d1)
        y0 = slope * lefts + intercept
        y1 = slope * rights + intercept
        lows.append(np.minimum(y0, y1))
        highs.append(np.maximum(y0, y1))
        weights.append(f.values[i0:i1] / abs(slope))
    return _accumulate(
        np.concatenate(lows),
        np.concatenate(highs),
        np.concatenate(weights),
        0.0,
        pl_map.domain,
    )
