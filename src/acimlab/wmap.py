"""W-shaped piecewise-linear expanding maps of the unit interval.

The family is parameterized by slopes s1, s2 > 1 at the turning point 1/2,
perturbation rates p, q, r > 0 and a perturbation size a >= 0.  For a = 0 the
turning point is fixed; for a > 0 it is lifted to 1/2 + r*a.  The graph has
four linear branches: down from (0,1) to zero, up to the turning point, down
to zero again and up to (1,1).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from numbers import Rational

from .errors import ParameterError

CASE_TOL = 1e-12


@dataclass(frozen=True)
class WParams:
    """The six scalars defining one map of the family.

    Validation happens on construction and rejects (never clamps) parameter
    combinations for which the map would leave [0, 1] or the branch
    breakpoints would go out of order.  It computes the map's branch arrays
    and checks them as computed, so a WParams always builds; build_w_map
    reads the arrays kept here.
    """

    s1: float
    s2: float
    p: float
    q: float
    r: float
    a: float

    def __post_init__(self):
        for name in ("s1", "s2", "p", "q", "r", "a"):
            value = getattr(self, name)
            if not -math.inf < value < math.inf:
                raise ParameterError(f"invalid parameters: require finite {name} (got {value})")
        checks = [
            (self.s1 > 1, "s1 > 1"),
            (self.s2 > 1, "s2 > 1"),
            (self.p > 0, "p > 0"),
            (self.q > 0, "q > 0"),
            (self.r > 0, "r > 0"),
            (self.a >= 0, "a >= 0"),
        ]
        for ok, rule in checks:
            if not ok:
                raise ParameterError(f"invalid parameters: require {rule}")
        if not self.r * self.a < 0.5:
            raise ParameterError(
                f"invalid parameters: require r*a < 1/2 (got r*a = {self.r * self.a})"
            )
        object.__setattr__(self, "_branches", _w_branches(self))


def _w_branches(params: WParams) -> tuple[tuple[float, ...], ...]:
    """(breakpoints, slopes, intercepts) of the four-branch W map, checked.

    Breakpoint ordering is equivalent to positive outer-branch denominators,
    and with r*a < 1/2 it keeps every breakpoint image, {1, 0, 1/2 + r*a,
    0, 1}, inside [0, 1].  Next to each boundary a breakpoint can still
    round onto 0 or 1, and an outer slope grow so large that an image
    leaves [0, 1], so both are checked as computed here in float64.
    """
    s1, s2, p, q, r, a = params.s1, params.s2, params.p, params.q, params.r, params.a
    b2 = s1 + p * a
    b3 = -(s2 + q * a)
    d1 = s1 - 1 + p * a - 2 * r * a
    d4 = s2 - 1 + q * a - 2 * r * a
    lift = 0.5 + r * a
    x1 = 0.5 - lift / b2
    x3 = 0.5 - lift / b3
    if not (d1 > 0 and 0 < x1 < 0.5):
        raise ParameterError(
            "invalid parameters: require s1 - 1 + p*a - 2*r*a > 0 "
            "(first breakpoint would leave (0, 1/2))"
        )
    if not (d4 > 0 and 0.5 < x3 < 1):
        raise ParameterError(
            "invalid parameters: require s2 - 1 + q*a - 2*r*a > 0 "
            "(third breakpoint would leave (1/2, 1))"
        )
    b4 = -2 * b3 / d4
    # Intercepts from the point-slope forms: branch 1 passes through (0, 1),
    # branches 2 and 3 through (1/2, lift), branch 4 through (1, 1).
    breakpoints = (0.0, x1, 0.5, x3, 1.0)
    slopes = (-2 * b2 / d1, b2, b3, b4)
    intercepts = (1.0, lift - b2 * 0.5, lift - b3 * 0.5, 1.0 - b4)
    # Range validity at the five grid points (images are 1, 0, lift, 0, 1);
    # each belongs to the branch on its right, and 1 to the last branch.  The
    # raw branch formula, not the clamped rule, so a blown-up slope shows.
    ends = zip(breakpoints, slopes + slopes[-1:], intercepts + intercepts[-1:])
    for x, slope, intercept in ends:
        y = slope * x + intercept
        if not -1e-12 <= y <= 1 + 1e-12:
            raise ParameterError(
                f"invalid parameters: breakpoint image W({x}) = {y} leaves [0, 1]"
            )
    return breakpoints, slopes, intercepts


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """A piecewise-linear map given by breakpoints, branch slopes and intercepts.

    Branch i (0-based) acts on [breakpoints[i], breakpoints[i+1]) as
    x -> slopes[i]*x + intercepts[i]; the last branch includes its right
    endpoint.  Interior breakpoints belong to the branch on their right, so
    evaluation is a function even at the turning point.
    """

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]

    def __post_init__(self):
        n = len(self.slopes)
        if len(self.breakpoints) != n + 1 or len(self.intercepts) != n:
            raise ParameterError("inconsistent branch arrays")
        if any(b1 <= b0 for b0, b1 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ParameterError("breakpoints must be strictly increasing")

    @property
    def domain(self) -> tuple[float, float]:
        return self.breakpoints[0], self.breakpoints[-1]

    @property
    def min_abs_slope(self) -> float:
        return min(map(abs, self.slopes))

    def steps(self, x: float):
        """Yield (i, W(x)), (j, W^2(x)), ...: each image with the 0-based branch
        that produced it, the one whose half-open interval holds the point
        before.  Images can leave the domain by an ulp, so each is clamped into
        it; x itself must lie in the domain."""
        starts, slopes, intercepts = self.breakpoints[:-1], self.slopes, self.intercepts
        lo, hi = self.domain
        while True:
            i = bisect_right(starts, x) - 1  # the last branch also takes x = hi
            x = slopes[i] * x + intercepts[i]
            x = lo if x < lo else hi if x > hi else x
            yield i, x

    def __call__(self, x: float) -> float:
        return self.iterate(x, 1)[1]

    def iterate(self, x: float, n: int) -> list[float]:
        """Orbit [x, W(x), ..., W^n(x)] as a list of length n + 1."""
        lo, hi = self.domain
        if not lo <= x <= hi:
            raise ParameterError(f"x = {x} outside the map domain [{lo}, {hi}]")
        if n < 0:
            raise ParameterError("iteration count must be >= 0")
        x = float(x)
        return [x, *(y for _, y in islice(self.steps(x), n))]


def build_w_map(params: WParams) -> PiecewiseLinearMap:
    """Construct the four-branch W map for the given parameters."""
    return PiecewiseLinearMap(*params._branches)


def classify_case(s1, s2) -> str:
    """Classify by 1/s1 + 1/s2: 'I' if > 1, 'II' if = 1, 'III' if < 1.

    Inputs typed as rationals (int, Fraction) are compared exactly; floats
    are compared with absolute tolerance 1e-12.  NaN and infinite slopes are
    rejected.
    """
    rational1, rational2 = isinstance(s1, Rational), isinstance(s2, Rational)
    if not ((rational1 or math.isfinite(s1)) and (rational2 or math.isfinite(s2))):
        raise ParameterError("classification requires finite s1 and s2")
    if s1 <= 1 or s2 <= 1:
        raise ParameterError("classification requires s1 > 1 and s2 > 1")
    if rational1 and rational2:
        total = Fraction(s1) ** -1 + Fraction(s2) ** -1
        if total == 1:
            return "II"
        return "I" if total > 1 else "III"
    total = 1.0 / float(s1) + 1.0 / float(s2)
    if abs(total - 1.0) <= CASE_TOL:
        return "II"
    return "I" if total > 1.0 else "III"


def _rising_fixed_point(params: WParams) -> float:
    """x_l, the fixed point of the rising branch 2, without the residual check."""
    s1, p, r, a = params.s1, params.p, params.r, params.a
    return (s1 - 1 + p * a - 2 * r * a) / (2 * (s1 - 1 + p * a))


def fixed_points(params: WParams) -> tuple[float, float]:
    """(x_l, x_r): the branch-2 fixed point and its branch-3 preimage.

    Both collapse to 1/2 as a -> 0.  W(x_l) = W(x_r) = x_l is an algebraic
    identity, which holds to machine accuracy.
    """
    s1, s2, p, q, r, a = params.s1, params.s2, params.p, params.q, params.r, params.a
    x_r = (
        s2 * s1 - s2
        + (2 * r * s1 - q + p * s2 + q * s1) * a
        + (2 * r * p + p * q) * a * a
    ) / (2 * (s1 - 1 + p * a) * (s2 + q * a))
    return _rising_fixed_point(params), x_r


@dataclass(frozen=True)
class InvariantIntervalReport:
    contained: bool
    sign_wa_half_minus_xr: float
    interval: tuple[float, float]


def invariant_interval_check(params: WParams) -> InvariantIntervalReport:
    """Whether W maps [x_l, x_r] into itself, for a case-I map.

    W sends both ends to x_l and peaks at W(1/2) = 1/2 + r*a, so the interval
    is invariant exactly when that peak is at most x_r: 1/beta + 1/gamma >= 1
    for beta = s1 + p*a, gamma = s2 + q*a.  Also reports W(1/2) - x_r.
    """
    if classify_case(params.s1, params.s2) != "I":
        raise ParameterError("invariant_interval_check requires case I (1/s1 + 1/s2 > 1)")
    a = params.a
    x_l, x_r = fixed_points(params)
    return InvariantIntervalReport(
        contained=1 / (params.s1 + params.p * a) + 1 / (params.s2 + params.q * a) >= 1,
        sign_wa_half_minus_xr=0.5 + params.r * a - x_r,
        interval=(x_l, x_r),
    )


def restricted_turning_map(params: WParams) -> PiecewiseLinearMap:
    """The two middle branches of W on [x_l, x_r]; a ParameterError unless
    that interval is invariant (case I) and wider than the point 1/2 (a > 0)."""
    report = invariant_interval_check(params)
    if not report.contained:
        raise ParameterError(
            f"[x_l, x_r] is not invariant at a = {params.a}: W(1/2) - x_r = "
            f"{report.sign_wa_half_minus_xr} > 0 (requires 1/(s1 + p*a) + 1/(s2 + q*a) >= 1)"
        )
    x_l, x_r = report.interval
    if not x_l < 0.5 < x_r:
        raise ParameterError(
            f"[x_l, x_r] is the single point 1/2 at a = {params.a} (a = 0 or below float64's reach)"
        )
    full = build_w_map(params)
    return PiecewiseLinearMap((x_l, 0.5, x_r), full.slopes[1:3], full.intercepts[1:3])
