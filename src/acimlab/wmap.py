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
from numbers import Rational

from .errors import ComputationError, ParameterError

CASE_TOL = 1e-12


@dataclass(frozen=True)
class WParams:
    """The six scalars defining one map of the family.

    Validation happens on construction and rejects (never clamps) parameter
    combinations for which the map would leave [0, 1] or the branch
    breakpoints would go out of order.
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
            if not (isinstance(value, Rational) or math.isfinite(value)):
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
        # Breakpoint ordering; equivalently the outer-branch denominators stay
        # positive.  With r*a < 1/2 this also keeps every breakpoint image,
        # {1, 0, 1/2 + r*a, 0, 1}, inside [0, 1].
        if not self.s1 - 1 + self.p * self.a - 2 * self.r * self.a > 0:
            raise ParameterError(
                "invalid parameters: require s1 - 1 + p*a - 2*r*a > 0 "
                "(first breakpoint would leave (0, 1/2))"
            )
        if not self.s2 - 1 + self.q * self.a - 2 * self.r * self.a > 0:
            raise ParameterError(
                "invalid parameters: require s2 - 1 + q*a - 2*r*a > 0 "
                "(third breakpoint would leave (1/2, 1))"
            )


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """A piecewise-linear map given by breakpoints, branch slopes and intercepts.

    Branch i (1-based) acts on [breakpoints[i-1], breakpoints[i]) as
    x -> slopes[i-1]*x + intercepts[i-1]; the last branch includes its right
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
    def n_branches(self) -> int:
        return len(self.slopes)

    @property
    def domain(self) -> tuple[float, float]:
        return self.breakpoints[0], self.breakpoints[-1]

    @property
    def min_abs_slope(self) -> float:
        return min(map(abs, self.slopes))

    def branch_index(self, x: float) -> int:
        """1-based index of the branch whose half-open interval contains x."""
        lo, hi = self.domain
        if not lo <= x <= hi:
            raise ParameterError(f"x = {x} outside the map domain [{lo}, {hi}]")
        i = bisect_right(self.breakpoints, x) - 1
        return min(max(i, 0), self.n_branches - 1) + 1

    def branch_value(self, branch: int, x: float) -> float:
        return self.slopes[branch - 1] * x + self.intercepts[branch - 1]

    def __call__(self, x: float) -> float:
        return self.branch_value(self.branch_index(x), x)

    def iterate(self, x: float, n: int) -> list[float]:
        """Orbit [x, W(x), ..., W^n(x)] as a list of length n + 1."""
        if n < 0:
            raise ParameterError("iteration count must be >= 0")
        orbit = [float(x)]
        for _ in range(n):
            orbit.append(self(orbit[-1]))
        return orbit


def build_w_map(params: WParams) -> PiecewiseLinearMap:
    """Construct the four-branch W map for the given parameters."""
    s1, s2, p, q, r, a = params.s1, params.s2, params.p, params.q, params.r, params.a
    b2 = s1 + p * a
    b3 = -(s2 + q * a)
    b1 = -2 * b2 / (s1 - 1 + p * a - 2 * r * a)
    b4 = -2 * b3 / (s2 - 1 + q * a - 2 * r * a)
    lift = 0.5 + r * a
    x1 = 0.5 - lift / b2
    x3 = 0.5 - lift / b3
    # Intercepts from the point-slope forms: branch 1 passes through (0, 1),
    # branches 2 and 3 through (1/2, lift), branch 4 through (1, 1).
    pl_map = PiecewiseLinearMap(
        breakpoints=(0.0, x1, 0.5, x3, 1.0),
        slopes=(b1, b2, b3, b4),
        intercepts=(1.0, lift - b2 * 0.5, lift - b3 * 0.5, 1.0 - b4),
    )
    # Range validity at the five grid points (images are 1, 0, lift, 0, 1);
    # each belongs to the branch on its right, and 1 to the last branch.
    for x, branch in zip(pl_map.breakpoints, (1, 2, 3, 4, 4)):
        y = pl_map.branch_value(branch, x)
        if not -1e-12 <= y <= 1 + 1e-12:
            raise ParameterError(
                f"invalid parameters: breakpoint image W({x}) = {y} leaves [0, 1]"
            )
    return pl_map


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

    Both collapse to 1/2 as a -> 0.  The returned values are checked against
    the map itself: W(x_l) = x_l and W(x_r) = x_l to machine accuracy.
    """
    s1, s2, p, q, r, a = params.s1, params.s2, params.p, params.q, params.r, params.a
    x_l = _rising_fixed_point(params)
    x_r = (
        s2 * s1 - s2
        + (2 * r * s1 - q + p * s2 + q * s1) * a
        + (2 * r * p + p * q) * a * a
    ) / (2 * (s1 - 1 + p * a) * (s2 + q * a))
    w = build_w_map(params)
    if abs(w(x_l) - x_l) > 1e-12 or abs(w(x_r) - x_l) > 1e-12:
        raise ComputationError(  # pragma: no cover - algebraic identity
            "fixed-point residual exceeded machine tolerance",
            residuals=(w(x_l) - x_l, w(x_r) - x_l),
        )
    return x_l, x_r


@dataclass(frozen=True)
class InvariantIntervalReport:
    contained: bool
    sign_wa_half_minus_xr: float
    interval: tuple[float, float]


def invariant_interval_check(params: WParams) -> InvariantIntervalReport:
    """Check W([x_l, x_r]) subseteq [x_l, x_r] for a case-I map.

    The extremes of a piecewise-linear map over an interval occur at the
    interval endpoints or at interior breakpoints, so those finitely many
    images decide containment.  Also reports W(1/2) - x_r, expected negative.
    """
    if classify_case(params.s1, params.s2) != "I":
        raise ParameterError("invariant_interval_check requires case I (1/s1 + 1/s2 > 1)")
    x_l, x_r = fixed_points(params)
    w = build_w_map(params)
    candidates = [x_l, x_r] + [b for b in w.breakpoints if x_l < b < x_r]
    images = [w(x) for x in candidates]
    slack = 1e-12
    contained = all(x_l - slack <= y <= x_r + slack for y in images)
    return InvariantIntervalReport(
        contained=contained,
        sign_wa_half_minus_xr=w(0.5) - x_r,
        interval=(x_l, x_r),
    )
