"""An exact reference for the W map's transfer operator, stdlib only.

Float inputs are taken at their exact rational values (``Fraction(x)``), and
every step is rational arithmetic, so a residual computed here carries no
rounding of its own.  Nothing here calls acimlab: tests judge its densities
against this.
"""

from collections import defaultdict
from fractions import Fraction


def w_branches(s1, s2, p, q, r, a):
    """The four branches of W_a as exact (lo, hi, slope, intercept).

    W_a rises with slope s1 + p*a from (x1, 0) to the turning value
    (1/2, 1/2 + r*a) and falls with slope -(s2 + q*a) to (x3, 0); the outer
    branches are the lines from (0, 1) to (x1, 0) and from (x3, 0) to (1, 1).
    """
    s1, s2, p, q, r, a = map(Fraction, (s1, s2, p, q, r, a))
    half, one = Fraction(1, 2), Fraction(1)
    lift = half + r * a
    rise, fall = s1 + p * a, s2 + q * a
    x1, x3 = half - lift / rise, half + lift / fall
    right = 1 / (1 - x3)
    return [
        (Fraction(0), x1, -1 / x1, one),
        (x1, half, rise, lift - rise * half),
        (half, x3, -fall, lift + fall * half),
        (x3, one, right, 1 - right),
    ]


def invariant_interval(s1, s2, p, q, r, a):
    """(x_l, x_r, invariant) for W_a, exactly.

    x_l is the fixed point of the rising branch, x_r its preimage on the
    falling branch, and invariant whether W_a maps [x_l, x_r] into itself.
    W_a is linear on [x_l, 1/2] and on [1/2, x_r], so the images of x_l, 1/2
    and x_r decide it.
    """
    _, (_, half, rise, c_rise), (_, _, fall, c_fall), _ = w_branches(s1, s2, p, q, r, a)
    x_l = c_rise / (1 - rise)
    x_r = (x_l - c_fall) / fall
    images = (rise * x_l + c_rise, rise * half + c_rise, fall * x_r + c_fall)
    return x_l, x_r, all(x_l <= y <= x_r for y in images)


def turning_orbit(s1, s2, p, q, r, a):
    """(orbit, cum_slopes, k) of the turning point 1/2 under W_a, exactly.

    orbit[n - 1] is W_a^n(1/2) for n = 1..k, where k is the first n with
    W_a^n(1/2) at or below x1, the left end of the rising branch.
    cum_slopes[n - 1] is the product of n slope factors: the first is rise,
    taken on the rising branch at 1/2, and each later one the slope of the
    branch that holds the point, interior breakpoints belonging to the
    branch on their right.
    """
    branches = w_branches(s1, s2, p, q, r, a)
    x1, rise = branches[1][0], branches[1][2]

    def branch(z):
        return next(b for b in reversed(branches) if b[0] <= z)

    half = Fraction(1, 2)
    _, _, slope, intercept = branch(half)
    orbit, cum_slopes = [slope * half + intercept], [rise]
    while orbit[-1] > x1:
        _, _, slope, intercept = branch(orbit[-1])
        orbit.append(slope * orbit[-1] + intercept)
        cum_slopes.append(cum_slopes[-1] * slope)
    return orbit, cum_slopes, len(orbit)


def relative_invariance_residual(params, breakpoints, values):
    """||P f - f||_1 / ||f||_1 for the piecewise-constant f on ``breakpoints``.

    P f is the sum over branches and cells of value/|slope| on each cell's
    image.  P f - f is kept as its jumps at each point, and the L1 norm is
    the integral of the running sum of those jumps.
    """
    bp = [Fraction(x) for x in breakpoints]
    vals = [Fraction(v) for v in values]
    jumps = defaultdict(Fraction)
    for lo, hi, slope, intercept in w_branches(*params):
        for left, right, v in zip(bp, bp[1:], vals):
            left, right = max(left, lo), min(right, hi)
            if right > left:
                y0, y1 = slope * left + intercept, slope * right + intercept
                jumps[min(y0, y1)] += v / abs(slope)
                jumps[max(y0, y1)] -= v / abs(slope)
    for left, right, v in zip(bp, bp[1:], vals):
        jumps[left] -= v
        jumps[right] += v
    points = sorted(jumps)
    gap, run = Fraction(0), Fraction(0)
    for x, y in zip(points, points[1:]):
        run += jumps[x]
        gap += abs(run) * (y - x)
    norm = sum(abs(v) * (right - left) for left, right, v in zip(bp, bp[1:], vals))
    return float(gap / norm)
