"""Reference formulas for the W-map family, written apart from acimlab.

Everything here follows the paper's definitions and uses only numpy and
fractions, so the benchmark can judge acimlab's outputs without trusting its
code.  The scalar routines accept floats or Fractions; given Fractions (for
instance the exact values of float parameters) they are exact.

A piecewise-constant function is a pair ``(bp, vals)``: ``len(bp)`` is
``len(vals) + 1`` and ``bp`` is strictly increasing.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _half(x):
    return Fraction(1, 2) if isinstance(x, Fraction) else 0.5


def exact(*xs):
    """The exact rational values of the given floats."""
    return tuple(Fraction(x) for x in xs)


# ---------------------------------------------------------------------------
# the map


def w_map(s1, s2, p, q, r, a):
    """(edges, slopes, intercepts) of W_a, branch by branch.

    W_a rises with slope s1 + p*a from (x1, 0) to the turning value
    (1/2, 1/2 + r*a), falls with slope -(s2 + q*a) to (x3, 0), and its outer
    branches are the lines from (0, 1) to (x1, 0) and from (x3, 0) to (1, 1).
    """
    half = _half(a)
    lift = half + r * a
    rise, fall = s1 + p * a, s2 + q * a
    x1 = half - lift / rise
    x3 = half + lift / fall
    slopes = (-1 / x1, rise, -fall, 1 / (1 - x3))
    intercepts = (1 + 0 * a, lift - rise * half, lift + fall * half, 1 - slopes[3])
    return (0 * a, x1, half, x3, 1 + 0 * a), slopes, intercepts


def evaluate(wm, x):
    """W(x); an interior edge belongs to the branch on its right."""
    edges, slopes, intercepts = wm
    j = 0
    while j < 3 and x >= edges[j + 1]:
        j += 1
    return slopes[j] * x + intercepts[j]


def orbit(wm, x, steps):
    """(x, W(x), ..., W^steps(x))."""
    out = [x]
    for _ in range(steps):
        out.append(evaluate(wm, out[-1]))
    return out


def turning_exit_index(s1, s2, p, q, r, a, max_steps=100_000):
    """First n with W^n(1/2) at or below the left edge of the rising branch.

    With exact (Fraction) parameters this is the closed-form stopping index
    k, free of rounding.
    """
    wm = w_map(s1, s2, p, q, r, a)
    x1 = wm[0][1]
    z = evaluate(wm, _half(a))
    for n in range(1, max_steps + 1):
        if z <= x1:
            return n
        z = evaluate(wm, z)
    raise RuntimeError("turning orbit did not leave the rising branch")


def case(s1, s2) -> str:
    """'I', 'II' or 'III' from the exact value of 1/s1 + 1/s2."""
    total = 1 / Fraction(s1) + 1 / Fraction(s2)
    return "II" if total == 1 else ("I" if total > 1 else "III")


def vartheta(s1, s2):
    return 1 - ((s1 + s2) / (s1 * s2) + (s1 + s2) / (s2 * s2 * (s1 - 1)))


# ---------------------------------------------------------------------------
# exact transfer operator on piecewise-constant functions (Fractions or floats)


def sum_indicators(pieces, lo=0, hi=1):
    """sum of w * 1_[a, b] over (a, b, w) pieces, as a piecewise-constant pair."""
    points = sorted({lo, hi, *(x for a, b, _ in pieces for x in (a, b))})
    index = {x: i for i, x in enumerate(points)}
    delta = [0] * len(points)
    for a, b, w in pieces:
        delta[index[a]] += w
        delta[index[b]] -= w
    vals, run = [], 0
    for d in delta[:-1]:
        run += d
        vals.append(run)
    return points, vals


def push_forward(wm, bp, vals):
    """Perron-Frobenius image of a piecewise-constant function.

    Each cell, cut at the branch edges, is carried linearly onto its image
    interval with its value divided by |slope|.
    """
    edges, slopes, intercepts = wm
    pieces = []
    for j in range(4):
        for left, right, v in zip(bp, bp[1:], vals):
            lo, hi = max(left, edges[j]), min(right, edges[j + 1])
            if hi > lo:
                y0 = slopes[j] * lo + intercepts[j]
                y1 = slopes[j] * hi + intercepts[j]
                pieces.append((min(y0, y1), max(y0, y1), v / abs(slopes[j])))
    return sum_indicators(pieces, bp[0], bp[-1])


def l1_norm(bp, vals):
    return sum(abs(v) * (b - a) for a, b, v in zip(bp, bp[1:], vals))


def l1_distance(f, g):
    """Exact L1 distance of two piecewise-constant pairs on their common refinement."""
    (fb, fv), (gb, gv) = f, g
    points = sorted(set(fb) | set(gb))
    total, i, j = 0, 0, 0
    for a, b in zip(points, points[1:]):
        while fb[i + 1] <= a:
            i += 1
        while gb[j + 1] <= a:
            j += 1
        total += abs(fv[i] - gv[j]) * (b - a)
    return total


def relative_invariance_residual(params, bp, vals):
    """||P f - f||_1 / ||f||_1, exactly, for the exact values of float inputs."""
    wm = w_map(*exact(*params))
    f = (list(exact(*bp)), list(exact(*vals)))
    return l1_distance(push_forward(wm, *f), f) / l1_norm(*f)


# ---------------------------------------------------------------------------
# the same operator vectorised, for Ulam-sized float functions


def push_forward_np(wm, bp, vals):
    edges, slopes, intercepts = wm
    los, his, ws = [], [], []
    for j in range(len(slopes)):
        lo = np.maximum(bp[:-1], edges[j])
        hi = np.minimum(bp[1:], edges[j + 1])
        keep = hi > lo
        y0 = slopes[j] * lo[keep] + intercepts[j]
        y1 = slopes[j] * hi[keep] + intercepts[j]
        los.append(np.minimum(y0, y1))
        his.append(np.maximum(y0, y1))
        ws.append(vals[keep] / abs(slopes[j]))
    los, his, ws = np.concatenate(los), np.concatenate(his), np.concatenate(ws)
    points = np.unique(np.concatenate(([bp[0], bp[-1]], los, his)))
    delta = np.zeros(points.size)
    np.add.at(delta, np.searchsorted(points, los), ws)
    np.add.at(delta, np.searchsorted(points, his), -ws)
    return points, np.cumsum(delta[:-1])


def cell_masses(bp, vals, edges):
    """Integral of a piecewise-constant function over each cell of ``edges``."""
    cumulative = np.concatenate(([0.0], np.cumsum(vals * np.diff(bp))))
    return np.diff(np.interp(edges, bp, cumulative))


def l1_distance_np(f, g):
    (fb, fv), (gb, gv) = f, g
    points = np.union1d(fb, gb)
    points = points[(points >= max(fb[0], gb[0])) & (points <= min(fb[-1], gb[-1]))]
    mids = 0.5 * (points[:-1] + points[1:])
    fi = np.clip(np.searchsorted(fb, mids, side="right") - 1, 0, fv.size - 1)
    gi = np.clip(np.searchsorted(gb, mids, side="right") - 1, 0, gv.size - 1)
    return float(np.abs(fv[fi] - gv[gi]) @ np.diff(points))


def ulam_step_defect(wm, edges, mass):
    """||m P - m||_1 for Ulam's operator on ``edges``: the exact push-forward
    of the density of ``mass``, averaged back onto the same cells."""
    pushed = push_forward_np(wm, edges, mass / np.diff(edges))
    return float(np.abs(cell_masses(*pushed, edges) - mass).sum())


def restricted_map(s1, s2, p, q, r, a):
    """The two middle branches on the invariant interval [x_l, x_r] (case I)."""
    edges, slopes, intercepts = w_map(s1, s2, p, q, r, a)
    x_l = intercepts[1] / (1 - slopes[1])  # fixed point of the rising branch
    x_r = (x_l - intercepts[2]) / slopes[2]  # its preimage on the falling branch
    return (x_l, 0.5, x_r), slopes[1:3], intercepts[1:3]


# ---------------------------------------------------------------------------
# densities and measures of the paper


def h0(s1, s2):
    """Invariant density of W_0: constant on [0, 1/2] and on [1/2, 1]."""
    denom = 2 * s1 * s2 + s1 - s2
    return 2 * s1 * (s2 + 1) / denom, 2 * s2 * (s1 - 1) / denom


def limit_measure(s1, s2, p, q, r):
    """(left, right, atom): the a -> 0 limit as h0 scaled plus an atom at 1/2.

    Case I is the point mass; case III is h0; case II mixes them with the
    weights set by the perturbation rates.
    """
    kind = case(s1, s2)
    if kind == "I":
        return 0.0, 0.0, 1.0
    left, right = h0(s1, s2)
    if kind == "III":
        return left, right, 0.0
    smooth = (q * s1 + p * s2 - p - q) * (s2 + 2)
    atom = 2 * r * s1 * s2 * s2
    w = smooth / (smooth + atom)
    return w * left, w * right, 1 - w


def ratio_targets(s1, s2, p, q, r):
    """Limits of (C1/a, C2/a, C3/a, B/a) for a case-II family."""
    t1 = -(2 * q * s1 + p * s2 * s2 - p - q) / (2 * s1 * s2)
    t2 = -r * s2
    t3 = -(q * s1 + p * s2 - p - q) / (2 * s1 * s2)
    tb = -((q * s1 + p * s2 - p - q) * (s2 + 2) + 2 * r * s1 * s2 * s2) / (2 * s1 * s2)
    return t1, t2, t3, tb


def w1_to_limit(bp, vals, limit):
    """Wasserstein-1 distance from a density on [0, 1] to ``limit_measure``.

    The integral of |F - G| over [0, 1]; both CDFs are linear between the
    grid points, G jumps by the atom at 1/2, and each segment is integrated
    exactly (split at its root when the difference changes sign).
    """
    left, right, atom = limit
    if atom == 1.0:  # the point mass: E|X - 1/2|
        a, b = bp[:-1], bp[1:]
        dist = np.where(
            b <= 0.5,
            (0.5 - a) ** 2 - (0.5 - b) ** 2,
            np.where(a >= 0.5, (b - 0.5) ** 2 - (a - 0.5) ** 2, (0.5 - a) ** 2 + (b - 0.5) ** 2),
        )
        return float(0.5 * (vals * dist).sum())
    grid = np.union1d(bp, [0.0, 0.5, 1.0])
    f_cdf = np.interp(grid, bp, np.concatenate(([0.0], np.cumsum(vals * np.diff(bp)))))
    g_smooth = left * np.minimum(grid, 0.5) + right * np.maximum(grid - 0.5, 0.0)
    d_start = (f_cdf - g_smooth - atom * (grid >= 0.5))[:-1]
    d_end = (f_cdf - g_smooth - atom * (grid > 0.5))[1:]
    width = np.diff(grid)
    same = d_start * d_end >= 0
    gap = np.where(same, 1.0, np.abs(d_end - d_start))
    area = np.where(
        same,
        0.5 * (np.abs(d_start) + np.abs(d_end)),
        0.5 * (d_start**2 + d_end**2) / gap,
    )
    return float((area * width).sum())
