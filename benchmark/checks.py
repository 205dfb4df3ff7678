"""Checks of acimlab's outputs against the oracle or against properties the
methods must have.  Each check returns a list of problems (empty when the
output passes).  Each workload's self-test feeds them corrupted copies of
its real outputs.

Tolerances follow what the program promises: series densities are
truncated at ``tail_tol``, power iteration stops at an L1 step of 1e-12, and
everything else is exact interval algebra up to rounding.
"""

from __future__ import annotations

import numpy as np

import oracle

TAIL_TOL = 1e-10  # density_series' default truncation
STEP_TOL = 1e-9  # ||mP - m||_1 of a stationary Ulam output
ROUND_TOL = 1e-9  # relative agreement of two computations of one exact quantity


def _close(x, y, rel=ROUND_TOL, floor=1e-14):
    return abs(x - y) <= rel * abs(y) + floor


def normalized(bp, vals, what):
    """Integral 1 and no negative value."""
    bp, vals = np.asarray(bp, float), np.asarray(vals, float)
    problems = []
    total = float(vals @ np.diff(bp))
    if not _close(total, 1.0, 1e-12):
        problems.append(f"{what}: integral {total!r} is not 1")
    if vals.min() < 0:
        problems.append(f"{what}: negative value {vals.min()!r}")
    return problems


def invariant_series(params, bp, vals, what):
    """The relative invariance residual ||Pf - f||_1 / ||f||_1 of a series
    density, exactly, is within 2 * tail_tol."""
    residual = float(oracle.relative_invariance_residual(params, bp, vals))
    if residual > 2 * TAIL_TOL:
        return [f"{what}: relative invariance residual {residual:.3e} > {2 * TAIL_TOL:.0e}"]
    return []


def stationary(wm, edges, vals, what):
    """Ulam's operator, built by the oracle, leaves the output's masses fixed."""
    edges = np.asarray(edges, float)
    defect = oracle.ulam_step_defect(wm, edges, np.asarray(vals, float) * np.diff(edges))
    return [f"{what}: ||mP - m||_1 = {defect:.3e}"] if defect > STEP_TOL else []


def rows_stochastic(matrix, what):
    worst = float(np.abs(np.asarray(matrix.sum(axis=1)).ravel() - 1.0).max())
    return [f"{what}: Ulam row sum off by {worst:.3e}"] if worst > 1e-12 else []


def equals_h0(s1, s2, vals, edges, what):
    """A half-aligned Ulam output at a = 0 is h0 on every cell."""
    left, right = oracle.h0(s1, s2)
    mids = 0.5 * (np.asarray(edges)[:-1] + np.asarray(edges)[1:])
    expected = np.where(mids < 0.5, left, right)
    worst = float(np.abs(np.asarray(vals) - expected).max())
    return [f"{what}: differs from h0 by {worst:.3e}"] if worst > 1e-8 else []


def same(value, expected, what, floor=1e-14):
    """Equal up to rounding; ``floor`` is the absolute slack for values that
    are themselves rounding-level (such as a residual near 1e-12)."""
    if value is None or not _close(value, expected, ROUND_TOL, floor):
        return [f"{what}: {value!r} != oracle {expected!r}"]
    return []


def equal(value, expected, what):
    return [] if value == expected else [f"{what}: {value!r} != oracle {expected!r}"]


def falling(values, what):
    """Strictly decreasing along a decreasing schedule of a."""
    if all(b < a for a, b in zip(values, values[1:])):
        return []
    return [f"{what}: not strictly falling: {values!r}"]


def ratios_approach(rows, targets, what):
    """|C/a - target| shrinks: strictly along the schedule for C2 and B, from
    the first to the last point for C1 and C3 (their region edge z_k1 moves
    in steps, so they need not shrink at every point)."""
    errors = np.abs(np.asarray(rows, float) - np.asarray(targets, float))
    problems = []
    for col, name in ((1, "C2"), (3, "B")):
        problems += falling(list(errors[:, col]), f"{what} |{name}/a - target|")
    for col, name in ((0, "C1"), (2, "C3")):
        if not errors[-1, col] < errors[0, col]:
            problems.append(f"{what}: |{name}/a - target| did not shrink: {errors[:, col]!r}")
    return problems


def counterexample_rows(rows, densities, what):
    """d_n < 1/n, d_n matches the oracle, essinf_n strictly falls.

    ``rows`` are (n, r_n, a_n, d_n, essinf_n); ``densities`` the normalized
    densities of the maps (2, 2, 1, 1, r_n) at a_n as (bp, vals).
    """
    problems = []
    for (n, r_n, a_n, d_n, _), (bp, vals) in zip(rows, densities):
        if not d_n < 1.0 / n:
            problems.append(f"{what}: d_{n} = {d_n!r} >= 1/{n}")
        if r_n != n:
            problems.append(f"{what}: r_{n} = {r_n!r}")
        limit = oracle.limit_measure(2.0, 2.0, 1.0, 1.0, float(n))
        problems += same(d_n, oracle.w1_to_limit(bp, vals, limit), f"{what} d_{n}")
    return problems + falling([row[4] for row in rows], f"{what} essinf_n")
