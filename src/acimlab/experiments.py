"""Parameter sweeps reproducing the limit behavior of the W-map densities.

A sweep follows one family (fixed s1, s2, p, q, r) along a decreasing
schedule of perturbation sizes and records, per point, the distance to the
limit measure, the peak-region integral ratios (case II), the sup and
essential infimum of the normalized density and the stopping index.
Case II/III points use the explicit series density; case I points use the
Ulam oracle on the invariant interval around the turning point, where the
series machinery does not apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import _case_ii_sums, normalize, region_integrals, solve_series
from .errors import ComputationError, ParameterError
from .ulam import MeasureRepr, build_ulam, limit_measure, stationary_density, wasserstein1
from .wmap import PiecewiseLinearMap, WParams, build_w_map, classify_case, fixed_points


@dataclass(frozen=True)
class Family:
    """The five sweep-invariant parameters of one map family."""

    s1: float
    s2: float
    p: float
    q: float
    r: float

    def at(self, a: float) -> WParams:
        return WParams(self.s1, self.s2, self.p, self.q, self.r, a)

    @property
    def case(self) -> str:
        return classify_case(self.s1, self.s2)


@dataclass
class SweepRecord:
    a: float
    case: str
    d_to_limit: float | None = None
    c_over_a: tuple[float, float, float, float] | None = None
    sup_density: float | None = None
    essinf_density: float | None = None
    k: int | None = None
    error: str | None = None


def restricted_turning_map(params: WParams) -> PiecewiseLinearMap:
    """The two middle branches restricted to the invariant interval (case I)."""
    x_l, x_r = fixed_points(params)
    full = build_w_map(params)
    return PiecewiseLinearMap(
        breakpoints=(x_l, 0.5, x_r),
        slopes=full.slopes[1:3],
        intercepts=full.intercepts[1:3],
    )


def _sweep_point(params: WParams, case: str, limit: MeasureRepr, bins: int) -> SweepRecord:
    a = params.a
    record = SweepRecord(a=a, case=case)
    if case == "I":
        ulam = build_ulam(restricted_turning_map(params), bins)
        h = stationary_density(ulam)
    else:
        solution = solve_series(params)
        h = normalize(solution.density)
        record.k = solution.orbit.k
        if case == "II":
            reg = region_integrals(solution.orbit, solution.density)
            record.c_over_a = (reg.c1 / a, reg.c2 / a, reg.c3 / a, reg.b / a)
    record.d_to_limit = wasserstein1(MeasureRepr(density=h), limit)
    record.sup_density = h.sup()
    record.essinf_density = h.essential_infimum()
    return record


def sweep(family: Family, a_schedule, bins: int = 4096) -> list[SweepRecord]:
    """Evaluate the family along a strictly decreasing schedule of a values.

    Failures of individual points, parameters outside the series route's
    regime included, are recorded in their row and do not stop the sweep.
    """
    a_schedule = [float(a) for a in a_schedule]
    if not a_schedule:
        raise ParameterError("a_schedule must not be empty")
    if any(b >= a for a, b in zip(a_schedule, a_schedule[1:])):
        raise ParameterError("a_schedule must be strictly decreasing")
    points = [family.at(a) for a in a_schedule]  # validates every point up front
    case = family.case
    limit = limit_measure(family.s1, family.s2, family.p, family.q, family.r)

    records = []
    for a, params in zip(a_schedule, points):
        try:
            records.append(_sweep_point(params, case, limit, bins))
        except (ComputationError, ParameterError) as exc:
            records.append(SweepRecord(a=a, case=case, error=str(exc)))
    return records


# ---------------------------------------------------------------------------
# case II ratio report


@dataclass(frozen=True)
class RatioReport:
    rows: list[SweepRecord]
    targets: tuple[float, float, float, float]
    monotone: dict[str, bool]


def ratio_targets(family: Family) -> tuple[float, float, float, float]:
    """Limits of (C1/a, C2/a, C3/a, B/a) as a -> 0 for a case-II family."""
    s1, s2, p, q, r = family.s1, family.s2, family.p, family.q, family.r
    t1 = -(2 * q * s1 + p * s2 * s2 - p - q) / (2 * s1 * s2)
    t2 = -r * s2
    theta, _, _, den = _case_ii_sums(s1, s2, p, q, r)
    t3 = -theta / (2 * s1 * s2)
    tb = -den / (2 * s1 * s2)
    return (t1, t2, t3, tb)


def asymptotic_ratio_report(family: Family, a_schedule) -> RatioReport:
    """Peak-region integral ratios along a schedule, with their limits.

    The monotone flags state, per column, whether the absolute error against
    the limit shrinks strictly along the (decreasing) schedule.
    """
    if family.case != "II":
        raise ParameterError("asymptotic_ratio_report requires a case-II family")
    rows = sweep(family, a_schedule)
    for row in rows:
        if row.error is not None:
            raise ComputationError(f"ratio point a={row.a} failed: {row.error}")
    targets = ratio_targets(family)
    names = ("C1", "C2", "C3", "B")
    monotone = {}
    for idx, name in enumerate(names):
        errs = [abs(row.c_over_a[idx] - targets[idx]) for row in rows]
        monotone[name] = all(b < a for a, b in zip(errs, errs[1:]))
    return RatioReport(rows=rows, targets=targets, monotone=monotone)


# ---------------------------------------------------------------------------
# case III uniform bound check


@dataclass(frozen=True)
class BoundReport:
    sup_over_sweep: float
    per_a: list[tuple[float, float]]
    growth_flag: bool


def uniform_bound_check(family: Family, a_schedule) -> BoundReport:
    """Track sup of the normalized density over a case-III schedule.

    The growth flag trips when the sup at the smallest a exceeds twice the
    median over the schedule, a cheap screen for unbounded growth.
    """
    if family.case != "III":
        raise ParameterError("uniform_bound_check requires a case-III family")
    per_a = []
    for a in a_schedule:
        h = normalize(solve_series(family.at(float(a))).density)
        per_a.append((float(a), h.sup()))
    sups = [s for _, s in per_a]
    return BoundReport(
        sup_over_sweep=max(sups),
        per_a=per_a,
        growth_flag=sups[-1] > 2.0 * float(np.median(sups)),
    )


# ---------------------------------------------------------------------------
# the no-uniform-lower-bound example


@dataclass(frozen=True)
class CounterexampleRow:
    n: int
    r_n: float
    a_n: float
    d_n: float
    essinf_n: float


def counterexample_sequence(n_max: int) -> list[CounterexampleRow]:
    """For s1 = s2 = 2, p = q = 1, r_n = n, find a_n with d(mu, limit) < 1/n.

    Searches each n down the geometric schedule a = 0.1/n * 2^-m, m <= 20,
    which ends above the float64 floor of the turning-orbit walk (near
    a = 1e-9 for these maps), and reports the essential infimum of the
    normalized density at the first success.  The found infima vanish as n
    grows even though each single map's density is bounded away from zero.
    """
    if n_max < 1:
        raise ParameterError("counterexample_sequence requires n_max >= 1")
    rows = []
    for n in range(1, n_max + 1):
        r = float(n)
        family = Family(2.0, 2.0, 1.0, 1.0, r)
        limit = limit_measure(2.0, 2.0, 1.0, 1.0, r)
        best = np.inf
        hit = None
        for a in (0.1 / r * 2.0**-m for m in range(21)):
            h = normalize(solve_series(family.at(a)).density)
            d = wasserstein1(MeasureRepr(density=h), limit)
            best = min(best, d)
            if d < 1.0 / n:
                hit = CounterexampleRow(
                    n=n, r_n=r, a_n=a, d_n=d, essinf_n=h.essential_infimum()
                )
                break
        if hit is None:
            raise ComputationError(
                f"search exhausted for n={n}: smallest distance {best} >= {1.0 / n}",
                smallest_d=best,
            )
        rows.append(hit)
    return rows
