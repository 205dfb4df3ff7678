"""Sweeps, ratio reports, uniform bounds and the counterexample sequence."""

import json

import numpy as np
import pytest

import acimlab.cli as cli
import acimlab.density as density
import acimlab.experiments as experiments
import acimlab.wmap as wmap
from acimlab.errors import ComputationError, ParameterError
from acimlab.experiments import (
    Family,
    asymptotic_ratio_report,
    counterexample_sequence,
    ratio_targets,
    sweep,
    uniform_bound_check,
)
from acimlab.wmap import fixed_points, restricted_turning_map

FIG_FAMILY = Family(1.5, 3.0, 3.0, 2.0, 2.0)
CASE_I_FAMILY = Family(4 / 3, 5 / 2, 3.0, 2.0, 2.0)
STRONG_FAMILY = Family(4.0, 4.0, 1.0, 1.0, 1.0)


def test_sweep_case_ii_distance_decreases():
    records = sweep(FIG_FAMILY, [0.05, 0.01, 0.001])
    ds = [rec.d_to_limit for rec in records]
    assert all(rec.error is None for rec in records)
    assert ds[0] > ds[1] > ds[2]
    assert all(rec.case == "II" for rec in records)
    assert all(rec.c_over_a is not None for rec in records)
    assert all(rec.k is not None for rec in records)


def test_sweep_case_i_uses_ulam():
    records = sweep(CASE_I_FAMILY, [0.05, 0.025, 0.0125], bins=2**10)
    ds = [rec.d_to_limit for rec in records]
    assert ds[0] > ds[1] > ds[2]
    widths = []
    for rec in records:
        x_l, x_r = fixed_points(CASE_I_FAMILY.at(rec.a))
        widths.append(x_r - x_l)
    assert widths[0] > widths[1] > widths[2]
    assert all(rec.c_over_a is None and rec.k is None for rec in records)


def test_sweep_periodic_case_i_chain():
    # the restricted map's Ulam chain is periodic; plain power iteration ran a
    # million steps here and recorded a convergence error
    family = Family(1.883, 1.214, 1.605, 1.036, 1.886)
    (record,) = sweep(family, [0.0053])
    assert record.error is None and record.case == "I"
    # the measure lives on [x_l, x_r], so it is this close to the atom at 1/2
    x_l, x_r = fixed_points(family.at(0.0053))
    assert 0.0 < record.d_to_limit <= max(0.5 - x_l, x_r - 0.5)


def test_case_i_rows_leave_essinf_empty(tmp_path):
    # the smallest Ulam cell of a case-I density swings with bins and a (times
    # r*a it reads 0.122, 0.0191 and 0.269 at a = 1e-3, 1e-4 and 1e-5 on 4096
    # bins), so no value is reported; the series rows of cases II and III keep theirs
    families = {"I": Family(1.5, 2.0, 1.0, 1.0, 1.0), "II": FIG_FAMILY, "III": STRONG_FAMILY}
    for case, family in families.items():
        records = sweep(family, [1e-2, 1e-3], bins=1024)
        assert all(rec.error is None and rec.case == case for rec in records)
        assert all((rec.essinf_density is None) == (case == "I") for rec in records)
        args = ["sweep", "--s1", str(family.s1), "--s2", str(family.s2), "--p", str(family.p),
                "--q", str(family.q), "--r", str(family.r), "--a-schedule", "0.01,0.001",
                "--bins", "1024"]
        assert cli.main([*args, "--output", str(tmp_path / f"{case}.csv")]) == 0
        lines = (tmp_path / f"{case}.csv").read_text().splitlines()
        column = lines[2].split(",").index("essinf_density")
        cells = [line.split(",")[column] for line in lines[3:]]
        assert cells == ["" if case == "I" else repr(rec.essinf_density) for rec in records]
        out = tmp_path / f"{case}.json"
        assert cli.main([*args, "--format", "json", "--output", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert [row["essinf_density"] for row in rows] == [rec.essinf_density for rec in records]


def test_sweep_records_non_invariant_case_i_points_as_errors():
    # W(1/2) - x_r = 5.6e-3, 1.8e-3 and 2.3e-5: the interval is not invariant
    records = sweep(Family(1.9, 2.05, 3.0, 3.0, 1.0), [0.05, 0.03, 0.01, 1e-3], bins=2**10)
    for record in records[:3]:
        assert record.error is not None and "not invariant" in record.error
        assert record.d_to_limit is None and record.essinf_density is None
    assert records[3].error is None and records[3].d_to_limit > 0


def test_restricted_turning_map_still_resolves_in_experiments():
    assert experiments.restricted_turning_map is wmap.restricted_turning_map


def test_sweep_case_iii_l1_to_limit():
    records = sweep(STRONG_FAMILY, [0.05, 0.01, 0.001])
    ds = [rec.d_to_limit for rec in records]
    assert ds[0] > ds[1] > ds[2]
    assert max(rec.sup_density for rec in records) < 2.0


def test_sweep_validates_schedule():
    with pytest.raises(ParameterError, match="empty"):
        sweep(FIG_FAMILY, [])
    with pytest.raises(ParameterError, match="decreasing"):
        sweep(FIG_FAMILY, [0.01, 0.05])
    with pytest.raises(ParameterError):
        sweep(Family(2.0, 2.0, 1.0, 1.0, 1.0), [0.6])  # r*a >= 1/2


def test_sweep_records_point_failures(monkeypatch):
    original = experiments.solve_series

    def flaky(params, tail_tol=1e-10):
        if params.a < 0.02:
            raise ComputationError("synthetic failure")
        return original(params, tail_tol)

    monkeypatch.setattr(experiments, "solve_series", flaky)
    records = sweep(FIG_FAMILY, [0.05, 0.01])
    assert records[0].error is None
    assert records[1].error is not None and "synthetic" in records[1].error
    assert records[1].a == 0.01


def test_ratio_targets_fig_family():
    targets = ratio_targets(FIG_FAMILY)
    assert targets == pytest.approx((-28 / 9, -6.0, -7 / 9, -89 / 9), abs=1e-12)


def test_ratio_targets_symmetric_family():
    targets = ratio_targets(Family(2.0, 2.0, 1.0, 1.0, 1.0))
    assert targets[3] == pytest.approx(-3.0, abs=1e-12)
    assert sum(targets[:3]) == pytest.approx(targets[3], abs=1e-12)


def test_ratio_report_monotone():
    report = asymptotic_ratio_report(FIG_FAMILY, [1e-2, 1e-3, 1e-4])
    assert all(report.monotone.values())
    last = report.rows[-1]
    for value, target in zip(last.c_over_a, report.targets):
        assert abs(value - target) / abs(target) < 0.1


def test_ratio_report_requires_case_ii():
    with pytest.raises(ParameterError, match="case-II"):
        asymptotic_ratio_report(STRONG_FAMILY, [0.01])


def test_uniform_bound_check_families():
    schedule = np.logspace(-1, -4, 7)
    for family in (STRONG_FAMILY, Family(2.2, 2.2, 1.0, 1.0, 1.0), Family(3.0, 3.0, 1.0, 1.0, 1.0)):
        report = uniform_bound_check(family, schedule)
        assert not report.growth_flag
        assert report.sup_over_sweep < 10.0
        assert report.sup_over_sweep == max(s for _, s in report.per_a)


def test_uniform_bound_check_requires_case_iii():
    with pytest.raises(ParameterError, match="case-III"):
        uniform_bound_check(FIG_FAMILY, [0.01])


@pytest.mark.parametrize(
    "schedule, needle",
    [([], "empty"), ([1e-3, 1e-2], "decreasing"), ([1e-2, 1e-2], "decreasing")],
)
def test_uniform_bound_check_takes_the_sweeps_schedule_rule(schedule, needle):
    # before, [] ended in max()'s bare ValueError and an increasing schedule
    # read its growth flag at the largest a
    with pytest.raises(ParameterError, match=needle):
        uniform_bound_check(STRONG_FAMILY, schedule)


def test_uniform_bound_check_reads_the_sweep_rows():
    schedule = [1e-2, 1e-3]
    report = uniform_bound_check(STRONG_FAMILY, schedule)
    assert report.per_a == [(rec.a, rec.sup_density) for rec in sweep(STRONG_FAMILY, schedule)]


def test_uniform_bound_check_failed_point_is_a_computation_error():
    # r*a*(s2 + q*a - 1) = 0.69 > 1/2 at a = 0.3: outside the series regime
    with pytest.raises(ComputationError, match=r"^bound point a=0\.3 failed: .*falling branch"):
        uniform_bound_check(Family(3.0, 3.0, 1.0, 1.0, 1.0), [0.3, 0.01])


def test_restricted_turning_map_invariant():
    params = CASE_I_FAMILY.at(0.05)
    tent = restricted_turning_map(params)
    x_l, x_r = tent.domain
    for x in np.linspace(x_l, x_r, 101):
        assert x_l - 1e-12 <= tent(x) <= x_r + 1e-12


@pytest.mark.parametrize(
    "family",
    [(1.5, 3.0, 3.0, 2.0, 2.0), (1.25, 5.0, 1.0, 2.0, 1.0), (2.0, 2.0, 1.0, 1.0, 5.0),
     (3.0, 3.0, 1.0, 1.0, 1.0), (2.5, 4.0, 1.0, 1.0, 1.0)],
)
def test_essinf_tends_to_the_limits_absolutely_continuous_floor(family):
    """A measured law, not a theorem: as a -> 0, essinf(h_a) tends to
    min(h0) in case III and to min(h0) * num/den in case II, the floor of
    the limit measure's absolutely continuous part.  The heuristic puts the
    mass num/den off the peak, spread as h0.  Measured from below, the
    relative gap shrinks 4.5-12x per decade and ends at 1.0e-5 to 5.4e-5
    at a = 1e-6."""
    floor = density.h0(family[0], family[1]).values.min()
    if Family(*family).case == "II":
        _, num, _, den = density._case_ii_sums(*family)
        floor *= num / den
    records = sweep(Family(*family), [1e-3, 1e-4, 1e-5, 1e-6])
    gaps = [(floor - rec.essinf_density) / floor for rec in records]
    assert 0.0 < gaps[3] < gaps[2] < gaps[1] < gaps[0]
    assert gaps[3] < 1e-4


def test_counterexample_sequence():
    rows = counterexample_sequence(3)
    assert [row.n for row in rows] == [1, 2, 3]
    for row in rows:
        assert row.d_n < 1.0 / row.n
        assert row.r_n * row.a_n < 0.5
        assert row.essinf_n > 0
    essinf = [row.essinf_n for row in rows]
    assert essinf[0] > essinf[1] > essinf[2]


def test_counterexample_sequence_searches_past_the_first_candidate():
    # up to n = 19 the first candidate a = 0.1/n already lands within 1/n of
    # the limit; from n = 20 on the search has to halve a once
    rows = counterexample_sequence(24)
    assert [row.n for row in rows] == list(range(1, 25))
    for row in rows:
        m = 0 if row.n <= 19 else 1
        assert row.a_n == 0.1 / row.n * 2.0**-m
        assert row.d_n < 1.0 / row.n
    # the infima vanish like 1/n, though not monotonically (n = 17 -> 18 rises)
    for row in rows[9:]:
        assert 0.2 <= row.n * row.essinf_n <= 0.25
    # the law of test_essinf_tends_to_the_limits_absolutely_continuous_floor
    # for (2, 2, 1, 1, n) gives essinf -> 1/(2 + 4n); at a_n the rows read
    # 0.80-0.99 of it, and 0.997 at n = 59
    for row in rows:
        assert 0.75 < row.essinf_n * (2 + 4 * row.n) < 1.0
    assert rows[-1].essinf_n == min(row.essinf_n for row in rows)


def test_counterexample_search_exhaustion(monkeypatch):
    # no candidate comes closer to the limit than 1/n, so the search runs dry
    monkeypatch.setattr(experiments, "wasserstein1", lambda mu, nu: 1.0)
    with pytest.raises(ComputationError, match="exhausted for n=1"):
        counterexample_sequence(2)


def test_counterexample_requires_positive_n():
    with pytest.raises(ParameterError):
        counterexample_sequence(0)


def test_sweep_row_outside_structured_regime():
    # r*a*(s2 + q*a - 1) = 0.69 > 1/2: the orbit's k and C/a would be meaningless
    (record,) = sweep(Family(1.5, 3.0, 1.0, 1.0, 1.0), [0.3])
    assert record.error is not None and "falling branch" in record.error
    assert record.k is None and record.c_over_a is None and record.d_to_limit is None


@pytest.fixture
def walk_counts(monkeypatch):
    """Count orbit walks and map builds made by the series route."""
    counts = {"walks": 0, "builds": 0, "candidates": 0}

    def counted(name, key, owner=density):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted("_orbit_steps", "walks")
    counted("build_w_map", "builds")
    counted("normalize", "candidates", owner=experiments)
    return counts


@pytest.mark.parametrize(
    "family", [FIG_FAMILY, STRONG_FAMILY, Family(3.0, 3.0, 1.0, 2.0, 0.5)],
    ids=["case-II", "case-III", "vartheta-0"],
)
def test_one_orbit_walk_per_sweep_point(walk_counts, family):
    records = sweep(family, [1e-2, 1e-3])
    assert all(rec.error is None for rec in records)
    assert walk_counts["walks"] == walk_counts["builds"] == 2


def test_one_orbit_walk_per_counterexample_candidate(walk_counts):
    counterexample_sequence(3)
    assert walk_counts["candidates"] >= 3
    assert walk_counts["walks"] == walk_counts["builds"] == walk_counts["candidates"]
