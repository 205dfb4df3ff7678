"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Stated runtime budgets are asserted where the criterion fixes one.
"""

import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from acimlab.density import (
    bounding_densities,
    h0,
    l1_distance,
    normalize,
    refine_pair,
    region_integrals,
    solve_series,
    transfer_operator_apply,
    vartheta,
)
from acimlab.experiments import (
    Family,
    counterexample_sequence,
    ratio_targets,
    restricted_turning_map,
    uniform_bound_check,
)
from acimlab.ulam import (
    MeasureRepr,
    build_ulam,
    limit_measure,
    point_mass,
    stationary_density,
    wasserstein1,
)
from acimlab.wmap import WParams, build_w_map, invariant_interval_check
from conftest import draw_case_ii, draw_case_iii

GOLDEN_DIR = Path(__file__).parent / "goldens"

CROSS_ORACLE_SETS = [
    (1.5, 3.0, 3.0, 2.0, 2.0),
    (2.0, 2.0, 1.0, 1.0, 1.0),
    (4.0, 4.0, 1.0, 1.0, 1.0),
]


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL {description}")
        raise
    print(f"[criterion {number:2d}] PASS {description}")


@pytest.fixture(scope="module")
def cross_oracle_data():
    """Series and Ulam densities for the six shared parameter sets, timed."""
    data = []
    start = time.perf_counter()
    for family in CROSS_ORACLE_SETS:
        for a in (0.05, 0.01):
            params = WParams(*family, a)
            raw = solve_series(params).density
            series = normalize(raw)
            ulam = stationary_density(build_ulam(build_w_map(params), 2**14))
            data.append((params, raw, series, ulam))
    return data, time.perf_counter() - start


def test_criterion_1_markov_exactness():
    with criterion(1, "Markov-aligned Ulam reproduces the two-cell density"):
        start = time.perf_counter()
        for (s1, s2), expected in (
            ((2.0, 2.0), (1.5, 0.5)),
            ((1.5, 3.0), (1.6, 0.4)),
        ):
            params = WParams(s1, s2, 1.0, 1.0, 1.0, 0.0)
            w = build_w_map(params)
            for bins in (2, 2**10):
                dens = stationary_density(build_ulam(w, bins, align_half=True))
                _, dv, hv = refine_pair(dens, h0(s1, s2))
                assert np.max(np.abs(dv - hv)) < 1e-10
                assert dens.value_at(0.25) == pytest.approx(expected[0], abs=1e-10)
                assert dens.value_at(0.75) == pytest.approx(expected[1], abs=1e-10)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_cross_oracle_agreement(cross_oracle_data):
    with criterion(2, "series and Ulam densities agree within 0.02 in L1"):
        data, elapsed = cross_oracle_data
        for params, _, series, ulam in data:
            assert l1_distance(series, ulam) < 0.02, params
        assert elapsed < 30.0


def test_criterion_3_invariance(cross_oracle_data):
    with criterion(3, "exact transfer operator fixes every series density"):
        data, _ = cross_oracle_data
        for params, raw, _, _ in data:
            pf = transfer_operator_apply(build_w_map(params), raw)
            absolute = float(np.abs(raw.values) @ raw.widths)
            assert l1_distance(pf, raw) / absolute < 1e-8, params


def test_criterion_4_stopping_time():
    with criterion(4, "closed-form stopping index equals the threshold scan"):
        assert solve_series(WParams(2, 2, 1, 1, 1, 0.01)).orbit.k == 13
        rng = np.random.default_rng(7041982)
        for draw in (draw_case_ii, draw_case_iii):
            for _ in range(100):
                params = draw(rng)
                orbit = solve_series(params).orbit
                assert orbit.k == orbit.closed_form_k, params


def test_criterion_5_case_ii_asymptotics():
    with criterion(5, "case-II region ratios approach their limits"):
        start = time.perf_counter()
        family = Family(1.5, 3.0, 3.0, 2.0, 2.0)
        targets = ratio_targets(family)
        assert targets == pytest.approx((-28 / 9, -6.0, -7 / 9, -89 / 9), abs=1e-12)
        errors = []
        for a in (1e-2, 1e-3, 1e-4):
            solution = solve_series(family.at(a))
            reg = region_integrals(solution.orbit, solution.density)
            ratios = (reg.c1 / a, reg.c2 / a, reg.c3 / a, reg.b / a)
            errors.append([abs(x - t) for x, t in zip(ratios, targets)])
            if a == 1e-4:
                for x, t in zip(ratios, targets):
                    assert abs(x - t) / abs(t) < 0.10
        for idx in range(4):
            assert errors[0][idx] > errors[1][idx] > errors[2][idx]
        assert time.perf_counter() - start < 10.0


def test_criterion_6_case_ii_weights():
    with criterion(6, "distance to the mixed limit measure shrinks to < 0.02"):
        lim = limit_measure(1.5, 3.0, 3.0, 2.0, 2.0)
        assert lim.density.integral() == pytest.approx(35 / 89, abs=1e-14)
        assert lim.atoms[0][1] == pytest.approx(54 / 89, abs=1e-15)
        distances = []
        for a in (0.05, 0.01, 0.002, 4e-4):
            h = normalize(solve_series(WParams(1.5, 3.0, 3.0, 2.0, 2.0, a)).density)
            distances.append(wasserstein1(MeasureRepr(density=h), lim))
        assert all(b < a for a, b in zip(distances, distances[1:]))
        assert distances[-1] < 0.02
        for r in (1.0, 2.0, 3.0):
            mixed = limit_measure(2.0, 2.0, 1.0, 1.0, r)
            assert mixed.atoms == ((0.5, 2 * r / (1 + 2 * r)),)
            assert mixed.density.integral() == pytest.approx(1 / (1 + 2 * r), abs=1e-15)


def test_criterion_7_case_i_concentration():
    with criterion(7, "case-I mass is trapped and collapses onto the turning point"):
        family = Family(4 / 3, 5 / 2, 3.0, 2.0, 2.0)
        params = family.at(0.05)
        report = invariant_interval_check(params)
        assert report.contained and report.sign_wa_half_minus_xr < 0
        x_l, x_r = report.interval
        full = stationary_density(build_ulam(build_w_map(params), 2**14))
        outside = full.integral() - full.integral_over(x_l, x_r)
        assert outside < 1e-3
        distances = []
        for a in (0.05, 0.025, 0.0125, 0.00625):
            dens = stationary_density(
                build_ulam(restricted_turning_map(family.at(a)), 2**12)
            )
            distances.append(wasserstein1(MeasureRepr(density=dens), point_mass(0.5)))
        assert all(b < a for a, b in zip(distances, distances[1:]))


def test_criterion_8_case_iii_uniform_bounds():
    with criterion(8, "case-III densities stay bounded and settle on the limit"):
        family = Family(4.0, 4.0, 1.0, 1.0, 1.0)
        schedule = np.logspace(-1, -4, 13)
        report = uniform_bound_check(family, schedule)
        assert not report.growth_flag
        assert np.isfinite(report.sup_over_sweep)
        limit = h0(4.0, 4.0)
        l1s = [
            l1_distance(normalize(solve_series(family.at(float(a))).density), limit)
            for a in schedule
        ]
        assert all(b < a for a, b in zip(l1s, l1s[1:]))
        assert l1s[-1] < 0.02
        solution = solve_series(family.at(1e-4))
        for f in (solution.density, bounding_densities(solution).f_high):
            reg = region_integrals(solution.orbit, f)
            assert reg.c1 == pytest.approx(1.25, rel=0.05)
            assert reg.c3 == pytest.approx(0.75, rel=0.05)
            assert reg.b == pytest.approx(2.0, rel=0.05)
        assert 1.25 / 2.0 == limit.integral_over(0.0, 0.5) == 0.625


def test_criterion_9_vartheta_branches():
    with criterion(9, "all three vartheta pipelines yield bounded densities"):
        assert vartheta(2.2, 2.2) == pytest.approx(-2 / 3, abs=1e-12)
        assert vartheta(4.0, 4.0) == pytest.approx(1 / 3, abs=1e-12)
        assert vartheta(3.0, 3.0) == pytest.approx(0.0, abs=1e-12)
        assert solve_series(WParams(2.2, 2.2, 1, 1, 1, 0.01)).lam.lam < 0
        assert solve_series(WParams(4.0, 4.0, 1, 1, 1, 0.01)).lam.lam > 0
        schedule = np.logspace(np.log10(0.05), -4, 9)
        for s in (2.2, 4.0, 3.0):
            report = uniform_bound_check(Family(s, s, 1.0, 1.0, 1.0), schedule)
            assert not report.growth_flag
            assert report.sup_over_sweep < 10.0


def test_criterion_10_no_uniform_lower_bound():
    with criterion(10, "counterexample: vanishing essential infima, d < 1/n"):
        start = time.perf_counter()
        rows = counterexample_sequence(5)
        assert [row.n for row in rows] == [1, 2, 3, 4, 5]
        for row in rows:
            assert row.d_n < 1.0 / row.n
            assert row.n * row.a_n < 0.5
            assert row.essinf_n > 0
        essinf = [row.essinf_n for row in rows]
        assert all(b < a for a, b in zip(essinf, essinf[1:]))
        assert time.perf_counter() - start < 120.0


GOLDEN_COMMANDS = {
    "classify.txt": ["classify", "--s1", "1.5", "--s2", "3"],
    "density_markov_2x2_bins2.csv": [
        "density", "--s1", "2", "--s2", "2", "--a", "0", "--method", "ulam",
        "--bins", "2", "--align-half", "--output", "density_markov_2x2_bins2.csv",
    ],
    "density_markov_2x2_bins1024.csv": [
        "density", "--s1", "2", "--s2", "2", "--a", "0", "--method", "ulam",
        "--bins", "1024", "--align-half", "--output", "density_markov_2x2_bins1024.csv",
    ],
    "density_markov_1.5x3_bins2.csv": [
        "density", "--s1", "1.5", "--s2", "3", "--a", "0", "--method", "ulam",
        "--bins", "2", "--align-half", "--output", "density_markov_1.5x3_bins2.csv",
    ],
    "density_markov_1.5x3_bins1024.csv": [
        "density", "--s1", "1.5", "--s2", "3", "--a", "0", "--method", "ulam",
        "--bins", "1024", "--align-half", "--output", "density_markov_1.5x3_bins1024.csv",
    ],
    "sweep_fig_family_3pt.csv": [
        "sweep", "--s1", "1.5", "--s2", "3", "--p", "3", "--q", "2", "--r", "2",
        "--a-schedule", "0.05,0.01,0.002", "--output", "sweep_fig_family_3pt.csv",
    ],
}


def test_criterion_11_cli_golden_files(tmp_path, cli_env):
    with criterion(11, "CLI outputs are byte-identical to the checked-in goldens"):
        for name, args in GOLDEN_COMMANDS.items():
            result = subprocess.run(
                [sys.executable, "-m", "acimlab.cli", *args],
                cwd=tmp_path,
                env=cli_env,
                capture_output=True,
            )
            assert result.returncode == 0, result.stderr
            produced = (
                result.stdout if name.endswith(".txt") else (tmp_path / name).read_bytes()
            )
            assert produced == (GOLDEN_DIR / name).read_bytes(), name
