"""The benchmark's workloads: seeded inputs, operations and output checks.

A workload hands out rounds of operations.  ``series_sweep`` and
``cli_calls`` repeat one seeded round, so every round after the first must
reproduce its outputs exactly; ``ulam_crosscheck`` draws a fresh round from
the seed and the round index, and every round is checked.  An operation's
verdict is ``(failed, problems)``: ``failed`` marks the one known fault kept
as a counted failure, ``problems`` anything else wrong.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from functools import partial

import numpy as np

import acimlab.cli as cli
import acimlab.density as density
import acimlab.experiments as experiments
import acimlab.ulam as ulam
import acimlab.wmap as wmap
import checks
import oracle

# a = 1e-2 down to 1e-6, half a decade apart
SCHEDULE = tuple(10.0 ** (-2 - 0.5 * i) for i in range(9))
# case-II families with exactly representable slopes: the figure family of
# the paper and two more.  Their failures do not depend on the seed.
FIXED_CASE_II = ((1.5, 3.0, 3.0, 2.0, 2.0), (2.0, 2.0, 1.0, 1.0, 1.0), (1.25, 5.0, 1.0, 2.0, 1.0))
COUNTEREXAMPLE_N = 10


Op = namedtuple("Op", "kind inputs run")  # run() performs the operation


# ---------------------------------------------------------------------------
# seeded draws; every point keeps r*a*(s2 + q*a - 1) < 1/2 (structured regime)


def draw_rates(rng):
    return tuple(rng.uniform(0.3, 3.0) for _ in range(3))


def draw_case_ii(rng):
    s1 = rng.uniform(1.2, 2.0)
    return (s1, s1 / (s1 - 1), *draw_rates(rng))


def draw_case_iii(rng):
    s1 = rng.uniform(2.05, 3.5)
    return (s1, rng.uniform(s1, 5.0), *draw_rates(rng))


def admissible(fam, a):
    """Valid map parameters inside the structured regime."""
    s1, s2, p, q, r = fam
    return (
        r * a < 0.5
        and s1 - 1 + p * a - 2 * r * a > 0
        and s2 - 1 + q * a - 2 * r * a > 0
        and r * a * (s2 + q * a - 1) < 0.5
    )


def draw_case_i(rng):
    """A case-I family and an a below the threshold where the turning value
    leaves the invariant interval (W(1/2) < x_r needs
    a*(q*s1 + p*s2 - p - q + p*q*a) < s1 + s2 - s1*s2).

    s1 <= s2 and s1*s2 >= 2.2: below that the restricted map's Ulam chain
    can be periodic and power iteration never converges (see CHANGES.md).
    """
    while True:
        s1 = rng.uniform(1.15, 1.9)
        s2 = rng.uniform(max(s1, 2.2 / s1), s1 / (s1 - 1))
        p, q, r = draw_rates(rng)
        cap = min(0.05, 0.5 * (s1 + s2 - s1 * s2) / (q * s1 + p * s2 - p - q + p * q * 0.05))
        if cap <= 2e-3:
            continue
        a = math.exp(rng.uniform(math.log(1e-3), math.log(cap)))
        if admissible((s1, s2, p, q, r), a):
            return (s1, s2, p, q, r), a


def wparams(fam, a):
    return wmap.WParams(*fam, a)


def dyadic_slopes(rng):
    """(s1, s2) exactly representable, so the exact case test applies."""
    kind = rng.choice(("I", "II", "III"))
    if kind == "II":
        j = rng.randint(1, 5)
        s1, s2 = 1 + 2.0**-j, 1 + 2.0**j
    else:
        while True:
            s1, s2 = rng.randint(9, 40) / 8, rng.randint(9, 40) / 8
            if oracle.case(s1, s2) == kind:
                break
    return s1, s2


def _raw_and_normalized(fam, a):
    """The program's raw series density and its normalization, by the
    route ``sweep`` takes (the 1/Lambda route on the vartheta = 0 boundary)."""
    p = wparams(fam, a)
    if oracle.case(fam[0], fam[1]) == "III" and oracle.vartheta(fam[0], fam[1]) == 0:
        raw = density.renormalized_density_vartheta0(p)
    else:
        raw = density.density_series(p)
    return raw, density.normalize(raw)


def _counterexample_densities(rows):
    out = []
    for n, _, a_n, _, _ in rows:
        h = density.normalize(density.density_series(wmap.WParams(2.0, 2.0, 1.0, 1.0, float(n), a_n)))
        out.append((h.breakpoints, h.values))
    return out


def _point_checks(fam, a, rec, what):
    """Checks of one series sweep point; returns (failed, problems)."""
    raw, h = _raw_and_normalized(fam, a)
    problems = [] if rec.error is None else [f"{what}: error {rec.error}"]
    problems += checks.equal(rec.case, oracle.case(fam[0], fam[1]), f"{what} case")
    problems += checks.equal(rec.k, oracle.turning_exit_index(*oracle.exact(*fam, a)), f"{what} k")
    problems += checks.normalized(h.breakpoints, h.values, what)
    limit = oracle.limit_measure(*fam)
    problems += checks.same(rec.d_to_limit, oracle.w1_to_limit(h.breakpoints, h.values, limit), f"{what} d_to_limit")
    problems += checks.same(rec.sup_density, float(h.values.max()), f"{what} sup")
    problems += checks.same(rec.essinf_density, float(h.values[h.values > 0].min()), f"{what} essinf")
    failed = bool(checks.invariant_series((*fam, a), raw.breakpoints, raw.values, what))
    return failed, problems


def _rejects(name, problems):
    return name, bool(problems)


def _bump(vals, delta):
    out = np.array(vals, float)
    out[0] += delta
    return out


# ---------------------------------------------------------------------------


class SeriesSweep:
    """Seeded case-III families, the vartheta = 0 family s1 = s2 = 3 with
    seeded rates and the fixed case-II families, each swept one point per
    operation along SCHEDULE; plus the no-lower-bound sequence."""

    name = "series_sweep"
    repeat_inputs = True

    def __init__(self, seed):
        rng = random.Random(f"series_sweep:{seed}")
        self.families = list(FIXED_CASE_II)
        self.families += [draw_case_iii(rng) for _ in range(3)]
        self.families.append((3.0, 3.0, *draw_rates(rng)))
        assert all(admissible(f, a) for f in self.families for a in SCHEDULE)
        ops = [Op("point", (fam, a), partial(self.point, fam, a)) for fam in self.families for a in SCHEDULE]
        ops.append(Op("counterexample", COUNTEREXAMPLE_N, partial(self.counterexample, COUNTEREXAMPLE_N)))
        self.ops = ops

    @staticmethod
    def point(fam, a):
        return experiments.sweep(experiments.Family(*fam), [a])[0]

    @staticmethod
    def counterexample(n_max):
        return experiments.counterexample_sequence(n_max)

    def warm_up(self):
        self.point(FIXED_CASE_II[0], 1e-2)
        self.counterexample(2)

    def round_ops(self, index):
        return self.ops

    def check(self, ops, outputs):
        verdicts = []
        by_family = {}
        for op, out in zip(ops, outputs):
            if op.kind == "counterexample":
                rows = [(r.n, r.r_n, r.a_n, r.d_n, r.essinf_n) for r in out]
                verdicts.append((False, checks.counterexample_rows(rows, _counterexample_densities(rows), "counterexample")))
                continue
            fam, a = op.inputs
            verdicts.append(_point_checks(fam, a, out, f"{fam} a={a:.3g}"))
            by_family.setdefault(fam, []).append(out)
        for fam, recs in by_family.items():
            problems = checks.falling([r.d_to_limit for r in recs], f"{fam} d_to_limit")
            if oracle.case(fam[0], fam[1]) == "II":
                problems += checks.ratios_approach([r.c_over_a for r in recs], oracle.ratio_targets(*fam), f"{fam}")
            if problems:
                verdicts.append((False, problems))
        return verdicts

    def self_test(self, ops, outputs):
        fam, a = self.families[3], SCHEDULE[0]  # a seeded case-III point
        rec = outputs[[op.inputs for op in ops].index((fam, a))]
        raw, h = _raw_and_normalized(fam, a)
        swept = [out for op, out in zip(ops, outputs) if op.kind == "point" and op.inputs[0] == fam]
        fig = [out.c_over_a for op, out in zip(ops, outputs) if op.kind == "point" and op.inputs[0] == FIXED_CASE_II[0]]
        ce = outputs[-1]
        rows = [(r.n, r.r_n, r.a_n, r.d_n, r.essinf_n) for r in ce]
        dens = _counterexample_densities(rows)
        limit = oracle.limit_measure(*fam)
        bad_rows = [row[:4] + (rows[0][4],) for row in rows]
        return [
            _rejects("invariance", checks.invariant_series((*fam, a), raw.breakpoints, _bump(raw.values, 1e-6), "x")),
            _rejects("integral", checks.normalized(h.breakpoints, _bump(h.values, 1e-3), "x")),
            _rejects("sign", checks.normalized(h.breakpoints, np.minimum(h.values, -1e-9), "x")),
            _rejects("d_to_limit", checks.same(rec.d_to_limit * (1 + 1e-6), oracle.w1_to_limit(h.breakpoints, h.values, limit), "x")),
            _rejects("k", checks.equal(rec.k + 1, oracle.turning_exit_index(*oracle.exact(*fam, a)), "x")),
            _rejects("d falling", checks.falling([r.d_to_limit for r in swept][::-1], "x")),
            _rejects("ratios", checks.ratios_approach(fig[::-1], oracle.ratio_targets(*FIXED_CASE_II[0]), "x")),
            _rejects("counterexample", checks.counterexample_rows(bad_rows, dens, "x")),
        ]


class UlamCrosscheck:
    """Per round, from the seed and the round index: one case-II and one
    case-III family, each cross-checked (series against Ulam, plus both
    invariance residuals) at bins 2^12 and 2^14 and a = 1e-2 and 1e-3; two
    case-I sweep points (Ulam on the restricted map); four a = 0 maps on odd,
    half-aligned grids.

    The six cheap operations put the median operation among the two case-III
    cross-checks at 2^12 bins, whose cost varies least between draws.
    """

    name = "ulam_crosscheck"
    repeat_inputs = False

    def __init__(self, seed):
        self.seed = seed

    @staticmethod
    def both(fam, a, bins):
        p = wparams(fam, a)
        w = wmap.build_w_map(p)
        matrix = ulam.build_ulam(w, bins)
        h = ulam.stationary_density(matrix)
        g = density.normalize(density.density_series(p))
        gap = density.l1_distance(g, h)
        res_h = density.l1_distance(density.transfer_operator_apply(w, h), h)
        res_g = density.l1_distance(density.transfer_operator_apply(w, g), g)
        return matrix, h, g, gap, res_h, res_g

    @staticmethod
    def case_i(fam, a, bins=4096):
        return experiments.sweep(experiments.Family(*fam), [a], bins=bins)[0]

    @staticmethod
    def at_zero(s1, s2, bins):
        matrix = ulam.build_ulam(wmap.build_w_map(wparams((s1, s2, 1.0, 1.0, 1.0), 0.0)), bins, align_half=True)
        return matrix, ulam.stationary_density(matrix)

    def warm_up(self):
        self.both(FIXED_CASE_II[0], 1e-2, 256)
        self.case_i((1.5, 2.0, 1.0, 1.0, 1.0), 5e-3, 256)
        self.at_zero(1.5, 3.0, 65)

    def round_ops(self, index):
        rng = random.Random(f"ulam_crosscheck:{self.seed}:{index}")
        ops = []
        for fam in (draw_case_ii(rng), draw_case_iii(rng)):
            for a in (1e-2, 1e-3):
                assert admissible(fam, a)
                for bins in (4096, 16384):
                    ops.append(Op("both", (fam, a, bins), partial(self.both, fam, a, bins)))
        for _ in range(2):
            fam, a = draw_case_i(rng)
            ops.append(Op("case_i", (fam, a), partial(self.case_i, fam, a)))
        for draw in (draw_case_ii, draw_case_iii, draw_case_ii, draw_case_iii):
            s1, s2 = draw(rng)[:2]
            bins = rng.randrange(1025, 4097, 2)
            ops.append(Op("a0", (s1, s2, bins), partial(self.at_zero, s1, s2, bins)))
        return ops

    def check(self, ops, outputs):
        verdicts = []
        for op, out in zip(ops, outputs):
            what = f"{op.kind} {op.inputs}"
            if op.kind == "both":
                fam, a, bins = op.inputs
                matrix, h, g, gap, res_h, res_g = out
                wm = oracle.w_map(*fam, a)
                fh, fg = (h.breakpoints, h.values), (g.breakpoints, g.values)
                problems = checks.rows_stochastic(matrix.matrix, what)
                problems += checks.stationary(wm, matrix.edges, h.values, what)
                problems += checks.normalized(*fh, what + " ulam") + checks.normalized(*fg, what + " series")
                problems += checks.same(gap, oracle.l1_distance_np(fg, fh), what + " L1")
                problems += checks.same(res_h, oracle.l1_distance_np(oracle.push_forward_np(wm, *fh), fh), what + " ulam residual")
                problems += checks.same(res_g, oracle.l1_distance_np(oracle.push_forward_np(wm, *fg), fg), what + " series residual", floor=1e-9)
            elif op.kind == "case_i":
                problems = self._case_i_problems(*op.inputs, out, what)
            else:
                s1, s2, bins = op.inputs
                matrix, h = out
                problems = checks.rows_stochastic(matrix.matrix, what)
                problems += checks.equals_h0(s1, s2, h.values, matrix.edges, what)
                problems += checks.stationary(oracle.w_map(s1, s2, 1.0, 1.0, 1.0, 0.0), matrix.edges, h.values, what)
                problems += checks.normalized(h.breakpoints, h.values, what)
            verdicts.append((False, problems))
        return verdicts

    @staticmethod
    def _restricted(fam, a, bins=4096):
        matrix = ulam.build_ulam(experiments.restricted_turning_map(wparams(fam, a)), bins)
        h = ulam.stationary_density(matrix)
        mids = 0.5 * (matrix.edges[:-1] + matrix.edges[1:])
        return matrix, h, h.value_at(mids)

    def _case_i_problems(self, fam, a, rec, what):
        matrix, h, cells = self._restricted(fam, a)
        problems = [] if rec.error is None else [f"{what}: error {rec.error}"]
        problems += checks.equal(rec.case, oracle.case(fam[0], fam[1]), what + " case")
        problems += checks.stationary(oracle.restricted_map(*fam, a), matrix.edges, cells, what)
        problems += checks.normalized(h.breakpoints, h.values, what)
        d = oracle.w1_to_limit(h.breakpoints, h.values, oracle.limit_measure(*fam))
        return problems + checks.same(rec.d_to_limit, d, what + " d_to_limit")

    def self_test(self, ops, outputs):
        (fam, a, bins), (matrix, h, g, gap, res_h, _) = ops[0].inputs, outputs[0]
        wm = oracle.w_map(*fam, a)
        bumped = matrix.matrix.copy()
        bumped.data[0] += 1e-9
        s1, s2, _ = ops[-1].inputs
        zero_matrix, zero_h = outputs[-1]
        fam_i, a_i = ops[8].inputs
        restricted, _, cells = self._restricted(fam_i, a_i)
        return [
            _rejects("rows", checks.rows_stochastic(bumped, "x")),
            _rejects("stationary", checks.stationary(wm, matrix.edges, np.roll(h.values, 1), "x")),
            _rejects("restricted stationary", checks.stationary(oracle.restricted_map(*fam_i, a_i), restricted.edges, np.roll(cells, 1), "x")),
            _rejects("h0", checks.equals_h0(s1, s2, np.roll(zero_h.values, 1), zero_matrix.edges, "x")),
            _rejects("integral", checks.normalized(h.breakpoints, _bump(h.values, 1e-3), "x")),
            _rejects("L1", checks.same(gap * (1 + 1e-6), oracle.l1_distance_np((g.breakpoints, g.values), (h.breakpoints, h.values)), "x")),
            _rejects("residual", checks.same(res_h * (1 + 1e-6), oracle.l1_distance_np(oracle.push_forward_np(wm, h.breakpoints, h.values), (h.breakpoints, h.values)), "x")),
        ]


# ---------------------------------------------------------------------------


def _family_flags(fam, a=None):
    flags = []
    for name, value in zip(("--s1", "--s2", "--p", "--q", "--r"), fam):
        flags += [name, repr(float(value))]
    return flags + ([] if a is None else ["--a", repr(float(a))])


def _read_table(data: bytes):
    lines = [ln for ln in data.decode().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [[None if c == "" else c for c in ln.split(",")] for ln in lines[1:]]


def _density_file(data):
    _, rows = _read_table(data)
    cells = np.array([[float(c) for c in row] for row in rows])
    return np.append(cells[:, 0], cells[-1, 1]), cells[:, 2]


class CliCalls:
    """One seeded round of eight ``python -m acimlab.cli`` calls covering the
    six subcommands, ``density`` with each of gora, ulam and both."""

    name = "cli_calls"
    repeat_inputs = True

    def __init__(self, seed, workdir, in_process=False):
        self.workdir, self.in_process = workdir, in_process
        rng = random.Random(f"cli_calls:{seed}")
        s1, s2 = dyadic_slopes(rng)
        fam_map, fam_gora, fam_both, fam_sweep = (draw_case_iii(rng) for _ in range(4))
        fam_ulam, fam_ratios = draw_case_ii(rng), draw_case_ii(rng)
        a_map, a_gora = (10.0 ** rng.uniform(-3, -2) for _ in range(2))
        a_ulam, a_both = (10.0 ** rng.uniform(-2.5, -2) for _ in range(2))
        bins_ulam, bins_both = rng.randint(512, 2048), rng.randint(512, 2048)
        x, n_max = rng.uniform(0.01, 0.99), rng.randint(3, 5)
        # every a here is at most 1e-2, and admissibility only tightens as a grows
        assert all(admissible(f, 1e-2) for f in (fam_map, fam_gora, fam_both, fam_sweep, fam_ulam, fam_ratios))
        out = {name: os.path.join(workdir, name + ".csv") for name in ("gora", "ulam", "both", "sweep", "ratios", "ce")}
        calls = [
            ("classify", {"s": (s1, s2)}, ["classify", "--s1", repr(s1), "--s2", repr(s2)]),
            ("map-eval", {"params": (*fam_map, a_map), "x": x, "steps": 3},
             ["map-eval", *_family_flags(fam_map, a_map), "--x", repr(x), "--steps", "3"]),
            ("density", {"method": "gora", "params": (*fam_gora, a_gora), "file": out["gora"]},
             ["density", *_family_flags(fam_gora, a_gora), "--output", out["gora"]]),
            ("density", {"method": "ulam", "params": (*fam_ulam, a_ulam), "file": out["ulam"]},
             ["density", *_family_flags(fam_ulam, a_ulam), "--method", "ulam", "--bins", str(bins_ulam),
              "--output", out["ulam"]]),
            ("density", {"method": "both", "params": (*fam_both, a_both), "file": out["both"]},
             ["density", *_family_flags(fam_both, a_both), "--method", "both", "--bins", str(bins_both),
              "--output", out["both"]]),
            ("sweep", {"fam": fam_sweep, "schedule": (1e-2, 1e-3, 1e-4), "file": out["sweep"]},
             ["sweep", *_family_flags(fam_sweep), "--a-schedule", "0.01,0.001,0.0001", "--output", out["sweep"]]),
            ("ratios", {"fam": fam_ratios, "file": out["ratios"]},
             ["ratios", *_family_flags(fam_ratios), "--a-start", "0.01", "--a-stop", "1e-06", "--a-points", "9",
              "--output", out["ratios"]]),
            ("counterexample", {"n_max": n_max, "file": out["ce"]},
             ["counterexample", "--n-max", str(n_max), "--output", out["ce"]]),
        ]
        self.ops = [Op(kind, (inputs, argv), partial(self.call, argv, inputs)) for kind, inputs, argv in calls]

    def call(self, argv, inputs):
        """Run one CLI call; returns (exit code, stdout, {file: bytes})."""
        if self.in_process:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argv)
            stdout = buffer.getvalue()
        else:
            proc = subprocess.run([sys.executable, "-m", "acimlab.cli", *argv], capture_output=True, text=True)
            code, stdout = proc.returncode, proc.stdout
        files = {}
        if "file" in inputs:
            root, ext = os.path.splitext(inputs["file"])
            names = [root + ".gora" + ext, root + ".ulam" + ext] if inputs.get("method") == "both" else [inputs["file"]]
            for name in names:
                with open(name, "rb") as handle:
                    files[name] = handle.read()
        return code, stdout, files

    def warm_up(self):
        warm = os.path.join(self.workdir, "warm.csv")
        fig = _family_flags(FIXED_CASE_II[0])
        for argv in (
            ["classify", "--s1", "1.5", "--s2", "3"],
            ["map-eval", *fig, "--a", "0.01", "--x", "0.3", "--steps", "2"],
            ["density", *fig, "--a", "0.01", "--output", warm],
            ["sweep", *fig, "--a-schedule", "0.01", "--output", warm],
            ["ratios", *fig, "--a-schedule", "0.01,0.005", "--output", warm],
            ["counterexample", "--n-max", "1", "--output", warm],
        ):
            code, _, _ = self.call(argv, {})
            if code != 0:
                raise RuntimeError(f"warm-up call failed: {argv}")

    def round_ops(self, index):
        return self.ops

    def check(self, ops, outputs):
        verdicts = []
        for op, (code, stdout, files) in zip(ops, outputs):
            inputs, argv = op.inputs
            what = f"cli {' '.join(argv[:1])} {inputs.get('method', '')}".strip()
            problems = [] if code == 0 else [f"{what}: exit code {code}"]
            if not problems:
                problems = getattr(self, "_check_" + op.kind.replace("-", "_"))(inputs, stdout, files, what)
            verdicts.append((False, problems))
        return verdicts

    def _check_classify(self, inputs, stdout, files, what):
        return checks.equal(stdout, f"case {oracle.case(*inputs['s'])}\n", what)

    def _check_map_eval(self, inputs, stdout, files, what):
        exact_params = oracle.exact(*inputs["params"])
        wm = oracle.w_map(*exact_params)
        expected = oracle.orbit(wm, Fraction(inputs["x"]), inputs["steps"])
        got = [float(v) for v in stdout.split()]
        if len(got) != len(expected):
            return [f"{what}: {len(got)} values for {len(expected)} orbit points"]
        grow = float(max(abs(s) for s in wm[1]))
        return [
            f"{what}: W^{i}(x) = {v!r}, oracle {float(e)!r}"
            for i, (v, e) in enumerate(zip(got, expected))
            if abs(v - float(e)) > 1e-13 * grow**i
        ]

    def _check_density(self, inputs, stdout, files, what):
        params = inputs["params"]
        wm = oracle.w_map(*params)
        loaded = {name: _density_file(data) for name, data in files.items()}
        problems = []
        for name, (bp, vals) in loaded.items():
            problems += checks.normalized(bp, vals, f"{what} {os.path.basename(name)}")
            if name.endswith(".ulam.csv") or inputs["method"] == "ulam":
                problems += checks.stationary(wm, bp, vals, what)
            else:
                problems += checks.invariant_series(params, bp, vals, what)
        if inputs["method"] == "both":
            gora, ul = (loaded[n] for n in sorted(loaded))
            problems += checks.same(float(stdout), oracle.l1_distance_np(gora, ul), what + " L1")
        return problems

    def _check_sweep(self, inputs, stdout, files, what):
        fam = inputs["fam"]
        _, rows = _read_table(files[inputs["file"]])
        problems = []
        for row, a in zip(rows, inputs["schedule"]):
            _, h = _raw_and_normalized(fam, a)
            problems += checks.equal(float(row[0]), a, what + " a")
            problems += checks.equal(row[1], oracle.case(fam[0], fam[1]), what + " case")
            problems += checks.equal(int(row[9]), oracle.turning_exit_index(*oracle.exact(*fam, a)), what + " k")
            d = oracle.w1_to_limit(h.breakpoints, h.values, oracle.limit_measure(*fam))
            problems += checks.same(float(row[2]), d, what + " d_to_limit")
        return problems + checks.falling([float(row[2]) for row in rows], what + " d_to_limit")

    def _check_ratios(self, inputs, stdout, files, what):
        fam = inputs["fam"]
        _, rows = _read_table(files[inputs["file"]])
        values = np.array([[float(c) for c in row] for row in rows])
        problems = []
        for col, target in enumerate(oracle.ratio_targets(*fam)):
            for got in values[:, 5 + col]:
                problems += checks.same(float(got), target, what + " target")
        return problems + checks.ratios_approach(values[:, 1:5], oracle.ratio_targets(*fam), what)

    def _check_counterexample(self, inputs, stdout, files, what):
        _, rows = _read_table(files[inputs["file"]])
        rows = [(int(r[0]), float(r[1]), float(r[2]), float(r[3]), float(r[4])) for r in rows]
        if len(rows) != inputs["n_max"]:
            return [f"{what}: {len(rows)} rows for n_max = {inputs['n_max']}"]
        return checks.counterexample_rows(rows, _counterexample_densities(rows), what)

    def self_test(self, ops, outputs):
        results = []
        for op, (code, stdout, files) in zip(ops, outputs):
            inputs, argv = op.inputs
            check = getattr(self, "_check_" + op.kind.replace("-", "_"))
            if op.kind == "classify":
                results.append(_rejects("classify", check(inputs, "case I\n" if stdout != "case I\n" else "case II\n", files, "x")))
            elif op.kind == "map-eval":
                lines = stdout.split()
                lines[-1] = repr(float(lines[-1]) + 1e-9)
                results.append(_rejects("map-eval", check(inputs, "\n".join(lines), files, "x")))
            else:
                name = sorted(files)[0]
                lines = files[name].decode().splitlines()
                rows = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
                last = rows[-1]
                cells = lines[last].split(",")
                if op.kind == "ratios":  # C2/a no nearer its target than at the first point
                    cells[2] = lines[rows[0]].split(",")[2]
                else:  # value, d_to_limit, or d_n
                    col = 3 if op.kind == "counterexample" else 2
                    cells[col] = repr(float(cells[col]) * 1.001 + 1e-3)
                lines[last] = ",".join(cells)
                corrupt = dict(files, **{name: ("\n".join(lines) + "\n").encode()})
                label = f"{op.kind} {inputs.get('method', '')}".strip()
                results.append(_rejects(label, check(inputs, stdout, corrupt, "x")))
        return results


def make(name, seed, workdir, in_process=False):
    if name == "series_sweep":
        return SeriesSweep(seed)
    if name == "ulam_crosscheck":
        return UlamCrosscheck(seed)
    return CliCalls(seed, workdir, in_process)
