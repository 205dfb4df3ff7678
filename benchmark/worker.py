"""One workload process: set up, signal readiness, run timed rounds, check.

Started by ``run.py``; prints ``ready`` once imports, inputs and one warm-up
of each operation kind are done, then (unless ``--mode setup``) prints one
JSON line with the run's results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import workloads  # imports acimlab


class Runner:
    """Runs whole rounds of a workload, timing each operation, and checks
    each round's outputs between rounds, outside the measured time."""

    def __init__(self, workload, tracer=None):
        self.workload, self.tracer = workload, tracer
        self.op_times, self.round_times, self.measured, self.rounds = [], [], 0.0, 0
        self.attempted, self.failed, self.problems = 0, 0, []
        self.selftest = []
        # (outputs, verdicts) of round 0, which later rounds of a repeating
        # workload must reproduce
        self.reference = None

    def round(self, index):
        ops = self.workload.round_ops(index)
        outputs = []
        tracer = self.tracer
        start = time.perf_counter()
        if tracer is not None:
            tracer.active = True
        for op in ops:
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.begin("op." + op.kind)
            try:
                outputs.append(op.run())
            except Exception as exc:  # reported as a problem; the run goes on
                outputs.append(exc)
            if tracer is not None:
                tracer.end()
            self.op_times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        self.round_times.append(time.perf_counter() - start)
        self.measured += self.round_times[-1]
        self.attempted += len(ops)
        self.rounds += 1
        self._check(index, ops, outputs)

    def _check(self, index, ops, outputs):
        errors = [f"{op.kind} {op.inputs}: raised {out!r}" for op, out in zip(ops, outputs) if isinstance(out, Exception)]
        if errors:
            verdicts = [(False, errors)]
        elif self.workload.repeat_inputs and self.reference is not None:
            verdicts = self.reference[1]
            if outputs != self.reference[0]:
                verdicts = verdicts + [(False, [f"round {index} differs from round 0"])]
        else:
            verdicts = self.workload.check(ops, outputs)
            if self.reference is None:
                self.reference = (outputs, verdicts)
        if not self.selftest and not errors:
            self.selftest = self.workload.self_test(ops, outputs)
        self.failed += sum(1 for failed, _ in verdicts if failed)
        self.problems += [p for _, problems in verdicts for p in problems]


def startup_seconds(code, repeats=3):
    """Median wall time of ``python -c code`` in a fresh process."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


TRACE_ROUNDS = {"series_sweep": 40, "ulam_crosscheck": 3, "cli_calls": 5}


def trace_metrics(name, seed, workdir, out_dir):
    """Per-layer metrics from TRACE_ROUNDS rounds, each run untraced and then
    traced; the time difference is the tracing overhead."""
    import tracing

    workload = workloads.make(name, seed, workdir, in_process=True)
    workload.warm_up()
    tracer = tracing.Tracer()
    plain = Runner(workload)
    traced = Runner(workload, tracer)
    for index in range(TRACE_ROUNDS[name]):
        plain.round(index)
        traced.reference = plain.reference
        tracer.install()
        try:
            traced.round(index)
        finally:
            tracer.uninstall()
    tracer.write(os.path.join(out_dir, f"spans-{name}-seed{seed}.json"))

    ops = traced.attempted
    totals = tracer.layer_totals()
    counts = tracer.counts
    metrics = {}

    def put(key, value, unit):
        metrics[key] = {"value": value, "unit": unit}

    interpreter = startup_seconds("pass")
    put("cli.interpreter_s", interpreter, "s")
    put("cli.import_s", startup_seconds("import acimlab.cli") - interpreter, "s")
    spans = tracer.spans
    for sub in ("classify", "map-eval", "density", "sweep", "ratios", "counterexample"):
        runs = [end - start for nm, start, end, parent in spans if nm == "cli.main" and spans[parent][0] == "op." + sub]
        put(f"cli.main_s.{sub}", statistics.mean(runs) if runs else 0.0, "s")
    for layer, calls in (
        ("wmap.build_w_map", True),
        ("density.turning_orbit", True),
        ("density.lambda_solve", True),
        ("density.density_series", True),
        ("density.region_integrals", True),
        ("density.normalize", False),
        ("density.transfer_operator_apply", True),
        ("density.l1_distance", False),
        ("ulam.build_ulam", True),
        ("ulam.stationary_density", False),
        ("ulam.wasserstein1", True),
        ("experiments.sweep", False),
    ):
        n, self_s = totals.get(layer, (0, 0.0))
        if calls:
            put(f"{layer}.calls", n / ops, "count")
        put(f"{layer}.self_s", self_s / ops, "s")
    put("wmap.map_evals", counts["wmap.map_evals"] / ops, "count")
    put("density.transfer_operator_apply.cells_in", counts["density.transfer_operator_apply.cells_in"] / ops, "count")
    put("ulam.matrix_nnz", counts["ulam.matrix_nnz"] / ops, "count")
    points = counts["sweep_points"]
    put("density.orbit_walks_per_point", counts["sweep_orbit_walks"] / points if points else 0.0, "count")
    rows = counts["counterexample_rows"]
    put("experiments.counterexample.candidates_per_row", counts["counterexample_candidates"] / rows if rows else 0.0, "count")
    put("trace.overhead_pct", 100.0 * (traced.measured / plain.measured - 1.0), "%")
    return traced, metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    workdir = os.path.join(args.out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.mode == "trace":
            print("ready", flush=True)
            result, metrics = trace_metrics(args.workload, args.seed, workdir, args.out_dir)
        else:
            workload = workloads.make(args.workload, args.seed, workdir)
            workload.warm_up()
            print("ready", flush=True)
            if args.mode == "setup":
                return 0
            result = Runner(workload)
            index = 0
            while result.measured < args.seconds:
                result.round(index)
                index += 1
            who = resource.RUSAGE_CHILDREN if args.workload == "cli_calls" else resource.RUSAGE_SELF
            metrics = {
                "ops_per_s": {"value": result.attempted / result.measured, "unit": "ops/s"},
                "op_ms_p50": {"value": 1e3 * statistics.median(result.op_times), "unit": "ms"},
                "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024.0, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missed = [name for name, rejected in result.selftest if not rejected]
    for problem in result.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name in missed:
        print(f"self-test: corrupted output passed the '{name}' check", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not result.problems and not missed and bool(result.selftest),
                "attempted": result.attempted,
                "failed": result.failed,
                "rounds": result.rounds,
                "measured_s": result.measured,
                "round_s": result.round_times,
                "selftest": result.selftest,
                "problems": result.problems[:20],
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
