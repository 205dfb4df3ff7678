"""The acimlab benchmark: run one workload and print its metrics as JSON.

    python3 benchmark/run.py --workload series_sweep --seed 1 --seconds 30 --trace 0

Runs from a plain checkout, with nothing installed: workers get the
checkout's ``src`` on an absolute ``PYTHONPATH`` and one BLAS thread.  With
``--trace 0`` the last line of standard output carries the end-to-end
metrics (``setup_s`` is the median over several fresh worker processes);
with ``--trace 1`` it carries the per-layer metrics of a traced run.
Results and span files are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("series_sweep", "ulam_crosscheck", "cli_calls")
SETUP_SAMPLES = 4  # fresh worker processes timed to first operation; the last one runs
WORKER_TIMEOUT = 150.0


def worker_env():
    env = dict(os.environ)
    paths = [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, mode):
    """Start one worker; return (process, seconds until it reported ready)."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--out-dir", str(OUT),
    ]  # fmt: skip
    t0 = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready ({mode}): {line!r}")
    return proc, ready


def finish(proc, expect_result=True):
    """Wait for a worker (killing it after WORKER_TIMEOUT); return its result."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]) if expect_result else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "acimlab" / "__init__.py").is_file():
        print(f"benchmark: no acimlab sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    try:
        if args.trace:
            result = finish(start_worker(args, "trace")[0])
        else:
            setups = []
            for _ in range(SETUP_SAMPLES - 1):
                proc, ready = start_worker(args, "setup")
                setups.append(ready)
                finish(proc, expect_result=False)
            proc, ready = start_worker(args, "run")
            setups.append(ready)
            result = finish(proc)
            result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    except (RuntimeError, ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    print(
        f"{args.workload}: {result['rounds']} rounds, {result['attempted']} operations, "
        f"{result['failed']} failed, {result['measured_s']:.2f} s measured",
        file=sys.stderr,
    )
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
