"""Spans and counts around acimlab's public functions, installed from outside.

``Tracer.install`` replaces each traced function in every acimlab module
namespace that holds it with a wrapper that records a span
``[name, start, end, parent]`` in memory while the tracer is active.  Self
time is a span's duration minus the durations of its direct children.
Counting-only hooks cover calls too frequent for a span: map evaluations
and orbit walks.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import acimlab.cli
import acimlab.density
import acimlab.experiments
import acimlab.ulam
import acimlab.wmap

# layer name -> (defining module, attribute)
SPANNED = {
    "wmap.build_w_map": (acimlab.wmap, "build_w_map"),
    "density.turning_orbit": (acimlab.density, "turning_orbit"),
    "density.lambda_solve": (acimlab.density, "lambda_solve"),
    "density.density_series": (acimlab.density, "density_series"),
    "density.region_integrals": (acimlab.density, "region_integrals"),
    "density.normalize": (acimlab.density, "normalize"),
    "density.transfer_operator_apply": (acimlab.density, "transfer_operator_apply"),
    "density.l1_distance": (acimlab.density, "l1_distance"),
    "ulam.build_ulam": (acimlab.ulam, "build_ulam"),
    "ulam.stationary_density": (acimlab.ulam, "stationary_density"),
    "ulam.wasserstein1": (acimlab.ulam, "wasserstein1"),
    "experiments.sweep": (acimlab.experiments, "sweep"),
    "experiments.counterexample": (acimlab.experiments, "counterexample_sequence"),
    "cli.main": (acimlab.cli, "main"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.active = False
        self._patches = []

    # -- recording ----------------------------------------------------------

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def end(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            self._observe(name, args, result)
            return result

        return wrapper

    def _observe(self, name, args, result):
        c = self.counts
        if name == "density.transfer_operator_apply":
            c["density.transfer_operator_apply.cells_in"] += args[1].values.size
        elif name == "ulam.build_ulam":
            c["ulam.matrix_nnz"] += result.matrix.nnz
        elif name == "experiments.sweep":
            c["sweep_points"] += len(result)
        elif name == "experiments.counterexample":
            c["counterexample_rows"] += len(result)
        elif name == "density.normalize" and self.inside("experiments.counterexample"):
            c["counterexample_candidates"] += 1

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "acimlab"]
        for name, (home, attr) in SPANNED.items():
            original = getattr(home, attr)
            wrapper = self._spanned(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

        plm = acimlab.wmap.PiecewiseLinearMap
        call = plm.__call__

        def counted_call(pl_map, x):
            if self.active:
                self.counts["wmap.map_evals"] += 1
            return call(pl_map, x)

        self._patch(plm, "__call__", counted_call)

        walk = getattr(acimlab.density, "_orbit_steps", None)
        if walk is not None:  # the series' orbit walk, a generator

            def counted_walk(*args, **kwargs):
                if self.active and self.inside("experiments.sweep"):
                    self.counts["sweep_orbit_walks"] += 1
                return walk(*args, **kwargs)

            self._patch(acimlab.density, "_orbit_steps", counted_walk)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ----------------------------------------------------------

    def layer_totals(self):
        """{name: (calls, self seconds)} over all recorded spans."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            totals[name][0] += 1
            totals[name][1] += end - start - child_time[i]
        return totals

    def write(self, path):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)
