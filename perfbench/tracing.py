"""Span wrappers around isoconv's public functions, for the traced run only.

`Tracer.install()` replaces each target function in every loaded isoconv
module that binds it (the defining module and the modules that imported it
by name), so calls through either name are recorded. Handlers that import
lazily read the module attribute at call time and see the wrapper too.
`uninstall()` puts the originals back. Nothing is wrapped in untraced runs.

Spans stay in memory as (layer, start, end, parent, counts) and are
aggregated, or written out, at the end. A span's self time is its duration
minus the durations of its direct children. Oracles built by `bodies` are
closures, not targets, so their time is self time of their caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict


def _n_dirs(directions) -> int:
    import numpy as np

    return 1 if np.ndim(directions) == 1 else len(directions)


def _zp_counts(a, result):
    return {"products": a["samples"].count * _n_dirs(a["directions"])}


def _volrad_counts(a, result):
    body, method = a["body"], a["method"]
    if method == "auto":
        method = "analytic" if "volume" in body.analytic else "support-hull"
    hull = method == "support-hull" and body.dim > 1
    return {"halfspaces": a["n_directions"] if hull else 0}


def _mean_width_counts(a, result):
    return {"directions": 0 if "ball_radius" in a["body"].analytic else a["sphere_samples"]}


def _greedy_counts(a, result):
    m = a["cloud"].shape[0]
    return {"distance_evals": m * min(a["n_centers"], m)}


def _report_counts(a, result):
    return {"bytes_written": os.path.getsize(a["path"])}


# (module, function, layer name, counts from bound arguments, trace allocations)
TARGETS = (
    ("centroid", "zp_support", "centroid.zp_support", _zp_counts, True),
    ("centroid", "zp_touching_points", "centroid.zp_touching_points", _zp_counts, True),
    ("grassmann", "volume_radius_lowdim", "grassmann.volume_radius_lowdim", _volrad_counts, False),
    ("grassmann", "project_body", "grassmann.project_body", None, False),
    ("grassmann", "random_subspace", "grassmann.random_subspace", None, False),
    ("grassmann", "vk_estimate", "grassmann.vk_estimate", None, False),
    ("functionals", "mean_width", "functionals.mean_width", _mean_width_counts, False),
    ("functionals", "_body_grid_cloud", "functionals.covering", None, False),
    ("functionals", "_greedy_covering_radii", "functionals.covering", _greedy_counts, False),
    ("measures", "draw_samples", "measures.draw_samples",
     lambda a, r: {"points": a["count"]}, False),
    ("isotropy", "estimate_moments", "isotropy.estimate_moments", None, False),
    ("seeds", "sphere_directions", "seeds.sphere_directions",
     lambda a, r: {"directions": a["count"]}, False),
    ("experiments", "run_suite", "experiments.run_suite", None, False),
    ("experiments", "emit_report", "experiments.emit_report", _report_counts, False),
    ("cli", "main", "cli.main", None, False),
)

# Per-layer metrics reported by the traced run: (layer, stat, unit).
METRICS = (
    ("centroid.zp_support", "calls", "count"),
    ("centroid.zp_support", "self_s", "s"),
    ("centroid.zp_support", "products", "count"),
    ("centroid.zp_support", "peak_alloc_mb", "MB"),
    ("centroid.zp_touching_points", "self_s", "s"),
    ("centroid.zp_touching_points", "products", "count"),
    ("centroid.zp_touching_points", "peak_alloc_mb", "MB"),
    ("grassmann.volume_radius_lowdim", "calls", "count"),
    ("grassmann.volume_radius_lowdim", "self_s", "s"),
    ("grassmann.volume_radius_lowdim", "halfspaces", "count"),
    ("grassmann.project_body", "calls", "count"),
    ("grassmann.random_subspace", "self_s", "s"),
    ("grassmann.vk_estimate", "self_s", "s"),
    ("functionals.mean_width", "calls", "count"),
    ("functionals.mean_width", "self_s", "s"),
    ("functionals.mean_width", "directions", "count"),
    ("functionals.covering", "self_s", "s"),
    ("functionals.covering", "distance_evals", "count"),
    ("measures.draw_samples", "self_s", "s"),
    ("measures.draw_samples", "points", "count"),
    ("isotropy.estimate_moments", "calls", "count"),
    ("isotropy.estimate_moments", "self_s", "s"),
    ("seeds.sphere_directions", "self_s", "s"),
    ("seeds.sphere_directions", "directions", "count"),
    ("experiments.run_suite", "self_s", "s"),
    ("experiments.emit_report", "self_s", "s"),
    ("experiments.emit_report", "bytes_written", "B"),
    ("cli.main", "self_s", "s"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent index, counts]
        self._open = []  # indices of spans not yet ended
        self._patched = []  # (namespace, attribute, original)

    def _wrap(self, fn, layer, counts, trace_alloc):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = [layer, 0.0, 0.0, parent, {}]
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            if trace_alloc:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if trace_alloc:
                    span[4]["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._open.pop()
            if counts is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4].update(counts(bound.arguments, result))
            return result

        return wrapper

    def install(self) -> None:
        loaded = [m for name, m in list(sys.modules.items())
                  if name == "isoconv" or name.startswith("isoconv.")]
        for module, attr, layer, counts, trace_alloc in TARGETS:
            original = getattr(importlib.import_module(f"isoconv.{module}"), attr)
            wrapper = self._wrap(original, layer, counts, trace_alloc)
            for ns in loaded:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, name, wrapper)
                        self._patched.append((ns, name, original))

    def uninstall(self) -> None:
        for ns, name, original in reversed(self._patched):
            setattr(ns, name, original)
        self._patched.clear()

    def layer_totals(self, first_span: int = 0) -> dict:
        """{layer: {"calls", "self_s", counts...}} over spans from first_span on.

        Counts are summed; peak_alloc_mb takes the maximum.
        """
        child_time = defaultdict(float)
        for layer, start, end, parent, _ in self.spans[first_span:]:
            if parent >= first_span:
                child_time[parent] += end - start
        totals = defaultdict(lambda: defaultdict(float))
        for i, (layer, start, end, parent, counts) in enumerate(self.spans[first_span:], first_span):
            t = totals[layer]
            t["calls"] += 1
            t["self_s"] += (end - start) - child_time[i]
            for key, value in counts.items():
                t[key] = max(t[key], value) if key == "peak_alloc_mb" else t[key] + value
        return totals

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["layer", "start", "end", "parent", "counts"],
                       "spans": self.spans}, fh)
