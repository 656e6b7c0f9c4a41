"""Per-layer tracing for the benchmark's traced run.

While a ``Tracer`` is installed it replaces each layer's public functions,
as the calling module sees them (``dprkit.pipeline.cross_validate``,
``dprkit.regression.fit_elastic_net`` as the coefficient path calls it, ...),
by wrappers that record a span (name, start, end, parent) and read counters
from the returned objects.  The program's own code runs unchanged; nothing
in ``src/`` knows about the tracer.  Spans stay in memory until ``dump``.

Times named ``*_s`` are the summed durations of a layer's spans in one
operation, scaled to the reference host like op_s; the ``*_self_s``
metrics and ``pipeline.cross_validate_s`` subtract the time their child
spans cover.  Every metric is a mean per traced operation.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from dprkit import cli, clustering, pipeline, regression

ROOT = "cli.main"
# time metrics that exclude the time of their span's child spans
SELF_TIME = {"pipeline.cross_validate_s", "pipeline.run_dpr_self_s", "cli.self_s"}

# metric -> (unit, the span whose entry points it needs).  Every metric is
# better lower; BENCHMARK.json lists the same metrics.
METRICS = {
    "panel.load_panel_s": ("s", "panel.load_panel"),
    "panel.rows_loaded": ("count", "panel.load_panel"),
    "panel.mix_s": ("s", "panel.mix"),
    "panel.log_transform_s": ("s", "panel.log_transform"),
    "clustering.pairwise_distances_calls": ("count", "clustering.pairwise_distances"),
    "clustering.distance_bytes": ("bytes", "clustering.pairwise_distances"),
    "clustering.pairwise_distances_s": ("s", "clustering.pairwise_distances"),
    "clustering.scan_params_s": ("s", "clustering.scan_params"),
    "clustering.scan_cells": ("count", "clustering.scan_params"),
    "clustering.dbscan_s": ("s", "clustering.dbscan"),
    "clustering.k_distance_profile_s": ("s", "clustering.k_distance_profile"),
    "clustering.noise_rows": ("count", "clustering.dbscan"),
    "clustering.clusters": ("count", "clustering.dbscan"),
    "clustering.assign_by_nearest_core_s": ("s", "clustering.assign_by_nearest_core"),
    "clustering.assigned_rows": ("count", "clustering.assign_by_nearest_core"),
    "regression.fits": ("count", "regression.fit"),
    "regression.sweeps": ("count", "regression.fit"),
    "regression.unconverged_fits": ("count", "regression.fit"),
    "regression.coord_updates": ("count", "regression.fit"),
    "regression.ns_per_coord_update": ("ns", "regression.fit"),
    "regression.fit_s": ("s", "regression.fit"),
    "regression.design_width": ("count", "regression.standardize"),
    "regression.regularization_path_s": ("s", "regression.regularization_path"),
    "regression.standardize_s": ("s", "regression.standardize"),
    "pipeline.cross_validate_s": ("s", "pipeline.cross_validate"),
    "pipeline.augment_with_dummies_s": ("s", "pipeline.augment_with_dummies"),
    "pipeline.forecast_report_s": ("s", "pipeline.forecast_report"),
    "pipeline.forecast_rows": ("count", "pipeline.forecast_report"),
    "pipeline.write_report_s": ("s", "pipeline.write_report"),
    "pipeline.run_dpr_self_s": ("s", "pipeline.run_dpr"),
    "tables.write_table_s": ("s", "tables.write_table"),
    "tables.bytes_written": ("bytes", "tables.write_table"),
    "cli.self_s": ("s", ROOT),
    "trace.overhead_s": ("s", ROOT),
    "host.ref_s": ("s", ROOT),
    "host.op_wall_s": ("s", ROOT),
}
# measured by run.py, not by spans; host.* are unscaled wall times
EXTERNAL = ("trace.overhead_s", "host.ref_s", "host.op_wall_s")


def _rows_loaded(counts, args, result, seconds):
    counts["panel.rows_loaded"] += result.n_obs


def _distances(counts, args, result, seconds):
    counts["clustering.pairwise_distances_calls"] += 1
    counts["clustering.distance_bytes"] += result.nbytes


def _scan(counts, args, result, seconds):
    counts["clustering.scan_cells"] += len(result)


def _clusters(counts, args, result, seconds):
    counts["clustering.noise_rows"] += result.n_noise
    counts["clustering.clusters"] += result.k


def _assigned(counts, args, result, seconds):
    counts["clustering.assigned_rows"] += len(result)


def _fit(counts, args, result, seconds):
    d = result.diagnostics
    counts["regression.fits"] += 1
    counts["regression.unconverged_fits"] += not d["converged"]
    if d["iterations"]:  # coordinate descent; the closed-form ridge reports 0
        dm = args[0]
        width = int(np.sum(~dm.zero_variance & ~np.all(dm.X == dm.X[:1], axis=0)))
        counts["regression.sweeps"] += d["iterations"]
        counts["regression.coord_updates"] += d["iterations"] * width
        counts["cd_fit_s"] += seconds


def _width(counts, args, result, seconds):
    counts["regression.design_width"] += result.p


def _forecast_rows(counts, args, result, seconds):
    counts["pipeline.forecast_rows"] += len(result.rows)


def _bytes(counts, args, result, seconds):
    if isinstance(args[0], (str, os.PathLike)):
        counts["tables.bytes_written"] += os.path.getsize(args[0])


# (module, attribute, span, counter hook); a hook gets the op's counters, the
# call's positional arguments, its result and the span's duration.
HOOKS = [
    (cli, "load_panel", "panel.load_panel", _rows_loaded),
    (pipeline, "energy_mix_features", "panel.mix", None),
    (cli, "energy_mix_features", "panel.mix", None),
    (pipeline, "log_transform", "panel.log_transform", None),
    (clustering, "pairwise_distances", "clustering.pairwise_distances", _distances),
    (pipeline, "scan_params", "clustering.scan_params", _scan),
    (pipeline, "dbscan", "clustering.dbscan", _clusters),
    (pipeline, "k_distance_profile", "clustering.k_distance_profile", None),
    (pipeline, "assign_by_nearest_core", "clustering.assign_by_nearest_core", _assigned),
    (clustering, "assign_by_nearest_core", "clustering.assign_by_nearest_core", _assigned),
    (pipeline, "fit_ridge", "regression.fit", _fit),
    (pipeline, "fit_lasso", "regression.fit", _fit),
    (pipeline, "fit_elastic_net", "regression.fit", _fit),
    (regression, "fit_elastic_net", "regression.fit", _fit),
    (pipeline, "standardize", "regression.standardize", _width),
    (pipeline, "regularization_path", "regression.regularization_path", None),
    (pipeline, "cross_validate", "pipeline.cross_validate", None),
    (pipeline, "augment_with_dummies", "pipeline.augment_with_dummies", None),
    (pipeline, "forecast_report", "pipeline.forecast_report", _forecast_rows),
    (pipeline, "run_dpr", "pipeline.run_dpr", None),
    (pipeline, "write_report", "pipeline.write_report", None),
    (pipeline, "write_table", "tables.write_table", _bytes),
    (cli, "write_table", "tables.write_table", _bytes),
]


class Tracer:
    """Spans and counters of the traced operations of one run."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op_counts: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()
        self.present = {ROOT} | {
            span for module, attr, span, _ in HOOKS if hasattr(module, attr)
        }

    def _enter(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append({
            "op": len(self.op_counts) - 1, "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self._t0, "end": None,
        })
        self._stack.append(sid)
        return sid

    def _exit(self, sid: int) -> float:
        self._stack.pop()
        span = self.spans[sid]
        span["end"] = time.perf_counter() - self._t0
        return span["end"] - span["start"]

    def _wrap(self, fn, name: str, hook, counts: dict):
        def traced(*args, **kwargs):
            sid = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self._exit(sid)
            if hook is not None:
                hook(counts, args, result, seconds)
            return result

        return traced

    @contextmanager
    def operation(self):
        """Install the wrappers for one operation and record its root span."""
        counts: dict = defaultdict(float)
        self.op_counts.append(counts)
        saved = []
        try:
            for module, attr, name, hook in HOOKS:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, hook, counts))
            sid = self._enter(ROOT)
            try:
                yield
            finally:
                self._exit(sid)
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _op_metrics(self, op: int) -> dict:
        spans = [s for s in self.spans if s["op"] == op]
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for s in spans:
            d = s["end"] - s["start"]
            total[s["name"]] += d
            own[s["name"]] += d
            if s["parent"] is not None:
                own[self.spans[s["parent"]]["name"]] -= d
        counts = self.op_counts[op]
        out = {}
        for name, (unit, span) in METRICS.items():
            if name in EXTERNAL:
                continue
            if name == "regression.ns_per_coord_update":
                updates = counts["regression.coord_updates"]
                out[name] = 1e9 * counts["cd_fit_s"] / updates if updates else 0.0
            elif unit == "s":
                out[name] = (own if name in SELF_TIME else total)[span]
            else:
                out[name] = float(counts[name])
        return out

    def metrics(self, scale: float, external: dict) -> dict:
        """Mean per traced operation of every metric whose entry points exist.

        Times (and ns_per_coord_update) are multiplied by ``scale``, the
        run's reference-host factor; ``external`` holds the EXTERNAL metrics.
        """
        per_op = [self._op_metrics(op) for op in range(len(self.op_counts))]
        out = {}
        for name, (unit, span) in METRICS.items():
            if span not in self.present:
                continue  # the entry point is gone: report the metric as absent
            if name in EXTERNAL:
                value = external[name]
            else:
                value = float(np.mean([m[name] for m in per_op]))
                if unit in ("s", "ns"):
                    value *= scale
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.spans) + "\n", encoding="utf-8")
