"""Spans around the calls into each camlpad layer, and the per-layer summary.

The tracer replaces module attributes with timing wrappers; camlpad's own
source is not changed. ``camlpad.pipeline`` imports the ingest and
preprocess functions by name, so those are wrapped in the pipeline module;
detectors, ensemble, viz, gauge_alert and evaluate are called through their
module attributes and are wrapped there. Spans are kept in memory and
returned by ``spans()`` when the run ends. Each span records its thread and
parent span, so self time and overlap across the per-source threads can be
derived.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from typing import Callable

# span name -> (module, attribute) of each wrapped call
TARGETS = {
    "pipeline.fetch": ("camlpad.pipeline", "fetch_batches"),
    "pipeline.analyze": ("camlpad.pipeline", "analyze_source"),
    "pipeline.write": ("camlpad.pipeline", "write_artifacts"),
    "ingest_store.query": ("camlpad.pipeline", "query_store"),
    "ingest_store.split": ("camlpad.pipeline", "split_bro_by_protocol"),
    "ingest_store.window_split": ("camlpad.pipeline", "window_split"),
    "preprocess.encode": ("camlpad.pipeline", "encode"),
    "preprocess.impute": ("camlpad.pipeline", "impute"),
    "preprocess.standardize": ("camlpad.pipeline", "standardize"),
    "preprocess.conform": ("camlpad.pipeline", "conform_columns"),
    "detectors.iforest_fit": ("camlpad.detectors", "fit_iforest"),
    "detectors.iforest_score": ("camlpad.detectors", "score_iforest_rows"),
    "detectors.hbos_fit": ("camlpad.detectors", "fit_hbos"),
    "detectors.hbos_score": ("camlpad.detectors", "score_hbos_rows"),
    "detectors.cblof_fit": ("camlpad.detectors", "fit_cblof"),
    "detectors.cblof_score": ("camlpad.detectors", "score_cblof_rows"),
    "detectors.pca_fit": ("camlpad.detectors", "fit_pca"),
    "ensemble.binarize": ("camlpad.ensemble", "binarize"),
    "ensemble.vote": ("camlpad.ensemble", "vote"),
    "ensemble.ensemble_score": ("camlpad.ensemble", "ensemble_score"),
    "ensemble.cross_source_vote": ("camlpad.ensemble", "cross_source_vote"),
    "ensemble.labels_jsonl": ("camlpad.ensemble", "labels_to_jsonl"),
    "ensemble.verdicts_jsonl": ("camlpad.ensemble", "verdicts_to_jsonl"),
    "viz.points": ("camlpad.viz", "build_heatmap_points"),
    "viz.render": ("camlpad.viz", "render_svg"),
    "gauge_alert.window_score": ("camlpad.gauge_alert", "window_score"),
    "gauge_alert.percentile_rank": ("camlpad.gauge_alert", "percentile_rank"),
    "gauge_alert.reindex": ("camlpad.gauge_alert", "reindex_gauge"),
    "evaluate.ari": ("camlpad.evaluate", "adjusted_rand_index"),
}


def _cblof_counts(args, model) -> dict[str, float]:
    kmeans = model.kmeans
    return {
        "kmeans_iterations": kmeans.iterations,
        "kmeans_fits": 1,
        "kmeans_converged": int(kmeans.iterations < kmeans.params["max_iterations"]),
    }


# span name -> counts taken from the call's arguments and result
COUNTS: dict[str, Callable[[tuple, object], dict[str, float]]] = {
    "ingest_store.query": lambda args, batch: {"records": len(batch)},
    "ingest_store.split": lambda args, split: {"bro_dropped": split.dropped},
    "preprocess.encode": lambda args, result: {"rows": len(args[0])},
    "detectors.iforest_fit": lambda args, model: {"iforest_nodes": sum(len(t.feature) for t in model.trees)},
    "detectors.iforest_score": lambda args, scores: {"rows_scored": len(args[1])},
    "detectors.hbos_score": lambda args, scores: {"rows_scored": len(args[1])},
    "detectors.cblof_score": lambda args, scores: {"rows_scored": len(args[1])},
    "detectors.cblof_fit": _cblof_counts,
    "ensemble.cross_source_vote": lambda args, verdicts: {"buckets": len(verdicts)},
    "viz.points": lambda args, points: {"points": len(points)},
    "viz.render": lambda args, svg: {"svg_bytes": len(svg)},
}


class Tracer:
    """Records one span per wrapped call; thread-safe across the source pool."""

    def __init__(self) -> None:
        self._spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    def wrap(self, module, attribute: str, name: str, root: bool = False) -> None:
        real = getattr(module, attribute)
        count = COUNTS.get(name)

        @functools.wraps(real)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            # a pool thread starts with an empty stack; its caller is the root span
            parent = stack[-1] if stack else self._root
            with self._lock:
                span_id = next(self._ids)
            if root:
                self._root = span_id
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = real(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self._spans.append((span_id, parent, name, threading.get_ident(), start, end))
            if count is not None:
                taken = count(args, result)
                with self._lock:
                    self.counts.update(taken)
            return result

        setattr(module, attribute, traced)

    def install(self) -> None:
        for name, (module_name, attribute) in TARGETS.items():
            self.wrap(importlib.import_module(module_name), attribute, name)

    def spans(self) -> list[dict]:
        keys = ("id", "parent", "name", "thread", "start", "end")
        with self._lock:
            return [dict(zip(keys, span)) for span in self._spans]


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    """Span duration minus the part of its interval its child spans cover, per name."""
    children: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        covered, reach = 0.0, span["start"]
        for child in sorted(children[span["id"]], key=lambda c: c["start"]):
            low, high = max(child["start"], reach), min(child["end"], span["end"])
            if high > low:
                covered += high - low
                reach = high
        totals[span["name"]] += span["end"] - span["start"] - covered
    return totals


def summarize(spans: list[dict], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced run (stub and CLI metrics are added by the caller)."""
    busy: dict[str, float] = defaultdict(float)
    for span in spans:
        busy[span["name"]] += span["end"] - span["start"]
    calls = Counter(s["name"] for s in spans)
    analyze = [s for s in spans if s["name"] == "pipeline.analyze"]
    analyze_sum = sum(s["end"] - s["start"] for s in analyze)
    analyze_wall = max(s["end"] for s in analyze) - min(s["start"] for s in analyze) if analyze else 0.0
    fits = counts.get("kmeans_fits", 0)
    return {
        "ingest_store.query_s": busy["ingest_store.query"],
        "ingest_store.query_calls": calls["ingest_store.query"],
        "ingest_store.records": counts.get("records", 0),
        "ingest_store.split_s": busy["ingest_store.split"],
        "ingest_store.bro_dropped": counts.get("bro_dropped", 0),
        "ingest_store.window_split_s": busy["ingest_store.window_split"],
        "preprocess.encode_s": busy["preprocess.encode"] + busy["preprocess.conform"],
        "preprocess.impute_s": busy["preprocess.impute"],
        "preprocess.standardize_s": busy["preprocess.standardize"],
        "preprocess.rows": counts.get("rows", 0),
        "detectors.iforest_fit_s": busy["detectors.iforest_fit"],
        "detectors.iforest_score_s": busy["detectors.iforest_score"],
        "detectors.iforest_nodes": counts.get("iforest_nodes", 0),
        "detectors.hbos_fit_s": busy["detectors.hbos_fit"],
        "detectors.hbos_score_s": busy["detectors.hbos_score"],
        "detectors.cblof_fit_s": busy["detectors.cblof_fit"],
        "detectors.cblof_score_s": busy["detectors.cblof_score"],
        "detectors.pca_fit_s": busy["detectors.pca_fit"],
        "detectors.kmeans_iterations": counts.get("kmeans_iterations", 0),
        "detectors.kmeans_converged_ratio": counts.get("kmeans_converged", 0) / fits if fits else 0.0,
        "detectors.rows_scored": counts.get("rows_scored", 0),
        "ensemble.label_s": busy["ensemble.binarize"] + busy["ensemble.vote"] + busy["ensemble.ensemble_score"],
        "ensemble.cross_source_vote_s": busy["ensemble.cross_source_vote"],
        "ensemble.buckets": counts.get("buckets", 0),
        "ensemble.jsonl_s": busy["ensemble.labels_jsonl"] + busy["ensemble.verdicts_jsonl"],
        "viz.points_s": busy["viz.points"],
        "viz.points": counts.get("points", 0),
        "viz.render_s": busy["viz.render"],
        "viz.svgs": calls["viz.render"],
        "viz.svg_bytes": counts.get("svg_bytes", 0),
        "gauge_alert.score_s": busy["gauge_alert.window_score"] + busy["gauge_alert.percentile_rank"],
        "gauge_alert.reindex_s": busy["gauge_alert.reindex"],
        "gauge_alert.reindex_calls": calls["gauge_alert.reindex"],
        "evaluate.ari_s": busy["evaluate.ari"],
        "evaluate.ari_calls": calls["evaluate.ari"],
        "pipeline.fetch_s": busy["pipeline.fetch"],
        "pipeline.analyze_sum_s": analyze_sum,
        "pipeline.analyze_wall_s": analyze_wall,
        "pipeline.analyze_max_s": max((s["end"] - s["start"] for s in analyze), default=0.0),
        "pipeline.parallelism": analyze_sum / analyze_wall if analyze_wall else 0.0,
        "pipeline.write_s": busy["pipeline.write"],
    }
