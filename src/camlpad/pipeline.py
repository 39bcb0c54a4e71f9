"""End-to-end orchestration: ingest, preprocess, fit, score, vote, render, gauge.

The config's index plan is walked in source name order, in the calling
thread: each index is fetched and its sources analysed before the next index
is read, so one index's records are held at a time. The cross-source vote,
combined gauge, and artifact writes follow. Everything written to the output
directory is deterministic for a fixed config and store; only alert events
carry a wall-clock timestamp.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import detectors, ensemble, evaluate, gauge_alert, viz
from .config import BRO_SOURCES, DAY_MS, DetectorParams, PipelineConfig, resolve_boundary, window_id_for
from .datamodel import DataSourceKind, RecordBatch, WindowSplit
from .ensemble import DETECTOR_NAMES, LabelVector, ScoreSet
from .errors import CamlpadError
from .ingest_store import StoreQuery, query_store, split_bro_by_protocol, window_split
from .preprocess import conform_columns, encode, impute, standardize

logger = logging.getLogger(__name__)

HEATMAP_MODELS = DETECTOR_NAMES + ("ensemble",)
DETECTOR_SEED = 7  # iForest and CBLOF (k-means++) seed


@dataclass
class SourceAnalysis:
    """Everything one source contributes downstream of detector scoring."""

    timestamps: np.ndarray  # int64 row times, history rows first
    n_history: int
    detector_labels: dict[str, LabelVector]
    ensemble_labels: LabelVector
    ensemble_scores: np.ndarray
    heatmap_points: dict[str, viz.HeatmapPoints]
    history_day_scores: dict[int, float]
    gauge: gauge_alert.GaugeReading


@dataclass
class RunResult:
    window_id: str
    analyses: dict[DataSourceKind, SourceAnalysis]
    verdicts: list[ensemble.BucketVerdict]
    gauges: list[gauge_alert.GaugeReading]
    alert: gauge_alert.AlertEvent | None = None
    evaluation: dict = field(default_factory=dict)


def analyze_source(
    split: WindowSplit,
    params: DetectorParams,
    contamination: float,
    window_id: str,
) -> SourceAnalysis:
    """Fit the three detectors on the history window and score both windows.

    Encoding dictionary and standardization stats come from history alone and
    are applied to the current window; unseen current-day categories extend
    the dictionary.
    """
    history_raw, dictionary = encode(split.history)
    history_matrix, stats = standardize(impute(history_raw))
    current_raw, _ = encode(split.current, dictionary)
    current_raw = conform_columns(current_raw, history_raw.column_names, history_raw.column_kinds)
    current_matrix, _ = standardize(impute(current_raw), stats)

    iforest_model = detectors.fit_iforest(
        history_matrix,
        trees=params.iforest_trees,
        subsample=params.iforest_subsample,
        seed=DETECTOR_SEED,
    )
    hbos_model = detectors.fit_hbos(history_matrix)
    cblof_model = detectors.fit_cblof(
        history_matrix,
        k=min(params.cblof_clusters, history_matrix.n_rows),
        seed=DETECTOR_SEED,
    )
    pca_model = detectors.fit_pca(history_matrix)

    stacked = np.vstack([history_matrix.values, current_matrix.values])
    row_ids = list(history_matrix.row_ids) + list(current_matrix.row_ids)
    timestamps = np.array([r.timestamp for r in split.history.records + split.current.records], dtype=np.int64)
    score_set = ScoreSet(
        row_ids=row_ids,
        iforest=detectors.score_iforest_rows(iforest_model, stacked),
        hbos=detectors.score_hbos_rows(hbos_model, stacked),
        cblof=detectors.score_cblof_rows(cblof_model, stacked),
    )
    detector_labels = {
        name: ensemble.binarize(score_set.detector(name), contamination, row_ids)
        for name in DETECTOR_NAMES
    }
    ensemble_labels = ensemble.vote(
        detector_labels["iforest"], detector_labels["hbos"], detector_labels["cblof"]
    )
    ensemble_scores = ensemble.ensemble_score(score_set)

    n_history = history_matrix.n_rows
    plane = viz.build_heatmap_points(pca_model, stacked, n_history, ensemble_scores)
    heatmap_points = {
        name: replace(plane, scores=ensemble.normalize_scores(score_set.detector(name))) for name in DETECTOR_NAMES
    }
    heatmap_points["ensemble"] = plane

    history_day_scores, gauge = _gauge(
        split.history.source.value,
        window_id,
        split.boundary,
        timestamps[:n_history],
        ensemble_scores[:n_history],
        ensemble_scores[n_history:],
    )
    return SourceAnalysis(
        timestamps=timestamps,
        n_history=n_history,
        detector_labels=detector_labels,
        ensemble_labels=ensemble_labels,
        ensemble_scores=ensemble_scores,
        heatmap_points=heatmap_points,
        history_day_scores=history_day_scores,
        gauge=gauge,
    )


def _gauge(
    scope: str,
    window_id: str,
    boundary_ms: int,
    history_timestamps: np.ndarray,
    history_scores: np.ndarray,
    current_scores: np.ndarray,
) -> tuple[dict[int, float], gauge_alert.GaugeReading]:
    """Each history day's gauge, and the current window's reading ranked against them."""
    day_scores = gauge_alert.day_gauges(history_timestamps, history_scores, boundary_ms, DAY_MS)
    score = gauge_alert.window_score(current_scores)
    reading = gauge_alert.GaugeReading(
        scope=scope,
        window_id=window_id,
        score=score,
        history_percentile=gauge_alert.percentile_rank(score, day_scores.values()),
    )
    return day_scores, reading


def fetch_batches(
    config: PipelineConfig,
    boundary_ms: int,
    index: str,
    sources: tuple[DataSourceKind, ...],
) -> dict[DataSourceKind, RecordBatch]:
    """One batch per source of one `config.index_plan()` entry, covering history plus current day.

    The combined BRO index (run.bro_index) is read once under the bro_conn
    tag, which derived record ids hash, and split by protocol.
    """
    combined = bool(config.bro_index) and sources[0] in BRO_SOURCES
    query = StoreQuery(index=index, time_from=boundary_ms - config.history_days * DAY_MS, time_to=boundary_ms + DAY_MS)
    tag, name = (DataSourceKind.BRO_CONN, f"bro index {index}") if combined else (sources[0], sources[0].value)
    try:
        batch = query_store(config.locator(), query, tag, config.time_field)
    except CamlpadError as exc:  # same type and line number, now naming what was read
        exc.args = (f"{name}: {exc}",)
        raise
    if not combined:
        return {tag: batch}
    halves = split_bro_by_protocol(batch, config.bro_discriminator)
    by_source = {DataSourceKind.BRO_DNS: halves.dns, DataSourceKind.BRO_CONN: halves.conn}
    return {source: by_source[source] for source in sources}


def write_artifacts(result: RunResult, out_dir: Path) -> None:
    heatmap_dir = out_dir / "heatmaps"
    labels_dir = out_dir / "labels"
    gauges_dir = out_dir / "gauges"
    for directory in (heatmap_dir, labels_dir, gauges_dir):
        directory.mkdir(parents=True, exist_ok=True)

    sources = sorted(result.analyses, key=lambda s: s.value)
    for source in sources:
        analysis = result.analyses[source]
        for model in HEATMAP_MODELS:
            title = f"{source.value} {model} {result.window_id}"
            path = heatmap_dir / f"{source.value}_{model}_{result.window_id}.svg"
            path.write_bytes(viz.render_svg(analysis.heatmap_points[model], title))
        (labels_dir / f"{source.value}.jsonl").write_text(
            ensemble.labels_to_jsonl(analysis.ensemble_labels, analysis.detector_labels),
            encoding="utf-8",
        )
    overall = viz.HeatmapPoints.concat([result.analyses[s].heatmap_points["ensemble"] for s in sources])
    (heatmap_dir / f"combined_ensemble_{result.window_id}.svg").write_bytes(
        viz.render_svg(overall, f"combined ensemble {result.window_id}")
    )

    (out_dir / "verdicts.jsonl").write_text(
        ensemble.verdicts_to_jsonl(result.verdicts), encoding="utf-8"
    )
    for reading in result.gauges:
        (gauges_dir / f"{reading.scope}_{reading.window_id}.json").write_bytes(
            gauge_alert.gauge_json_bytes(reading)
        )
    (out_dir / "evaluation.json").write_text(
        json.dumps(result.evaluation, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def run_pipeline(config: PipelineConfig, boundary_override: str | None = None) -> RunResult:
    """Execute the full multi-source pipeline and write all artifacts."""
    boundary_ms = resolve_boundary(boundary_override or config.boundary)
    window_id = window_id_for(boundary_ms)
    if not config.sources:
        raise CamlpadError("no sources configured")

    analyses: dict[DataSourceKind, SourceAnalysis] = {}
    for index, sources in config.index_plan():
        batches = fetch_batches(config, boundary_ms, index, sources)
        for source in sources:
            logger.info("analyzing %s (%d records)", source.value, len(batches[source]))
            split = window_split(batches.pop(source), boundary_ms, config.min_history)
            try:
                analyses[source] = analyze_source(split, config.detectors, config.contamination, window_id)
            except CamlpadError as exc:
                raise CamlpadError(f"{source.value}: {exc}") from exc
            del split  # not held through the next fetch

    verdicts = ensemble.cross_source_vote(
        {source: (a.timestamps, a.ensemble_labels.labels) for source, a in analyses.items()},
        contamination=config.contamination,
    )

    _, combined = _gauge(
        gauge_alert.COMBINED_SCOPE,
        window_id,
        boundary_ms,
        np.concatenate([a.timestamps[: a.n_history] for a in analyses.values()]),
        np.concatenate([a.ensemble_scores[: a.n_history] for a in analyses.values()]),
        np.concatenate([a.ensemble_scores[a.n_history :] for a in analyses.values()]),
    )
    gauges = [a.gauge for a in analyses.values()] + [combined]

    result = RunResult(
        window_id=window_id,
        analyses=analyses,
        verdicts=verdicts,
        gauges=gauges,
        evaluation=evaluate.pairwise_ari_report(
            {
                source.value: {name: a.detector_labels[name].labels.tolist() for name in DETECTOR_NAMES}
                for source, a in analyses.items()
            }
        ),
    )
    write_artifacts(result, config.output_dir)

    locator = config.locator()
    for reading in gauges:
        gauge_alert.reindex_gauge(locator, reading)

    if gauge_alert.alert_decision(combined, config.threshold_percentile):
        event = gauge_alert.build_alert(combined, config.threshold_percentile)
        gauge_alert.emit_alert(event, file_path=config.alert_file_path(), webhook_url=config.webhook_url)
        result.alert = event
        logger.warning("alert fired: %s", event.message)
    return result
