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
from .config import BRO_SOURCES, DetectorParams, PipelineConfig, run_boundary, window_id_for
from .datamodel import DAY_MS, DataSourceKind, RecordBatch, WindowSplit
from .ensemble import DETECTOR_NAMES, LabelVector
from .errors import CamlpadError
from .ingest_store import StoreQuery, query_store, split_bro_by_protocol, window_split
from .preprocess import (
    ColumnKind, ColumnStats, EncodingDictionary, FeatureMatrix, conform_columns, encode, impute, standardize
)

logger = logging.getLogger(__name__)

HEATMAP_MODELS = DETECTOR_NAMES + ("ensemble",)
DETECTOR_SEED = 7  # iForest and CBLOF (k-means++) seed
SPARSE_DAY_SHARE = 0.5  # a history day holding at most this share of the median day's rows is logged


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
    dropped_columns: list[str]  # current-window fields the model lacks, in first-seen order
    unseen_categories: dict[str, int]  # per model column, the current window's categories its history lacks


@dataclass
class RunResult:
    window_id: str
    analyses: dict[DataSourceKind, SourceAnalysis]
    verdicts: ensemble.VoteTable
    gauges: list[gauge_alert.GaugeReading]
    alert: gauge_alert.AlertEvent | None = None
    evaluation: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SourceModel:
    """What one source's history fits: its encoding, columns and column stats, and the four models."""

    dictionary: EncodingDictionary
    column_names: list[str]
    column_kinds: list[ColumnKind]
    stats: ColumnStats
    iforest: detectors.IsolationForestModel
    hbos: detectors.HbosModel
    cblof: detectors.CblofModel
    pca: detectors.PcaModel


def fit_source(history: RecordBatch, params: DetectorParams) -> tuple[SourceModel, FeatureMatrix]:
    """Fit the encoding, column stats and four models on history; the standardized history rows come too."""
    raw, dictionary = encode(history)
    matrix, stats = _standardized(raw, None)
    return SourceModel(
        dictionary,
        raw.column_names,
        raw.column_kinds,
        stats,
        iforest=detectors.fit_iforest(
            matrix, trees=params.iforest_trees, subsample=params.iforest_subsample, seed=DETECTOR_SEED
        ),
        hbos=detectors.fit_hbos(matrix),
        cblof=detectors.fit_cblof(matrix, k=min(params.cblof_clusters, matrix.n_rows), seed=DETECTOR_SEED),
        pca=detectors.fit_pca(matrix),
    ), matrix


def features(model: SourceModel, batch: RecordBatch) -> tuple[FeatureMatrix, list[str], dict[str, int]]:
    """A later batch's rows standardized under the model, the batch's fields the model lacks (which are dropped),
    and each model column's count of categories the model's encoding lacks."""
    raw, dictionary = encode(batch, model.dictionary)
    dropped = [name for name in raw.column_names if name not in model.column_names]
    raw = conform_columns(raw, model.column_names, model.column_kinds)
    unseen = {name: len(dictionary.get(name, ())) - len(model.dictionary.get(name, ())) for name in raw.column_names}
    return _standardized(raw, model.stats)[0], dropped, unseen


def score_source(model: SourceModel, rows: FeatureMatrix) -> dict[str, np.ndarray]:
    """Each detector's raw score of each standardized row; a row that is or scores inf or NaN is refused."""
    _refuse_non_finite(rows.row_ids, rows.values, "a standardized cell")
    with np.errstate(over="ignore"):
        scores = {
            "iforest": detectors.score_iforest_rows(model.iforest, rows.values),
            "hbos": detectors.score_hbos_rows(model.hbos, rows.values),
            "cblof": detectors.score_cblof_rows(model.cblof, rows.values),
        }
    for name, vector in scores.items():
        _refuse_non_finite(rows.row_ids, vector, f"its {name} score")
    return scores


def analyze_source(
    split: WindowSplit,
    params: DetectorParams,
    contamination: float,
    window_id: str,
) -> SourceAnalysis:
    """Fit a source model on the history window and score both windows under it."""
    model, history = fit_source(split.history, params)
    current, dropped_columns, unseen_categories = features(model, split.current)
    rows = replace(
        history, values=np.vstack([history.values, current.values]), row_ids=history.row_ids + current.row_ids
    )
    timestamps = np.concatenate([split.history.timestamps, split.current.timestamps])
    n_history = history.n_rows
    scores = score_source(model, rows)
    detector_labels = {name: ensemble.binarize(scores[name], contamination, rows.row_ids) for name in DETECTOR_NAMES}
    ensemble_labels = ensemble.vote(
        detector_labels["iforest"], detector_labels["hbos"], detector_labels["cblof"]
    )
    normalized = [ensemble.normalize_scores(scores[name], n_history) for name in DETECTOR_NAMES]
    ensemble_scores = ensemble.ensemble_score(normalized)

    plane = viz.build_heatmap_points(model.pca, rows.values, n_history, ensemble_scores)
    heatmap_points = {name: replace(plane, scores=vector) for name, vector in zip(DETECTOR_NAMES, normalized)}
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
        dropped_columns=dropped_columns,
        unseen_categories=unseen_categories,
    )


def _check_history_days(split: WindowSplit, history_days: int) -> np.ndarray:
    """The row count of each of the ``history_days`` days before the boundary, oldest first; raise naming the
    earliest day on which the split has no row."""
    counts = np.bincount((split.history.timestamps - split.boundary) // DAY_MS + history_days, minlength=history_days)
    if not counts.all():
        day = window_id_for(split.boundary + (int(np.argmin(counts)) - history_days) * DAY_MS)
        raise CamlpadError(f"{split.history.source.value}: no records on history day {day}")
    return counts


def _standardized(raw: FeatureMatrix, stats: ColumnStats | None) -> tuple[FeatureMatrix, ColumnStats]:
    """Impute, then standardize under ``stats``, or under stats fitted here when None; an overflow is refused."""
    # a finite cell too large to impute, scale or score overflows to inf or NaN; each is refused by its record
    with np.errstate(over="ignore", invalid="ignore"):
        imputed = impute(raw)
        _refuse_overflowed_column(raw, imputed.values, "an imputed cell")
        matrix, stats = standardize(imputed, stats)
        _refuse_overflowed_column(raw, stats, "the history stddev")
    return matrix, stats


def _refuse_non_finite(row_ids: list[str], values: np.ndarray, what: str) -> None:
    """Raise naming the first row of ``values`` holding inf or NaN: a finite cell too large to scale or score."""
    finite = np.isfinite(values).reshape(len(row_ids), -1).all(axis=1)
    if not finite.all():
        raise _too_large(row_ids[int(np.argmin(finite))], what)


def _refuse_overflowed_column(raw: FeatureMatrix, derived: np.ndarray, what: str) -> None:
    """Raise naming the row of ``raw`` of largest magnitude in the first column where ``derived`` is not finite.

    ``derived`` holds one column per column of ``raw``: its imputed cells, or its (mean, stddev).
    """
    overflowed = ~np.isfinite(derived).all(axis=0)
    if overflowed.any():
        col = int(np.argmax(overflowed))
        row = raw.row_ids[int(np.nanargmax(np.abs(raw.values[:, col])))]
        raise _too_large(row, f"{what} of {raw.column_names[col]}")


def _too_large(row_id: str, what: str) -> CamlpadError:
    return CamlpadError(f"record {row_id}: {what} is not finite; a cell is too large to analyse")


def _gauge(
    scope: str,
    window_id: str,
    boundary_ms: int,
    history_timestamps: np.ndarray,
    history_scores: np.ndarray,
    current_scores: np.ndarray,
) -> tuple[dict[int, float], gauge_alert.GaugeReading]:
    """Each history day's gauge, and the current window's reading ranked against them."""
    day_scores = gauge_alert.day_gauges(history_timestamps, history_scores, boundary_ms)
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
    discriminator = config.bro_discriminator
    halves = split_bro_by_protocol(batch, discriminator)
    if halves.dropped:
        logger.info("split_bro_by_protocol dropped %d records with unknown %r", halves.dropped, discriminator)
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

    (out_dir / "verdicts.jsonl").write_text(ensemble.verdicts_to_jsonl(result.verdicts), encoding="utf-8")
    for reading in result.gauges:
        (gauges_dir / f"{reading.scope}_{reading.window_id}.json").write_bytes(
            gauge_alert.gauge_json_bytes(reading)
        )
    (out_dir / "evaluation.json").write_text(
        json.dumps(result.evaluation, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def run_pipeline(config: PipelineConfig, boundary_override: str | None = None) -> RunResult:
    """Execute the full multi-source pipeline and write all artifacts."""
    boundary_ms = run_boundary(config, boundary_override)
    window_id = window_id_for(boundary_ms)
    if not config.sources:
        raise CamlpadError("no sources configured")

    analyses: dict[DataSourceKind, SourceAnalysis] = {}
    for index, sources in config.index_plan():
        batches = fetch_batches(config, boundary_ms, index, sources)
        for source in sources:
            logger.info("analyzing %s (%d records)", source.value, len(batches[source]))
            split = window_split(batches.pop(source), boundary_ms, config.min_history)
            counts = _check_history_days(split, config.history_days)  # refused before the model is fitted
            median = np.median(counts)
            for k in np.flatnonzero(counts <= SPARSE_DAY_SHARE * median).tolist():
                logger.warning(
                    "%s: history day %s holds %d records, at most half the median day's %g",
                    source.value, window_id_for(boundary_ms + (k - config.history_days) * DAY_MS), counts[k], median,
                )
            try:
                analyses[source] = analysis = analyze_source(split, config.detectors, config.contamination, window_id)
            except CamlpadError as exc:  # same type, now naming the source
                exc.args = (f"{source.value}: {exc}",)
                raise
            del split  # not held through the next fetch
            if analysis.dropped_columns:
                logger.info("conform_columns dropped columns not in reference: %s", analysis.dropped_columns)
            drift = [f"{name}+{count}" for name, count in sorted(analysis.unseen_categories.items()) if count]
            if drift:
                logger.info("encode extended dictionary with unseen categories: %s", ", ".join(drift))

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
                source.value: {name: a.detector_labels[name].labels for name in DETECTOR_NAMES}
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
