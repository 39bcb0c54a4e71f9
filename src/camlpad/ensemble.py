"""History-fitted score scale, contamination-quantile labeling, and democratic votes.

Two voting layers: a per-row majority over the three detectors within one
source, and a per-time-bucket majority across sources. Exact cross-source
ties resolve toward alerting.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .datamodel import DataSourceKind, time_buckets
from .errors import CamlpadError

DEFAULT_CONTAMINATION = 0.1
BUCKET_WIDTH_MS = 60_000  # the cross-source vote's one-minute buckets

DETECTOR_NAMES = ("iforest", "hbos", "cblof")


@dataclass
class LabelVector:
    """Binary outlier labels aligned with row_ids (1 = outlier)."""

    row_ids: list[str]
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=int)
        if self.labels.shape != (len(self.row_ids),):
            raise ValueError("labels misaligned with row_ids")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")


@dataclass(frozen=True)
class VoteTable:
    """Cross-source outcome per fixed-width time bucket: one row per bucket, one column per source."""

    bucket_starts: np.ndarray  # int64, ascending
    sources: tuple[DataSourceKind, ...]
    votes: np.ndarray  # int8 (bucket, source): 1 or 0, -1 where the source has no row in the bucket
    final: np.ndarray  # int8 per bucket: 1 when at least half the sources present vote 1

    def __len__(self) -> int:
        return len(self.bucket_starts)


def normalize_scores(scores: np.ndarray, n_history: int) -> np.ndarray:
    """Min-max scale by the first ``n_history`` (history) scores, clipped into [0,1]; constant history gives 0.5."""
    scores = np.asarray(scores, dtype=float)
    if not 0 < n_history <= scores.size:
        raise ValueError(f"cannot fit a score scale on {n_history} of {scores.size} scores")
    low, high = scores[:n_history].min(), scores[:n_history].max()
    if high == low:
        return np.full_like(scores, 0.5)
    return np.clip((scores - low) / (high - low), 0.0, 1.0)


def binarize(
    scores: np.ndarray,
    contamination: float = DEFAULT_CONTAMINATION,
    row_ids: Sequence[str] | None = None,
) -> LabelVector:
    """Label the top ceil(contamination * n) scores as outliers.

    Ties at the threshold break toward the lower row index, so the outlier
    count is exact for every input.
    """
    scores = np.asarray(scores, dtype=float)
    if not 0.0 < contamination < 1.0:
        raise ValueError(f"contamination must be in (0,1), got {contamination}")
    n = scores.shape[0]
    if n == 0:
        raise ValueError("cannot binarize an empty score vector")
    ids = list(row_ids) if row_ids is not None else [str(i) for i in range(n)]
    if len(ids) != n:
        raise CamlpadError(f"{len(ids)} row_ids for {n} scores")
    m = math.ceil(contamination * n)
    order = np.argsort(-scores, kind="stable")
    labels = np.zeros(n, dtype=int)
    labels[order[:m]] = 1
    return LabelVector(row_ids=ids, labels=labels)


def vote(a: LabelVector, b: LabelVector, c: LabelVector) -> LabelVector:
    """Per-row majority: outlier iff at least 2 of the 3 detectors agree."""
    if a.row_ids != b.row_ids or a.row_ids != c.row_ids:
        raise CamlpadError("label vectors do not share row_ids")
    total = a.labels + b.labels + c.labels
    return LabelVector(row_ids=list(a.row_ids), labels=(total >= 2).astype(int))


def ensemble_score(normalized: Sequence[np.ndarray]) -> np.ndarray:
    """Row-wise mean of the detectors' ``normalize_scores`` vectors, in [0,1]."""
    return np.vstack(normalized).mean(axis=0)


def cross_source_vote(
    labeled: Mapping[DataSourceKind, tuple[np.ndarray, np.ndarray]],
    contamination: float = DEFAULT_CONTAMINATION,
) -> VoteTable:
    """Democratic vote across sources per fixed-width time bucket: a row per bucket, a column per source.

    ``labeled`` maps each source to its row (timestamps_ms, labels) arrays. A
    source votes 1 in a bucket iff its outlier fraction there exceeds the
    contamination rate; the bucket verdict is a strict majority of the
    sources present, exact ties resolving to 1.
    """
    if not labeled:
        raise ValueError("cross_source_vote needs at least one source")
    buckets = [time_buckets(timestamps, BUCKET_WIDTH_MS) for timestamps, _ in labeled.values()]
    bucket_starts = np.unique(np.concatenate([starts for starts, _ in buckets]))
    votes = np.full((len(bucket_starts), len(labeled)), -1, dtype=np.int8)
    for column, ((starts, index), (_, labels)) in enumerate(zip(buckets, labeled.values())):
        outlying = np.bincount(index, weights=labels) / np.bincount(index) > contamination
        votes[np.searchsorted(bucket_starts, starts), column] = outlying
    final = 2 * (votes == 1).sum(axis=1) >= (votes >= 0).sum(axis=1)
    return VoteTable(bucket_starts, tuple(labeled), votes, final.astype(np.int8))


def _rows_text(
    columns: np.ndarray, middles: Iterable[str], head: Callable[[list], str], tail: Callable[[list], str]
) -> str:
    """One line per row of ``columns``, an int matrix with cells -1, 0 or 1: ``head(p) + middle + tail(p)``.

    ``p`` is the row's cells as a list. Heads and tails are made once per
    distinct row, so a row's own text is only its ``middles`` entry.
    """
    codes = np.ravel_multi_index(tuple(columns.T + 1), (3,) * columns.shape[1])
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    patterns = columns[first].tolist()
    heads = [head(p) for p in patterns]
    tails = [tail(p) + "\n" for p in patterns]
    which = inverse.tolist()
    pieces = [""] * (3 * len(which))
    pieces[0::3] = map(heads.__getitem__, which)
    pieces[1::3] = middles
    pieces[2::3] = map(tails.__getitem__, which)
    return "".join(pieces)


def labels_to_jsonl(
    ensemble_labels: LabelVector,
    detector_labels: Mapping[str, LabelVector],
) -> str:
    """One {"row_id", "label", "votes"} JSON object per row, as json.dumps(doc, sort_keys=True) writes it."""
    for name, vector in detector_labels.items():
        if vector.row_ids != ensemble_labels.row_ids:
            raise CamlpadError(f"detector {name} labels misaligned with ensemble labels")
    names = sorted(detector_labels)
    keys = [json.dumps(name) for name in names]
    return _rows_text(
        np.column_stack([ensemble_labels.labels] + [detector_labels[name].labels for name in names]),
        map(encode_basestring_ascii, ensemble_labels.row_ids),  # what json.dumps(str) returns
        lambda p: f'{{"label": {p[0]}, "row_id": ',
        lambda p: ', "votes": {' + ", ".join(f"{key}: {flag}" for key, flag in zip(keys, p[1:])) + "}}",
    )


def verdicts_to_jsonl(table: VoteTable) -> str:
    """One {"bucket_start", "final", "votes"} JSON object per bucket, as json.dumps(doc, sort_keys=True) writes it."""
    order = sorted(range(len(table.sources)), key=lambda column: table.sources[column].value)
    keys = [json.dumps(table.sources[column].value) for column in order]
    return _rows_text(
        np.column_stack([table.final, table.votes[:, order]]),
        map(str, table.bucket_starts.tolist()),
        lambda p: '{"bucket_start": ',
        lambda p: f', "final": {p[0]}, "votes": {{'
        + ", ".join(f"{key}: {flag}" for key, flag in zip(keys, p[1:]) if flag >= 0)
        + "}}",
    )
