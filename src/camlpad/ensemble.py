"""Score normalization, contamination-quantile labeling, and democratic votes.

Two voting layers: a per-row majority over the three detectors within one
source, and a per-time-bucket majority across sources. Exact cross-source
ties resolve toward alerting.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Mapping, Sequence

import numpy as np

from .datamodel import DataSourceKind, time_buckets
from .errors import CamlpadError

DEFAULT_CONTAMINATION = 0.1
DEFAULT_BUCKET_WIDTH_MS = 60_000

DETECTOR_NAMES = ("iforest", "hbos", "cblof")


class MisalignedRows(CamlpadError):
    pass


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


@dataclass
class BucketVerdict:
    """Cross-source outcome for one fixed-width time bucket."""

    bucket_start: int
    votes: dict[DataSourceKind, int] = field(default_factory=dict)
    final: int = 0


def normalize_scores(scores: np.ndarray) -> np.ndarray:
    """Min-max scale into [0,1]; a constant vector maps to all 0.5."""
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("cannot normalize an empty score vector")
    low, high = scores.min(), scores.max()
    if high == low:
        return np.full_like(scores, 0.5)
    return (scores - low) / (high - low)


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
        raise MisalignedRows(f"{len(ids)} row_ids for {n} scores")
    m = math.ceil(contamination * n)
    order = np.argsort(-scores, kind="stable")
    labels = np.zeros(n, dtype=int)
    labels[order[:m]] = 1
    return LabelVector(row_ids=ids, labels=labels)


def vote(a: LabelVector, b: LabelVector, c: LabelVector) -> LabelVector:
    """Per-row majority: outlier iff at least 2 of the 3 detectors agree."""
    if a.row_ids != b.row_ids or a.row_ids != c.row_ids:
        raise MisalignedRows("label vectors do not share row_ids")
    total = a.labels + b.labels + c.labels
    return LabelVector(row_ids=list(a.row_ids), labels=(total >= 2).astype(int))


def ensemble_score(normalized: Sequence[np.ndarray]) -> np.ndarray:
    """Row-wise mean of the detectors' ``normalize_scores`` vectors, in [0,1]."""
    return np.vstack(normalized).mean(axis=0)


def cross_source_vote(
    labeled: Mapping[DataSourceKind, tuple[np.ndarray, np.ndarray]],
    bucket_width_ms: int = DEFAULT_BUCKET_WIDTH_MS,
    contamination: float = DEFAULT_CONTAMINATION,
) -> list[BucketVerdict]:
    """Democratic vote across sources per fixed-width time bucket.

    ``labeled`` maps each source to its row (timestamps_ms, labels) arrays. A
    source votes 1 in a bucket iff its outlier fraction there exceeds the
    contamination rate; the bucket verdict is a strict majority of the
    sources present, exact ties resolving to 1.
    """
    if not labeled:
        raise ValueError("cross_source_vote needs at least one source")
    if bucket_width_ms <= 0:
        raise ValueError("bucket_width_ms must be positive")
    votes: dict[int, dict[DataSourceKind, int]] = {}
    for source, (timestamps, labels) in labeled.items():
        starts, index = time_buckets(timestamps, bucket_width_ms)
        outlying = np.bincount(index, weights=labels) / np.bincount(index) > contamination
        for start, flag in zip(starts.tolist(), outlying.tolist()):
            votes.setdefault(start, {})[source] = int(flag)
    verdicts: list[BucketVerdict] = []
    for bucket in sorted(votes):
        final = int(2 * sum(votes[bucket].values()) >= len(votes[bucket]))
        verdicts.append(BucketVerdict(bucket_start=bucket, votes=votes[bucket], final=final))
    return verdicts


def labels_to_jsonl(
    ensemble_labels: LabelVector,
    detector_labels: Mapping[str, LabelVector],
) -> str:
    """One {"row_id", "label", "votes"} JSON object per row, as json.dumps(doc, sort_keys=True) writes it."""
    for name, vector in detector_labels.items():
        if vector.row_ids != ensemble_labels.row_ids:
            raise MisalignedRows(f"detector {name} labels misaligned with ensemble labels")
    names = sorted(detector_labels)
    votes = ", ".join(json.dumps(name).replace("%", "%%") + ": %d" for name in names)
    template = '{"label": %d, "row_id": %s, "votes": {' + votes + "}}"
    rows = zip(
        ensemble_labels.labels.tolist(),
        map(encode_basestring_ascii, ensemble_labels.row_ids),  # what json.dumps(str) returns
        *(detector_labels[name].labels.tolist() for name in names),
    )
    lines = [template % row for row in rows]
    return "\n".join(lines) + "\n" if lines else ""


def verdicts_to_jsonl(verdicts: Sequence[BucketVerdict]) -> str:
    """One {"bucket_start", "final", "votes"} JSON object per bucket, as json.dumps(doc, sort_keys=True) writes it."""
    vote = {kind: json.dumps(kind.value) + ": %d" for kind in DataSourceKind}
    template = '{"bucket_start": %d, "final": %d, "votes": {%s}}'
    lines = [
        template % (v.bucket_start, v.final, ", ".join(vote[kind] % flag for kind, flag in sorted(v.votes.items())))
        for v in verdicts
    ]
    return "\n".join(lines) + "\n" if lines else ""
