"""Deterministic multi-source log generator with planted, labeled anomalies.

Inliers come from per-source Gaussian feature clusters with stable
categorical distributions. Anomalies are either mean-shifted (+6 sigma) or
scattered uniformly over an inflated bounding box, take rare categorical
values, and cluster inside a one-hour burst per day so that bucket-level
truth is informative. Everything is fully determined by the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import window_id_for
from .datamodel import DAY_MS, HOUR_MS, BatchBuilder, DataSourceKind, RecordBatch, canonical_order, time_buckets
from .ensemble import LabelVector
from .errors import CamlpadError
from .ingest_store import json_lines

BASE_EPOCH_MS = 1_614_556_800_000  # 2021-03-01T00:00:00Z

TRUTH_DIR = "truth"

ALL_SOURCES = tuple(DataSourceKind)
ANOMALY_STYLES = ("shift", "scatter")


@dataclass(frozen=True)
class SynthConfig:
    """The options of ``camlpad synth``; a value out of range is refused naming its flag."""

    seed: int = 1
    days_history: int = 7
    records_per_source_per_day: int = 500
    contamination: float = 0.05
    sources: tuple[DataSourceKind, ...] = ALL_SOURCES
    anomaly_style: str = "shift"

    def __post_init__(self) -> None:
        if not 0.0 <= self.contamination < 0.5:
            raise CamlpadError(f"--contamination must be in [0, 0.5), got {self.contamination}")
        if self.anomaly_style not in ANOMALY_STYLES:
            raise CamlpadError(f"--style must be one of {ANOMALY_STYLES}, got {self.anomaly_style!r}")
        for flag, value in (("--days", self.days_history), ("--records", self.records_per_source_per_day)):
            if value < 1:
                raise CamlpadError(f"{flag} must be >= 1, got {value}")

    @property
    def total_days(self) -> int:
        return self.days_history + 1

    @property
    def boundary_ms(self) -> int:
        """Start of the current (last) day."""
        return BASE_EPOCH_MS + self.days_history * DAY_MS


@dataclass(frozen=True)
class SourceProfile:
    numeric: dict[str, tuple[float, float]]  # name -> (mean, stddev)
    categorical: dict[str, tuple[tuple[str, float], ...]]  # name -> ((value, prob), ...)
    rare: dict[str, str]  # name -> anomaly-only category


PROFILES: dict[DataSourceKind, SourceProfile] = {
    DataSourceKind.BRO_DNS: SourceProfile(
        numeric={"query_length": (30.0, 4.0), "answer_count": (2.0, 0.5), "response_ms": (40.0, 8.0)},
        categorical={
            "qtype": (("A", 0.6), ("AAAA", 0.25), ("MX", 0.1), ("TXT", 0.05)),
            "rcode": (("NOERROR", 0.9), ("NXDOMAIN", 0.1)),
        },
        rare={"qtype": "AXFR", "rcode": "SERVFAIL"},
    ),
    DataSourceKind.BRO_CONN: SourceProfile(
        numeric={"duration_s": (1.2, 0.3), "orig_bytes": (800.0, 150.0), "resp_bytes": (1200.0, 260.0)},
        categorical={
            "proto": (("tcp", 0.7), ("udp", 0.3)),
            "conn_state": (("SF", 0.8), ("S0", 0.2)),
        },
        rare={"proto": "icmp", "conn_state": "REJ"},
    ),
    DataSourceKind.YAF: SourceProfile(
        numeric={"flow_duration": (2.0, 0.5), "packet_count": (20.0, 4.0), "octet_count": (1500.0, 280.0)},
        categorical={"direction": (("in", 0.5), ("out", 0.5))},
        rare={"direction": "mixed"},
    ),
    DataSourceKind.SNORT: SourceProfile(
        numeric={"priority": (3.0, 0.4), "signature_rev": (5.0, 1.0), "alert_bytes": (400.0, 90.0)},
        categorical={
            "class": (("attempted-recon", 0.5), ("policy-violation", 0.3), ("misc-activity", 0.2)),
        },
        rare={"class": "shellcode-detect"},
    ),
    DataSourceKind.MERAKI: SourceProfile(
        numeric={"event_count": (6.0, 1.5), "bytes": (900.0, 180.0), "duration_s": (30.0, 6.0)},
        categorical={
            "event_type": (("association", 0.6), ("dhcp_lease", 0.3), ("splash_auth", 0.1)),
        },
        rare={"event_type": "rogue_ap"},
    ),
}


@dataclass
class SynthResult:
    config: SynthConfig
    batches: dict[DataSourceKind, RecordBatch]
    truth: dict[DataSourceKind, LabelVector]
    bucket_truth: list[tuple[int, int]] = field(default_factory=list)  # (hour start, any anomaly in it)


def _draw_day(
    source: DataSourceKind, source_index: int, day: int, config: SynthConfig, rows: BatchBuilder, labels: np.ndarray
) -> None:
    """Draw one source-day's rows, in id order, adding each to ``rows`` and marking its anomalies in ``labels``."""
    profile = PROFILES[source]
    rng = np.random.default_rng([config.seed, source_index, day])
    n = config.records_per_source_per_day
    m = math.ceil(config.contamination * n)
    if m > 0:
        labels[rng.choice(n, size=m, replace=False)] = 1

    weights = {name: np.asarray([p for _, p in choices]) for name, choices in profile.categorical.items()}
    probs = {name: w / w.sum() for name, w in weights.items()}  # each field's draw probabilities, computed once
    day_start = BASE_EPOCH_MS + day * DAY_MS
    burst_start = day_start + int(rng.integers(0, 23)) * HOUR_MS

    for i in range(n):
        outlier = bool(labels[i])
        timestamp = burst_start + int(rng.integers(0, HOUR_MS)) if outlier else day_start + int(rng.integers(0, DAY_MS))
        fields: dict[str, float | str | None] = {}
        for name, (mean, std) in profile.numeric.items():
            if not outlier:
                value = rng.normal(mean, std)
            elif config.anomaly_style == "shift":
                value = rng.normal(mean + 6.0 * std, std)
            else:
                value = rng.uniform(mean - 10.0 * std, mean + 10.0 * std)
            fields[name] = round(float(value), 6)
        for name, p in probs.items():
            fields[name] = profile.rare[name] if outlier else profile.categorical[name][rng.choice(len(p), p=p)][0]
        rows.add(timestamp, f"{source.value}-d{day}-{i:04d}", fields)


def _source_rows(source: DataSourceKind, source_index: int, config: SynthConfig) -> tuple[RecordBatch, np.ndarray]:
    """A source's rows over every day, in canonical order, with their labels."""
    n = config.records_per_source_per_day
    rows = BatchBuilder(source)
    labels = np.zeros(n * config.total_days, dtype=int)
    for day in range(config.total_days):
        _draw_day(source, source_index, day, config, rows, labels[day * n : (day + 1) * n])
    batch = rows.batch()
    order = canonical_order(batch.timestamps, batch.record_ids)
    return batch.take(order), labels[order]


def generate(config: SynthConfig = SynthConfig()) -> SynthResult:
    """Build per-source batches in canonical order plus record/bucket truth."""
    batches: dict[DataSourceKind, RecordBatch] = {}
    truth: dict[DataSourceKind, LabelVector] = {}
    for source_index, source in enumerate(config.sources):
        batch, labels = _source_rows(source, source_index, config)
        batches[source] = batch
        truth[source] = LabelVector(row_ids=list(batch.record_ids), labels=labels)
    none = np.empty(0, dtype=np.int64)  # what each concatenation starts from, so no sources give no buckets
    hours, index = time_buckets(np.concatenate([none, *(batch.timestamps for batch in batches.values())]), HOUR_MS)
    hit = np.bincount(index, weights=np.concatenate([none, *(vector.labels for vector in truth.values())])) > 0
    bucket_truth = list(zip(hours.tolist(), hit.astype(int).tolist()))
    return SynthResult(config=config, batches=batches, truth=truth, bucket_truth=bucket_truth)


def write_store(result: SynthResult, root: Path | str) -> None:
    """Write the DirectoryStore layout: <root>/<source>/<date>.jsonl plus truth files."""
    root = Path(root)
    for source, batch in result.batches.items():
        index_dir = root / source.value
        index_dir.mkdir(parents=True, exist_ok=True)
        days = batch.timestamps // DAY_MS
        for day in np.unique(days).tolist():
            lines = json_lines(batch.take(np.flatnonzero(days == day)))
            (index_dir / f"{window_id_for(day * DAY_MS)}.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

    truth_dir = root / TRUTH_DIR
    truth_dir.mkdir(parents=True, exist_ok=True)
    for source, labels in result.truth.items():
        lines = [
            f'{{"label":{int(label)},"record_id":"{row_id}"}}'
            for row_id, label in zip(labels.row_ids, labels.labels)
        ]
        (truth_dir / f"{source.value}.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    bucket_lines = [
        f'{{"bucket_start":{bucket},"label":{label}}}' for bucket, label in result.bucket_truth
    ]
    (truth_dir / "buckets.jsonl").write_text("\n".join(bucket_lines) + "\n", encoding="utf-8")
