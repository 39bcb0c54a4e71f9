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

from .config import DAY_MS, window_id_for
from .datamodel import DataSourceKind, RecordBatch, SensorRecord, time_buckets
from .ensemble import LabelVector
from .ingest_store import DEFAULT_TIME_FIELD, record_to_json_line

BASE_EPOCH_MS = 1_614_556_800_000  # 2021-03-01T00:00:00Z
HOUR_MS = 3_600_000

TRUTH_DIR = "truth"

ALL_SOURCES = tuple(DataSourceKind)


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 1
    days_history: int = 7
    records_per_source_per_day: int = 500
    contamination: float = 0.05
    sources: tuple[DataSourceKind, ...] = ALL_SOURCES
    anomaly_style: str = "shift"

    def __post_init__(self) -> None:
        if not 0.0 <= self.contamination < 0.5:
            raise ValueError(f"contamination must be in [0, 0.5), got {self.contamination}")
        if self.anomaly_style not in ("shift", "scatter"):
            raise ValueError(f"anomaly_style must be 'shift' or 'scatter', got {self.anomaly_style!r}")
        if self.days_history < 1 or self.records_per_source_per_day < 1:
            raise ValueError("days_history and records_per_source_per_day must be >= 1")

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


def _pick_category(rng: np.random.Generator, choices: tuple[tuple[str, float], ...]) -> str:
    values = [v for v, _ in choices]
    probs = np.asarray([p for _, p in choices])
    return values[int(rng.choice(len(values), p=probs / probs.sum()))]


def _day_records(
    source: DataSourceKind,
    source_index: int,
    day: int,
    config: SynthConfig,
) -> list[tuple[SensorRecord, int]]:
    profile = PROFILES[source]
    rng = np.random.default_rng([config.seed, source_index, day])
    n = config.records_per_source_per_day
    m = math.ceil(config.contamination * n)
    anomalous = np.zeros(n, dtype=bool)
    if m > 0:
        anomalous[rng.choice(n, size=m, replace=False)] = True

    day_start = BASE_EPOCH_MS + day * DAY_MS
    burst_start = day_start + int(rng.integers(0, 23)) * HOUR_MS

    rows: list[tuple[SensorRecord, int]] = []
    for i in range(n):
        outlier = bool(anomalous[i])
        if outlier:
            timestamp = burst_start + int(rng.integers(0, HOUR_MS))
        else:
            timestamp = day_start + int(rng.integers(0, DAY_MS))
        fields: dict[str, float | str | None] = {}
        for name, (mean, std) in profile.numeric.items():
            if not outlier:
                value = rng.normal(mean, std)
            elif config.anomaly_style == "shift":
                value = rng.normal(mean + 6.0 * std, std)
            else:
                value = rng.uniform(mean - 10.0 * std, mean + 10.0 * std)
            fields[name] = round(float(value), 6)
        for name, choices in profile.categorical.items():
            if outlier:
                fields[name] = profile.rare[name]
            else:
                fields[name] = _pick_category(rng, choices)
        record = SensorRecord(timestamp=timestamp, fields=fields, record_id=f"{source.value}-d{day}-{i:04d}")
        rows.append((record, int(outlier)))
    return rows


def generate(config: SynthConfig = SynthConfig()) -> SynthResult:
    """Build per-source batches in canonical order plus record/bucket truth."""
    batches: dict[DataSourceKind, RecordBatch] = {}
    truth: dict[DataSourceKind, LabelVector] = {}
    all_timestamps: list[int] = []
    all_labels: list[int] = []
    for source_index, source in enumerate(config.sources):
        rows: list[tuple[SensorRecord, int]] = []
        for day in range(config.total_days):
            rows.extend(_day_records(source, source_index, day, config))
        rows.sort(key=lambda pair: (pair[0].timestamp, pair[0].record_id))
        records = tuple(record for record, _ in rows)
        labels = [label for _, label in rows]
        batches[source] = RecordBatch(source=source, records=records)
        truth[source] = LabelVector(row_ids=[r.record_id for r in records], labels=np.asarray(labels))
        all_timestamps.extend(r.timestamp for r in records)
        all_labels.extend(labels)
    hours, index = time_buckets(all_timestamps, HOUR_MS)
    hit = np.bincount(index, weights=all_labels) > 0
    bucket_truth = list(zip(hours.tolist(), hit.astype(int).tolist()))
    return SynthResult(config=config, batches=batches, truth=truth, bucket_truth=bucket_truth)


def write_store(result: SynthResult, root: Path | str, time_field: str = DEFAULT_TIME_FIELD) -> None:
    """Write the DirectoryStore layout: <root>/<source>/<date>.jsonl plus truth files."""
    root = Path(root)
    for source, batch in result.batches.items():
        index_dir = root / source.value
        index_dir.mkdir(parents=True, exist_ok=True)
        by_date: dict[str, list[str]] = {}
        for record in batch.records:
            by_date.setdefault(window_id_for(record.timestamp // DAY_MS * DAY_MS), []).append(
                record_to_json_line(record, time_field)
            )
        for date, lines in sorted(by_date.items()):
            (index_dir / f"{date}.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")

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
