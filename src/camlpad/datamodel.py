"""Canonical record and dataset types shared by every pipeline stage.

All types here are frozen after construction. A record's cells are plain
values (finite float, non-empty str, or None for missing), checked once:
by :class:`SensorRecord`, or by the store parser, which builds its records
through ``SensorRecord.trusted``. Serialization to/from the store's JSON
form lives in :mod:`camlpad.ingest_store`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import CamlpadError


class DataSourceKind(str, Enum):
    """The five supported log sources. BRO is always split by protocol."""

    BRO_DNS = "bro_dns"
    BRO_CONN = "bro_conn"
    YAF = "yaf"
    SNORT = "snort"
    MERAKI = "meraki"

    @classmethod
    def from_name(cls, name: str) -> "DataSourceKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise CamlpadError(f"unknown data source kind: {name!r}") from None


@dataclass(frozen=True, slots=True)
class SensorRecord:
    """One timestamped log event; its source is that of the batch holding it.

    ``timestamp`` is epoch milliseconds UTC in ``[0, 2**63)`` regardless of
    the source's native time format. ``fields`` preserves first-seen order;
    the time field itself is never part of ``fields``. Each cell is a finite ``float`` (a number), a
    non-empty ``str`` (a category) or ``None`` (missing); ints are not
    numbers here, so serialized cells and derived ids keep one spelling.
    """

    timestamp: int
    fields: dict[str, float | str | None]
    record_id: str

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError(f"timestamp must be >= 0, got {self.timestamp}")
        if self.timestamp >= 2**63:  # row times are grouped as int64 arrays
            raise ValueError(f"timestamp must be < 2**63, got {self.timestamp}")
        if not self.record_id:
            raise ValueError("record_id must be non-empty")
        for name, value in self.fields.items():
            if value is None or (type(value) is str and value):
                continue
            if type(value) is not float or not math.isfinite(value):
                raise ValueError(
                    f"field {name!r}: cell must be a finite float, a non-empty str or None, got {value!r}"
                )

    @classmethod
    def trusted(cls, timestamp: int, fields: dict[str, float | str | None], record_id: str) -> "SensorRecord":
        """A record built without the ``__post_init__`` check, for callers that have applied its rules.

        The store parser, which checks time, id and every cell as it reads
        them, builds records this way; every other construction is checked.
        """
        record = object.__new__(cls)
        object.__setattr__(record, "timestamp", timestamp)
        object.__setattr__(record, "fields", fields)
        object.__setattr__(record, "record_id", record_id)
        return record


def derive_record_id(source: DataSourceKind, timestamp: int, fields: Mapping[str, float | str | None]) -> str:
    """Stable id for records the store did not assign one to.

    Hash of (source, timestamp, serialized fields); callers are responsible
    for de-duplicating byte-identical records within a batch.
    """
    payload: list[object] = [source.value, timestamp]
    payload.extend([name, value] for name, value in fields.items())
    digest = hashlib.sha1(json.dumps(payload, separators=(",", ":")).encode("utf-8"))
    return digest.hexdigest()[:16]


def time_buckets(timestamps: Sequence[int] | np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Group row times into ``width``-ms buckets: (sorted bucket starts, each row's index into them).

    Row i lies in the bucket starting at ``starts[index[i]]``; every bucket
    holds at least one row.
    """
    return np.unique(np.asarray(timestamps, dtype=np.int64) // width * width, return_inverse=True)


@dataclass(frozen=True)
class RecordBatch:
    """A sequence of records from a single source."""

    source: DataSourceKind
    records: tuple[SensorRecord, ...]

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class WindowSplit:
    """History/current partition of one source's records at a time boundary."""

    history: RecordBatch
    current: RecordBatch
    boundary: int

    def __post_init__(self) -> None:
        if self.history.source is not self.current.source:
            raise ValueError("history and current must share the same source kind")
        for record in self.history.records:
            if record.timestamp >= self.boundary:
                raise ValueError(
                    f"history record {record.record_id} at t={record.timestamp} not before boundary {self.boundary}"
                )
        for record in self.current.records:
            if record.timestamp < self.boundary:
                raise ValueError(
                    f"current record {record.record_id} at t={record.timestamp} before boundary {self.boundary}"
                )
