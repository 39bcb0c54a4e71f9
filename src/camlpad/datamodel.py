"""Canonical record and dataset types shared by every pipeline stage.

Records and batches are frozen after construction. A cell is a plain value
(finite float, non-empty str, or None for missing), checked on its way in:
by :class:`SensorRecord`, or by the store parser, which appends the cells it
checked to a batch's columns through :class:`BatchBuilder`. A batch holds
its rows as columns; records are only a checked view. Serialization to/from
the store's JSON form lives in :mod:`camlpad.ingest_store`.
"""

from __future__ import annotations

import hashlib
import json
import math
from array import array
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import CamlpadError

_NAN = float("nan")


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


class Column(NamedTuple):
    """One field's cells over the rows of a batch.

    A float cell is held in ``numbers``, a str cell as its index into
    ``categories`` in ``codes``; every other row (its cell None, or the field
    absent from it) holds NaN and -1. Cells are never NaN, so a NaN number
    with code -1 is always a row without a number or a category.
    """

    numbers: np.ndarray  # float64
    codes: np.ndarray  # int32
    categories: tuple[str, ...]

    def cells(self) -> list[float | str | None]:
        categories = self.categories
        return [
            categories[code] if code >= 0 else (None if number != number else number)
            for number, code in zip(self.numbers.tolist(), self.codes.tolist())
        ]


@dataclass(frozen=True, eq=False)
class RecordBatch:
    """The rows of a single source, held as columns.

    Row i is timed ``timestamps[i]`` (int64 epoch ms) and named
    ``record_ids[i]``; its fields, in the row's own key order, are
    ``shapes[row_shapes[i]]``, and its cell of a field is row i of that
    field's column. ``columns`` holds each field some row carries, in
    first-seen order over the rows.
    """

    source: DataSourceKind
    timestamps: np.ndarray
    record_ids: tuple[str, ...]
    columns: dict[str, Column]
    shapes: tuple[tuple[str, ...], ...]
    row_shapes: np.ndarray

    def __len__(self) -> int:
        return len(self.record_ids)

    @classmethod
    def from_records(cls, source: DataSourceKind, records: Iterable[SensorRecord]) -> "RecordBatch":
        """The batch of hand-built records, in their order."""
        rows = BatchBuilder(source)
        for record in records:
            rows.add(record.timestamp, record.record_id, record.fields)
        return rows.batch()

    def rows(self) -> Iterator[tuple[int, dict[str, float | str | None], str]]:
        """Each row as (timestamp, fields, record_id): the fields in the row's own key order,
        a field absent from the row left out and a null cell None."""
        cells = {name: column.cells() for name, column in self.columns.items()}
        for row, (timestamp, record_id, shape) in enumerate(
            zip(self.timestamps.tolist(), self.record_ids, self.row_shapes.tolist())
        ):
            yield timestamp, {name: cells[name][row] for name in self.shapes[shape]}, record_id

    @property
    def records(self) -> tuple[SensorRecord, ...]:
        """The rows as checked records, built anew on each access; the pipeline never reads them."""
        return tuple(SensorRecord(*row) for row in self.rows())

    def take(self, rows: np.ndarray) -> "RecordBatch":
        """The batch of the rows at the given indices, in that order."""
        row_shapes = self.row_shapes[rows]
        used, first = np.unique(row_shapes, return_index=True)
        columns = {}
        for name in dict.fromkeys(chain.from_iterable(self.shapes[shape] for shape in used[np.argsort(first)])):
            column = self.columns[name]
            columns[name] = Column(column.numbers[rows], column.codes[rows], column.categories)
        return replace(
            self,
            timestamps=self.timestamps[rows],
            record_ids=tuple(map(self.record_ids.__getitem__, rows.tolist())),
            columns=columns,
            row_shapes=row_shapes,
        )


class BatchBuilder:
    """Rows added one at a time, each cell appended to its field's column as it comes.

    A row's key order is kept as its index into a table of the distinct
    orders (shapes) seen, so that absent and null cells stay apart.
    """

    def __init__(self, source: DataSourceKind):
        self.source = source
        self.record_ids: list[str] = []
        self._timestamps = array("q")
        self._row_shapes = array("i")
        self._shapes: dict[tuple[str, ...], int] = {}
        self._columns: dict[str, _ColumnBuilder] = {}
        # shape -> (its index, the columns of its fields in its order, the columns it lacks)
        self._plans: dict[tuple[str, ...], tuple[int, list[_ColumnBuilder], list[_ColumnBuilder]]] = {}

    def __len__(self) -> int:
        return len(self.record_ids)

    def add(self, timestamp: int, record_id: str, fields: Mapping[str, float | str | None]) -> None:
        """Append a row whose time, id and cells have met every ``SensorRecord`` rule."""
        shape = tuple(fields)
        index, present, absent = self._plans.get(shape) or self._plan(shape)
        self._timestamps.append(timestamp)
        self.record_ids.append(record_id)
        self._row_shapes.append(index)
        for column, cell in zip(present, fields.values()):
            if type(cell) is str:
                column.numbers.append(_NAN)
                column.codes.append(column.categories.setdefault(cell, len(column.categories)))
            else:
                column.numbers.append(_NAN if cell is None else cell)
                column.codes.append(-1)
        for column in absent:
            column.numbers.append(_NAN)
            column.codes.append(-1)

    def _plan(self, shape: tuple[str, ...]) -> tuple[int, list["_ColumnBuilder"], list["_ColumnBuilder"]]:
        index = self._shapes.setdefault(shape, len(self._shapes))
        for name in shape:
            if name not in self._columns:
                self._columns[name] = _ColumnBuilder(len(self))
                self._plans.clear()  # every other shape now lacks this column
        present = [self._columns[name] for name in shape]
        absent = [column for name, column in self._columns.items() if name not in shape]
        self._plans[shape] = plan = (index, present, absent)
        return plan

    def batch(self) -> RecordBatch:
        """The rows added so far, in the order they were added."""
        return RecordBatch(
            source=self.source,
            timestamps=np.frombuffer(self._timestamps, dtype=np.int64),
            record_ids=tuple(self.record_ids),
            columns={
                name: Column(
                    np.frombuffer(column.numbers, dtype=np.float64),
                    np.frombuffer(column.codes, dtype=np.int32),
                    tuple(column.categories),
                )
                for name, column in self._columns.items()
            },
            shapes=tuple(self._shapes),
            row_shapes=np.frombuffer(self._row_shapes, dtype=np.int32),
        )


class _ColumnBuilder:
    __slots__ = ("numbers", "codes", "categories")

    def __init__(self, rows_before: int):
        self.numbers = array("d", [_NAN]) * rows_before
        self.codes = array("i", [-1]) * rows_before
        self.categories: dict[str, int] = {}


def canonical_order(timestamps: np.ndarray, record_ids: Sequence[str]) -> np.ndarray:
    """Row indices in ascending (timestamp, record_id) order; rows tying on both keep their order."""
    by_id = np.array(sorted(range(len(record_ids)), key=record_ids.__getitem__), dtype=np.intp)
    return by_id[np.argsort(timestamps[by_id], kind="stable")]


@dataclass(frozen=True)
class WindowSplit:
    """History/current partition of one source's records at a time boundary."""

    history: RecordBatch
    current: RecordBatch
    boundary: int

    def __post_init__(self) -> None:
        if self.history.source is not self.current.source:
            raise ValueError("history and current must share the same source kind")
        for name, batch, misplaced, place in (
            ("history", self.history, self.history.timestamps >= self.boundary, "not before"),
            ("current", self.current, self.current.timestamps < self.boundary, "before"),
        ):
            if misplaced.any():
                row = int(np.argmax(misplaced))
                raise ValueError(
                    f"{name} record {batch.record_ids[row]} at t={batch.timestamps[row]} "
                    f"{place} boundary {self.boundary}"
                )
