"""Canonical record and dataset types shared by every pipeline stage.

Records and batches are frozen after construction. A cell is a plain value
(finite float, non-empty str, or None for missing): :class:`SensorRecord`
checks it, and :class:`BatchBuilder` makes it from a raw value when it makes
the batch. Rows enter a batch only through :class:`BatchBuilder` and leave it
only through :meth:`RecordBatch.rows`. A batch holds its rows as columns;
records are only a checked view. Serialization to/from the store's JSON form
lives in :mod:`camlpad.ingest_store`.
"""

from __future__ import annotations

import hashlib
import json
import math
from array import array
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain, repeat
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import CamlpadError

_NAN = float("nan")
DAY_MS = 86_400_000  # the widths of a run's days and of the synth truth's hours, for time_buckets
HOUR_MS = 3_600_000


class DataSourceKind(str, Enum):
    """The five supported log sources. BRO is always split by protocol."""

    BRO_DNS = "bro_dns"
    BRO_CONN = "bro_conn"
    YAF = "yaf"
    SNORT = "snort"
    MERAKI = "meraki"

    @classmethod
    def from_name(cls, name: str) -> "DataSourceKind":
        name = name.strip()
        try:
            return cls(name.lower())
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


def field_value(raw: object) -> float | str | None:
    """The cell of a decoded JSON value: a finite float, a non-empty str or None.

    Numbers become floats; NaN, infinities and integers past float range are
    None, as are null and "". A bool is "true"/"false", and a nested object
    or array is its ``json.dumps(..., sort_keys=True)`` text.
    """
    if raw is None:
        return None
    if isinstance(raw, bool):
        return "true" if raw else "false"
    if isinstance(raw, (int, float)):
        # json.loads admits NaN/Infinity and integers past float range; treat them as absent data
        try:
            value = float(raw)
        except OverflowError:
            return None
        return value if math.isfinite(value) else None
    if isinstance(raw, str):
        return raw or None
    return json.dumps(raw, sort_keys=True)


class BatchBuilder:
    """Rows added one at a time, each kept whole with the rows of its shape until ``batch()``.

    A row maps field names to raw values, as a decoded document does with its
    time and id taken out. Its shape, its keys in order, is kept as an index into
    a table of the distinct shapes, so that absent and null cells stay apart.
    ``batch()`` makes each field's column once, each value held as its
    ``field_value`` cell: a finite float, a non-empty str or None. An all-float
    column is one array, an all-non-empty-str column is coded in one pass, and
    any other is made cell by cell. Each field has one category table, in the
    order the rows were added. A builder makes one batch: ``batch()`` releases
    the values, and a later ``add`` or ``batch`` raises.
    """

    def __init__(self, source: DataSourceKind):
        self.source = source
        self.record_ids: list[str] = []
        self._timestamps = array("q")
        self._row_shapes = array("i")
        self._shapes: dict[tuple[str, ...], tuple[int, list]] = {}  # shape -> (its index, its rows' values, flat)
        self._open = True

    def __len__(self) -> int:
        return len(self.record_ids)

    def add(self, timestamp: int, record_id: str, row: Mapping[str, object]) -> None:
        """Append a row whose time and id have met every ``SensorRecord`` rule."""
        shape = tuple(row)
        index, values = self._shapes.get(shape) or self._new_shape(shape)
        values += row.values()
        self._timestamps.append(timestamp)
        self.record_ids.append(record_id)
        self._row_shapes.append(index)

    def _new_shape(self, shape: tuple[str, ...]) -> tuple[int, list]:
        self._check_open()
        self._shapes[shape] = entry = (len(self._shapes), [])
        return entry

    def _check_open(self) -> None:
        if not self._open:
            raise ValueError("this BatchBuilder has made its batch; a builder makes one batch")

    def batch(self) -> RecordBatch:
        """The rows added so far, in the order they were added; each shape's values are taken apart, then released."""
        self._check_open()
        self._open = False
        row_shapes = np.frombuffer(self._row_shapes, dtype=np.int32)
        shapes = tuple(self._shapes)
        parts: dict[str, list] = {}  # field -> (rows, values) of each shape holding it, fields first-seen
        for shape in shapes:
            index, values = self._shapes.pop(shape)
            rows = np.flatnonzero(row_shapes == index)
            for at, name in enumerate(shape):
                parts.setdefault(name, []).append((rows, values[at :: len(shape)]))
        columns = {name: _column(len(self), field_parts) for name, field_parts in parts.items()}
        timestamps = np.frombuffer(self._timestamps, dtype=np.int64)
        return RecordBatch(self.source, timestamps, tuple(self.record_ids), columns, shapes, row_shapes)


def _column(n: int, parts: list[tuple[np.ndarray, list]]) -> Column:
    """A field's column over ``n`` rows from the (rows, values) of each shape holding it."""
    if len(parts) == 1 and len(parts[0][0]) == n:
        values = parts[0][1]
    else:  # a row without the field holds None, missing like a null cell
        cells = np.full(n, None, dtype=object)
        for rows, part in parts:
            cells[rows] = np.fromiter(part, dtype=object, count=len(part))
        values = cells.tolist()
    kinds = set(map(type, values)) - {type(None)}
    if kinds <= {float}:
        numbers = np.array(values, dtype=np.float64)
        numbers[~np.isfinite(numbers)] = _NAN
        return Column(numbers, np.full(n, -1, dtype=np.int32), ())
    if kinds == {str} and "" not in (categories := dict.fromkeys(values)):
        numbers = np.full(n, _NAN)
    else:
        values = list(map(field_value, values))
        numbers = np.array([value if type(value) is float else _NAN for value in values])
        categories = dict.fromkeys(value for value in values if type(value) is str)
    categories.pop(None, None)
    categories = {category: code for code, category in enumerate(categories)}
    codes = np.fromiter(map(categories.get, values, repeat(-1)), dtype=np.int32, count=n)
    return Column(numbers, codes, tuple(categories))


def canonical_order(timestamps: np.ndarray, record_ids: Sequence[str]) -> np.ndarray:
    """Row indices in ascending (timestamp, record_id) order; rows tying on both keep their order.

    A stable sort by time, then a stable sort by id within each run of tied times, whether or not times ascend.
    """
    order = np.argsort(timestamps, kind="stable")
    edges = np.concatenate(([0], np.flatnonzero(np.diff(timestamps[order])) + 1, [len(order)]))  # each time's start
    tied = np.flatnonzero(np.diff(edges) > 1)
    for start, stop in zip(edges[tied].tolist(), edges[tied + 1].tolist()):
        order[start:stop] = sorted(order[start:stop].tolist(), key=record_ids.__getitem__)
    return order


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
