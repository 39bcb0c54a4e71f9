import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camlpad.datamodel import (
    BatchBuilder,
    DataSourceKind,
    SensorRecord,
    WindowSplit,
    canonical_order,
    derive_record_id,
)
from camlpad.ingest_store import json_lines, record_to_document

from conftest import make_batch, make_record

PLAIN_CELLS = st.one_of(
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(min_size=1),
)
OTHER_CELLS = st.one_of(
    st.integers(),
    st.booleans(),
    st.just(""),
    st.lists(PLAIN_CELLS, max_size=3),
    st.dictionaries(st.text(max_size=3), PLAIN_CELLS, max_size=3),
)


def record_with(fields):
    return SensorRecord(timestamp=0, fields=fields, record_id="r")


class TestFieldValues:
    def test_number_rejects_nan_and_inf(self):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                record_with({"x": value})

    def test_category_rejects_empty_text(self):
        with pytest.raises(ValueError):
            record_with({"x": ""})

    @given(st.dictionaries(st.text(), PLAIN_CELLS, max_size=6))
    def test_plain_cells_accepted(self, fields):
        assert record_with(dict(fields)).fields == fields

    @given(
        st.dictionaries(st.text(), PLAIN_CELLS, max_size=4),
        st.text(),
        st.one_of(OTHER_CELLS, st.sampled_from([float("nan"), float("inf"), float("-inf")])),
    )
    def test_every_other_cell_rejected(self, fields, name, bad):
        with pytest.raises(ValueError) as err:
            record_with({**fields, name: bad})
        assert repr(name) in str(err.value)


class TestWindowSplit:
    def test_rejects_history_at_or_after_boundary(self):
        history = make_batch(DataSourceKind.YAF, make_record(timestamp=5, record_id="h"))
        current = make_batch(DataSourceKind.YAF, make_record(timestamp=9, record_id="c"))
        with pytest.raises(ValueError):
            WindowSplit(history=history, current=current, boundary=5)

    def test_rejects_current_before_boundary(self):
        history = make_batch(DataSourceKind.YAF, make_record(timestamp=1, record_id="h"))
        current = make_batch(DataSourceKind.YAF, make_record(timestamp=2, record_id="c"))
        with pytest.raises(ValueError):
            WindowSplit(history=history, current=current, boundary=3)

    def test_rejects_mixed_sources(self):
        history = make_batch(DataSourceKind.YAF, make_record(timestamp=1, record_id="h"))
        current = make_batch(DataSourceKind.SNORT, make_record(timestamp=9, record_id="c"))
        with pytest.raises(ValueError):
            WindowSplit(history=history, current=current, boundary=5)


class TestRecordIdentity:
    def test_derived_id_is_stable(self):
        fields = {"a": 1.0, "b": "x"}
        first = derive_record_id(DataSourceKind.YAF, 10, fields)
        second = derive_record_id(DataSourceKind.YAF, 10, dict(fields))
        assert first == second

    def test_derived_id_varies_with_content(self):
        base = derive_record_id(DataSourceKind.YAF, 10, {"a": 1.0})
        assert base != derive_record_id(DataSourceKind.YAF, 11, {"a": 1.0})
        assert base != derive_record_id(DataSourceKind.SNORT, 10, {"a": 1.0})
        assert base != derive_record_id(DataSourceKind.YAF, 10, {"a": None})

    def test_derived_ids_are_pinned(self):
        # Digests of a number, a category and a missing cell, fixed so that a
        # change to the cell representation cannot silently re-key records.
        yaf = {"bytes": 42.5, "proto": "udp", "flag": None}
        assert derive_record_id(DataSourceKind.YAF, 1_614_556_800_000, yaf) == "0e43509db776018b"
        dns = {"a": 1.0, "b": "x", "c": None}
        assert derive_record_id(DataSourceKind.BRO_DNS, 0, dns) == "8bbabfda7342bcec"

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            SensorRecord(timestamp=-1, fields={}, record_id="r")


@st.composite
def record_lists(draw):
    """Records of varied key orders, absent and null cells, -0.0, and fields named like the document keys."""
    names = st.sampled_from(["a", "b", "c", "_id", "timestamp", "\u00fc"])
    cells = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False), st.text(min_size=1, max_size=3))
    times = st.integers(0, 2**63 - 1)
    return [
        SensorRecord(timestamp=draw(times), fields=draw(st.dictionaries(names, cells)), record_id=f"r{i}")
        for i in range(draw(st.integers(0, 8)))
    ]


class TestColumns:
    @settings(max_examples=200, deadline=None)
    @given(record_lists(), st.data())
    def test_taken_rows_keep_their_records_and_documents(self, records, data):
        batch = make_batch(DataSourceKind.YAF, *records)
        rows = data.draw(st.lists(st.integers(0, len(records) - 1), max_size=10)) if records else []
        part = batch.take(np.array(rows, dtype=np.intp))
        expected = [records[row] for row in rows]
        assert part.records == tuple(expected)
        assert [list(record.fields) for record in part.records] == [list(record.fields) for record in expected]
        assert list(part.columns) == list(dict.fromkeys(name for record in expected for name in record.fields))
        compact = [json.dumps(record_to_document(record), separators=(",", ":")) for record in expected]
        assert list(json_lines(part)) == compact
        assert part.records[0] is not part.records[0] if rows else part.records == ()


class TestBatchBuilder:
    def test_a_builder_makes_one_batch(self):
        rows = BatchBuilder(DataSourceKind.YAF)
        rows.add(1, "a", {"x": 1.0, "k": "in"})
        rows.add(2, "b", {"k": "out", "y": None})
        batch = rows.batch()
        assert list(batch.rows()) == [(1, {"x": 1.0, "k": "in"}, "a"), (2, {"k": "out", "y": None}, "b")]
        assert list(batch.columns) == ["x", "k", "y"] and batch.columns["k"].categories == ("in", "out")
        for late in (lambda: rows.add(3, "c", {"x": 2.0, "k": "in"}), lambda: rows.add(3, "c", {}), rows.batch):
            with pytest.raises(ValueError, match="makes one batch"):
                late()


class TestCanonicalOrder:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from(["a", "b", "ab", "b-1"])), max_size=25), st.booleans())
    def test_it_is_the_full_sort_whether_or_not_times_ascend(self, rows, ascending):
        if ascending:  # times that never descend, as a day file holds them; the ids stay as drawn
            rows = sorted(rows, key=lambda row: row[0])
        order = canonical_order(np.array([time for time, _ in rows], dtype=np.int64), [rid for _, rid in rows])
        assert order.dtype == np.intp
        assert order.tolist() == sorted(range(len(rows)), key=rows.__getitem__)  # rows tying on both keep their order
