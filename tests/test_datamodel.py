import pytest
from hypothesis import given
from hypothesis import strategies as st

from camlpad.datamodel import (
    DataSourceKind,
    SensorRecord,
    WindowSplit,
    derive_record_id,
)

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
