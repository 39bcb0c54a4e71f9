import gc
import json
import logging
import math
import random
import socket
import tempfile
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from camlpad.datamodel import DataSourceKind, RecordBatch, SensorRecord, derive_record_id
from camlpad.ingest_store import (
    DirectoryStore,
    DiscriminatorMissing,
    EmptyCurrent,
    EmptyHistory,
    HttpStore,
    IndexNotFound,
    MalformedLine,
    MissingTimestamp,
    PageFailure,
    StoreQuery,
    StoreUnreachable,
    TooManyRecords,
    _canonical,
    _read_jsonl,
    _Rows,
    query_store,
    record_to_json_line,
    split_bro_by_protocol,
    to_epoch_ms,
    url_refusal,
    window_split,
)
from camlpad.synth import SynthConfig, generate, write_store

from conftest import make_batch, make_record

YAF = DataSourceKind.YAF


def read_store(data, time_field="timestamp"):
    """The batch ``query_store`` reads over all valid times from a directory store whose one file holds ``data``."""
    with tempfile.TemporaryDirectory() as root:
        (Path(root) / "flows").mkdir()
        (Path(root) / "flows" / "a.jsonl").write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        return query_store(DirectoryStore(root), StoreQuery(index="flows", time_from=0, time_to=2**63), YAF, time_field)


def read_jsonl(data, window):
    """The records of the JSONL lines of ``data`` timed inside ``window``, in line order."""
    rows = _Rows(YAF, "timestamp", StoreQuery("flows", *window))
    _read_jsonl(data, rows)
    return rows.batch().records


def canonical(records):
    return _canonical(RecordBatch.from_records(YAF, records)).records


class TestParseJsonl:
    def test_numbers_strings_and_time_extraction(self):
        batch = read_store(b'{"ts":0,"proto":"udp","bytes":42}', time_field="ts")
        assert len(batch) == 1
        record = batch.records[0]
        assert record.timestamp == 0
        assert record.fields == {"proto": "udp", "bytes": 42.0}
        assert type(record.fields["bytes"]) is float

    def test_empty_input_gives_empty_batch(self):
        assert len(read_store(b"")) == 0

    def test_null_maps_to_missing(self):
        batch = read_store(b'{"ts":5,"x":null}', time_field="ts")
        assert batch.records[0].fields["x"] is None

    def test_malformed_line_reports_line_number(self):
        data = b'{"ts":1}\nnot json\n'
        with pytest.raises(MalformedLine) as err:
            read_store(data, time_field="ts")
        assert err.value.line_number == 2

    def test_missing_time_field_reports_line_number(self):
        with pytest.raises(MissingTimestamp) as err:
            read_store(b'{"ts":1}\n{"other":2}', time_field="ts")
        assert err.value.line_number == 2

    def test_store_assigned_id_wins(self):
        batch = read_store(b'{"ts":1,"_id":"doc-9","x":1}', time_field="ts")
        assert batch.records[0].record_id == "doc-9"

    def test_iso_timestamps_normalize_to_epoch_ms(self):
        batch = read_store(b'{"ts":"1970-01-01T00:00:01Z","x":1}', time_field="ts")
        assert batch.records[0].timestamp == 1000

    def test_iso_millisecond_times_convert_exactly(self):
        # in floats 1079337347.472 * 1000 is 1079337347471.9999, one ms short when truncated
        assert to_epoch_ms("2004-03-15T07:55:47.472Z") == 1079337347472
        batch = read_store(b'{"ts":"2004-03-15T07:55:47.472Z","x":1}', time_field="ts")
        assert batch.records[0].timestamp == 1079337347472

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 4_102_444_800_000))
    def test_iso_times_with_milliseconds_round_trip(self, ms):
        moment = datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(milliseconds=ms)
        assert to_epoch_ms(moment.isoformat(timespec="milliseconds").replace("+00:00", "Z")) == ms

    @pytest.mark.parametrize("raw", ["-0.5", '"-0.5"', '"1969-12-31T23:59:59.9995Z"'])
    def test_times_just_before_the_epoch_floor_to_a_negative_ms(self, raw):
        # each lies in [-1, 0) ms, so it floors to -1, outside [0, 2**63)
        with pytest.raises(MalformedLine, match="time -1 outside"):
            read_store(f'{{"ts":1}}\n{{"ts":{raw},"x":1}}', time_field="ts")

    def test_infinite_timestamps_are_missing(self):
        assert to_epoch_ms("inf") is None and to_epoch_ms("1e999") is None
        for text in ("inf", "1e999"):
            with pytest.raises(MissingTimestamp) as err:
                read_store(f'{{"ts":1}}\n{{"ts":"{text}"}}', time_field="ts")
            assert err.value.line_number == 2

    def test_negative_timestamp_is_a_malformed_line(self):
        with pytest.raises(MalformedLine) as err:
            read_store(b'{"ts":1}\n{"ts":-5,"x":1}', time_field="ts")
        assert err.value.line_number == 2

    def test_timestamp_past_int64_is_a_malformed_line(self):
        for text in (str(2**63), "1e30"):
            with pytest.raises(MalformedLine) as err:
                read_store(f'{{"ts":1}}\n{{"ts":{text},"x":1}}', time_field="ts")
            assert err.value.line_number == 2
        assert read_store(f'{{"ts":{2**63 - 1}}}', time_field="ts").records[0].timestamp == 2**63 - 1

    def test_integer_past_float_range_is_missing(self):
        batch = read_store('{"ts":5,"x":1' + "0" * 400 + ',"y":-1' + "0" * 400 + "}", time_field="ts")
        assert batch.records[0].fields == {"x": None, "y": None}

    def test_empty_store_id_is_a_malformed_line(self):
        with pytest.raises(MalformedLine) as err:
            read_store(b'{"ts":1}\n{"ts":2,"_id":""}', time_field="ts")
        assert err.value.line_number == 2

    def test_duplicate_lines_still_get_unique_ids(self):
        line = b'{"ts":1,"x":1}\n{"ts":1,"x":1}'
        batch = read_store(line, time_field="ts")
        assert len({r.record_id for r in batch.records}) == 2


class TestBroSplit:
    def _bro_batch(self, *log_types):
        records = [
            make_record(timestamp=i, record_id=f"r{i}", log_type=t, bytes=i)
            for i, t in enumerate(log_types)
        ]
        return make_batch(DataSourceKind.BRO_CONN, *records)

    def test_partition_sizes(self):
        batch = self._bro_batch("dns", "conn", "dns", "dns", "conn")
        split = split_bro_by_protocol(batch)
        assert len(split.dns) == 3
        assert len(split.conn) == 2
        assert split.dropped == 0
        assert split.dns.source is DataSourceKind.BRO_DNS
        assert split.conn.source is DataSourceKind.BRO_CONN
        records = batch.records
        assert split.dns.records == tuple(records[j] for j in (0, 2, 3))
        assert split.conn.records == tuple(records[j] for j in (1, 4))

    def test_empty_batch_splits_to_two_empty(self):
        split = split_bro_by_protocol(make_batch(DataSourceKind.BRO_CONN))
        assert len(split.dns) == 0 and len(split.conn) == 0 and split.dropped == 0

    def test_nonempty_batch_without_discriminator_rejected(self):
        batch = make_batch(
            DataSourceKind.BRO_CONN,
            make_record(record_id="r0", bytes=1),
        )
        with pytest.raises(DiscriminatorMissing):
            split_bro_by_protocol(batch)

    def test_unknown_log_type_dropped_and_counted(self):
        split = split_bro_by_protocol(self._bro_batch("http"))
        assert len(split.dns) == 0 and len(split.conn) == 0
        assert split.dropped == 1

    def test_sizes_plus_drops_conserve_input(self):
        rng = random.Random(11)
        types = [rng.choice(["dns", "conn", "http", "ssl"]) for _ in range(200)]
        split = split_bro_by_protocol(self._bro_batch(*types))
        assert len(split.dns) + len(split.conn) + split.dropped == 200


class TestDirectoryStore:
    def _write_index(self, root, index, docs_by_file):
        index_dir = root / index
        index_dir.mkdir(parents=True)
        for name, docs in docs_by_file.items():
            lines = [json.dumps(d) for d in docs]
            (index_dir / name).write_text("\n".join(lines) + "\n")

    def test_range_filter_and_time_order(self, tmp_path):
        docs = [{"timestamp": t, "v": t} for t in (5, 1, 9, 3, 7)]
        self._write_index(tmp_path, "flows", {"a.jsonl": docs})
        batch = query_store(
            DirectoryStore(tmp_path),
            StoreQuery(index="flows", time_from=3, time_to=8),
            YAF,
        )
        assert [r.timestamp for r in batch.records] == [3, 5, 7]

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            StoreQuery(index="flows", time_from=5, time_to=5)

    def test_missing_index(self, tmp_path):
        with pytest.raises(IndexNotFound) as err:
            query_store(DirectoryStore(tmp_path), StoreQuery(index="nope", time_from=0, time_to=1), YAF)
        assert err.value.index == "nope"

    def test_missing_root_unreachable(self, tmp_path):
        with pytest.raises(StoreUnreachable):
            query_store(
                DirectoryStore(tmp_path / "absent"),
                StoreQuery(index="flows", time_from=0, time_to=1),
                YAF,
            )

    def test_matches_linear_scan_oracle(self, tmp_path):
        rng = random.Random(7)
        files = {}
        all_docs = []
        for f in range(4):
            docs = []
            for i in range(rng.randint(5, 30)):
                doc = {"_id": f"f{f}-{i}", "timestamp": rng.randint(0, 1000), "v": rng.random()}
                docs.append(doc)
                all_docs.append(doc)
            files[f"file{f}.jsonl"] = docs
        self._write_index(tmp_path, "mixed", files)

        time_from, time_to = 200, 700
        batch = query_store(
            DirectoryStore(tmp_path),
            StoreQuery(index="mixed", time_from=time_from, time_to=time_to),
            YAF,
        )
        expected = sorted(
            ((d["timestamp"], d["_id"]) for d in all_docs if time_from <= d["timestamp"] < time_to),
        )
        assert [(r.timestamp, r.record_id) for r in batch.records] == expected

    def test_same_id_in_two_day_files_gets_unique_row_ids(self, tmp_path):
        self._write_index(
            tmp_path,
            "flows",
            {
                "2021-03-01.jsonl": [{"_id": "x", "timestamp": 1, "v": 1}],
                "2021-03-02.jsonl": [{"_id": "x", "timestamp": 2, "v": 2}],
            },
        )
        batch = query_store(
            DirectoryStore(tmp_path), StoreQuery(index="flows", time_from=0, time_to=10), YAF
        )
        assert [r.record_id for r in batch.records] == ["x", "x-1"]

    def test_renamed_ids_are_reported_in_one_info_line(self, tmp_path, caplog):
        self._write_index(tmp_path, "flows", {"a.jsonl": [{"_id": "x", "timestamp": 1}, {"_id": "x", "timestamp": 2}]})
        with caplog.at_level(logging.INFO, logger="camlpad.ingest_store"):
            batch = query_store(DirectoryStore(tmp_path), StoreQuery(index="flows", time_from=0, time_to=10), YAF)
        assert [r.record_id for r in batch.records] == ["x", "x-1"]
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("camlpad.ingest_store", logging.INFO, "query_store renamed 1 repeated record ids, the first 'x' to 'x-1'")
        ]

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_raw_line_separator_in_a_string_reads_alike_from_both_backends(self, tmp_path, stub_server, separator):
        # only a line feed ends a line; the CRLF endings here are read as trailing whitespace
        docs = [{"_id": "a", "timestamp": 1, "ua": f"a{separator}b"}, {"_id": "b", "timestamp": 2, "ua": "c"}]
        (tmp_path / "flows").mkdir()
        (tmp_path / "flows" / "a.jsonl").write_text(
            "".join(json.dumps(doc, ensure_ascii=False) + "\r\n" for doc in docs), encoding="utf-8", newline=""
        )
        url, state = stub_server
        state.datasets["flows"] = docs
        query = StoreQuery(index="flows", time_from=0, time_to=10)
        directory = query_store(DirectoryStore(tmp_path), query, YAF)
        assert [r.fields["ua"] for r in directory.records] == [f"a{separator}b", "c"]
        assert directory.records == query_store(HttpStore(url), query, YAF).records

    def test_ids_match_http_store_for_the_same_docs(self, tmp_path, stub_server):
        # An out-of-window line must not claim an id: the HTTP store never
        # returns it, so both backends have to name the window rows alike.
        files = {
            "2021-03-01.jsonl": [{"_id": "x", "timestamp": 1, "v": 1}, {"_id": "y", "timestamp": 20, "v": 2}],
            "2021-03-02.jsonl": [{"_id": "x", "timestamp": 50, "v": 3}, {"_id": "y", "timestamp": 60, "v": 4}],
        }
        self._write_index(tmp_path, "flows", files)
        url, state = stub_server
        state.datasets["flows"] = [doc for docs in files.values() for doc in docs]
        query = StoreQuery(index="flows", time_from=10, time_to=100)
        directory = query_store(DirectoryStore(tmp_path), query, YAF)
        http = query_store(HttpStore(url), query, YAF)
        assert [r.record_id for r in directory.records] == ["y", "x", "y-1"]
        assert directory.records == http.records

    def test_repeated_ids_claimed_in_time_order_like_http_store(self, tmp_path, stub_server):
        # The later copy of "x" sits in the earlier file; the renaming follows
        # (timestamp, id) order, not file order, so both backends agree.
        files = {"a.jsonl": [{"_id": "x", "timestamp": 70, "v": 1}], "b.jsonl": [{"_id": "x", "timestamp": 60, "v": 2}]}
        self._write_index(tmp_path, "flows", files)
        url, state = stub_server
        state.datasets["flows"] = [doc for docs in files.values() for doc in docs]
        query = StoreQuery(index="flows", time_from=0, time_to=100)
        directory = query_store(DirectoryStore(tmp_path), query, YAF)
        http = query_store(HttpStore(url), query, YAF)
        assert [(r.timestamp, r.record_id) for r in directory.records] == [(60, "x"), (70, "x-1")]
        assert directory.records == http.records

    def test_same_time_same_id_ties_named_by_document_not_by_file_or_page(self, tmp_path, stub_server):
        one, two = {"_id": "x", "timestamp": 5, "v": 1}, {"_id": "x", "timestamp": 5, "v": 2}
        query = StoreQuery(index="flows", time_from=0, time_to=10)
        url, state = stub_server
        batches = []
        for first, second in ((one, two), (two, one)):
            root = tmp_path / f"first-v{first['v']}"
            self._write_index(root, "flows", {"a.jsonl": [first], "b.jsonl": [second]})
            batches.append(query_store(DirectoryStore(root), query, YAF))
            state.datasets["flows"] = [first, second]
            batches.append(query_store(HttpStore(url), query, YAF))
        for batch in batches:
            assert [(r.record_id, r.fields["v"]) for r in batch.records] == [("x", 1.0), ("x-1", 2.0)]

    @pytest.mark.parametrize("time", [1e30, -7])
    def test_time_outside_int64_range_is_rejected_not_dropped(self, tmp_path, stub_server, time):
        self._write_index(tmp_path, "flows", {"a.jsonl": [{"timestamp": 5}, {"timestamp": time}]})
        query = StoreQuery(index="flows", time_from=0, time_to=10)
        with pytest.raises(MalformedLine, match=r"^a\.jsonl: line 2: ") as err:
            query_store(DirectoryStore(tmp_path), query, YAF)
        assert err.value.line_number == 2
        url, state = stub_server
        state.raw_replies["flows/_search"] = json.dumps({"hits": [{"_id": "b", "_source": {"timestamp": time}}]}).encode()
        with pytest.raises(MalformedLine, match=r"^line 1: "):
            query_store(HttpStore(url), query, YAF)

    def test_bad_line_error_names_its_file(self, tmp_path):
        self._write_index(tmp_path, "flows", {"a.jsonl": [{"timestamp": 1}], "b.jsonl": [{"timestamp": 2, "_id": ""}]})
        with pytest.raises(MalformedLine, match=r"^b\.jsonl: line 1: record_id must be non-empty$") as err:
            query_store(DirectoryStore(tmp_path), StoreQuery(index="flows", time_from=0, time_to=10), YAF)
        assert err.value.line_number == 1

    @pytest.mark.parametrize("time", [5, 50], ids=["in_window", "outside_window"])
    def test_a_byte_that_is_not_utf8_fails_its_line(self, tmp_path, time):
        (tmp_path / "flows").mkdir()
        (tmp_path / "flows" / "a.jsonl").write_bytes(b'{"timestamp": 1}\n{"timestamp": %d, "v": "\xff"}\n' % time)
        with pytest.raises(MalformedLine, match=r"^a\.jsonl: line 2: not UTF-8: invalid start byte b'\\xff'$") as err:
            query_store(DirectoryStore(tmp_path), StoreQuery(index="flows", time_from=0, time_to=10), YAF)
        assert err.value.line_number == 2

    def test_more_than_max_records_raises(self, tmp_path):
        docs = [{"timestamp": t} for t in range(50)]
        self._write_index(tmp_path, "flows", {"a.jsonl": docs})
        with pytest.raises(TooManyRecords, match=r"^index flows: more than max_records=49 records"):
            query_store(
                DirectoryStore(tmp_path),
                StoreQuery(index="flows", time_from=0, time_to=100, page_size=5, max_records=49),
                YAF,
            )
        for time_to, cap in ((100, 50), (20, 20)):  # records outside the window do not count
            query = StoreQuery(index="flows", time_from=0, time_to=time_to, page_size=5, max_records=cap)
            assert [r.timestamp for r in query_store(DirectoryStore(tmp_path), query, YAF).records] == list(range(cap))

    def test_reading_stops_at_the_cap(self, tmp_path):
        self._write_index(tmp_path, "flows", {"a.jsonl": [{"timestamp": t} for t in range(15)]})
        (tmp_path / "flows" / "b.jsonl").write_text("not json\n")  # never reached: the cap is passed in a.jsonl
        query = StoreQuery(index="flows", time_from=0, time_to=100, page_size=5, max_records=10)
        with pytest.raises(TooManyRecords, match=r"^index flows: more than max_records=10 records"):
            query_store(DirectoryStore(tmp_path), query, YAF)

    def test_a_read_holds_its_rows_as_columns(self, tmp_path):
        source = DataSourceKind.BRO_DNS  # the widest synth source: three numbers and two categories
        config = SynthConfig(seed=4242, days_history=7, records_per_source_per_day=1500, sources=(source,))
        write_store(generate(config), tmp_path)
        query = StoreQuery(index=source.value, time_from=0, time_to=2**63)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            batch = query_store(DirectoryStore(tmp_path), query, source)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(batch) == 12_000
        # five cells, a time and an id per row; held as one record object per row they took about 790 B
        assert held / len(batch) <= 300


class TestHttpStore:
    def test_hit_outside_the_window_is_skipped_like_a_directory_line(self, tmp_path, stub_server):
        docs = [{"_id": "early", "timestamp": 2}, {"_id": "in", "timestamp": 5}, {"_id": "late", "timestamp": 10}]
        url, state = stub_server
        hits = [{"_id": doc["_id"], "_source": {"timestamp": doc["timestamp"]}} for doc in docs]
        state.raw_replies["flows/_search"] = json.dumps({"hits": hits}).encode()  # a reply that ignores the range
        (tmp_path / "flows").mkdir()
        (tmp_path / "flows" / "a.jsonl").write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        query = StoreQuery(index="flows", time_from=3, time_to=10)
        http = query_store(HttpStore(url), query, YAF)
        assert [r.record_id for r in http.records] == ["in"]
        assert http.records == query_store(DirectoryStore(tmp_path), query, YAF).records

    def test_more_than_max_records_raises(self, stub_server):
        url, state = stub_server
        state.datasets["flows"] = [{"_id": f"d{i:04d}", "timestamp": i, "v": i} for i in range(300)]
        with pytest.raises(TooManyRecords, match=r"^index flows: more than max_records=250 records"):
            query_store(
                HttpStore(url),
                StoreQuery(index="flows", time_from=0, time_to=1000, page_size=100, max_records=250),
                YAF,
            )
        assert state.search_calls == 3

    def test_exactly_max_records_takes_one_more_page(self, stub_server):
        url, state = stub_server
        state.datasets["flows"] = [{"_id": f"d{i:04d}", "timestamp": i, "v": i} for i in range(300)]
        query = StoreQuery(index="flows", time_from=0, time_to=1000, page_size=100, max_records=300)
        batch = query_store(HttpStore(url), query, YAF)
        assert [r.timestamp for r in batch.records] == list(range(300))
        assert state.search_calls == 4  # the fourth, empty page tells "exactly 300" from "more"
        state.datasets["flows"].append({"_id": "d0300", "timestamp": 300, "v": 300})
        with pytest.raises(TooManyRecords):
            query_store(HttpStore(url), query, YAF)
        assert state.search_calls == 8

    def test_stops_when_exhausted(self, stub_server):
        url, state = stub_server
        state.datasets["flows"] = [{"_id": f"d{i}", "timestamp": i} for i in range(30)]
        batch = query_store(
            HttpStore(url),
            StoreQuery(index="flows", time_from=0, time_to=1000, page_size=100, max_records=500),
            YAF,
        )
        assert len(batch) == 30
        assert state.search_calls == 1
        assert state.content_types == ["application/json"]

    def test_auth_token_sent_as_bearer(self, stub_server):
        url, state = stub_server
        state.datasets["flows"] = [{"_id": "a", "timestamp": 1}]
        query_store(
            HttpStore(url, token="sekrit"),
            StoreQuery(index="flows", time_from=0, time_to=10),
            YAF,
        )
        assert "Bearer sekrit" in state.auth_headers

    def test_unknown_index_404(self, stub_server):
        url, _ = stub_server
        with pytest.raises(IndexNotFound):
            query_store(HttpStore(url), StoreQuery(index="ghost", time_from=0, time_to=1), YAF)

    def test_unreachable_server(self):
        with pytest.raises(StoreUnreachable):
            query_store(
                HttpStore("http://127.0.0.1:1"),
                StoreQuery(index="flows", time_from=0, time_to=1),
                YAF,
            )

    def test_file_url_is_unreachable_and_reads_no_file(self, tmp_path):
        (tmp_path / "flows").mkdir()
        (tmp_path / "flows" / "_search").write_text('{"hits": []}')
        with pytest.raises(StoreUnreachable):
            query_store(HttpStore(tmp_path.as_uri()), StoreQuery(index="flows", time_from=0, time_to=1), YAF)

    def test_redirect_off_http_is_a_failed_page_and_connects_nowhere(self, stub_server):
        url, state = stub_server
        with socket.socket() as ftp:
            ftp.bind(("127.0.0.1", 0))
            ftp.listen(1)
            ftp.setblocking(False)
            state.redirects["flows/_search"] = f"ftp://127.0.0.1:{ftp.getsockname()[1]}/x"
            with pytest.raises(PageFailure, match="HTTP 302"):
                query_store(HttpStore(url), StoreQuery(index="flows", time_from=0, time_to=10), YAF)
            with pytest.raises(BlockingIOError):
                ftp.accept()  # no connection is waiting

    def test_a_redirect_to_another_host_is_a_failed_page_after_one_request(self, stub_server, other_stub_server):
        url, state = stub_server
        other_url, other_state = other_stub_server
        state.redirects["flows/_search"] = f"{other_url}/flows/_search"
        with pytest.raises(PageFailure, match="HTTP 302"):
            query_store(HttpStore(url, token="sekrit"), StoreQuery(index="flows", time_from=0, time_to=10), YAF)
        assert state.auth_headers == ["Bearer sekrit"]
        assert other_state.auth_headers == []

    def test_a_redirect_on_the_same_host_is_a_failed_page_after_one_request(self, stub_server):
        url, state = stub_server
        state.redirects["flows/_search"] = f"{url}/moved/_search"
        with pytest.raises(PageFailure, match="HTTP 302"):
            query_store(HttpStore(url, token="sekrit"), StoreQuery(index="flows", time_from=0, time_to=10), YAF)
        assert state.auth_headers == ["Bearer sekrit"]

    def test_a_search_answered_302_is_a_failed_page_and_the_landing_route_gets_nothing(self, stub_server):
        url, state = stub_server
        state.redirects["flows/_search"] = f"{url}/landing"
        with pytest.raises(PageFailure, match="HTTP 302 at offset 0") as err:
            query_store(HttpStore(url), StoreQuery(index="flows", time_from=0, time_to=10), YAF)
        assert err.value.records_so_far == 0
        assert state.get_paths == []

    @pytest.mark.parametrize("url", ["http://127.0.0.1:1/x#é", "http://bücher.example/x"], ids=["fragment", "idn_host"])
    def test_a_non_ascii_fragment_or_host_is_not_refused(self, url):
        assert url_refusal(url) is None  # urllib drops the fragment, and http.client sends the host as IDNA

    def test_credentials_in_url_are_unreachable_and_not_echoed(self, stub_server):
        url, state = stub_server
        with_userinfo = url.replace("http://", "http://alice:pw-secret@")
        with pytest.raises(StoreUnreachable, match="user:password@ in a URL is not supported") as err:
            query_store(HttpStore(with_userinfo), StoreQuery(index="flows", time_from=0, time_to=10), YAF)
        assert "pw-secret" not in str(err.value)
        assert state.auth_headers == []

    @pytest.mark.parametrize("body", [b"[]", b'{"hits": 5}', b'{"hits": [1]}', b'{"hits": [{"_source": 3}]}'])
    def test_bad_response_body_is_a_page_failure(self, stub_server, body):
        url, state = stub_server
        state.raw_replies["flows/_search"] = body
        with pytest.raises(PageFailure, match="bad response body") as err:
            query_store(HttpStore(url), StoreQuery(index="flows", time_from=0, time_to=10), YAF)
        assert err.value.records_so_far == 0

    def test_mid_paging_failure_never_returns_partial_results(self, stub_server):
        url, state = stub_server
        state.datasets["flaky"] = [{"_id": f"d{i}", "timestamp": i} for i in range(10)]
        with pytest.raises(PageFailure) as err:
            query_store(
                HttpStore(url),
                StoreQuery(index="flaky", time_from=0, time_to=100, page_size=5, max_records=50),
                YAF,
            )
        assert err.value.records_so_far == 5


class TestWindowSplit:
    def _batch(self, *timestamps):
        records = [make_record(timestamp=t, record_id=f"r{i}", v=t) for i, t in enumerate(timestamps)]
        return make_batch(YAF, *records)

    def test_basic_partition(self):
        split = window_split(self._batch(1, 2, 3, 4), boundary=3, min_history=1)
        assert [r.timestamp for r in split.history.records] == [1, 2]
        assert [r.timestamp for r in split.current.records] == [3, 4]

    def test_boundary_below_all_is_empty_history(self):
        with pytest.raises(EmptyHistory):
            window_split(self._batch(5, 6), boundary=1, min_history=1)

    def test_boundary_above_all_is_empty_current(self):
        with pytest.raises(EmptyCurrent):
            window_split(self._batch(1, 2), boundary=10, min_history=1)

    def test_default_min_history_is_50(self):
        with pytest.raises(EmptyHistory):
            window_split(self._batch(*range(30)), boundary=20)

    def test_resplit_is_idempotent(self):
        rng = random.Random(3)
        timestamps = sorted(rng.randint(0, 100) for _ in range(40))
        split = window_split(self._batch(*timestamps), boundary=50, min_history=1)
        merged = make_batch(YAF, *(split.history.records + split.current.records))
        again = window_split(merged, boundary=50, min_history=1)
        assert again.history.records == split.history.records
        assert again.current.records == split.current.records


class TestJsonRoundTrip:
    def test_random_records_round_trip(self):
        rng = random.Random(21)
        for case in range(50):
            fields = {}
            for f in range(rng.randint(0, 6)):
                roll = rng.random()
                if roll < 0.3:
                    fields[f"f{f}"] = None
                elif roll < 0.6:
                    fields[f"f{f}"] = rng.choice(["udp", "tcp", "a b", "☃"])
                else:
                    fields[f"f{f}"] = round(rng.uniform(-100, 100), 6)
            record = make_record(timestamp=rng.randint(0, 10**9), record_id=f"case-{case}", **fields)
            line = record_to_json_line(record)
            parsed = read_store(line)
            assert parsed.records[0] == record


# The walk the store backends used before the one-pass decode: ``json.loads``
# on every line and one ``_field_value`` call per cell. Kept as the reference
# that the decode and cell rules are checked against.
def _reference_field_value(raw):
    if raw is None:
        return None
    if isinstance(raw, bool):
        return "true" if raw else "false"
    if isinstance(raw, (int, float)):
        try:
            value = float(raw)
        except OverflowError:
            return None
        return value if math.isfinite(value) else None
    if isinstance(raw, str):
        return raw or None
    return json.dumps(raw, sort_keys=True)


def _reference_record_from_document(doc, source, time_field, line_number, window):
    if time_field not in doc:
        raise MissingTimestamp(line_number, time_field)
    timestamp = to_epoch_ms(doc[time_field])
    if timestamp is None:
        raise MissingTimestamp(line_number, time_field)
    if not 0 <= timestamp < 2**63:
        raise MalformedLine(line_number, f"time {timestamp} outside [0, 2**63) ms")
    if not window[0] <= timestamp < window[1]:
        return None
    store_id = doc.get("_id")
    fields = {name: _reference_field_value(raw) for name, raw in doc.items() if name != time_field and name != "_id"}
    record_id = str(store_id) if store_id is not None else derive_record_id(source, timestamp, fields)
    try:
        return SensorRecord(timestamp=timestamp, fields=fields, record_id=record_id)
    except ValueError as exc:
        raise MalformedLine(line_number, str(exc)) from None


def _reference_read_jsonl(text, source, time_field, window):
    records = []
    for line_number, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedLine(line_number, str(exc)) from None
        if not isinstance(doc, dict):
            raise MalformedLine(line_number, "expected a JSON object")
        record = _reference_record_from_document(doc, source, time_field, line_number, window)
        if record is not None:
            records.append(record)
    return records


def _outcome(read):
    """Records with their cell types, or the (type, message, line number) of the store error raised."""
    try:
        records = read()
    except (MalformedLine, MissingTimestamp) as exc:
        return type(exc), str(exc), exc.line_number
    return [(record, [type(value) for value in record.fields.values()]) for record in records]


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.sampled_from([2**53 + 1, 2**1023, 10**400, -(10**400)]),  # exact past 2**53, then past float range
    st.floats(),  # NaN and +-inf are written as the NaN/Infinity literals json.loads admits
    st.text(max_size=4),  # "" and unicode, line separators such as U+2028 and U+0085 included
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)
GOOD_TIMES = st.one_of(st.integers(0, 40), st.sampled_from([2**63 - 1, 3.5, "7", " 12 ", "1970-01-01T00:00:00.020Z"]))
BAD_TIMES = st.sampled_from([-1, 2**63, 1e30, "x", "", None, True, [1]])
ABSENT = object()
STORE_IDS = st.one_of(st.just(ABSENT), st.none(), st.text(min_size=1, max_size=3), st.integers(0, 9))
BLANK_OR_BROKEN = st.sampled_from(
    ["", "  ", "\t", "{", "not json", '{"timestamp": 1} x', '{"timestamp": 1,}', "[1, 2]", '"text"', "NaN", "{'a': 1}"]
)


def _rarely(draw, rare, usual):
    """One draw in fifteen from ``rare``, else from ``usual``, so most texts parse and the failures stay varied."""
    return draw(rare if draw(st.integers(0, 14)) == 0 else usual)


@st.composite
def documents(draw):
    doc = draw(st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=4))
    time = _rarely(draw, st.one_of(BAD_TIMES, st.just(ABSENT)), GOOD_TIMES)
    store_id = _rarely(draw, st.just(""), STORE_IDS)
    items = list(doc.items())
    for name, value in (("timestamp", time), ("_id", store_id)):
        if value is not ABSENT:
            items.insert(draw(st.integers(0, len(items))), (name, value))
    return dict(items)


@st.composite
def jsonl_texts(draw):
    """Lines of documents, some padded with whitespace or ending CRLF, mixed with blank and malformed lines."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        pad = st.sampled_from(["", "", " ", "\t ", "\r"])
        line = draw(pad) + json.dumps(draw(documents()), ensure_ascii=draw(st.booleans())) + draw(pad)
        lines.append(_rarely(draw, BLANK_OR_BROKEN, st.just(line)))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _window(data):
    time_from = data.draw(st.integers(0, 30))
    return time_from, data.draw(st.integers(time_from + 1, 41))


class TestOnePassWalkMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(jsonl_texts(), st.data())
    def test_parse_matches_reference(self, text, data):
        window = _window(data)
        expected = _outcome(lambda: _reference_read_jsonl(text, YAF, "timestamp", window))
        assert _outcome(lambda: read_jsonl(text.encode("utf-8"), window)) == expected

    @settings(max_examples=100, deadline=None)
    @given(jsonl_texts(), st.data())
    def test_directory_store_matches_reference(self, text, data):
        time_from, time_to = _window(data)
        with tempfile.TemporaryDirectory() as root:
            (Path(root) / "flows").mkdir()
            (Path(root) / "flows" / "a.jsonl").write_text(text, encoding="utf-8")
            query = StoreQuery(index="flows", time_from=time_from, time_to=time_to)
            got = _outcome(lambda: query_store(DirectoryStore(root), query, YAF).records)
        expected = _outcome(lambda: canonical(_reference_read_jsonl(text, YAF, "timestamp", (time_from, time_to))))
        if isinstance(expected, tuple):
            expected = (expected[0], f"a.jsonl: {expected[1]}", expected[2])
        assert got == expected

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(documents(), max_size=6), st.data())
    def test_http_store_matches_reference(self, stub_server, docs, data):
        url, state = stub_server
        hits = [
            {"_source": {k: v for k, v in doc.items() if k != "_id"}, **({"_id": doc["_id"]} if "_id" in doc else {})}
            for doc in docs
        ]
        state.raw_replies["flows/_search"] = json.dumps({"hits": hits}, ensure_ascii=data.draw(st.booleans())).encode()
        window = _window(data)

        def reference():
            records = []
            for position, hit in enumerate(hits, start=1):
                doc = dict(hit["_source"])
                if "_id" in hit:
                    doc["_id"] = hit["_id"]
                record = _reference_record_from_document(doc, YAF, "timestamp", position, window)
                if record is not None:
                    records.append(record)
            return canonical(records)

        query = StoreQuery(index="flows", time_from=window[0], time_to=window[1])
        assert _outcome(lambda: query_store(HttpStore(url), query, YAF).records) == _outcome(reference)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(documents(), st.booleans()), max_size=6))
    def test_every_parsed_record_passes_the_record_check(self, docs):
        lines = []
        for doc, ensure_ascii in docs:
            line = json.dumps(doc, ensure_ascii=ensure_ascii)
            try:
                read_store(line)
            except (MalformedLine, MissingTimestamp):
                continue
            lines.append(line)
        for record in read_store("\n".join(lines)).records:
            checked = SensorRecord(timestamp=record.timestamp, fields=record.fields, record_id=record.record_id)
            assert checked == record
            assert type(record.timestamp) is int

    def test_bro_split_retags_without_rebuilding(self):
        batch = read_store(b'{"ts":1,"log_type":"dns","x":1}\n{"ts":2,"log_type":"conn","x":2}', time_field="ts")
        split = split_bro_by_protocol(batch)
        for part, source, original in ((split.dns, DataSourceKind.BRO_DNS, 0), (split.conn, DataSourceKind.BRO_CONN, 1)):
            assert part.source is source
            assert part.records == (batch.records[original],)
        assert batch.source is YAF
