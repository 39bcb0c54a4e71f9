"""Read sensor logs from a document store, split BRO by protocol, window them.

Two store backends speak the same contract: a directory of ``.jsonl`` files
(one subdirectory per index) and a minimal HTTP search API
(``POST {base}/{index}/_search`` with a range query and from/size paging).

A JSONL line holding one object is decoded once at C level
(``_read_jsonl``); its time, window, id and the ``max_records`` cap are
checked in line order (``_Rows.add_document``), which takes the time field
and ``_id`` out and adds the rest whole to a ``BatchBuilder``; it makes each
row shape's cells and columns once, when the batch is made. The document
itself does not outlive its line. A row's source is its batch's, so the BRO
split takes the rows it read into the dns and conn batches as they are.
"""

from __future__ import annotations

import functools
import json
import logging
import re
import urllib.parse  # pathlib imports it anyway; http.client and urllib.request load on the first request
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from itertools import groupby
from math import floor
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .datamodel import (
    BatchBuilder, DataSourceKind, RecordBatch, SensorRecord, WindowSplit, canonical_order, derive_record_id, field_value
)
from .errors import CamlpadError

logger = logging.getLogger(__name__)

DEFAULT_TIME_FIELD = "timestamp"
DEFAULT_MIN_HISTORY = 50
DEFAULT_DISCRIMINATOR = "log_type"
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
# discriminator values of the two BRO log types the pipeline analyses
BRO_DNS_VALUE = "dns"
BRO_CONN_VALUE = "conn"
_HTTP_SCHEMES = ("http://", "https://")
_SPACE_OR_CONTROL = "".join(map(chr, range(0x21))) + "\x7f"  # http.client sends none of these
_ESCAPES = str.maketrans({c: f"\\x{ord(c):02x}" for c in _SPACE_OR_CONTROL} | {"\t": "\\t", "\n": "\\n", "\r": "\\r"})
_raw_decode = json.JSONDecoder().raw_decode
_compact = json.JSONEncoder(separators=(",", ":")).encode  # what json.dumps(doc, separators=(",", ":")) writes


class MalformedLine(CamlpadError):
    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number


class StoreUnreachable(CamlpadError):
    pass


class TooManyRecords(CamlpadError):
    pass


@dataclass(frozen=True)
class StoreQuery:
    """Time-range query against one index, with paging limits."""

    index: str
    time_from: int
    time_to: int
    page_size: int = 500
    max_records: int = 1_000_000

    def __post_init__(self) -> None:
        if self.time_from >= self.time_to:
            raise ValueError(f"time_from {self.time_from} must be < time_to {self.time_to}")
        if self.page_size <= 0 or self.max_records <= 0:
            raise ValueError("page_size and max_records must be positive")
        if self.page_size > self.max_records:
            raise ValueError("page_size must be <= max_records")


@dataclass(frozen=True)
class DirectoryStore:
    """Index = subdirectory of .jsonl files under ``root``."""

    root: Path

    def __post_init__(self) -> None:
        object.__setattr__(self, "root", Path(self.root))

    def read(self, rows: _Rows) -> None:
        """Add the rows of the query's index's ``*.jsonl`` files to ``rows``, in file name order."""
        index_dir = self._root() / rows.query.index
        if not index_dir.is_dir():
            raise CamlpadError(f"index not found: {rows.query.index}")
        for path in sorted(index_dir.glob("*.jsonl")):
            try:
                _read_jsonl(path.read_bytes(), rows)
            except MalformedLine as exc:
                exc.args = (f"{path.name}: {exc}",)
                raise
            except OSError as exc:  # a *.jsonl directory, say
                raise CamlpadError(f"{path.name}: {exc}") from None

    def check(self, plan: list[tuple[str, tuple[DataSourceKind, ...]]], time_field: str) -> None:
        """The root and each planned index directory exist; every missing one is named at once."""
        root = self._root()
        missing = [index for index, _ in plan if not (root / index).is_dir()]
        if missing:
            raise StoreUnreachable(f"missing index directories: {', '.join(missing)}")

    def append(self, index: str, name: str, payload: bytes) -> None:
        """Append ``payload`` to ``<index>/<name>.jsonl``, making the directory when it is missing."""
        index_dir = self.root / index
        try:
            index_dir.mkdir(parents=True, exist_ok=True)
            with open(index_dir / f"{name}.jsonl", "ab") as sink:
                sink.write(payload)
        except OSError as exc:
            raise StoreUnreachable(f"cannot write gauge to {index_dir}: {exc}") from None

    def _root(self) -> Path:
        if not self.root.is_dir():
            raise StoreUnreachable(f"store root does not exist: {self.root}")
        return self.root


@dataclass(frozen=True)
class HttpStore:
    """Minimal search-API backend; token sent as a Bearer header when set."""

    base_url: str
    token: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "base_url", self.base_url.rstrip("/"))

    def read(self, rows: _Rows) -> None:
        """Add ``_search`` hits to ``rows`` until a page comes back short, so a full page at the cap gets one more."""
        query = rows.query
        url = f"{self.base_url}/{query.index}/_search"
        offset = 0
        while True:
            body = {
                "range": {rows.time_field: {"gte": query.time_from, "lt": query.time_to}},
                "from": offset,
                "size": query.page_size,
            }
            status, raw = post_json(url, json.dumps(body).encode(), self.token)
            if status == 404:
                raise CamlpadError(f"index not found: {query.index}")
            if status != 200:
                raise CamlpadError(f"page failure after {len(rows)} records: HTTP {status} at offset {offset}")
            hits = _page_hits(raw, len(rows))
            for position, hit in enumerate(hits):
                doc = hit["_source"]
                rows.add_document(doc, hit["_id"] if "_id" in hit else doc.get("_id"), offset + position + 1)
            if len(hits) < query.page_size:
                return
            offset += len(hits)

    def check(self, plan: list[tuple[str, tuple[DataSourceKind, ...]]], time_field: str) -> None:
        """Each planned index answers a one-record query."""
        for index, sources in plan:
            try:
                query_store(self, StoreQuery(index, 0, 1, page_size=1, max_records=1), sources[0], time_field)
            except TooManyRecords:
                pass  # the store answered; a one-record probe only checks that

    def append(self, index: str, name: str, payload: bytes) -> None:
        """POST ``payload`` to ``{base}/{index}/_doc``; a reply must be HTTP 200 or 201 with a JSON object."""
        url = f"{self.base_url}/{index}/_doc"
        status, raw = post_json(url, payload, self.token)
        if status not in (200, 201):
            raise StoreUnreachable(f"{redact_url(url)}: HTTP {status}")
        try:
            reply = json.loads(raw)
        except ValueError:
            reply = None
        if not isinstance(reply, dict):
            raise StoreUnreachable(f"{redact_url(url)}: reply is not a JSON object: {raw[:80]!r}")


StoreLocator = DirectoryStore | HttpStore


@functools.cache
def _opener() -> urllib.request.OpenerDirector:
    """An opener that follows no redirect, built on the first request: a run that sends none loads no HTTP stack."""
    import urllib.request

    class _NoRedirect(urllib.request.HTTPRedirectHandler):
        """urllib would re-send a POST answered 301, 302 or 303 as a GET without its body.

        A 3xx then reaches ``post_json`` as the HTTPError that any other non-2xx reply is.
        """

        def redirect_request(self, req, fp, code, msg, headers, newurl):
            return None

    return urllib.request.build_opener(_NoRedirect)


def redact_url(url: str) -> str:
    """``url`` cut at its first ``?`` or ``#``, and each space or control escaped.

    Of a URL holding an ``@`` it keeps the leading scheme, if any, and the
    text after the last ``@``, unless a ``?`` or ``#`` comes before that
    ``@``. It parses nothing, so no malformed URL makes it show a query, a
    fragment or any of a user:password@, whose password may hold a raw ``/``, ``?`` or ``#``.
    """
    head, at, tail = url.rpartition("@")
    if at:
        url = re.match("(?:[A-Za-z][A-Za-z0-9+.-]*://)?", url)[0] + ("" if re.search("[?#]", head) else tail)
    return re.split("[?#]", url, maxsplit=1)[0].translate(_ESCAPES)


def url_refusal(url: str) -> str | None:
    """Why ``post_json`` refuses ``url`` without sending, or None.

    It must hold no space or control character, be http(s), hold no ``@``
    (a parse takes a raw ``/``, ``?`` or ``#`` in a password for the end of
    the host), parse, name its port (if any) as a number in range, hold no
    non-ASCII character in its path or query (http.client writes the request
    line as ASCII), and name a host. The characters come first: a leading
    one would otherwise be refused for the scheme behind it.
    """
    unsendable = re.search(f"[{_SPACE_OR_CONTROL}]", url)
    if unsendable:
        return f"a URL cannot hold {unsendable.group()!r}, a space or control character"
    if not url.lower().startswith(_HTTP_SCHEMES):
        return "only http:// and https:// URLs are supported"
    if "@" in url:
        return "user:password@ in a URL is not supported, and any other @ must be written %40"
    try:
        parts = urllib.parse.urlsplit(url)
        parts.port  # raises for a port that is not a number in range
    except ValueError as exc:
        return str(exc)
    foreign = re.search("[^\x00-\x7f]", parts.path + parts.query)
    if foreign:
        return f"a URL cannot hold {foreign.group()!r}, a non-ASCII character, in its path or query"
    if not parts.hostname:
        return "the URL names no host"
    return None


def post_json(url: str, body: bytes, token: str | None = None) -> tuple[int, bytes]:
    """POST a JSON body, with a Bearer header when a token is set; (status, body) of any reply.

    Every failure that leaves no reply, a URL that ``url_refusal`` refuses
    included, is StoreUnreachable, naming the URL by ``redact_url``.
    """
    shown = redact_url(url)
    refusal = url_refusal(url)
    if refusal:
        raise StoreUnreachable(f"{shown}: {refusal}")
    import http.client
    import urllib.error
    import urllib.request

    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        try:
            response = _opener().open(request, timeout=30)
        except urllib.error.HTTPError as reply:  # a non-2xx reply still has a status and a body
            response = reply
        with response:
            return response.status, response.read()
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise StoreUnreachable(f"{shown}: {exc}") from None


def to_epoch_ms(value: object) -> int | None:
    """Normalize a raw time value to epoch milliseconds UTC, floored to a whole ms, or None.

    Non-finite values ("inf", "1e999", NaN) are unparseable, not errors.
    """
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, str):
        text = value.strip()
        try:
            value = float(text)
        except ValueError:
            return _iso_epoch_ms(text)
    if isinstance(value, (int, float)):
        try:
            return floor(value)
        except (OverflowError, ValueError):
            return None
    return None


def _iso_epoch_ms(text: str) -> int | None:
    try:
        parsed = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        return None
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return (parsed - EPOCH) // timedelta(milliseconds=1)


def _canonical(batch: RecordBatch) -> RecordBatch:
    """The batch's rows in ascending (timestamp, record_id) order with unique ids.

    Walking that order, each repeat of an id already taken is renamed
    ``<id>-1``, ``<id>-2``, ... (the first free one). Rows that tie on
    both time and id are walked in the order of their serialized documents,
    so the renaming does not depend on which backend, file or page a row
    came from. One INFO line counts the renamed ids and names the first.
    """
    order = canonical_order(batch.timestamps, batch.record_ids)
    if (order != np.arange(len(order))).any():  # a day file or a search reply usually is already
        batch = batch.take(order)
    if len(set(batch.record_ids)) == len(batch):
        return batch
    keys = list(zip(batch.timestamps.tolist(), batch.record_ids))
    walk: list[int] = []
    for _, tie in groupby(range(len(batch)), keys.__getitem__):
        tie = list(tie)
        if len(tie) > 1:
            tie = [row for _, row in sorted(zip(json_lines(batch.take(np.array(tie))), tie))]
        walk.extend(tie)
    batch = batch.take(np.array(walk))
    taken: set[str] = set()
    renamed: list[tuple[str, str]] = []
    ids = list(batch.record_ids)
    for i, record_id in enumerate(ids):
        rid, n = record_id, 1
        while rid in taken:
            rid = f"{record_id}-{n}"
            n += 1
        taken.add(rid)
        if rid != record_id:
            ids[i] = rid
            renamed.append((record_id, rid))
    logger.info("query_store renamed %d repeated record ids, the first %r to %r", len(renamed), *renamed[0])
    batch = replace(batch, record_ids=tuple(ids))
    return batch.take(canonical_order(batch.timestamps, batch.record_ids))


def utf8_lines(data: bytes) -> list[str]:
    """The lines of UTF-8 ``data``; data that is not UTF-8 is a MalformedLine on the line of its first bad byte.

    Lines end at a line feed only: a raw U+2028, U+2029 or U+0085 is legal
    inside a JSON string, and the carriage return of a CRLF line is trailing
    whitespace to ``json.loads``. Every line file camlpad reads is split so.
    """
    try:
        return data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        bad = data[exc.start:exc.end]
        raise MalformedLine(data.count(b"\n", 0, exc.start) + 1, f"not UTF-8: {exc.reason} {bad!r}") from None


def _read_jsonl(data: bytes, rows: _Rows) -> None:
    """Add the JSONL lines timed inside the window to ``rows``, in line order.

    Each of the ``utf8_lines`` goes first through the C scanner of
    ``_raw_decode``; its result stands only when it is an object spanning
    the whole line. Any other line (blank, padded with whitespace, malformed,
    or not an object) is decoded again by ``json.loads``, so what passes and
    the message of what fails are ``json.loads``'s. Data that is not UTF-8
    fails on the line of its first bad byte, wherever that line is timed.
    """
    for line_number, line in enumerate(utf8_lines(data), start=1):
        try:
            doc, end = _raw_decode(line)
        except ValueError:
            doc, end = None, -1
        if end != len(line) or type(doc) is not dict:
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedLine(line_number, str(exc)) from None
            if not isinstance(doc, dict):
                raise MalformedLine(line_number, "expected a JSON object")
        rows.add_document(doc, doc.get("_id"), line_number)


class _Rows(BatchBuilder):
    """The rows of one query: each document timed inside its window, as columns, at most ``max_records`` of them."""

    def __init__(self, source: DataSourceKind, time_field: str, query: StoreQuery):
        super().__init__(source)
        self.time_field = time_field
        self.query = query

    def add_document(self, doc: dict, store_id: object, line_number: int) -> None:
        """Add the document's fields under its store or derived id, unless it is timed outside the window.

        Its time field and ``_id`` are taken out first; what is left are its fields.
        Time and id are checked here, line by line; the cells are made with the
        batch, except for ``derive_record_id``. The first row past the query's
        ``max_records`` raises TooManyRecords, whichever backend it came from.
        """
        time_field, query = self.time_field, self.query
        raw_time = doc.pop(time_field, None)
        doc.pop("_id", None)
        timestamp = raw_time if type(raw_time) is int else to_epoch_ms(raw_time)
        if timestamp is None:
            raise MalformedLine(line_number, f"time field {time_field!r} absent or unparseable")
        if not 0 <= timestamp < 2**63:  # rejected before the window test, so no backend drops it unnoticed
            raise MalformedLine(line_number, f"time {timestamp} outside [0, 2**63) ms")
        if not query.time_from <= timestamp < query.time_to:
            return
        record_id = str(store_id) if store_id is not None else derive_record_id(
            self.source, timestamp, {name: field_value(raw) for name, raw in doc.items()}
        )
        if not record_id:
            raise MalformedLine(line_number, "record_id must be non-empty")
        if len(self.record_ids) >= query.max_records:
            raise TooManyRecords(f"index {query.index}: more than max_records={query.max_records} records in the window")
        self.add(timestamp, record_id, doc)


def _document(timestamp: int, fields: dict[str, float | str | None], record_id: str) -> dict:
    return {"_id": record_id, DEFAULT_TIME_FIELD: timestamp, **fields}


def record_to_document(record: SensorRecord) -> dict:
    """JSON-document form of a record; the store reader reads it back as the same record."""
    return _document(record.timestamp, record.fields, record.record_id)


def json_lines(batch: RecordBatch) -> Iterator[str]:
    """Each row's ``record_to_document`` as a compact JSON line, written without building its record."""
    return (_compact(_document(*row)) for row in batch.rows())


class BroSplit(NamedTuple):
    dns: RecordBatch
    conn: RecordBatch
    dropped: int


def split_bro_by_protocol(batch: RecordBatch, discriminator: str = DEFAULT_DISCRIMINATOR) -> BroSplit:
    """Partition a raw BRO batch into DNS and CONN batches by log type.

    Records whose discriminator value is neither BRO_DNS_VALUE nor
    BRO_CONN_VALUE are dropped and counted in ``dropped``; real BRO emits
    many log types beyond these two.
    """
    labels = batch.columns.get(discriminator)  # a batch holds a column for each field some row carries
    if len(batch) and labels is None:
        raise CamlpadError(f"discriminator field {discriminator!r} absent from every record")
    categories = labels.categories if labels else ()
    halves = []
    for source, value in ((DataSourceKind.BRO_DNS, BRO_DNS_VALUE), (DataSourceKind.BRO_CONN, BRO_CONN_VALUE)):
        rows = np.flatnonzero(labels.codes == categories.index(value)) if value in categories else np.arange(0)
        halves.append(replace(batch.take(rows), source=source))
    return BroSplit(dns=halves[0], conn=halves[1], dropped=len(batch) - len(halves[0]) - len(halves[1]))


def query_store(
    locator: StoreLocator,
    query: StoreQuery,
    source: DataSourceKind,
    time_field: str = DEFAULT_TIME_FIELD,
) -> RecordBatch:
    """All records with time_from <= t < time_to; either backend skips a document timed outside.

    Results are in canonical ascending (timestamp, record_id) order; an id
    seen again in that order is suffixed ``-1``, ``-2``, ... Partial results
    are never returned silently: any page failure raises, and so does a
    window holding more than max_records records (TooManyRecords). A
    directory-store line that does not parse, or a day file that cannot be
    read, raises with its file's name before its message.
    """
    rows = _Rows(source, time_field, query)
    locator.read(rows)
    return _canonical(rows.batch())


def _page_hits(raw: bytes, records_so_far: int) -> list[dict]:
    """The hits of a search reply ``{"hits": [{"_source": {...}, ...}, ...]}``; else a page failure is raised."""
    try:
        page = json.loads(raw)
    except ValueError as exc:
        raise CamlpadError(f"page failure after {records_so_far} records: bad response body: {exc}") from None
    hits = page.get("hits") if isinstance(page, dict) else None
    if not isinstance(hits, list) or not all(
        isinstance(hit, dict) and isinstance(hit.get("_source"), dict) for hit in hits
    ):
        raise CamlpadError(
            f"page failure after {records_so_far} records: "
            f"bad response body: hits must be objects with a _source object: {raw[:80]!r}"
        )
    return hits


def window_split(
    batch: RecordBatch,
    boundary: int,
    min_history: int = DEFAULT_MIN_HISTORY,
) -> WindowSplit:
    """Partition a batch at a boundary: history t < boundary, current t >= boundary.

    Input order is preserved on both sides. Scoring with no current rows or
    too little history is meaningless, so both degenerate cases raise.
    """
    before = batch.timestamps < boundary
    history = batch.take(np.flatnonzero(before))
    current = batch.take(np.flatnonzero(~before))
    if not len(current):
        raise CamlpadError(f"no records at or after boundary {boundary} for {batch.source.value}")
    if len(history) < min_history:
        raise CamlpadError(
            f"{len(history)} history records before boundary {boundary} for {batch.source.value}, need {min_history}"
        )
    return WindowSplit(history=history, current=current, boundary=boundary)
