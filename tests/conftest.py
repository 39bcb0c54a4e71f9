"""Shared fixtures: a stub search/webhook HTTP server and record helpers."""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from camlpad.datamodel import BatchBuilder, DataSourceKind, RecordBatch, SensorRecord


@dataclass
class StubState:
    """Mutable server-side state the tests inspect."""

    datasets: dict[str, list[dict]] = field(default_factory=dict)  # index -> docs with "_id"
    time_field: str = "timestamp"
    gauge_docs: list[dict] = field(default_factory=list)
    webhook_bodies: list[dict] = field(default_factory=list)
    webhook_fail_calls: int = 0
    auth_headers: list[str | None] = field(default_factory=list)
    content_types: list[str | None] = field(default_factory=list)
    search_calls: int = 0
    raw_replies: dict[str, bytes] = field(default_factory=dict)  # route -> body sent verbatim with HTTP 200
    redirects: dict[str, str] = field(default_factory=dict)  # route -> Location sent with HTTP 302
    get_paths: list[str] = field(default_factory=list)


class _StubHandler(BaseHTTPRequestHandler):
    state: StubState  # set by the fixture

    def log_message(self, *args):  # keep pytest output clean
        pass

    def _reply(self, status: int, payload: dict | bytes) -> None:
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # a tripwire: camlpad only POSTs, so a GET is a redirect that was followed
        self.state.auth_headers.append(self.headers.get("Authorization"))
        self.state.get_paths.append(self.path)
        if self.path == "/landing":  # a page that is also a JSON object, so following a redirect here would pass
            self._reply(200, {"hits": [{"_id": "landed", "_source": {"timestamp": 1}}]})
            return
        self._reply(405, {"error": "GET not served"})

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length)
        self.state.auth_headers.append(self.headers.get("Authorization"))
        self.state.content_types.append(self.headers.get("Content-Type"))
        route = self.path.strip("/")
        if route in self.state.raw_replies:
            self._reply(200, self.state.raw_replies[route])
            return
        if route in self.state.redirects:
            self.send_response(302)
            self.send_header("Location", self.state.redirects[route])
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        parts = route.split("/")

        if parts == ["webhook", "ok"]:
            self.state.webhook_bodies.append(json.loads(raw))
            self._reply(200, {"ok": True})
            return
        if parts == ["webhook", "fail"]:
            self.state.webhook_fail_calls += 1
            self._reply(500, {"ok": False})
            return
        if parts == ["gauges", "_doc"]:
            self.state.gauge_docs.append(json.loads(raw))
            self._reply(201, {"_id": f"g-{len(self.state.gauge_docs) - 1}"})
            return
        if len(parts) == 2 and parts[1] == "_search":
            index = parts[0]
            if index not in self.state.datasets:
                self._reply(404, {"error": "index_not_found"})
                return
            self.state.search_calls += 1
            body = json.loads(raw)
            bounds = body["range"][self.state.time_field]
            offset, size = body.get("from", 0), body.get("size", 10)
            if index == "flaky" and offset > 0:
                self._reply(500, {"error": "shard failure"})
                return
            matches = [
                doc
                for doc in self.state.datasets[index]
                if bounds["gte"] <= doc[self.state.time_field] < bounds["lt"]
            ]
            matches.sort(key=lambda d: (d[self.state.time_field], str(d["_id"])))
            page = matches[offset : offset + size]
            hits = [
                {"_id": doc["_id"], "_source": {k: v for k, v in doc.items() if k != "_id"}}
                for doc in page
            ]
            self._reply(200, {"hits": hits})
            return
        self._reply(404, {"error": "no such route"})


@contextmanager
def _serve_stub():
    state = StubState()
    handler = type("Handler", (_StubHandler,), {"state": state})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield url, state
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def stub_server():
    with _serve_stub() as served:
        yield served


@pytest.fixture
def other_stub_server():
    """A second stub on its own port, e.g. the target of a redirect to another host."""
    with _serve_stub() as served:
        yield served


def make_record(timestamp: int = 0, record_id: str = "r0", **fields) -> SensorRecord:
    """A record whose int cells are passed as floats (records admit no ints)."""
    converted = {name: float(value) if isinstance(value, int) else value for name, value in fields.items()}
    return SensorRecord(timestamp=timestamp, fields=converted, record_id=record_id)


def make_batch(source: DataSourceKind, *records: SensorRecord) -> RecordBatch:
    """The batch of hand-built records, in their order."""
    rows = BatchBuilder(source)
    for record in records:
        rows.add(record.timestamp, record.record_id, record.fields)
    return rows.batch()
