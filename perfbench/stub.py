"""Single-threaded search-API stub serving a directory store over HTTP.

Usage: python3 stub.py STORE_ROOT

Loads every ``<index>/*.jsonl`` under STORE_ROOT, binds 127.0.0.1 on a free
port and prints ``PORT <n>`` on one line before serving:

- ``POST /{index}/_search`` with ``{"range": {"timestamp": {"gte", "lt"}},
  "from", "size"}`` returns ``{"hits": [...]}`` in (timestamp, _id) order;
  the range is found by bisecting the sorted documents.
- ``POST /gauges/_doc`` appends a gauge document.
- ``POST /_bench/stats`` returns the counters since the previous call (search
  pages, response bytes, gauge posts, the stub's own CPU seconds) and clears
  them together with the stored gauges, so each repetition starts alike.

Every response closes its connection (HTTP/1.0). The client opens a new
connection per request, and a single-threaded server that kept one open
would block the next request until the client's read timeout.
"""

from __future__ import annotations

import bisect
import json
import sys
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

TIME_FIELD = "timestamp"
SKIPPED_DIRS = {"truth", "gauges"}


class Index:
    def __init__(self, docs: list[dict]):
        docs.sort(key=lambda d: (d[TIME_FIELD], str(d["_id"])))
        self.times = [d[TIME_FIELD] for d in docs]
        self.hits = [
            json.dumps({"_id": d["_id"], "_source": {k: v for k, v in d.items() if k != "_id"}}).encode()
            for d in docs
        ]

    def page(self, gte: int, lt: int, offset: int, size: int) -> bytes:
        low = bisect.bisect_left(self.times, gte)
        high = bisect.bisect_left(self.times, lt)
        start = min(low + offset, high)
        return b'{"hits":[' + b",".join(self.hits[start : min(start + size, high)]) + b"]}"


class Counters:
    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.pages = 0
        self.bytes = 0
        self.gauge_posts = 0
        self.gauges: list[dict] = []
        self.cpu_mark = time.process_time()


def load_indexes(root: Path) -> dict[str, Index]:
    indexes = {}
    for index_dir in sorted(p for p in root.iterdir() if p.is_dir() and p.name not in SKIPPED_DIRS):
        docs = [
            json.loads(line)
            for path in sorted(index_dir.glob("*.jsonl"))
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        indexes[index_dir.name] = Index(docs)
    return indexes


def make_handler(indexes: dict[str, Index], counters: Counters) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.0"

        def log_message(self, *args) -> None:
            pass

        def _reply(self, status: int, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self) -> None:
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            parts = self.path.strip("/").split("/")
            if parts == ["_bench", "stats"]:
                stats = {
                    "pages": counters.pages,
                    "bytes": counters.bytes,
                    "gauge_posts": counters.gauge_posts,
                    "cpu_s": time.process_time() - counters.cpu_mark,
                }
                counters.reset()
                self._reply(200, json.dumps(stats).encode())
            elif parts == ["gauges", "_doc"]:
                counters.gauges.append(json.loads(raw))
                counters.gauge_posts += 1
                self._reply(201, json.dumps({"_id": f"g-{len(counters.gauges) - 1}"}).encode())
            elif len(parts) == 2 and parts[1] == "_search" and parts[0] in indexes:
                query = json.loads(raw)
                bounds = query["range"][TIME_FIELD]
                body = indexes[parts[0]].page(bounds["gte"], bounds["lt"], query.get("from", 0), query.get("size", 10))
                counters.pages += 1
                counters.bytes += len(body)
                self._reply(200, body)
            else:
                self._reply(404, b'{"error":"not found"}')

    return Handler


def main(argv: list[str]) -> None:
    indexes = load_indexes(Path(argv[0]))
    counters = Counters()
    with HTTPServer(("127.0.0.1", 0), make_handler(indexes, counters)) as server:
        print(f"PORT {server.server_address[1]}", flush=True)
        server.serve_forever()


if __name__ == "__main__":
    main(sys.argv[1:])
