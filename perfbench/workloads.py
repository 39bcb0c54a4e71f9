"""Seeded inputs for the benchmark workloads.

Each workload writes a store (plus the synth truth files next to it) into a
work directory and returns what the run needs: the config text for the
program and the truth labels of every record inside the analysed window.
Nothing here is timed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from camlpad.config import window_id_for
from camlpad.datamodel import DataSourceKind
from camlpad.ingest_store import record_to_document
from camlpad.synth import DAY_MS, TRUTH_DIR, SynthConfig, SynthResult, generate, write_store

HISTORY_DAYS = 7
CONTAMINATION = 0.05
BRO_INDEX = "bro"
BRO_SOURCES = (DataSourceKind.BRO_DNS, DataSourceKind.BRO_CONN)
LIGHT_SOURCES = (DataSourceKind.YAF, DataSourceKind.SNORT, DataSourceKind.MERAKI)


@dataclass
class Prepared:
    """A generated store and the facts the checks need about it."""

    store_root: Path
    boundary: str
    truth: dict[str, dict[str, int]]  # source -> {record_id: label}, window records only
    http: bool = False

    @property
    def records(self) -> int:
        return sum(len(labels) for labels in self.truth.values())

    def config_text(self, output_dir: Path, store_url: str = "") -> str:
        lines = [
            f"run.boundary = {self.boundary}",
            f"run.history_days = {HISTORY_DAYS}",
            f"run.contamination = {CONTAMINATION}",
            f"run.output_dir = {output_dir}",
        ]
        if self.http:
            lines += ["store.kind = http", f"store.url = {store_url}", f"run.bro_index = {BRO_INDEX}"]
        else:
            lines += ["store.kind = directory", f"store.root = {self.store_root}"]
        return "\n".join(lines) + "\n"


def _window_truth(result: SynthResult) -> dict[str, dict[str, int]]:
    boundary = result.config.boundary_ms
    start, end = boundary - HISTORY_DAYS * DAY_MS, boundary + DAY_MS
    truth: dict[str, dict[str, int]] = {}
    for source, batch in result.batches.items():
        labels = result.truth[source].labels.tolist()
        truth[source.value] = {
            record.record_id: int(label)
            for record, label in zip(batch.records, labels)
            if start <= record.timestamp < end
        }
    return truth


def _directory_store(seed: int, root: Path, days_history: int, records: int, style: str) -> Prepared:
    config = SynthConfig(
        seed=seed,
        days_history=days_history,
        records_per_source_per_day=records,
        contamination=CONTAMINATION,
        anomaly_style=style,
    )
    result = generate(config)
    store = root / "store"
    write_store(result, store)
    return Prepared(store_root=store, boundary=window_id_for(config.boundary_ms), truth=_window_truth(result))


def dir_month_1x(seed: int, root: Path) -> Prepared:
    return _directory_store(seed, root, days_history=27, records=500, style="scatter")


def dir_3x(seed: int, root: Path) -> Prepared:
    return _directory_store(seed, root, days_history=HISTORY_DAYS, records=1500, style="shift")


def _write_bro_index(result: SynthResult, store: Path) -> None:
    """One combined BRO index tagged by ``log_type``, plus the BRO truth files."""
    docs = []
    for source in BRO_SOURCES:
        tag = source.value.removeprefix("bro_")
        for record in result.batches[source].records:
            doc = record_to_document(record)
            doc["log_type"] = tag
            docs.append(doc)
    index = store / BRO_INDEX
    index.mkdir(parents=True, exist_ok=True)
    (index / "window.jsonl").write_text(
        "".join(json.dumps(doc, separators=(",", ":")) + "\n" for doc in docs), encoding="utf-8"
    )
    truth_dir = store / TRUTH_DIR
    truth_dir.mkdir(parents=True, exist_ok=True)
    for source in BRO_SOURCES:
        vector = result.truth[source]
        (truth_dir / f"{source.value}.jsonl").write_text(
            "".join(
                json.dumps({"label": int(label), "record_id": row_id}, sort_keys=True) + "\n"
                for row_id, label in zip(vector.row_ids, vector.labels.tolist())
            ),
            encoding="utf-8",
        )


def http_bro_heavy(seed: int, root: Path) -> Prepared:
    heavy = generate(SynthConfig(
        seed=seed, days_history=HISTORY_DAYS, records_per_source_per_day=1500,
        contamination=CONTAMINATION, sources=BRO_SOURCES,
    ))
    # A different synth seed keeps the light sources' anomaly bursts
    # independent of the BRO ones.
    light = generate(SynthConfig(
        seed=seed + 1, days_history=HISTORY_DAYS, records_per_source_per_day=500,
        contamination=CONTAMINATION, sources=LIGHT_SOURCES,
    ))
    store = root / "store"
    write_store(light, store)
    _write_bro_index(heavy, store)
    return Prepared(
        store_root=store,
        boundary=window_id_for(heavy.config.boundary_ms),
        truth={**_window_truth(heavy), **_window_truth(light)},
        http=True,
    )


WORKLOADS = {
    "dir_month_1x": dir_month_1x,
    "dir_3x": dir_3x,
    "http_bro_heavy": http_bro_heavy,
}
