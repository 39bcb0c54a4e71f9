"""Tests of the benchmark's own checks, tracer summary, stub and reporting.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from camlpad.config import DetectorParams, PipelineConfig  # noqa: E402
from camlpad.datamodel import DataSourceKind  # noqa: E402
from camlpad.evaluate import adjusted_rand_index as exact_ari  # noqa: E402
from camlpad.ingest_store import DirectoryStore, HttpStore, StoreQuery, query_store  # noqa: E402
from camlpad.pipeline import run_pipeline  # noqa: E402

import run as bench  # noqa: E402
from run import describe  # noqa: E402
from checks import ALERTS_FILE, adjusted_rand_index, check_run  # noqa: E402
from tracer import self_time_by_name, summarize  # noqa: E402
from workloads import WORKLOADS, _directory_store, http_bro_heavy  # noqa: E402


@pytest.fixture(scope="module")
def good_run(tmp_path_factory):
    """A real pipeline run on a small seeded store, the truth of its window, and its exit status."""
    root = tmp_path_factory.mktemp("bench")
    prepared = _directory_store(seed=5, root=root, days_history=7, records=120, style="shift")
    out = root / "out"
    result = run_pipeline(PipelineConfig(
        store_root=prepared.store_root,
        output_dir=out,
        boundary=prepared.boundary,
        contamination=0.05,
        detectors=DetectorParams(iforest_trees=40, iforest_subsample=64),
    ))
    return out, prepared.truth, 2 if result.alert else 0


@pytest.fixture
def run_copy(good_run, tmp_path):
    out, truth, code = good_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return copy, truth, code


def test_ari_matches_camlpad_exact_ari():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 60)
        a = [rng.randint(0, 2) for _ in range(n)]
        b = [rng.randint(0, 1) for _ in range(n)]
        assert adjusted_rand_index(a, b) == pytest.approx(exact_ari(a, b), abs=1e-9)


def test_good_run_passes(good_run):
    out, truth, code = good_run
    check = check_run(code, out, truth, None)
    assert check.ok, check.problems
    assert check.ari_min >= 0.8
    assert check_run(code, out, truth, check.digest).ok


def test_dropped_label_row_fails(run_copy):
    out, truth, code = run_copy
    path = out / "labels" / "yaf.jsonl"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    check = check_run(code, out, truth, None)
    assert not check.ok
    assert any("yaf" in p and "label rows" in p for p in check.problems)


def test_flipped_labels_fail_the_ari_floor(run_copy):
    out, truth, code = run_copy
    path = out / "labels" / "snort.jsonl"
    docs = [json.loads(line) for line in path.read_text().splitlines()]
    for doc in docs:
        doc["label"] = 1 - doc["label"] if random.Random(doc["row_id"]).random() < 0.1 else doc["label"]
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    check = check_run(code, out, truth, None)
    assert not check.ok
    assert check.ari_min < 0.8
    assert any("ARI" in p for p in check.problems)


@pytest.mark.parametrize("code, alerts", [(2, False), (0, True), (1, False)])
def test_exit_status_must_match_alert_file(run_copy, code, alerts):
    out, truth, _ = run_copy
    (out / ALERTS_FILE).unlink(missing_ok=True)
    if alerts:
        (out / ALERTS_FILE).write_text("{}\n")
    assert not check_run(code, out, truth, None).ok


def test_outputs_must_match_the_first_repetition(run_copy, good_run):
    out, truth, code = run_copy
    reference = check_run(code, good_run[0], truth, None).digest
    (out / ALERTS_FILE).write_text('{"fired_at": "any time"}\n')
    assert check_run(2, out, truth, reference).ok
    gauge = next((out / "gauges").iterdir())
    gauge.write_bytes(gauge.read_bytes() + b" ")
    check = check_run(2, out, truth, reference)
    assert not check.ok
    assert any("differ" in p for p in check.problems)


def _span(span_id, parent, name, start, end, thread=1):
    return {"id": span_id, "parent": parent, "name": name, "thread": thread, "start": start, "end": end}


def test_self_time_and_parallelism():
    spans = [
        _span(1, None, "pipeline.run", 0.0, 10.0),
        _span(2, 1, "pipeline.analyze", 1.0, 5.0, thread=2),
        _span(3, 1, "pipeline.analyze", 2.0, 6.0, thread=3),
        _span(4, 2, "detectors.iforest_fit", 1.5, 3.5, thread=2),
        _span(5, 3, "detectors.iforest_fit", 2.0, 3.0, thread=3),
    ]
    self_time = self_time_by_name(spans)
    assert self_time["pipeline.run"] == pytest.approx(10.0 - 5.0)
    assert self_time["pipeline.analyze"] == pytest.approx(2.0 + 3.0)
    summary = summarize(spans, {})
    assert summary["detectors.iforest_fit_s"] == pytest.approx(3.0)
    assert summary["pipeline.analyze_sum_s"] == pytest.approx(8.0)
    assert summary["pipeline.analyze_wall_s"] == pytest.approx(5.0)
    assert summary["pipeline.parallelism"] == pytest.approx(1.6)


def test_stub_pages_match_the_directory_store(tmp_path):
    prepared = http_bro_heavy(seed=2, root=tmp_path)
    query = StoreQuery(index="yaf", time_from=0, time_to=2**62, page_size=700)
    with bench.Stub(prepared.store_root, tmp_path / "stub.log") as stub:
        served = query_store(HttpStore(stub.url), query, DataSourceKind.YAF)
        stats = stub.stats()
    stored = query_store(DirectoryStore(prepared.store_root), query, DataSourceKind.YAF)
    assert [r.record_id for r in served.records] == [r.record_id for r in stored.records]
    assert stats["pages"] == len(stored) // 700 + 1
    assert stub.proc.returncode is not None


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in bench.SPEC["workloads"]] == list(WORKLOADS)


def test_tail_is_max_until_p90_is_supported():
    assert describe(list(range(11))).endswith("max 10.0000")
    assert "; p90 " in describe([float(v) for v in range(100)])


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert bench.main(["--workload", "dir_3x", "--seed", "1", "--seconds", "1"]) != 0
