"""Metamorphic relations: two runs whose inputs differ in a known way, compared.

No oracle says what one run's labels or gauges should be, but the docs say
how some input changes may change them, and these tests hold the pipeline
to that. Each run reads a small synth store: 3 history days and the current
day of 60 records each, for 2 sources, with a 30-tree forest. Hypothesis
draws a fixed set of examples (``derandomize``), so tier-1 stays repeatable.
"""

import dataclasses
import json
import random
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from camlpad.config import DAY_MS, DetectorParams, PipelineConfig, window_id_for
from camlpad.datamodel import DataSourceKind
from camlpad.gauge_alert import DEFAULT_THRESHOLD_PERCENTILE, alert_decision
from camlpad.ingest_store import record_to_document, window_split
from camlpad.pipeline import analyze_source, run_pipeline
from camlpad.synth import PROFILES, SynthConfig, generate

from conftest import make_batch

DETECTORS = DetectorParams(iforest_trees=30)
HISTORY_DAYS = 3
RELATION = settings(max_examples=6, deadline=None, derandomize=True)

seeds = st.integers(1, 1000)
source_pairs = st.lists(st.sampled_from(list(DataSourceKind)), min_size=2, max_size=2, unique=True)


def synth_records(seed, sources):
    """Each source's records in canonical order, and the current day's boundary."""
    config = SynthConfig(
        seed=seed, days_history=HISTORY_DAYS, records_per_source_per_day=60, sources=tuple(sources)
    )
    return {source: batch.records for source, batch in generate(config).batches.items()}, config.boundary_ms


def write_day_files(records, root):
    """The directory store layout: one JSONL file per source and UTC day."""
    for source, rows in records.items():
        days = {}
        for record in rows:
            days.setdefault(record.timestamp // DAY_MS * DAY_MS, []).append(json.dumps(record_to_document(record), separators=(",", ":")) + "\n")
        (root / source.value).mkdir(parents=True)
        for day, lines in days.items():
            (root / source.value / f"{window_id_for(day)}.jsonl").write_text("".join(lines))


def run(root, boundary_ms, sources, **store):
    """``out/`` as {relative path: bytes} after one run, and the run's result."""
    config = PipelineConfig(
        output_dir=root / "out",
        boundary=window_id_for(boundary_ms),
        history_days=HISTORY_DAYS,
        min_history=10,
        contamination=0.05,
        sources=list(sources),
        detectors=DETECTORS,
        alert_file="",  # alert events carry a wall-clock time
        **store,
    )
    result = run_pipeline(config)
    out = root / "out"
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}, result


def run_directory(root, records, boundary_ms):
    write_day_files(records, root / "store")
    return run(root, boundary_ms, records, store_root=root / "store")


def decisions(result):
    return [alert_decision(reading, DEFAULT_THRESHOLD_PERCENTILE) for reading in result.gauges]


@RELATION
@given(seeds, source_pairs, st.integers(0, 2), st.floats(1e-3, 1e3))
def test_rescaling_a_numeric_column_changes_no_label_and_no_alert_decision(seed, sources, column, factor):
    records, boundary = synth_records(seed, sources)
    name = list(PROFILES[sources[0]].numeric)[column]
    rows = [dataclasses.replace(r, fields={**r.fields, name: r.fields[name] * factor}) for r in records[sources[0]]]
    scaled = {**records, sources[0]: rows}
    with tempfile.TemporaryDirectory() as tmp:
        base, base_run = run_directory(Path(tmp) / "base", records, boundary)
        other, other_run = run_directory(Path(tmp) / "scaled", scaled, boundary)
    labels = sorted(path for path in base if path.startswith("labels/"))
    assert len(labels) == 2
    assert [other[path] for path in labels] == [base[path] for path in labels]
    assert decisions(other_run) == decisions(base_run)


@RELATION
@given(seeds, source_pairs, st.integers(1, 400))
def test_shifting_every_time_and_the_boundary_by_whole_days_moves_only_the_window_id(seed, sources, days):
    records, boundary = synth_records(seed, sources)
    shift = days * DAY_MS
    shifted = {s: [dataclasses.replace(r, timestamp=r.timestamp + shift) for r in rows] for s, rows in records.items()}
    with tempfile.TemporaryDirectory() as tmp:
        base, _ = run_directory(Path(tmp) / "base", records, boundary)
        moved, _ = run_directory(Path(tmp) / "shifted", shifted, boundary + shift)
    old, new = window_id_for(boundary).encode(), window_id_for(boundary + shift).encode()
    # bucket starts are times, so they move with the records
    verdicts = [json.loads(line) for line in moved.pop("verdicts.jsonl").splitlines()]
    assert [{**v, "bucket_start": v["bucket_start"] - shift} for v in verdicts] == [
        json.loads(line) for line in base.pop("verdicts.jsonl").splitlines()
    ]
    assert {path.replace(new.decode(), old.decode()): data.replace(new, old) for path, data in moved.items()} == base


@RELATION
@given(seeds, source_pairs, st.randoms(use_true_random=False))
def test_permuting_the_lines_of_each_day_file_leaves_out_byte_identical(seed, sources, rng):
    records, boundary = synth_records(seed, sources)
    with tempfile.TemporaryDirectory() as tmp:
        base, _ = run_directory(Path(tmp) / "base", records, boundary)
        store = Path(tmp) / "permuted" / "store"
        write_day_files(records, store)
        for day_file in sorted(store.rglob("*.jsonl")):
            lines = day_file.read_text().splitlines(keepends=True)
            rng.shuffle(lines)
            day_file.write_text("".join(lines))
        permuted, _ = run(Path(tmp) / "permuted", boundary, sources, store_root=store)
    assert permuted == base


@settings(RELATION, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seeds, source_pairs)
def test_directory_and_http_backends_write_byte_identical_out(stub_server, seed, sources):
    url, state = stub_server
    records, boundary = synth_records(seed, sources)
    for source, rows in records.items():
        state.datasets[source.value] = [record_to_document(record) for record in rows]
    with tempfile.TemporaryDirectory() as tmp:
        base, _ = run_directory(Path(tmp) / "directory", records, boundary)
        served, _ = run(Path(tmp) / "http", boundary, sources, store_kind="http", store_url=url)
    assert served == base


@RELATION
@given(seeds, st.sampled_from(list(DataSourceKind)))
def test_an_extreme_current_row_rescales_no_other_row(seed, source):
    """Every score scale is fitted on history: one more current row changes no history score, no
    history day's gauge, and no other current row's score."""
    records, boundary = synth_records(seed, [source])
    split = window_split(make_batch(source, *records[source]), boundary, min_history=10)
    name = next(iter(PROFILES[source].numeric))
    column = np.array([record.fields[name] for record in split.history.records])
    last = split.current.records[-1]
    extreme = dataclasses.replace(
        last, record_id="extreme", fields={**last.fields, name: float(column.mean() + 50 * column.std())}
    )
    grown = dataclasses.replace(split, current=make_batch(source, *split.current.records, extreme))
    before = analyze_source(split, DETECTORS, 0.05, "w")
    after = analyze_source(grown, DETECTORS, 0.05, "w")
    assert after.history_day_scores == before.history_day_scores
    assert np.array_equal(after.ensemble_scores[:-1], before.ensemble_scores)
    for model, points in before.heatmap_points.items():
        assert np.array_equal(after.heatmap_points[model].scores[:-1], points.scores), model


def pop_lines(path):
    """The lines of a file, which is then deleted."""
    lines = path.read_text().splitlines(keepends=True)
    path.unlink()
    return lines


def moved(line, by):
    """A JSONL line with its time moved by ``by`` ms."""
    doc = json.loads(line)
    return json.dumps({**doc, "timestamp": doc["timestamp"] + by}) + "\n"


def run_rewritten(root, records, boundary_ms, rewrite):
    """``out/`` after a run on the day files of ``records``, each index directory first passed to ``rewrite``."""
    write_day_files(records, root / "store")
    for index_dir in sorted((root / "store").iterdir()):
        rewrite(index_dir)
    return run(root, boundary_ms, records, store_root=root / "store")[0]


@RELATION
@given(seeds, source_pairs)
def test_regrouping_an_index_into_other_jsonl_files_leaves_out_byte_identical(seed, sources):
    records, boundary = synth_records(seed, sources)
    rng = random.Random(seed)

    def one_file(index_dir):
        lines = [line for day_file in sorted(index_dir.glob("*.jsonl")) for line in pop_lines(day_file)]
        (index_dir / "all.jsonl").write_text("".join(lines))

    def two_files_a_day(index_dir):
        for day_file in sorted(index_dir.glob("*.jsonl")):
            halves = ([], [])
            for line in pop_lines(day_file):
                halves[rng.random() < 0.5].append(line)
            for half, lines in zip("ab", halves):
                (index_dir / f"{day_file.stem}-{half}.jsonl").write_text("".join(lines))

    with tempfile.TemporaryDirectory() as tmp:
        base, _ = run_directory(Path(tmp) / "base", records, boundary)
        for rewrite in (one_file, two_files_a_day):
            assert run_rewritten(Path(tmp) / rewrite.__name__, records, boundary, rewrite) == base, rewrite.__name__


@RELATION
@given(seeds, source_pairs)
def test_lines_timed_outside_the_window_leave_out_byte_identical(seed, sources):
    records, boundary = synth_records(seed, sources)
    rng = random.Random(seed)
    first_day = boundary - HISTORY_DAYS * DAY_MS
    out_of_window = (HISTORY_DAYS + 1) * DAY_MS  # moves any time of the window out of it, either way

    def inside_day_files(index_dir):
        for day_file in sorted(index_dir.glob("*.jsonl")):
            lines = day_file.read_text().splitlines(keepends=True)
            for line in rng.sample(lines, k=len(lines) // 4):
                lines.insert(rng.randrange(len(lines) + 1), moved(line, rng.choice((-1, 1)) * out_of_window))
            day_file.write_text("".join(lines))

    def whole_days_around(index_dir):
        for day, step in ((first_day, -DAY_MS), (boundary, DAY_MS)):  # the first history day and the current day
            lines = (index_dir / f"{window_id_for(day)}.jsonl").read_text().splitlines(keepends=True)
            (index_dir / f"{window_id_for(day + step)}.jsonl").write_text("".join(moved(line, step) for line in lines))

    with tempfile.TemporaryDirectory() as tmp:
        base, _ = run_directory(Path(tmp) / "base", records, boundary)
        for rewrite in (inside_day_files, whole_days_around):
            assert run_rewritten(Path(tmp) / rewrite.__name__, records, boundary, rewrite) == base, rewrite.__name__
