import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from camlpad.datamodel import DataSourceKind
from camlpad.ingest_store import parse_jsonl
from camlpad.synth import BASE_EPOCH_MS, DAY_MS, HOUR_MS, SynthConfig, generate, write_store


def reference_bucket_truth(result):
    """The per-row loop the array code replaced: (hour start, 1 if any row in it is an anomaly)."""
    hits = {}
    for source, batch in result.batches.items():
        for record, label in zip(batch.records, result.truth[source].labels.tolist()):
            bucket = (record.timestamp // HOUR_MS) * HOUR_MS
            hits[bucket] = max(hits.get(bucket, 0), label)
    return sorted(hits.items())


class TestGenerate:
    def test_zero_contamination_gives_all_inlier_labels(self):
        result = generate(SynthConfig(seed=3, days_history=1, records_per_source_per_day=40, contamination=0.0))
        for labels in result.truth.values():
            assert labels.labels.sum() == 0
        assert all(label == 0 for _, label in result.bucket_truth)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        days=st.integers(1, 2),
        records=st.integers(1, 40),
        contamination=st.sampled_from([0.0, 0.02, 0.1, 0.4]),
        style=st.sampled_from(["shift", "scatter"]),
        sources=st.lists(st.sampled_from(list(DataSourceKind)), unique=True, max_size=3),
    )
    def test_bucket_truth_matches_per_row_reference(self, seed, days, records, contamination, style, sources):
        result = generate(SynthConfig(
            seed=seed, days_history=days, records_per_source_per_day=records,
            contamination=contamination, anomaly_style=style, sources=tuple(sources),
        ))
        assert result.bucket_truth == reference_bucket_truth(result)
        assert all(type(start) is int and type(label) is int for start, label in result.bucket_truth)

    def test_same_seed_reproduces_batches(self):
        config = SynthConfig(seed=5, days_history=2, records_per_source_per_day=30)
        first = generate(config)
        second = generate(config)
        for source in config.sources:
            assert first.batches[source].records == second.batches[source].records

    def test_exact_anomaly_count_per_source_day(self):
        config = SynthConfig(seed=1, days_history=2, records_per_source_per_day=500, contamination=0.05)
        result = generate(config)
        expected_per_day = math.ceil(0.05 * 500)
        assert expected_per_day == 25
        for source in config.sources:
            truth = result.truth[source]
            by_day = {}
            ids = dict(zip(truth.row_ids, truth.labels.tolist()))
            for record in result.batches[source].records:
                day = (record.timestamp - BASE_EPOCH_MS) // DAY_MS
                by_day[day] = by_day.get(day, 0) + ids[record.record_id]
            assert all(count == expected_per_day for count in by_day.values())

    def test_batches_pass_validation(self):
        result = generate(SynthConfig(seed=9, days_history=1, records_per_source_per_day=50))
        for source, batch in result.batches.items():
            assert batch.source is source
            assert all(r.record_id.startswith(f"{source.value}-d") for r in batch.records)
            assert len({r.record_id for r in batch.records}) == len(batch)

    def test_timestamps_span_configured_days(self):
        config = SynthConfig(seed=2, days_history=3, records_per_source_per_day=200)
        result = generate(config)
        for batch in result.batches.values():
            low = min(r.timestamp for r in batch.records)
            high = max(r.timestamp for r in batch.records)
            assert BASE_EPOCH_MS <= low
            assert high < BASE_EPOCH_MS + config.total_days * DAY_MS
            # at least one record on each day
            days = {(r.timestamp - BASE_EPOCH_MS) // DAY_MS for r in batch.records}
            assert days == set(range(config.total_days))

    def test_shift_anomalies_sit_far_from_inlier_mean(self):
        config = SynthConfig(seed=4, days_history=1, records_per_source_per_day=300, contamination=0.05)
        result = generate(config)
        source = DataSourceKind.YAF
        truth = dict(zip(result.truth[source].row_ids, result.truth[source].labels.tolist()))
        inlier_values, outlier_values = [], []
        for record in result.batches[source].records:
            value = record.fields["packet_count"]
            (outlier_values if truth[record.record_id] else inlier_values).append(value)
        inlier_mean = sum(inlier_values) / len(inlier_values)
        outlier_mean = sum(outlier_values) / len(outlier_values)
        assert outlier_mean > inlier_mean + 4 * 4.0  # profile stddev is 4


class TestWriteStore:
    def test_directory_layout_and_truth_files(self, tmp_path):
        config = SynthConfig(seed=7, days_history=2, records_per_source_per_day=20)
        result = generate(config)
        write_store(result, tmp_path)

        for source in config.sources:
            files = sorted((tmp_path / source.value).glob("*.jsonl"))
            assert len(files) == config.total_days  # one file per day
            parsed = parse_jsonl(files[0].read_bytes(), source)
            assert len(parsed) > 0
        truth_lines = (tmp_path / "truth" / "yaf.jsonl").read_text().splitlines()
        assert len(truth_lines) == len(result.batches[DataSourceKind.YAF])
        doc = json.loads(truth_lines[0])
        assert set(doc) == {"record_id", "label"}
        buckets = (tmp_path / "truth" / "buckets.jsonl").read_text().splitlines()
        assert all(set(json.loads(b)) == {"bucket_start", "label"} for b in buckets)

    def test_rewrite_is_byte_identical(self, tmp_path):
        config = SynthConfig(seed=8, days_history=1, records_per_source_per_day=15)
        write_store(generate(config), tmp_path / "a")
        write_store(generate(config), tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.jsonl"))
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*.jsonl"))
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
