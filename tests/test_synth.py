import hashlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camlpad import cli
from camlpad.datamodel import DataSourceKind
from camlpad.ingest_store import DirectoryStore, StoreQuery, query_store
from camlpad.synth import BASE_EPOCH_MS, DAY_MS, HOUR_MS, SynthConfig, generate, write_store

# SHA-256 of each file `camlpad synth --seed 1 --days 2 --records 30 --style <style>` writes. They pin
# the generator's draws, their order and the bytes of the store and truth files.
SYNTH_TRUTH_DIGESTS = {
    "truth/bro_conn.jsonl": "583e2c9dfb83ac2f9d07d023b84f3ebd4a09545f63b9ea2c13ec72ade8c932bd",
    "truth/bro_dns.jsonl": "98133ac94b0642d44aa21ae847c84d8324c89e01e386330b4610cfbe20df665c",
    "truth/buckets.jsonl": "9b31a8121ca5058dae9bf34c3fd183a69a37c525d8ce50114dd06a9d613298b4",
    "truth/meraki.jsonl": "9146e620168656749dd223b163ac7ade918768cbaa93a7c216210d8d992538e3",
    "truth/snort.jsonl": "4ddcb132427e58c703ec2c205066166eae8c34b68e7da719ff2c6fb6784a9246",
    "truth/yaf.jsonl": "f6c86c80c39a1e30736a3014ee558a643203a3e65d97f4ea6a9ceacc488431de",
}
SYNTH_STORE_DIGESTS = {
    "shift": {
        "bro_conn/2021-03-01.jsonl": "3ff1ecbc004fbc1075c18b72b7677b1613e96d9b3d3d33f77285c9c7e5dee431",
        "bro_conn/2021-03-02.jsonl": "6dd06f9c1e54b135e24a6b783c8d8fd8858e42ea2056e8ba2abbf538b2a13f68",
        "bro_conn/2021-03-03.jsonl": "830b58cbba52322b6f18fd88e581174090fe250ae0513c552854de1d4c974221",
        "bro_dns/2021-03-01.jsonl": "b9184346fd2791040374f659e936192fe7c759c41c52d52374d6df3f5871d313",
        "bro_dns/2021-03-02.jsonl": "e9eeb6d5056a35c87eda3afca956d8cabbb0b3ad56cab1008f724a2ec513e6fc",
        "bro_dns/2021-03-03.jsonl": "a063c53fb85b0710fef0d075f06e53398af90c39fe8548cf4d1ed6fb801f3751",
        "meraki/2021-03-01.jsonl": "d639c6eb685923311f5ff86eefee5db15d119cb7f80a7708ddfd5d7b7c9f6217",
        "meraki/2021-03-02.jsonl": "fbe4aa040f6be3fd7bec964a31668dd28e77de3b087fdc2d2542ad496118a6fb",
        "meraki/2021-03-03.jsonl": "08a167164f5cf0220ec87707b0ed7abafafb048bd77c951bb5e0d3e85913dc75",
        "snort/2021-03-01.jsonl": "86fce4a3a622acf759444c5119dc621656d0dbe147e0a40a7c605d1f1ac6e818",
        "snort/2021-03-02.jsonl": "7da9bbce09f56ad0380ae77104d2933f84428527eb8845bb8b8a10e5a486a6fa",
        "snort/2021-03-03.jsonl": "28404f5fad1310e7a2053071ff06a75a4445af407a6197a833f1950642aa562d",
        "yaf/2021-03-01.jsonl": "66a3360d1f74ae7366a3c30645b454829caaa91d2c1631bb34f76e4a24090987",
        "yaf/2021-03-02.jsonl": "812fcfdac923121cbf0639306115caa4ebbdee640dd667cf2190bf9c4fd2e201",
        "yaf/2021-03-03.jsonl": "0cf6e5202fb8686ba9638fc29e9ba900d9cf9c7fac90ee8d07e028437e1a8102",
    },
    "scatter": {
        "bro_conn/2021-03-01.jsonl": "45da0397157eee85427db4a4c42520c6ee4917dcc35e0bbc3bc3fefaf29b8a4d",
        "bro_conn/2021-03-02.jsonl": "eb9099b2fb3d205b354e1a3bef354fc296ebb1429ffe762cae7836158185caf4",
        "bro_conn/2021-03-03.jsonl": "6948b95aa6d0054da06e990c6921c73497375a48eccdceeb1e49cd44b776fbc4",
        "bro_dns/2021-03-01.jsonl": "38c897bd55754c5366da35af89f37d3335658d1234073f2c1595d59b60f82bd6",
        "bro_dns/2021-03-02.jsonl": "4f29258f4e247e9e18cd8dd63530063267aa337fe6d69c3fa9608b843e3e0ee6",
        "bro_dns/2021-03-03.jsonl": "4b69031fab0a753213b2a6b390209605d30023b39cce4e2bf280aa39c5c28a29",
        "meraki/2021-03-01.jsonl": "4b2bb4f07bc5ee0b3e649dd2053dce5427063a566eb8d0335e992cfbb7398790",
        "meraki/2021-03-02.jsonl": "6161c6c98bdbe9a8992a51a2888b201516246c07440e173a6443061fc3f4bce7",
        "meraki/2021-03-03.jsonl": "5de4aa2f29d6bc4407e2613c904005c2ba69075446058592d16dacd239c8dcb4",
        "snort/2021-03-01.jsonl": "1492a8e206c01ad6fa9478477c9d43ced61cec2105c6b14ccec2b1d21260f42a",
        "snort/2021-03-02.jsonl": "100a14f796f24b45f793ee0ada1dfcd74f5624bb1a4cd6b49004691f44ca920e",
        "snort/2021-03-03.jsonl": "3747976cf628e0ffd0781fdd4587427a9aff983892966750a6322a18def7020e",
        "yaf/2021-03-01.jsonl": "4d7c663367d25a3932ed665806ca06ea142d4c66727ce8dda0d135d04b4c3958",
        "yaf/2021-03-02.jsonl": "0c80e51593a42a88568e77c6617163e61cda2846b37a1970e6421e3fa392cf30",
        "yaf/2021-03-03.jsonl": "7e2b152f8035f2c1e2f71422237aa99b8e222671642dbdc2836e7e438ff1b94f",
    },
}


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
            query = StoreQuery(index=source.value, time_from=0, time_to=2**63)
            assert query_store(DirectoryStore(tmp_path), query, source).records == result.batches[source].records
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

    @pytest.mark.parametrize("style", ["shift", "scatter"])
    def test_synth_files_are_pinned(self, tmp_path, style):
        args = ["synth", "--out", str(tmp_path), "--seed", "1", "--days", "2", "--records", "30", "--style", style]
        assert cli.main(args) == 0
        written = {
            str(path.relative_to(tmp_path)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.rglob("*"))
            if path.is_file()
        }
        assert written == {**SYNTH_STORE_DIGESTS[style], **SYNTH_TRUTH_DIGESTS}
