import hashlib
import json
import logging

import numpy as np
import pytest

from camlpad import ensemble, pipeline, viz
from camlpad.config import PipelineConfig, DetectorParams, resolve_boundary, window_id_for
from camlpad.datamodel import DataSourceKind, SensorRecord, derive_record_id
from camlpad.errors import CamlpadError
from camlpad.ingest_store import MalformedLine, record_to_document, window_split
from camlpad.pipeline import analyze_source, features, fetch_batches, fit_source, run_pipeline, score_source
from camlpad.synth import DAY_MS, SynthConfig, generate, write_store

from conftest import make_batch, make_record

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

FAST_DETECTORS = DetectorParams(iforest_trees=30, iforest_subsample=64, cblof_clusters=4)


def small_split(seed=1, days=2, records=50, contamination=0.05, source=DataSourceKind.YAF):
    config = SynthConfig(
        seed=seed, days_history=days, records_per_source_per_day=records, contamination=contamination
    )
    result = generate(config)
    return window_split(result.batches[source], config.boundary_ms, min_history=10), result


class TestAnalyzeSource:
    def test_scores_and_labels_cover_both_windows(self):
        split, _ = small_split()
        analysis = analyze_source(split, FAST_DETECTORS, contamination=0.05, window_id="w")
        total = len(split.history) + len(split.current)
        assert len(analysis.ensemble_labels.row_ids) == len(analysis.timestamps) == total
        assert analysis.ensemble_scores.shape == (total,)
        assert analysis.n_history == len(split.history)
        assert set(analysis.heatmap_points) == {"iforest", "hbos", "cblof", "ensemble"}
        assert len(analysis.heatmap_points["ensemble"]) == total

    def test_gauge_uses_one_score_per_history_day(self):
        split, _ = small_split(days=3)
        analysis = analyze_source(split, FAST_DETECTORS, contamination=0.05, window_id="w")
        assert len(analysis.history_day_scores) == 3
        assert analysis.gauge.history_percentile is not None

    def test_rows_are_projected_once_and_the_four_heatmaps_share_them(self, monkeypatch):
        calls = []
        real_build = viz.build_heatmap_points

        def build_heatmap_points(*args):
            calls.append(args)
            return real_build(*args)

        monkeypatch.setattr(viz, "build_heatmap_points", build_heatmap_points)
        split, _ = small_split()
        analysis = analyze_source(split, FAST_DETECTORS, contamination=0.05, window_id="w")
        assert len(calls) == 1
        plane = analysis.heatmap_points["ensemble"].xy
        assert all(points.xy is plane for points in analysis.heatmap_points.values())
        assert all(points.n_history == len(split.history) for points in analysis.heatmap_points.values())

    def test_current_only_category_does_not_break_scoring(self, caplog):
        history = [
            make_record(timestamp=t, record_id=f"h{t}", size=float(t % 7), proto="udp")
            for t in range(40)
        ]
        current = [
            make_record(timestamp=100 + t, record_id=f"c{t}", size=3.0, proto="icmp", extra="x")
            for t in range(5)
        ]
        split = window_split(
            make_batch(DataSourceKind.YAF, *(history + current)), boundary=100, min_history=10
        )
        with caplog.at_level(logging.DEBUG, logger="camlpad"):
            analysis = analyze_source(split, FAST_DETECTORS, contamination=0.1, window_id="w")
        assert np.isfinite(analysis.ensemble_scores).all()
        # drift is counted over the model's columns only, so the dropped "extra" is not counted
        assert analysis.unseen_categories == {"size": 0, "proto": 1}
        # the model's columns are history's, so a field only current rows carry is dropped, not imputed
        assert analysis.dropped_columns == ["extra"]
        assert not caplog.records  # the findings are returned; run_pipeline logs them

    def test_planted_outliers_dominate_top_scores(self):
        split, result = small_split(records=120, contamination=0.05)
        analysis = analyze_source(split, FAST_DETECTORS, contamination=0.05, window_id="w")
        truth = dict(
            zip(result.truth[DataSourceKind.YAF].row_ids, result.truth[DataSourceKind.YAF].labels.tolist())
        )
        predicted = dict(zip(analysis.ensemble_labels.row_ids, analysis.ensemble_labels.labels.tolist()))
        hits = sum(1 for rid, label in truth.items() if label == 1 and predicted.get(rid) == 1)
        planted = sum(truth.values())
        assert hits / planted >= 0.9


class TestSourceModel:
    def test_fit_on_six_days_then_score_the_seventh_as_analyze_source_does(self):
        split, _ = small_split(days=6)
        model, history = fit_source(split.history, FAST_DETECTORS)
        history_scores = score_source(model, history)
        current, dropped, unseen = features(model, split.current)
        current_scores = score_source(model, current)
        analysis = analyze_source(split, FAST_DETECTORS, contamination=0.05, window_id="w")
        no_drift = ([], {"flow_duration": 0, "packet_count": 0, "octet_count": 0, "direction": 0})
        assert (dropped, unseen) == (analysis.dropped_columns, analysis.unseen_categories) == no_drift
        for name in ensemble.DETECTOR_NAMES:
            both = ensemble.normalize_scores(
                np.concatenate([history_scores[name], current_scores[name]]), history.n_rows
            )
            np.testing.assert_allclose(both, analysis.heatmap_points[name].scores, rtol=0, atol=1e-12)


def write_combined_bro_index(result, store):
    """A combined "bro" index holding both BRO sources' records, told apart by log_type."""
    (store / "bro").mkdir()
    lines = []
    for source, log_type in ((DataSourceKind.BRO_DNS, "dns"), (DataSourceKind.BRO_CONN, "conn")):
        for record in result.batches[source].records:
            lines.append(json.dumps({**record_to_document(record), "log_type": log_type}))
    (store / "bro" / "all.jsonl").write_text("\n".join(lines) + "\n")


class TestFetchBatches:
    def test_combined_bro_index_is_split(self, tmp_path):
        config = SynthConfig(seed=2, days_history=2, records_per_source_per_day=30)
        result = generate(config)
        write_store(result, tmp_path)
        write_combined_bro_index(result, tmp_path)

        pipeline_config = PipelineConfig(
            store_root=tmp_path,
            sources=[DataSourceKind.BRO_DNS, DataSourceKind.BRO_CONN],
            bro_index="bro",
        )
        batches = fetch_batches(pipeline_config, config.boundary_ms + DAY_MS, *pipeline_config.index_plan()[0])
        assert len(batches[DataSourceKind.BRO_DNS]) == len(result.batches[DataSourceKind.BRO_DNS])
        assert len(batches[DataSourceKind.BRO_CONN]) == len(result.batches[DataSourceKind.BRO_CONN])
        assert batches[DataSourceKind.BRO_DNS].source is DataSourceKind.BRO_DNS
        assert batches[DataSourceKind.BRO_CONN].source is DataSourceKind.BRO_CONN

    def test_bad_line_in_combined_bro_index_names_index_and_file(self, tmp_path):
        (tmp_path / "bro").mkdir()
        (tmp_path / "bro" / "all.jsonl").write_text('{"timestamp": 1}\n{"log_type": "dns"}\n')
        config = PipelineConfig(store_root=tmp_path, sources=[DataSourceKind.BRO_DNS], bro_index="bro")
        absent = r"^bro index bro: all\.jsonl: line 2: time field 'timestamp' absent or unparseable$"
        with pytest.raises(MalformedLine, match=absent) as err:
            fetch_batches(config, DAY_MS, *config.index_plan()[0])
        assert err.value.line_number == 2


    def test_unknown_log_types_are_counted_in_one_pipeline_line(self, tmp_path, caplog):
        (tmp_path / "bro").mkdir()
        docs = [{"timestamp": t, "log_type": kind, "q": t} for t, kind in enumerate(["dns", "http", "conn", "http"])]
        (tmp_path / "bro" / "all.jsonl").write_text("".join(json.dumps(doc) + "\n" for doc in docs))
        sources = [DataSourceKind.BRO_DNS, DataSourceKind.BRO_CONN]
        config = PipelineConfig(store_root=tmp_path, sources=sources, bro_index="bro")
        with caplog.at_level(logging.DEBUG, logger="camlpad"):
            batches = fetch_batches(config, DAY_MS, *config.index_plan()[0])
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("camlpad.pipeline", logging.INFO, "split_bro_by_protocol dropped 2 records with unknown 'log_type'")
        ]
        assert [len(batches[source]) for source in sources] == [1, 1]

    def test_combined_index_derives_ids_under_the_bro_conn_tag(self, tmp_path):
        (tmp_path / "bro").mkdir()
        (tmp_path / "bro" / "all.jsonl").write_text('{"timestamp": 5, "log_type": "dns", "q": 1}\n')
        config = PipelineConfig(store_root=tmp_path, sources=[DataSourceKind.BRO_DNS], bro_index="bro")
        batch = fetch_batches(config, DAY_MS, *config.index_plan()[0])[DataSourceKind.BRO_DNS]
        assert batch.source is DataSourceKind.BRO_DNS
        [record] = batch.records
        assert record.record_id == derive_record_id(DataSourceKind.BRO_CONN, 5, record.fields)


class TestIndexPlanOrder:
    def test_each_index_is_fetched_once_and_its_sources_analysed_before_the_next(self, tmp_path, monkeypatch):
        result = generate(SynthConfig(seed=3, days_history=2, records_per_source_per_day=40))
        write_store(result, tmp_path / "store")
        write_combined_bro_index(result, tmp_path / "store")
        events = []
        real_fetch, real_analyze = pipeline.fetch_batches, pipeline.analyze_source

        def fetch_batches(config, boundary_ms, index, sources):
            events.append(("fetch", index))
            return real_fetch(config, boundary_ms, index, sources)

        def analyze_source(split, *args):
            events.append(("analyze", split.history.source.value))
            return real_analyze(split, *args)

        monkeypatch.setattr(pipeline, "fetch_batches", fetch_batches)
        monkeypatch.setattr(pipeline, "analyze_source", analyze_source)
        config = PipelineConfig(
            store_root=tmp_path / "store",
            output_dir=tmp_path / "out",
            sources=[DataSourceKind.YAF, DataSourceKind.BRO_DNS, DataSourceKind.SNORT, DataSourceKind.BRO_CONN],
            bro_index="bro",
            boundary="2021-03-03",
            history_days=2,
            min_history=10,
            detectors=FAST_DETECTORS,
        )
        run = run_pipeline(config)
        assert events == [
            ("fetch", "bro"), ("analyze", "bro_conn"), ("analyze", "bro_dns"),
            ("fetch", "snort"), ("analyze", "snort"),
            ("fetch", "yaf"), ("analyze", "yaf"),
        ]
        # the combined gauge sums scores in this order
        assert [source.value for source in run.analyses] == ["bro_conn", "bro_dns", "snort", "yaf"]
        assert [reading.scope for reading in run.gauges] == ["bro_conn", "bro_dns", "snort", "yaf", "combined"]


class TestSourceErrors:
    def test_an_analysis_error_keeps_its_type_and_names_its_source(self, tmp_path):
        boundary_ms = resolve_boundary("2021-03-03")
        rows = [{"_id": "h0", "timestamp": boundary_ms - 1000, "v": 1.0}]
        rows += [{"_id": f"c{i}", "timestamp": boundary_ms + i, "v": float(i)} for i in range(5)]
        (tmp_path / "store" / "yaf").mkdir(parents=True)
        (tmp_path / "store" / "yaf" / "all.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
        config = PipelineConfig(
            store_root=tmp_path / "store",
            output_dir=tmp_path / "out",
            sources=[DataSourceKind.YAF],
            boundary="2021-03-03",
            history_days=1,
            min_history=1,
            detectors=FAST_DETECTORS,
            alert_file="",
        )
        with pytest.raises(CamlpadError, match=r"^yaf: isolation forest needs >= 2 rows, got 1$"):
            run_pipeline(config)


def test_a_run_logs_every_finding_about_its_sources_from_the_pipeline_in_plan_order(tmp_path, caplog):
    synth_config = SynthConfig(seed=1, days_history=3, records_per_source_per_day=40)
    store = tmp_path / "store"
    write_store(generate(synth_config), store)
    boundary = window_id_for(synth_config.boundary_ms)
    current = store / "yaf" / f"{boundary}.jsonl"
    docs = [json.loads(line) for line in current.read_text().splitlines()]
    docs[0]["direction"] = "sideways"  # a category history lacks
    current.write_text("".join(json.dumps({**doc, "extra": 1.0}) + "\n" for doc in docs))  # a field history lacks
    sparse = store / "yaf" / f"{window_id_for(synth_config.boundary_ms - 2 * DAY_MS)}.jsonl"
    sparse.write_text("".join(sparse.read_text().splitlines(keepends=True)[:20]))  # half of each other day
    config = PipelineConfig(
        store_root=store,
        output_dir=tmp_path / "out",
        boundary=boundary,
        history_days=3,
        min_history=10,
        detectors=FAST_DETECTORS,
        alert_file="",
    )
    with caplog.at_level(logging.DEBUG, logger="camlpad"):
        run_pipeline(config)
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("INFO", "analyzing bro_conn (160 records)"),
        ("INFO", "analyzing bro_dns (160 records)"),
        ("INFO", "analyzing meraki (160 records)"),
        ("INFO", "analyzing snort (160 records)"),
        ("INFO", "analyzing yaf (140 records)"),
        ("WARNING", "yaf: history day 2021-03-02 holds 20 records, at most half the median day's 40"),
        ("INFO", "conform_columns dropped columns not in reference: ['extra']"),
        ("INFO", "encode extended dictionary with unseen categories: direction+1"),
        ("WARNING", "alert fired: combined window 2021-03-04: gauge 0.202851 at percentile 100.0 passed threshold 75"),
    ]
    assert {r.name for r in caplog.records} == {"camlpad.pipeline"}


def test_synth_and_run_build_no_record_per_row(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a SensorRecord was built")

    monkeypatch.setattr(SensorRecord, "__init__", refuse)
    synth_config = SynthConfig(seed=2, days_history=2, records_per_source_per_day=40)
    store = tmp_path / "store"
    write_store(generate(synth_config), store)
    (store / "bro").mkdir()
    for tag in ("dns", "conn"):  # the BRO sources again as one index, so the run splits it
        for path in (store / f"bro_{tag}").glob("*.jsonl"):
            docs = [{**json.loads(line), "log_type": tag} for line in path.read_text().splitlines()]
            (store / "bro" / f"{tag}-{path.name}").write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    config = PipelineConfig(
        store_root=store,
        output_dir=tmp_path / "out",
        bro_index="bro",
        boundary=window_id_for(synth_config.boundary_ms),
        history_days=2,
        min_history=10,
        detectors=FAST_DETECTORS,
        alert_file="",
    )
    run = run_pipeline(config)
    assert sorted(run.analyses) == sorted(DataSourceKind)


class TestNoonBoundary:
    def test_every_history_day_is_as_long_as_the_current_window(self, tmp_path):
        synth_config = SynthConfig(seed=1, days_history=7, records_per_source_per_day=40)
        write_store(generate(synth_config), tmp_path / "store")
        config = PipelineConfig(
            store_root=tmp_path / "store",
            output_dir=tmp_path / "out",
            boundary=f"{window_id_for(synth_config.boundary_ms)}T12:00:00",
            history_days=7,
            min_history=10,
            contamination=0.05,
            detectors=FAST_DETECTORS,
            alert_file="",
        )
        run = run_pipeline(config)
        noon = synth_config.boundary_ms + DAY_MS // 2
        for analysis in run.analyses.values():
            assert list(analysis.history_day_scores) == [noon - k * DAY_MS for k in range(7, 0, -1)]

    def test_noon_and_midnight_windows_of_one_date_keep_their_own_gauges(self, tmp_path):
        synth_config = SynthConfig(seed=1, days_history=2, records_per_source_per_day=40)
        write_store(generate(synth_config), tmp_path / "store")
        midnight = synth_config.boundary_ms
        assert window_id_for(midnight) == "2021-03-03"
        assert window_id_for(midnight + DAY_MS // 2) == "2021-03-03T120000Z"
        assert window_id_for(midnight + DAY_MS // 2 + 250) == "2021-03-03T120000.250Z"
        for boundary in ("2021-03-03", "2021-03-03T12:00:00"):
            config = PipelineConfig(
                store_root=tmp_path / "store",
                output_dir=tmp_path / "out",
                sources=[DataSourceKind.YAF],
                boundary=boundary,
                history_days=2,
                min_history=10,
                contamination=0.05,
                detectors=FAST_DETECTORS,
                alert_file="",
            )
            run_pipeline(config)
        gauge_files = sorted(p.name for p in (tmp_path / "out" / "gauges").iterdir())
        assert gauge_files == [
            "combined_2021-03-03.json", "combined_2021-03-03T120000Z.json",
            "yaf_2021-03-03.json", "yaf_2021-03-03T120000Z.json",
        ]
        indexed = {}
        for path in sorted((tmp_path / "store" / "gauges").iterdir()):
            indexed[path.name] = sorted({json.loads(line)["window_id"] for line in path.read_text().splitlines()})
        assert indexed == {"2021-03-03.jsonl": ["2021-03-03"], "2021-03-03T120000Z.jsonl": ["2021-03-03T120000Z"]}


class TestHttpBackedRun:
    def test_pipeline_over_http_store(self, stub_server, tmp_path):
        url, state = stub_server
        config = SynthConfig(seed=4, days_history=2, records_per_source_per_day=40)
        result = generate(config)
        for source, batch in result.batches.items():
            state.datasets[source.value] = [record_to_document(r) for r in batch.records]

        pipeline_config = PipelineConfig(
            store_kind="http",
            store_url=url,
            output_dir=tmp_path / "out",
            boundary="2021-03-03",
            history_days=2,
            min_history=10,
            contamination=0.05,
            detectors=FAST_DETECTORS,
        )
        run = run_pipeline(pipeline_config)
        assert len(run.analyses) == 5
        # gauges go back through the HTTP store's gauges index
        assert len(state.gauge_docs) == 6


class TestSourceSubsetAndWebhook:
    def test_two_source_run_with_webhook_delivery(self, stub_server, tmp_path):
        url, state = stub_server
        synth_config = SynthConfig(seed=21, days_history=2, records_per_source_per_day=40)
        write_store(generate(synth_config), tmp_path / "store")
        config = PipelineConfig(
            store_root=tmp_path / "store",
            output_dir=tmp_path / "out",
            boundary="2021-03-03",
            history_days=2,
            min_history=10,
            contamination=0.05,
            sources=[DataSourceKind.YAF, DataSourceKind.SNORT],
            detectors=FAST_DETECTORS,
            webhook_url=f"{url}/webhook/ok",
        )
        run = run_pipeline(config)
        assert set(run.analyses) == {DataSourceKind.YAF, DataSourceKind.SNORT}
        assert {g.scope for g in run.gauges} == {"yaf", "snort", "combined"}
        svgs = list((tmp_path / "out" / "heatmaps").glob("*.svg"))
        assert len(svgs) == 9  # 4 per source + 1 overall
        # deterministic for this seed: the current day ranks above all history days
        assert run.alert is not None
        assert len(state.webhook_bodies) == 1
        assert state.webhook_bodies[0]["scope"] == "combined"
        assert (tmp_path / "out" / "alerts.jsonl").exists()
        assert [o.ok for o in run.alert.delivery] == [True, True]


class TestDeterminism:
    def test_two_runs_produce_identical_artifacts(self, tmp_path):
        synth_config = SynthConfig(seed=6, days_history=2, records_per_source_per_day=40)
        result = generate(synth_config)
        outputs = []
        for name in ("one", "two"):
            store = tmp_path / name / "store"
            write_store(result, store)
            config = PipelineConfig(
                store_root=store,
                output_dir=tmp_path / name / "out",
                boundary="2021-03-03",
                history_days=2,
                min_history=10,
                contamination=0.05,
                detectors=FAST_DETECTORS,
                alert_file="",  # alerts carry wall-clock fired_at; excluded here
            )
            run_pipeline(config)
            outputs.append(tmp_path / name / "out")

        first, second = outputs
        rel_first = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        rel_second = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
        assert rel_first == rel_second
        for rel in rel_first:
            assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel


# SHA-256 of every file the run on the acceptance gate's determinism fixture writes. They pin the run's
# bytes across commits, where that gate only compares two runs of one. The heatmaps' coordinates pass
# through LAPACK's eigh; their digests were taken on x86-64 with numpy 2.4 and OpenBLAS 0.3.31.
PINNED_RUN_DIGESTS = {
    "evaluation.json": "9bf3cf54e4cfab0f18cbca50430f302e07f56b8ef3ea6e084a58cf2e352889e4",
    "gauges/bro_conn_2021-03-03.json": "8ef03ec38e00f260e739685e02fee88bf71c099b52fab49c49a07d603dd742ad",
    "gauges/bro_dns_2021-03-03.json": "41e2e308bb7a8fcf0bdca87e87aae7dd11295553eb20e1dcbf03cdcb08bbc013",
    "gauges/combined_2021-03-03.json": "fa8eda1767ad224e08a42ab1d1713a2a5bb312e2a7f6a7c1d7c6c791b1f0faf6",
    "gauges/meraki_2021-03-03.json": "20d95ee21ff5a74790e2355bd359c173cdce6981533d470c1680bd8f084fa7cf",
    "gauges/snort_2021-03-03.json": "1f0beba3973c45a4e5c42831872a32c1f56dc5a7e1b1fe76f7578ccf12d5e3e7",
    "gauges/yaf_2021-03-03.json": "f6a03afe77dde5d3ae37b0dfc9a2cacbbb13dc4ab8745fd354132f825999e983",
    "heatmaps/bro_conn_cblof_2021-03-03.svg": "25c2d851305c183e05ac6ef3a2c83161e5e79b0351d0b01a3514c34028410258",
    "heatmaps/bro_conn_ensemble_2021-03-03.svg": "5a90de33bfadffac9aee25e14409b5e03852a1276a4d78bd9fd7c2de78f177fc",
    "heatmaps/bro_conn_hbos_2021-03-03.svg": "ad40bf63f12aa710269073a161fb79e355983b54571de4d28d662960b1af4253",
    "heatmaps/bro_conn_iforest_2021-03-03.svg": "302681335e4d617d8617d135a356c37d25a41214ff3de418cef7190f7f6228dd",
    "heatmaps/bro_dns_cblof_2021-03-03.svg": "62a22a0ed9bd867936e040bb58a3c7f608fa92d152eef52ca7e9b757681469db",
    "heatmaps/bro_dns_ensemble_2021-03-03.svg": "f85476a5eaba35eb69276a66adf5b13b3be7fd363cf504fd51f4e520263dab6c",
    "heatmaps/bro_dns_hbos_2021-03-03.svg": "754399f0027cb5d868744888ce628bdf29ed6d247bdb6e8d3941bb313bb91607",
    "heatmaps/bro_dns_iforest_2021-03-03.svg": "48fbbb1f897edff5afd4f012913dfe3dff66a7208eb671446ce8e511dccb8c3c",
    "heatmaps/combined_ensemble_2021-03-03.svg": "c30262330040dc94ce51cf33a96261c56cfd49d957ca83580d0be69999a418e8",
    "heatmaps/meraki_cblof_2021-03-03.svg": "cf5ee217f2ec08756ddd8699c551909836d23e1986207f7e226f54c8e6a5b383",
    "heatmaps/meraki_ensemble_2021-03-03.svg": "b6aed8903fa0affa4ce8d4278fdf57a670287839a3f5ba8429e619b80dea4b4c",
    "heatmaps/meraki_hbos_2021-03-03.svg": "8e630c85b7c171111117d541be876ebc8935013f9709521941524f0fecc586e5",
    "heatmaps/meraki_iforest_2021-03-03.svg": "4bc9919c787627edee54a509c1033e69b25bb14daa7e94e1a4c4ca22455fccc6",
    "heatmaps/snort_cblof_2021-03-03.svg": "47512aae808e9ce886f4f6bbb5c9f1257ac149efdce5a4429fecd884b8274568",
    "heatmaps/snort_ensemble_2021-03-03.svg": "2672c14536d48c1a6786dee0a3c2b6f1f18be8d70183fa32c019598ee525c3f2",
    "heatmaps/snort_hbos_2021-03-03.svg": "fcb3b09603808a0b6b7151d8a5de7ad228ad2a4414d9f90d67df172f721613d0",
    "heatmaps/snort_iforest_2021-03-03.svg": "246b1d185b4c4b802282f990658d9907acb3a8f610ef035986b9426488c7fb65",
    "heatmaps/yaf_cblof_2021-03-03.svg": "da502a066e331e25b1ea6d4d261d5c78a8789979e5a93922595fb433f2717f5a",
    "heatmaps/yaf_ensemble_2021-03-03.svg": "9903caf0a5a51a75ae6d208e3578abc22c9f6fe90bb558d0be4ad1b867f8ad3d",
    "heatmaps/yaf_hbos_2021-03-03.svg": "d7cbb942dcef8c760d87546b935fe046605242820c489970dae18b9628957ebc",
    "heatmaps/yaf_iforest_2021-03-03.svg": "b9a6a1a4ae6acc9de8046ecf718bcf261b80701ede133c4f28ed9ea0f82aec19",
    "labels/bro_conn.jsonl": "2d556c75e86e5b12e20589b9622001adfb8c4d2d0924b8124d883ff7488d0e56",
    "labels/bro_dns.jsonl": "86fbea32f19cd953243b604ef5db22802687ebad2f110fbaa8a97faae615848f",
    "labels/meraki.jsonl": "992500a3044438279ae7a3435ace45ccc0dca10306a1269399ca328037a1c7ff",
    "labels/snort.jsonl": "c8ad468baf7f3f73cb9b6da3d2654544cb0d7f76af80849e35f8cbaa38426345",
    "labels/yaf.jsonl": "372e22320f012a9c437bc82a98029f6b7564a015f5f8b2ec89a1c6dc72a56b0f",
    "verdicts.jsonl": "53a7ede1f439feca789870a25e84ebdde549fd07b9153168d66913fc58e4560a",
}


def test_run_outputs_are_pinned(tmp_path):
    write_store(generate(SynthConfig(seed=13, days_history=2, records_per_source_per_day=50)), tmp_path / "store")
    config = PipelineConfig(
        store_root=tmp_path / "store",
        output_dir=tmp_path / "out",
        boundary="2021-03-03",
        history_days=2,
        min_history=10,
        contamination=0.05,
        detectors=DetectorParams(iforest_trees=40, iforest_subsample=64, cblof_clusters=4),
        alert_file="",
    )
    run_pipeline(config)
    out = tmp_path / "out"
    written = {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }
    assert written == PINNED_RUN_DIGESTS
