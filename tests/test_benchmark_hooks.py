"""The package surface the benchmark wraps and reads must keep existing.

``perfbench/tracer.py`` replaces module attributes by name and reads model
fields to count work; ``perfbench/workloads.py`` writes stores from synth
records; ``perfbench/worker.py`` reads fields of the run result. A rename or
deletion in the package would only show up when a benchmark run fails, so
these tests load those modules (without installing the tracer) and check them
against the real package.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from camlpad import pipeline
from camlpad.config import DetectorParams
from camlpad.datamodel import DataSourceKind
from camlpad.detectors import fit_cblof, fit_iforest, fit_pca
from camlpad.detectors.kmeans import DEFAULT_MAX_ITERATIONS
from camlpad.ingest_store import BroSplit, DirectoryStore, StoreQuery, query_store, split_bro_by_protocol, window_split
from camlpad.synth import DAY_MS, SynthConfig, generate, write_store
from camlpad.viz import build_heatmap_points, render_svg

from conftest import make_batch, make_record

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer")


def test_every_traced_target_resolves():
    for name, (module_name, attribute) in load_tracer().TARGETS.items():
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute, None)), f"{name}: {module_name}.{attribute} is gone"


def test_one_source_analysis_makes_the_traced_calls_it_always_made(monkeypatch):
    """Call counts of every traced name over one analyze_source, as the benchmark's spans count them."""
    calls = Counter()
    for name, (module_name, attribute) in load_tracer().TARGETS.items():
        module = importlib.import_module(module_name)

        def counted(*args, real=getattr(module, attribute), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, attribute, counted)
    config = SynthConfig(seed=2, days_history=2, records_per_source_per_day=40)
    split = window_split(generate(config).batches[DataSourceKind.YAF], config.boundary_ms, min_history=10)
    pipeline.analyze_source(split, DetectorParams(iforest_trees=10, cblof_clusters=3), 0.05, "w")
    assert calls == {
        "pipeline.analyze": 1,
        "preprocess.encode": 2,
        "preprocess.conform": 1,
        "preprocess.impute": 2,
        "preprocess.standardize": 2,
        **{f"detectors.{model}_fit": 1 for model in ("iforest", "hbos", "cblof", "pca")},
        **{f"detectors.{model}_score": 1 for model in ("iforest", "hbos", "cblof")},
        "ensemble.binarize": 3,
        "ensemble.vote": 1,
        "ensemble.ensemble_score": 1,
        "viz.points": 1,
        "gauge_alert.window_score": 3,  # each of the two history days, then the current window
        "gauge_alert.percentile_rank": 1,
    }


def test_counted_model_fields_exist():
    counts = load_tracer().COUNTS
    X = np.random.default_rng(0).normal(size=(60, 3))

    forest = fit_iforest(X, trees=4, subsample=16, seed=0)
    assert all(len(tree.feature) == len(tree.threshold) >= 1 for tree in forest.trees)
    nodes = counts["detectors.iforest_fit"]((X,), forest)["iforest_nodes"]
    assert nodes == sum(len(tree.feature) for tree in forest.trees)

    cblof = fit_cblof(X, k=3, seed=0)
    assert cblof.kmeans.params["max_iterations"] == DEFAULT_MAX_ITERATIONS
    taken = counts["detectors.cblof_fit"]((X,), cblof)
    assert taken["kmeans_iterations"] == cblof.kmeans.iterations >= 1
    assert taken["kmeans_converged"] == int(cblof.kmeans.iterations < DEFAULT_MAX_ITERATIONS)


def test_counted_bro_split_field_exists():
    batch = make_batch(
        DataSourceKind.BRO_CONN,
        make_record(0, "a", log_type="dns"),
        make_record(1, "b", log_type="conn"),
        make_record(2, "c", log_type="weird"),
    )
    split = split_bro_by_protocol(batch)
    assert isinstance(split, BroSplit) and split.dropped == 1
    assert load_tracer().COUNTS["ingest_store.split"]((batch,), split) == {"bro_dropped": 1}


def test_counted_heatmap_results():
    counts = load_tracer().COUNTS
    rng = np.random.default_rng(1)
    history, current = rng.normal(size=(20, 3)), rng.normal(size=(5, 3))
    args = (fit_pca(history), np.vstack([history, current]), 20, rng.random(25))
    points = build_heatmap_points(*args)
    assert counts["viz.points"](args, points) == {"points": 25}
    svg = render_svg(points, "hooks")
    assert counts["viz.render"]((points,), svg) == {"svg_bytes": len(svg)}


def test_workload_bro_index_parses_back_to_the_synth_records(tmp_path):
    workloads = load_perfbench("workloads")
    result = generate(SynthConfig(seed=5, days_history=1, records_per_source_per_day=20, sources=workloads.BRO_SOURCES))
    truth = workloads._window_truth(result)
    assert truth == {
        source.value: dict(zip(vector.row_ids, vector.labels.tolist())) for source, vector in result.truth.items()
    }

    workloads._write_bro_index(result, tmp_path)
    # read as `camlpad run` reads a combined BRO index: its history days and current day, under the bro_conn tag
    boundary, history = result.config.boundary_ms, result.config.days_history * DAY_MS
    query = StoreQuery(index=workloads.BRO_INDEX, time_from=boundary - history, time_to=boundary + DAY_MS)
    split = split_bro_by_protocol(query_store(DirectoryStore(tmp_path), query, DataSourceKind.BRO_CONN))
    assert split.dropped == 0
    for source, batch in ((DataSourceKind.BRO_DNS, split.dns), (DataSourceKind.BRO_CONN, split.conn)):
        tag = source.value.removeprefix("bro_")
        records = batch.records
        assert all(record.fields.pop("log_type") == tag for record in records)
        assert records == result.batches[source].records


def test_worker_reads_the_run_result(tmp_path, monkeypatch):
    import camlpad.cli as cli

    worker = load_perfbench("worker")
    monkeypatch.setattr(cli, "run_pipeline", cli.run_pipeline)  # the worker rebinds it; restored on teardown
    write_store(generate(SynthConfig(seed=3, days_history=2, records_per_source_per_day=30)), tmp_path / "store")
    config = tmp_path / "run.conf"
    config.write_text(
        "\n".join([
            "store.kind = directory",
            f"store.root = {tmp_path / 'store'}",
            "run.boundary = 2021-03-03",
            "run.history_days = 2",
            "run.min_history = 10",
            f"run.output_dir = {tmp_path / 'out'}",
            "detectors.iforest.trees = 20",
        ]) + "\n"
    )
    report: dict = {}
    code = worker.run(False, cli, str(config), report)
    assert report["history_days"] == 2 * 5  # two history days for each of the five sources
    # this seed's current day ranks above both history days, so the combined gauge fires
    assert report["alerts_fired"] == 1 and (tmp_path / "out" / "alerts.jsonl").exists()
    assert code == 2
    assert report["run_s"] > 0 and report["ref_s"] > 0
