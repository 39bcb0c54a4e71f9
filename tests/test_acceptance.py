"""Acceptance gate: one test per shipping criterion, each printing a verdict
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them live).
"""

import json
import math
import random
import time
from itertools import combinations, product

import numpy as np
import pytest

from camlpad.cli import main
from camlpad.config import DetectorParams, PipelineConfig
from camlpad.datamodel import DataSourceKind, RecordBatch
from camlpad.detectors import (
    average_path_length,
    fit_cblof,
    fit_hbos,
    fit_iforest,
    score_cblof,
    score_hbos,
    score_hbos_rows,
    score_iforest,
)
from camlpad.ensemble import LabelVector, binarize, vote
from camlpad.evaluate import adjusted_rand_index
from camlpad.gauge_alert import Comparison, alert_decision, compare_recent_previous
from camlpad.ingest_store import window_split
from camlpad.pipeline import analyze_source
from camlpad.preprocess import encode, impute, impute_numeric, standardize
from camlpad.synth import SynthConfig, generate, write_store

from conftest import make_batch, make_record
from test_detectors_hbos import oracle_score as hbos_oracle_score
from test_evaluate import oracle_ari

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def verdict(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


@pytest.fixture(scope="module")
def full_synth_run(tmp_path_factory):
    """Synth defaults (seed 1, 5 sources, 7+1 days, c=0.05, shift) + full cmd_run."""
    base = tmp_path_factory.mktemp("acceptance_run")
    store, out = base / "store", base / "out"
    synth_config = SynthConfig(seed=1)
    result = generate(synth_config)
    write_store(result, store)
    (base / "camlpad.conf").write_text(
        "\n".join(
            [
                "store.kind = directory",
                f"store.root = {store}",
                "run.boundary = 2021-03-08",
                "run.history_days = 7",
                "run.contamination = 0.05",
                f"run.output_dir = {out}",
            ]
        )
        + "\n"
    )
    started = time.monotonic()
    exit_code = main(["run", "--config", str(base / "camlpad.conf")])
    elapsed = time.monotonic() - started
    return {"base": base, "store": store, "out": out, "result": result,
            "exit_code": exit_code, "elapsed": elapsed}


def read_labels(path):
    ids, ensemble, detectors = [], [], {"iforest": [], "hbos": [], "cblof": []}
    for line in path.read_text().splitlines():
        doc = json.loads(line)
        ids.append(doc["row_id"])
        ensemble.append(doc["label"])
        for name in detectors:
            detectors[name].append(doc["votes"][name])
    return ids, ensemble, detectors


def test_criterion_1_detector_analytics():
    started = time.monotonic()
    assert average_path_length(1) == 0.0
    assert average_path_length(2) == 1.0

    two_points = fit_iforest(np.array([[0.0], [1.0]]), trees=50, seed=0)
    assert score_iforest(two_points, [0.0]) == pytest.approx(0.5, abs=1e-12)
    assert score_iforest(two_points, [1.0]) == pytest.approx(0.5, abs=1e-12)

    hbos = fit_hbos(np.array([[1.0], [1.0], [1.0], [9.0]]), bins=2)
    assert score_hbos(hbos, [1.0]) == pytest.approx(0.2877, abs=1e-3)
    assert score_hbos(hbos, [9.0]) == pytest.approx(1.3863, abs=1e-3)

    cblof = fit_cblof(np.array([[0.0, 0.0]] * 5 + [[10.0, 10.0]]), k=2, seed=0)
    assert score_cblof(cblof, [10.0, 10.0]) == pytest.approx(math.sqrt(200.0), abs=1e-9)

    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    verdict(1, f"analytic detector examples hold ({elapsed * 1000:.0f} ms)")


def test_criterion_2_oracle_equivalence():
    rng = random.Random(424242)
    for _ in range(200):
        n = rng.randint(2, 8)
        a = [rng.randint(0, 3) for _ in range(n)]
        b = [rng.randint(0, 3) for _ in range(n)]
        assert adjusted_rand_index(a, b) == pytest.approx(oracle_ari(a, b), abs=1e-12)

    np_rng = np.random.default_rng(31337)
    X = np_rng.normal(0, 3, (500, 4))
    model = fit_hbos(X, bins=10)
    rows = np.vstack([np_rng.normal(0, 3, (800, 4)), np_rng.uniform(-40, 40, (200, 4))])
    scores = score_hbos_rows(model, rows)
    for i in range(1000):
        assert scores[i] == pytest.approx(hbos_oracle_score(model, rows[i]), abs=1e-9)
    verdict(2, "ARI matches pair oracle on 200 pairs; HBOS matches scan oracle on 1000 rows")


def test_criterion_3_voting():
    for bits in product((0, 1), repeat=3):
        vectors = [LabelVector(row_ids=["r"], labels=np.array([b])) for b in bits]
        assert vote(*vectors).labels[0] == (1 if sum(bits) >= 2 else 0)

    rng = np.random.default_rng(99)
    for _ in range(500):
        n = int(rng.integers(1, 80))
        contamination = float(rng.uniform(0.01, 0.99))
        scores = rng.normal(0, 1, n)
        if rng.random() < 0.25:
            scores = np.round(scores, 1)  # heavy ties
        assert binarize(scores, contamination).labels.sum() == math.ceil(contamination * n)
    verdict(3, "vote matches majority on all 8 combinations; binarize count exact on 500 cases")


def _baseline_distance_to_inlier_mean(batch: RecordBatch, truth: LabelVector) -> list[int]:
    """Independent baseline: rank rows by distance to the truth-inlier mean."""
    matrix, _ = encode(batch)
    matrix, _ = standardize(impute(matrix))
    labels = dict(zip(truth.row_ids, truth.labels.tolist()))
    aligned = np.array([labels[r] for r in matrix.row_ids])
    inlier_mean = matrix.values[aligned == 0].mean(axis=0)
    distances = np.sqrt(((matrix.values - inlier_mean) ** 2).sum(axis=1))
    return binarize(distances, 0.05, matrix.row_ids).labels.tolist()


def test_criterion_4_synthetic_end_to_end(full_synth_run):
    run = full_synth_run
    assert run["exit_code"] in (0, 2)
    assert run["elapsed"] < 60.0, f"cmd_run took {run['elapsed']:.1f}s"

    result = run["result"]
    for source in DataSourceKind:
        truth = result.truth[source]
        truth_by_id = dict(zip(truth.row_ids, truth.labels.tolist()))

        # the baseline oracle must find this task easy before we trust the gate
        baseline = _baseline_distance_to_inlier_mean(result.batches[source], truth)
        baseline_ari = adjusted_rand_index(baseline, [truth_by_id[r] for r in truth.row_ids])
        assert baseline_ari >= 0.9, f"{source.value} baseline ARI {baseline_ari:.3f}"

        ids, ensemble_labels, detector_labels = read_labels(
            run["out"] / "labels" / f"{source.value}.jsonl"
        )
        assert len(ids) == 4000  # 7 history days + 1 current day at 500 records each
        truth_vector = [truth_by_id[r] for r in ids]
        ensemble_ari = adjusted_rand_index(ensemble_labels, truth_vector)
        assert ensemble_ari >= 0.8, f"{source.value} ensemble ARI {ensemble_ari:.3f}"

        pairwise = [
            adjusted_rand_index(detector_labels[a], detector_labels[b])
            for a, b in combinations(("iforest", "hbos", "cblof"), 2)
        ]
        mean_pairwise = sum(pairwise) / len(pairwise)
        assert mean_pairwise >= 0.6, f"{source.value} mean pairwise {mean_pairwise:.3f}"
    verdict(4, f"full run in {run['elapsed']:.1f}s; every source ARI >= 0.8, pairwise >= 0.6, baseline >= 0.9")


def _gauge_for_current(seed: int, current_contamination: float):
    """History at 2% contamination; current day swapped for one at the given rate."""
    history_config = SynthConfig(
        seed=seed, days_history=6, records_per_source_per_day=60, contamination=0.02
    )
    boundary = history_config.boundary_ms
    history = [
        r
        for r in generate(history_config).batches[DataSourceKind.YAF].records
        if r.timestamp < boundary
    ]
    current_config = SynthConfig(
        seed=seed + 1000,
        days_history=6,
        records_per_source_per_day=60,
        contamination=current_contamination,
    )
    current = [
        r
        for r in generate(current_config).batches[DataSourceKind.YAF].records
        if r.timestamp >= boundary
    ]
    batch = make_batch(DataSourceKind.YAF, *(history + current))
    split = window_split(batch, boundary, min_history=10)
    params = DetectorParams(iforest_trees=30, iforest_subsample=64, cblof_clusters=4)
    analysis = analyze_source(split, params, contamination=0.05, window_id="probe")
    return analysis.gauge


def test_criterion_5_alert_logic():
    spiked = _gauge_for_current(seed=11, current_contamination=0.2)  # 10x the 2% history rate
    assert spiked.history_percentile == 100.0
    assert alert_decision(spiked, threshold=75.0) is True

    fired = 0
    for seed in range(20):
        clean = _gauge_for_current(seed=100 + seed, current_contamination=0.0)
        fired += int(alert_decision(clean, threshold=75.0))
    assert fired <= 2, f"clean current day fired in {fired}/20 seeds"
    verdict(5, f"10x day fires at percentile 100; clean day fired {fired}/20 times")


def test_criterion_6_gauge_comparator_reference_pairs():
    assert compare_recent_previous(0.13, 0.022) is Comparison.MORE_ANOMALOUS
    assert compare_recent_previous(0.025, 5.25) is Comparison.LESS_ANOMALOUS
    assert compare_recent_previous(0.961, 4.378) is Comparison.LESS_ANOMALOUS
    assert compare_recent_previous(0.261, 0.004) is Comparison.MORE_ANOMALOUS
    verdict(6, "all four reference gauge pairs compare in the expected directions")


def test_criterion_7_determinism(tmp_path):
    synth_config = SynthConfig(seed=13, days_history=2, records_per_source_per_day=50)
    result = generate(synth_config)
    outputs = []
    for name in ("first", "second"):
        store = tmp_path / name / "store"
        write_store(result, store)
        config = PipelineConfig(
            store_root=store,
            output_dir=tmp_path / name / "out",
            boundary="2021-03-03",
            history_days=2,
            min_history=10,
            contamination=0.05,
            detectors=DetectorParams(iforest_trees=40, iforest_subsample=64, cblof_clusters=4),
        )
        from camlpad.pipeline import run_pipeline

        run_pipeline(config)
        outputs.append(tmp_path / name / "out")

    first, second = outputs
    compared = 0
    for rel in sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file()):
        if rel.name == "alerts.jsonl":  # fired_at wall-clock lives only here
            continue
        assert (second / rel).is_file(), f"missing {rel} in second run"
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), f"{rel} differs"
        compared += 1
    assert compared >= 28  # 21 svgs + 5 labels + 6 gauges + verdicts + evaluation, minus none
    verdict(7, f"{compared} artifacts byte-identical across two runs")


def test_criterion_8_preprocessing():
    column = np.array([0.0, np.nan, 2.0, np.nan, 4.0])
    assert np.allclose(impute_numeric(column), [0, 1, 2, 3, 4], atol=1e-9)

    rng = random.Random(808)
    for case in range(100):
        records = []
        for i in range(rng.randint(3, 30)):
            fields = {}
            for c in range(4):
                if rng.random() < 0.3:
                    fields[f"f{c}"] = None
                elif c < 2:
                    fields[f"f{c}"] = rng.choice(["a", "b", "c", "d"])
                else:
                    fields[f"f{c}"] = rng.uniform(-10, 10)
            records.append(make_record(timestamp=i, record_id=f"r{case}-{i}", **fields))
        matrix, _ = encode(make_batch(DataSourceKind.YAF, *records))
        assert not impute(matrix).has_missing(), f"case {case} left missing cells"
    verdict(8, "encode->impute chain leaves zero missing cells on 100 batches; regression example holds")
