import math

import numpy as np
import pytest

from camlpad.detectors import fit_hbos, score_hbos
from camlpad.detectors.hbos import EPSILON, score_hbos_rows
from camlpad.errors import CamlpadError

FOUR_POINTS = np.array([[1.0], [1.0], [1.0], [9.0]])


def oracle_bin_index(edges, value):
    """Independent membership: linear scan of the edge list.

    Out-of-range values clamp to the nearest edge bin; the last bin is
    right-inclusive.
    """
    bins = len(edges) - 1
    if bins == 0 or edges[0] == edges[-1]:
        return 0
    if value < edges[0]:
        return 0
    if value >= edges[-1]:
        return bins - 1
    for i in range(bins):
        if edges[i] <= value < edges[i + 1]:
            return i
    return bins - 1


def oracle_score(model, row):
    total = 0.0
    for hist, value in zip(model.histograms, row):
        edges = np.linspace(hist.low, hist.high, len(hist.counts) + 1).tolist()  # equal widths over [min, max]
        idx = oracle_bin_index(edges, float(value))
        total += -math.log(hist.counts[idx] / model.n_training + EPSILON)
    return max(total, 0.0)


class TestHandExample:
    def test_counts(self):
        model = fit_hbos(FOUR_POINTS, bins=2)
        assert model.histograms[0].counts.tolist() == [3, 1]

    def test_common_value_score(self):
        model = fit_hbos(FOUR_POINTS, bins=2)
        expected = -math.log(0.75 + EPSILON)
        assert score_hbos(model, [1.0]) == pytest.approx(expected, abs=1e-12)
        assert score_hbos(model, [1.0]) == pytest.approx(0.2877, abs=1e-3)

    def test_rare_value_score(self):
        model = fit_hbos(FOUR_POINTS, bins=2)
        expected = -math.log(0.25 + EPSILON)
        assert score_hbos(model, [9.0]) == pytest.approx(expected, abs=1e-12)
        assert score_hbos(model, [9.0]) == pytest.approx(1.3863, abs=1e-3)

    def test_out_of_range_clamps_to_edge_bin(self):
        model = fit_hbos(FOUR_POINTS, bins=2)
        assert score_hbos(model, [50.0]) == score_hbos(model, [9.0])
        assert score_hbos(model, [-50.0]) == score_hbos(model, [1.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_offsets_past_int64_clamp_to_the_nearest_edge_bin(self):
        hist = fit_hbos(np.random.default_rng(0).normal(size=(500, 1))).histograms[0]
        values = np.array([50.0, 1e19, 1e300, np.finfo(float).max, -50.0, -1e19, -1e300, -np.finfo(float).max])
        assert hist.bin_index(values).tolist() == [9, 9, 9, 9, 0, 0, 0, 0]


class TestDegenerate:
    def test_constant_feature_single_bin(self):
        model = fit_hbos(np.full((7, 1), 4.0), bins=10)
        hist = model.histograms[0]
        assert hist.degenerate
        assert hist.counts.tolist() == [7]
        # occupancy 1.0 everywhere: score clamps to exactly 0
        assert score_hbos(model, [4.0]) == 0.0
        assert score_hbos(model, [99.0]) == 0.0

    def test_counts_always_sum_to_n(self):
        rng = np.random.default_rng(3)
        X = rng.normal(0, 2, (137, 4))
        model = fit_hbos(X, bins=10)
        for hist in model.histograms:
            assert hist.counts.sum() == 137


class TestBins:
    def test_no_bin_is_refused_and_one_bin_fits(self):
        with pytest.raises(ValueError, match=r"^bins must be >= 1$"):
            fit_hbos(FOUR_POINTS, bins=0)
        [hist] = fit_hbos(FOUR_POINTS, bins=1).histograms
        assert hist.counts.tolist() == [4]


class TestOracleEquivalence:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_matches_linear_scan_oracle_on_random_rows(self):
        rng = np.random.default_rng(17)
        X = rng.normal(0, 3, (400, 5))
        model = fit_hbos(X, bins=10)
        # continuous draws plus deliberate out-of-range values, some with bin offsets past int64
        rows = np.vstack([
            rng.normal(0, 3, (800, 5)),
            rng.uniform(-30, 30, (200, 5)),
            rng.choice([-1.0, 1.0], (200, 5)) * 10.0 ** rng.uniform(0, 300, (200, 5)),
            np.repeat([[1e19], [-1e19], [1e300], [-1e300]], 5, axis=1),
        ])
        scores = score_hbos_rows(model, rows)
        for i in range(rows.shape[0]):
            assert scores[i] == pytest.approx(oracle_score(model, rows[i]), abs=1e-9)

    def test_scores_nonnegative(self):
        rng = np.random.default_rng(23)
        X = rng.normal(0, 1, (50, 3))
        model = fit_hbos(X, bins=5)
        assert (score_hbos_rows(model, rng.normal(0, 5, (200, 3))) >= 0).all()


class TestSerialization:
    def test_dimension_mismatch(self):
        model = fit_hbos(np.array([[1.0, 2.0]]), bins=3)
        with pytest.raises(CamlpadError, match=r"^model expects 2 features, got 3$"):
            score_hbos(model, [1.0, 2.0, 3.0])
