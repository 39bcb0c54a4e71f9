import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camlpad.detectors import (
    average_path_length,
    fit_cblof,
    fit_hbos,
    fit_iforest,
    fit_kmeans,
    fit_pca,
    project_pca_rows,
    score_cblof_rows,
    score_hbos_rows,
    score_iforest,
    score_iforest_rows,
)
from camlpad.detectors.iforest import EULER_MASCHERONI, IsolationForestModel, IsolationTree
from camlpad.errors import CamlpadError


class TestPathLengthCurve:
    def test_pinned_small_values(self):
        assert average_path_length(1) == 0.0
        assert average_path_length(2) == 1.0
        assert average_path_length(0) == 0.0

    def test_large_value_matches_formula(self):
        # oracle: direct evaluation of 2*H(n-1) - 2(n-1)/n with H(i) = ln(i) + gamma
        expected = 2 * (math.log(255) + EULER_MASCHERONI) - 2 * 255 / 256
        assert average_path_length(256) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(10.2448, abs=1e-4)

    def test_monotone_increasing(self):
        values = [average_path_length(n) for n in range(2, 500)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestTwoPointModel:
    def test_both_points_score_exactly_half(self):
        for seed in (0, 1, 99):
            model = fit_iforest(np.array([[0.0], [1.0]]), trees=25, seed=seed)
            assert score_iforest(model, [0.0]) == pytest.approx(0.5, abs=1e-12)
            assert score_iforest(model, [1.0]) == pytest.approx(0.5, abs=1e-12)

    def test_trees_isolate_both_at_depth_one(self):
        model = fit_iforest(np.array([[0.0], [1.0]]), trees=10, seed=3)
        for tree in model.trees:
            leaves = tree.size[tree.feature < 0]
            assert sorted(leaves.tolist()) == [1, 1]


class TestDegenerateData:
    def test_identical_rows_give_single_leaf_and_half_score(self):
        X = np.full((10, 3), 7.0)
        model = fit_iforest(X, trees=20, seed=5)
        for tree in model.trees:
            assert len(tree.feature) == 1 and tree.feature[0] == -1
            assert tree.size[0] == model.sample_size
        assert score_iforest(model, X[0]) == pytest.approx(0.5, abs=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(CamlpadError, match=r"^isolation forest needs >= 2 rows, got 1$"):
            fit_iforest(np.array([[1.0]]))


class TestDeterminism:
    def test_same_seed_gives_identical_model(self):
        X = np.random.default_rng(2).normal(0, 1, (60, 4))
        first = fit_iforest(X, trees=15, subsample=32, seed=11)
        second = fit_iforest(X, trees=15, subsample=32, seed=11)
        assert len(first.trees) == len(second.trees) == 15
        for a, b in zip(first.trees, second.trees):
            for name in ("feature", "threshold", "left", "right", "size"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestScoreProperties:
    def test_outlier_attains_strict_maximum(self):
        X = np.array([[float(v)] for v in list(range(10)) + [100]])
        for seed in (0, 7, 123):
            model = fit_iforest(X, trees=100, subsample=11, seed=seed)
            scores = score_iforest_rows(model, X)
            assert scores.argmax() == 10
            assert scores[10] > scores[:10].max()

    def test_scores_bounded_in_open_unit_interval(self):
        rng = np.random.default_rng(31)
        X = rng.normal(0, 5, (200, 3))
        model = fit_iforest(X, trees=30, subsample=64, seed=1)
        scores = score_iforest_rows(model, rng.normal(0, 20, (500, 3)))
        assert (scores > 0).all() and (scores < 1).all()

    def test_score_strictly_decreasing_in_mean_path(self):
        c = average_path_length(256)
        paths = np.linspace(0.5, 16, 40)
        scores = np.power(2.0, -paths / c)
        assert all(b < a for a, b in zip(scores, scores[1:]))

    def test_dimension_mismatch(self):
        model = fit_iforest(np.array([[0.0, 1.0], [2.0, 3.0]]), trees=5, seed=0)
        with pytest.raises(CamlpadError, match=r"^model expects 2 features, got 1$"):
            score_iforest(model, [1.0])


@pytest.mark.parametrize(
    "fit, score",
    [
        (lambda X: fit_iforest(X, trees=5, subsample=8, seed=0), score_iforest_rows),
        (fit_hbos, score_hbos_rows),
        (lambda X: fit_cblof(X, k=2, seed=0), score_cblof_rows),
        (fit_pca, project_pca_rows),
    ],
)
def test_scoring_rejects_rows_with_missing_values(fit, score):
    X = np.random.default_rng(4).normal(0, 1, (20, 3))
    model = fit(X)
    rows = X[:3].copy()
    rows[1, 2] = np.nan
    with pytest.raises(ValueError, match="missing values"):
        score(model, rows)


@pytest.mark.parametrize(
    "fit, score",
    [
        (lambda X: fit_iforest(X, trees=5, subsample=8, seed=0), score_iforest_rows),
        (fit_hbos, score_hbos_rows),
        (lambda X: fit_cblof(X, k=2, seed=0), score_cblof_rows),
        (fit_pca, project_pca_rows),
    ],
)
@pytest.mark.parametrize("cells", [[np.inf, 0.0, 0.0], [-np.inf, 0.0, 0.0], [-np.inf, np.inf, 0.0]])
def test_scoring_rejects_infinite_cells_where_the_model_cannot_score_them(fit, score, cells):
    # HBOS would bin +inf as its lowest bin, CBLOF would score inf, PCA would place [-inf, inf, 0] at NaN;
    # no standardized row the pipeline scores is infinite, so iForest refuses one too.
    X = np.random.default_rng(4).normal(0, 1, (40, 3))
    model = fit(X)
    with pytest.raises(ValueError, match="infinite values"):
        score(model, np.vstack([X[:2], cells]))


@pytest.mark.parametrize(
    "fit",
    [
        lambda X: fit_iforest(X, trees=5, subsample=8, seed=0),
        fit_hbos,
        lambda X: fit_cblof(X, k=2, seed=0),
        lambda X: fit_kmeans(X, k=2, seed=0),
        fit_pca,
    ],
)
@pytest.mark.parametrize("cell", [np.inf, -np.inf])
def test_fitting_rejects_infinite_cells(fit, cell):
    # HBOS would fit a histogram reaching inf, k-means++ seeding would draw with NaN weights, PCA would not converge.
    X = np.random.default_rng(4).normal(0, 1, (40, 3))
    X[7, 1] = cell
    with pytest.raises(ValueError, match="infinite values"):
        fit(X)


@pytest.mark.parametrize(
    "fit, data, message",
    [
        (fit_hbos, np.zeros(3), "expected a 2-D matrix, got shape (3,)"),
        (fit_hbos, np.zeros((0, 2)), "hbos needs at least one row"),
        (lambda X: fit_iforest(X, trees=0), np.zeros((4, 2)), "trees must be >= 1 and subsample >= 2"),
        (lambda X: fit_iforest(X, subsample=1), np.zeros((4, 2)), "trees must be >= 1 and subsample >= 2"),
        (fit_pca, np.zeros((4, 0)), "pca needs at least one column"),
    ],
    ids=["not_2d", "hbos_no_rows", "iforest_no_trees", "iforest_subsample_1", "pca_no_columns"],
)
def test_fitting_outside_the_contract_is_refused(fit, data, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fit(data)


class TestTreeStructure:
    def test_depth_never_exceeds_cap(self):
        rng = np.random.default_rng(6)
        X = rng.normal(0, 1, (300, 2))
        model = fit_iforest(X, trees=10, subsample=256, seed=2)

        def max_depth(tree, node=0, depth=0):
            if tree.feature[node] < 0:
                return depth
            return max(
                max_depth(tree, tree.left[node], depth + 1),
                max_depth(tree, tree.right[node], depth + 1),
            )

        for tree in model.trees:
            assert max_depth(tree) <= model.max_depth

    def test_split_values_lie_within_training_range(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(-3, 9, (100, 3))
        model = fit_iforest(X, trees=10, subsample=64, seed=9)
        lows, highs = X.min(axis=0), X.max(axis=0)
        for tree in model.trees:
            for node, feature in enumerate(tree.feature):
                if feature >= 0:
                    assert lows[feature] <= tree.threshold[node] <= highs[feature]


@st.composite
def training_sets(draw):
    """Small matrices with repeated values, duplicated rows and constant columns."""
    rows, cols = draw(st.integers(2, 40)), draw(st.integers(1, 4))
    cell = st.one_of(st.integers(-3, 3).map(float), st.floats(-1e6, 1e6, allow_nan=False))
    X = np.array(draw(st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))
    X[:, draw(st.lists(st.integers(0, cols - 1), max_size=cols))] = draw(cell)
    return np.vstack([X, X[: draw(st.integers(0, rows))]])


class TestForestShape:
    @settings(max_examples=150, deadline=None)
    @given(
        X=training_sets(),
        trees=st.integers(1, 6),
        subsample=st.integers(2, 100),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_tree_is_a_well_formed_isolation_tree(self, X, trees, subsample, seed):
        model = fit_iforest(X, trees=trees, subsample=subsample, seed=seed)
        assert len(model.trees) == trees
        assert model.sample_size == min(subsample, len(X))
        lows, highs = X.min(axis=0), X.max(axis=0)
        constant = np.flatnonzero(lows == highs)
        for tree in model.trees:
            internal = np.flatnonzero(tree.feature >= 0)
            leaves = np.flatnonzero(tree.feature < 0)
            assert tree.size[leaves].sum() == model.sample_size
            assert (tree.size[internal] == 0).all()
            assert (tree.left[leaves] == -1).all() and (tree.right[leaves] == -1).all()
            children = np.concatenate([tree.left[internal], tree.right[internal]])
            parents = np.bincount(children, minlength=len(tree.feature))
            assert parents[0] == 0 and (parents[1:] == 1).all()
            depth = np.zeros(len(tree.feature), dtype=int)
            stack = [0]
            while stack:
                node = stack.pop()
                if tree.feature[node] >= 0:
                    for child in (tree.left[node], tree.right[node]):
                        depth[child] = depth[node] + 1
                        stack.append(child)
            assert depth.max() <= model.max_depth
            features = tree.feature[internal]
            assert ((lows[features] <= tree.threshold[internal]) & (tree.threshold[internal] <= highs[features])).all()
            assert not np.isin(features, constant).any()


class _ReferenceTreeBuilder:
    """The recursive one-node-at-a-time builder the level-by-level one replaced."""

    def __init__(self, max_depth: int, rng: np.random.Generator):
        self.max_depth = max_depth
        self.rng = rng
        self.nodes: list[list] = []  # [feature, threshold, left, right, size]

    def build(self, sample: np.ndarray, depth: int = 0) -> int:
        node = len(self.nodes)
        self.nodes.append([-1, 0.0, -1, -1, 0])
        n = sample.shape[0]
        if depth >= self.max_depth or n <= 1:
            self.nodes[node][4] = n
            return node
        mins, maxs = sample.min(axis=0), sample.max(axis=0)
        varying = np.flatnonzero(maxs > mins)
        if varying.size == 0:
            self.nodes[node][4] = n
            return node
        feature = int(varying[self.rng.integers(varying.size)])
        value = float(self.rng.uniform(mins[feature], maxs[feature]))
        mask = sample[:, feature] < value
        self.nodes[node][:2] = [feature, value]
        self.nodes[node][2] = self.build(sample[mask], depth + 1)
        self.nodes[node][3] = self.build(sample[~mask], depth + 1)
        return node


def _reference_fit_iforest(X: np.ndarray, trees: int, subsample: int, seed: int) -> IsolationForestModel:
    rng = np.random.default_rng(seed)
    sample_size = min(subsample, len(X))
    max_depth = math.ceil(math.log2(subsample))
    forest = []
    for _ in range(trees):
        builder = _ReferenceTreeBuilder(max_depth, rng)
        builder.build(X[rng.choice(len(X), size=sample_size, replace=False)])
        columns = list(zip(*builder.nodes))
        forest.append(IsolationTree(*(np.asarray(c, dtype=t) for c, t in zip(columns, (int, float, int, int, int)))))
    return IsolationForestModel(forest, X.shape[1], sample_size, max_depth)


class TestAgreesWithRecursiveBuilder:
    """Same node rules, different draw order: the two forests agree in distribution.

    Over seeds 0-9 either builder's mean score spreads by under 0.01, on all rows
    and on the planted ones. Drawing the split feature among all columns, or the
    split value from the whole subsample's range, lowers the mean over all rows by
    about 0.06.
    """

    PLANTED = 10

    @pytest.fixture(scope="class")
    def data(self):
        # Three numeric columns, a constant one and two small categorical codes, as
        # encoded sensor rows look; the last rows sit 5 sigma out on each numeric axis.
        rng = np.random.default_rng(0)
        n = 500 + self.PLANTED
        X = np.column_stack([
            rng.normal(0, 1, (n, 3)), np.full(n, 2.0), rng.integers(0, 2, n), rng.integers(0, 3, n),
        ])
        X[-self.PLANTED:, :3] += rng.choice([-5.0, 5.0], (self.PLANTED, 3))
        return X

    def test_top_rows_and_mean_scores_match(self, data):
        reference = score_iforest_rows(_reference_fit_iforest(data, trees=200, subsample=256, seed=0), data)
        scores = score_iforest_rows(fit_iforest(data, trees=200, subsample=256, seed=0), data)
        k, planted = self.PLANTED, set(range(len(data) - self.PLANTED, len(data)))
        top_reference, top = set(np.argsort(-reference)[:k]), set(np.argsort(-scores)[:k])
        assert top_reference == planted
        assert len(top & top_reference) >= k - 1
        assert abs(scores.mean() - reference.mean()) <= 0.02
        assert abs(scores[-k:].mean() - reference[-k:].mean()) <= 0.02


def _reference_path_totals(model: IsolationForestModel, X: np.ndarray) -> np.ndarray:
    """The one-node-at-a-time stack walk the level walk replaced: summed path lengths per row."""
    totals = np.zeros(X.shape[0])
    for tree in model.trees:
        out = np.zeros(X.shape[0])
        stack = [(0, np.arange(X.shape[0]), 0)]
        while stack:
            node, rows, depth = stack.pop()
            if rows.size == 0:
                continue
            feature = tree.feature[node]
            if feature < 0:
                out[rows] = depth + average_path_length(int(tree.size[node]))
                continue
            mask = X[rows, feature] < tree.threshold[node]
            stack.append((tree.left[node], rows[mask], depth + 1))
            stack.append((tree.right[node], rows[~mask], depth + 1))
        totals += out
    return totals


def _reference_scores(model: IsolationForestModel, X: np.ndarray) -> np.ndarray:
    mean_path = _reference_path_totals(model, X) / len(model.trees)
    return np.power(2.0, -mean_path / average_path_length(model.sample_size))


class TestLevelWalkMatchesStackWalk:
    @settings(max_examples=150, deadline=None)
    @given(
        X=training_sets(),
        trees=st.integers(1, 6),
        subsample=st.integers(2, 100),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_scores_equal_on_training_and_threshold_rows(self, X, trees, subsample, seed, data):
        model = fit_iforest(X, trees=trees, subsample=subsample, seed=seed)
        # Rows that sit exactly on a split value in that split's feature.
        splits = [(f, t) for tree in model.trees for f, t in zip(tree.feature, tree.threshold) if f >= 0]
        on_split = X[data.draw(st.lists(st.integers(0, len(X) - 1), min_size=len(splits), max_size=len(splits)))]
        for row, (feature, threshold) in zip(on_split, splits):
            row[feature] = threshold
        rows = np.vstack([X, on_split])
        assert np.array_equal(score_iforest_rows(model, rows), _reference_scores(model, rows))

    def test_single_leaf_trees(self):
        leaf = IsolationTree(np.array([-1]), np.array([0.0]), np.array([-1]), np.array([-1]), np.array([5]))
        model = IsolationForestModel([leaf, leaf, leaf], n_features=2, sample_size=5, max_depth=3)
        rows = np.array([[0.0, 1.0], [1e300, -1e300], [-3.0, 7.5]])
        scores = score_iforest_rows(model, rows)
        assert np.array_equal(scores, _reference_scores(model, rows))
        assert np.array_equal(scores, np.full(3, 0.5))

    def test_tree_deeper_than_max_depth(self):
        # A hand-built chain three levels deep under max_depth 1; its rows must still reach the leaves.
        chain = IsolationTree(
            feature=np.array([0, -1, 1, -1, 0, -1, -1]),
            threshold=np.array([0.0, 0.0, 1.0, 0.0, -1.0, 0.0, 0.0]),
            left=np.array([2, -1, 4, -1, 5, -1, -1]),
            right=np.array([1, -1, 3, -1, 6, -1, -1]),
            size=np.array([0, 1, 0, 1, 0, 1, 1]),
        )
        model = IsolationForestModel([chain], n_features=2, sample_size=7, max_depth=1)
        rows = np.array([[1.0, 0.0], [-0.5, 2.0], [-0.5, 0.0], [-2.0, 0.0], [-1.0, 0.0], [-1e300, 1e300]])
        assert np.array_equal(_reference_path_totals(model, rows), [1.0, 2.0, 3.0, 3.0, 3.0, 2.0])
        assert np.array_equal(score_iforest_rows(model, rows), _reference_scores(model, rows))
