import copy
import random
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camlpad.datamodel import DataSourceKind
from camlpad.preprocess import (
    ColumnKind,
    FeatureMatrix,
    conform_columns,
    encode,
    impute,
    impute_categorical_backfill,
    impute_numeric,
    standardize,
)

from conftest import make_batch, make_record

YAF = DataSourceKind.YAF


def _category_batch(*values):
    records = [
        make_record(timestamp=i, record_id=f"r{i}", proto=v) for i, v in enumerate(values)
    ]
    return make_batch(YAF, *records)


class TestEncode:
    def test_first_seen_code_order(self):
        matrix, dictionary = encode(_category_batch("udp", "tcp", "udp"))
        assert dictionary == {"proto": {"udp": 0, "tcp": 1}}
        assert matrix.values[:, 0].tolist() == [0.0, 1.0, 0.0]
        assert matrix.column_kinds == [ColumnKind.ENCODED]

    def test_reencoding_with_returned_dict_is_fixed_point(self):
        batch = _category_batch("udp", "tcp", "udp", "icmp")
        first, dictionary = encode(batch)
        second, dictionary2 = encode(batch, dictionary)
        assert np.array_equal(first.values, second.values)
        assert dictionary == dictionary2

    def test_unseen_category_extends_dictionary(self):
        _, dictionary = encode(_category_batch("udp", "tcp"))
        matrix, extended = encode(_category_batch("icmp"), dictionary)
        assert matrix.values[0, 0] == 2.0
        assert extended["proto"] == {"udp": 0, "tcp": 1, "icmp": 2}
        # the input dictionary is not mutated
        assert dictionary["proto"] == {"udp": 0, "tcp": 1}

    def test_numbers_pass_through_and_missing_stays(self):
        batch = make_batch(
            YAF,
            make_record(timestamp=0, record_id="a", size=42, proto="udp"),
            make_record(timestamp=1, record_id="b", size=None, proto=None),
        )
        matrix, _ = encode(batch)
        by_name = dict(zip(matrix.column_names, matrix.values.T))
        assert by_name["size"][0] == 42.0 and np.isnan(by_name["size"][1])
        assert by_name["proto"][0] == 0.0 and np.isnan(by_name["proto"][1])

    def test_field_absent_from_record_is_missing_cell(self):
        batch = make_batch(
            YAF,
            make_record(timestamp=0, record_id="a", size=1.0, proto="udp"),
            make_record(timestamp=1, record_id="b", size=2.0),  # no proto at all
        )
        matrix, _ = encode(batch)
        proto = matrix.values[:, matrix.column_names.index("proto")]
        assert proto[0] == 0.0 and np.isnan(proto[1])
        assert not impute(matrix).has_missing()


class TestImputeNumeric:
    def test_linear_fit_regression_example(self):
        column = np.array([0.0, np.nan, 2.0, np.nan, 4.0])
        filled = impute_numeric(column)
        assert np.allclose(filled, [0, 1, 2, 3, 4], atol=1e-9)

    def test_matches_polyfit_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = rng.integers(4, 30)
            column = rng.normal(0, 10, n)
            missing = rng.random(n) < 0.4
            if missing.sum() >= n - 1:  # keep >= 2 observations
                missing[:2] = False
            column[missing] = np.nan
            idx = np.arange(n, dtype=float)
            slope, intercept = np.polyfit(idx[~missing], column[~missing], 1)
            expected = column.copy()
            expected[missing] = intercept + slope * idx[missing]
            assert np.allclose(impute_numeric(column), expected, atol=1e-8)

    def test_no_missing_is_identity(self):
        column = np.array([3.0, 1.0, 4.0])
        assert np.array_equal(impute_numeric(column), column)

    def test_single_observation_fills_with_it(self):
        assert impute_numeric(np.array([np.nan, 5.0, np.nan])).tolist() == [5.0, 5.0, 5.0]

    def test_all_missing_fills_zero(self):
        assert impute_numeric(np.array([np.nan, np.nan])).tolist() == [0.0, 0.0]


class TestBackfill:
    def test_backfill_rule(self):
        column = np.array([np.nan, 0.0, np.nan, 1.0])
        assert impute_categorical_backfill(column).tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_trailing_forward_fill(self):
        assert impute_categorical_backfill(np.array([1.0, np.nan, np.nan])).tolist() == [1.0, 1.0, 1.0]

    def test_all_missing_is_zero(self):
        assert impute_categorical_backfill(np.array([np.nan, np.nan])).tolist() == [0.0, 0.0]

    @given(st.lists(st.one_of(st.none(), st.integers(0, 5)), max_size=40))
    def test_matches_a_backward_walk(self, cells):
        column = np.array([np.nan if c is None else float(c) for c in cells])
        expected, following = [], None
        for cell in reversed(cells):  # each missing cell takes the next observed one
            following = following if cell is None else float(cell)
            expected.append(following)
        expected.reverse()
        observed = [float(c) for c in cells if c is not None]
        expected = [observed[-1] if v is None else v for v in expected] if observed else [0.0] * len(cells)
        assert impute_categorical_backfill(column).tolist() == expected


@st.composite
def imputed_matrices(draw):
    """1-40 rows by 1-8 columns. A column is constant (integer-valued, so its stddev is exactly 0),
    drawn cell by cell, or normal noise whose full mantissas make a sum depend on its order."""
    rows = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["constant", "cells", "noise"]), min_size=1, max_size=8)):
        if kind == "constant":
            columns.append([float(draw(st.integers(-1000, 1000)))] * rows)
        elif kind == "cells":
            columns.append(draw(st.lists(st.floats(-1e6, 1e6), min_size=rows, max_size=rows)))
        else:
            columns.append(rng.normal(draw(st.floats(-1e6, 1e6)), draw(st.floats(0.0, 1e4)), rows))
    return np.ascontiguousarray(np.array(columns).T)  # row-major, as the pipeline's matrices are

def _per_cell_standardized(values, stats):
    """(x - mean) / std per cell in Python floats, +0.0 where the stddev is 0."""
    means, stds = stats[0].tolist(), stats[1].tolist()
    return np.array([
        [0.0 if std == 0.0 else (x - mean) / std for x, mean, std in zip(row, means, stds)]
        for row in values.tolist()
    ])


class TestStandardize:
    def _matrix(self, values, kinds=None):
        values = np.asarray(values, dtype=float)
        kinds = kinds or [ColumnKind.NUMERIC] * values.shape[1]
        return FeatureMatrix(
            values=values,
            column_names=[f"c{i}" for i in range(values.shape[1])],
            column_kinds=kinds,
            row_ids=[f"r{i}" for i in range(values.shape[0])],
        )

    def test_population_stddev_example(self):
        mean = statistics.mean([1, 2, 3])
        stddev = statistics.pstdev([1, 2, 3])
        out, stats = standardize(self._matrix([[1], [2], [3]]))
        assert np.allclose(out.values[:, 0], [(v - mean) / stddev for v in (1, 2, 3)], atol=1e-12)
        assert np.allclose(out.values[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)
        assert stats[0].tolist() == [pytest.approx(mean)]
        assert stats[1].tolist() == [pytest.approx(stddev)]

    def test_constant_column_becomes_zero(self):
        out, _ = standardize(self._matrix([[5], [5]]))
        assert out.values[:, 0].tolist() == [0.0, 0.0]

    def test_scoring_with_supplied_stats(self):
        out, _ = standardize(self._matrix([[4]]), stats=np.array([[2.0], [1.0]]))
        assert out.values[0, 0] == 2.0

    def test_inverse_recovers_original(self):
        rng = np.random.default_rng(9)
        matrix = self._matrix(rng.normal(3, 7, (20, 4)))
        out, stats = standardize(matrix)
        recovered = out.values * stats[1] + stats[0]
        assert np.allclose(recovered, matrix.values, atol=1e-9)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(imputed_matrices())
    def test_fitted_stats_and_cells_match_per_column(self, values):
        out, stats = standardize(self._matrix(values))
        expected_stats = np.array([
            [float(values[:, col].mean()) for col in range(values.shape[1])],
            [float(values[:, col].std()) for col in range(values.shape[1])],
        ])
        assert stats.tobytes() == expected_stats.tobytes()  # bitwise, as each column's own 1-D mean and std
        assert out.values.tobytes() == _per_cell_standardized(values, stats).tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(imputed_matrices(), st.data())
    def test_supplied_stats_and_cells_match_per_column(self, values, data):
        cols = values.shape[1]
        means = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=cols, max_size=cols))
        stds = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e6)), min_size=cols, max_size=cols))
        supplied = np.array([means, stds])
        out, stats = standardize(self._matrix(values), supplied)
        assert stats is supplied
        assert out.values.tobytes() == _per_cell_standardized(values, supplied).tobytes()


class TestFullChain:
    def _random_batch(self, rng, case):
        categories = ["udp", "tcp", "icmp", "gre"]
        records = []
        for i in range(rng.randint(3, 40)):
            fields = {}
            for c in range(3):
                if rng.random() < 0.3:
                    fields[f"f{c}"] = None
                elif c == 0:
                    fields[f"f{c}"] = rng.choice(categories)
                else:
                    fields[f"f{c}"] = rng.uniform(-50, 50)
            records.append(make_record(timestamp=i, record_id=f"b{case}-r{i}", **fields))
        return make_batch(YAF, *records)

    def test_encode_impute_chain_leaves_no_missing(self):
        rng = random.Random(42)
        for case in range(100):
            batch = self._random_batch(rng, case)
            matrix, _ = encode(batch)
            filled = impute(matrix)
            assert not filled.has_missing(), f"case {case} left missing cells"

    def test_chain_then_standardize_is_finite(self):
        rng = random.Random(4242)
        batch = self._random_batch(rng, 999)
        matrix, _ = encode(batch)
        out, _ = standardize(impute(matrix))
        assert np.isfinite(out.values).all()


class TestConformColumns:
    def test_reindexes_and_fills_missing(self):
        matrix = FeatureMatrix(
            values=np.array([[1.0, 2.0]]),
            column_names=["a", "extra"],
            column_kinds=[ColumnKind.NUMERIC, ColumnKind.NUMERIC],
            row_ids=["r0"],
        )
        conformed = conform_columns(matrix, ["a", "b"], [ColumnKind.NUMERIC, ColumnKind.ENCODED])
        assert conformed.column_names == ["a", "b"]
        assert conformed.values[0, 0] == 1.0
        assert np.isnan(conformed.values[0, 1])


def _reference_encode(batch, dictionary=None):
    """The per-cell ``encode`` the column-wise one replaced: one matrix setitem per cell."""
    fitted = dictionary is not None
    result = copy.deepcopy(dictionary) if dictionary else {}
    columns = list(dict.fromkeys(name for record in batch.records for name in record.fields))
    values = np.full((len(batch.records), len(columns)), np.nan)
    col_index = {name: i for i, name in enumerate(columns)}
    drift = {}
    for row, record in enumerate(batch.records):
        for name, value in record.fields.items():
            if value is None:
                continue
            if type(value) is str:
                codes = result.setdefault(name, {})
                if value not in codes:
                    codes[value] = len(codes)
                    if fitted:
                        drift[name] = drift.get(name, 0) + 1
                value = codes[value]
            values[row, col_index[name]] = value
    kinds = [ColumnKind.ENCODED if name in result else ColumnKind.NUMERIC for name in columns]
    return values, columns, kinds, [r.record_id for r in batch.records], result, drift


MIXED_CELLS = st.one_of(st.none(), st.floats(-5, 5), st.sampled_from(["udp", "tcp", "icmp", "42"]))


@st.composite
def mixed_batches(draw):
    names = ["a", "b", "c", "d"]
    records = []
    for row in range(draw(st.integers(0, 12))):
        fields = {name: draw(MIXED_CELLS) for name in draw(st.permutations(names)) if draw(st.integers(0, 4))}
        records.append(make_record(timestamp=row, record_id=f"r{row}", **fields))
    return make_batch(YAF, *records)


class TestColumnwiseEncodeMatchesPerCell:
    @settings(max_examples=300, deadline=None)
    @given(mixed_batches(), st.one_of(st.none(), mixed_batches(), st.just("empty")))
    def test_matches_reference(self, batch, fit_on):
        dictionary = {} if fit_on == "empty" else None if fit_on is None else encode(fit_on)[1]
        snapshot = copy.deepcopy(dictionary)
        matrix, result = encode(batch, dictionary)
        values, columns, kinds, row_ids, expected, expected_drift = _reference_encode(batch, dictionary)
        assert np.array_equal(matrix.values, values, equal_nan=True)
        assert (matrix.column_names, matrix.column_kinds, matrix.row_ids) == (columns, kinds, row_ids)
        assert result == expected
        assert {name: list(codes.items()) for name, codes in result.items()} == {
            name: list(codes.items()) for name, codes in expected.items()
        }  # codes in first-seen order
        if dictionary is not None:  # the unseen categories are the codes the dictionary gained
            grown = {name: len(codes) - len(dictionary.get(name, {})) for name, codes in result.items()}
            assert {name: count for name, count in grown.items() if count} == expected_drift
        assert dictionary == snapshot
