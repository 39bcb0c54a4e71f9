"""Turn a RecordBatch into a fully numeric matrix: encode, impute, standardize.

A missing cell (``None``) is carried as NaN inside the matrix until
imputation; record cells are never NaN, so NaN here always means "missing".
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .datamodel import RecordBatch

EncodingDictionary = dict[str, dict[str, int]]


class ColumnKind(str, Enum):
    NUMERIC = "numeric"
    ENCODED = "encoded"


@dataclass
class FeatureMatrix:
    """Dense row-per-record matrix with per-column metadata.

    ``values`` may hold NaN (missing cells) before imputation, never after.
    """

    values: np.ndarray
    column_names: list[str]
    column_kinds: list[ColumnKind]
    row_ids: list[str]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {self.values.shape}")
        n_rows, n_cols = self.values.shape
        if n_rows != len(self.row_ids):
            raise ValueError(f"{n_rows} rows but {len(self.row_ids)} row_ids")
        if n_cols != len(self.column_names) or n_cols != len(self.column_kinds):
            raise ValueError(
                f"{n_cols} columns but {len(self.column_names)} names / {len(self.column_kinds)} kinds"
            )

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def has_missing(self) -> bool:
        return bool(np.isnan(self.values).any())


def encode(
    batch: RecordBatch,
    dictionary: EncodingDictionary | None = None,
) -> tuple[FeatureMatrix, EncodingDictionary]:
    """Ordinal-encode a batch: one matrix column per batch column, in its first-seen order.

    Float cells pass through, str cells map through the dictionary (codes
    assigned 0,1,2,... in first-seen row order), None cells stay NaN. The
    input dictionary is never mutated; the returned one carries any
    extensions, so a category unseen in the input shows as a column that grew.
    """
    result: EncodingDictionary = copy.deepcopy(dictionary) if dictionary else {}
    values = np.empty((len(batch), len(batch.columns)))
    for col, (name, column) in enumerate(batch.columns.items()):
        values[:, col] = column.numbers  # NaN where a cell is a str or None
        is_str = column.codes >= 0
        if is_str.any():
            codes = result.setdefault(name, {})
            present, first = np.unique(column.codes[is_str], return_index=True)
            code_of = np.zeros(len(column.categories))
            for category in present[np.argsort(first)].tolist():
                # setdefault gives an unseen category the next code, so codes follow first-seen order
                code_of[category] = codes.setdefault(column.categories[category], len(codes))
            values[is_str, col] = code_of[column.codes[is_str]]

    columns = list(batch.columns)
    kinds = [
        ColumnKind.ENCODED if name in result else ColumnKind.NUMERIC
        for name in columns
    ]
    matrix = FeatureMatrix(
        values=values,
        column_names=columns,
        column_kinds=kinds,
        row_ids=list(batch.record_ids),
    )
    return matrix, result


def impute_numeric(column: np.ndarray) -> np.ndarray:
    """Fill missing cells from a least-squares line over (row index, value).

    One observed value fills everywhere with it; none fills with 0.
    """
    column = np.asarray(column, dtype=float).copy()
    missing = np.isnan(column)
    if not missing.any():
        return column
    observed = ~missing
    n_obs = int(observed.sum())
    if n_obs == 0:
        return np.zeros_like(column)
    if n_obs == 1:
        column[missing] = column[observed][0]
        return column
    idx = np.arange(len(column), dtype=float)
    xi, yi = idx[observed], column[observed]
    x_mean, y_mean = xi.mean(), yi.mean()
    slope = float(((xi - x_mean) * (yi - y_mean)).sum() / ((xi - x_mean) ** 2).sum())
    intercept = y_mean - slope * x_mean
    column[missing] = intercept + slope * idx[missing]
    return column


def impute_categorical_backfill(column: np.ndarray) -> np.ndarray:
    """Each missing cell takes the next observed code; trailing ones take the last.

    An all-missing column becomes all 0.
    """
    column = np.asarray(column, dtype=float)
    missing = np.isnan(column)
    if missing.all():
        return np.zeros_like(column)
    # for each cell, the first observed index at or after it; n where none follows
    n = len(column)
    following = np.minimum.accumulate(np.where(missing, n, np.arange(n))[::-1])[::-1]
    last_observed = np.flatnonzero(~missing)[-1]
    return column[np.where(following == n, last_observed, following)]


def impute(matrix: FeatureMatrix) -> FeatureMatrix:
    """Apply the per-kind imputation to every column; result has no NaN."""
    values = matrix.values.copy()
    for col, kind in enumerate(matrix.column_kinds):
        if kind is ColumnKind.ENCODED:
            values[:, col] = impute_categorical_backfill(values[:, col])
        else:
            values[:, col] = impute_numeric(values[:, col])
    return replace(matrix, values=values)


ColumnStats = np.ndarray


def standardize(
    matrix: FeatureMatrix,
    stats: ColumnStats | None = None,
) -> tuple[FeatureMatrix, ColumnStats]:
    """Scale each column to (x - mean)/stddev, a zero-variance one to all 0. ``stats`` holds the means and the
    population stddevs, shape (2, columns): supplied, it is reused (scoring); else it is fitted here and returned.
    """
    if matrix.has_missing():
        raise ValueError("standardize requires a fully imputed matrix")
    if stats is None:
        columns = np.ascontiguousarray(matrix.values.T)  # a row per column: the bits of its own 1-D mean and std
        stats = np.array([columns.mean(axis=1), columns.std(axis=1)])
        del columns  # freed before the result is made, so the fit holds one extra matrix at a time
    if stats.shape != (2, matrix.values.shape[1]):
        raise ValueError(f"stats of shape {stats.shape} for {matrix.values.shape[1]} columns")
    values = matrix.values - stats[0]
    values /= np.where(stats[1] == 0, 1.0, stats[1])  # in place: a masked divide runs row by row, several times slower
    values[:, stats[1] == 0] = 0.0
    return replace(matrix, values=values), stats


def conform_columns(
    matrix: FeatureMatrix,
    column_names: list[str],
    column_kinds: list[ColumnKind],
) -> FeatureMatrix:
    """Reindex a matrix onto a reference column set.

    Columns absent from the matrix come back all-missing (imputation fills
    them); columns absent from the reference are dropped.
    """
    values = np.full((matrix.n_rows, len(column_names)), np.nan)
    have = {name: i for i, name in enumerate(matrix.column_names)}
    kept = [col for col, name in enumerate(column_names) if name in have]
    values[:, kept] = matrix.values[:, [have[column_names[col]] for col in kept]]
    return replace(matrix, values=values, column_names=column_names, column_kinds=column_kinds)

