import math

import numpy as np
import pytest

from camlpad.detectors import (
    fit_pca,
    project_pca_rows,
)
from camlpad.errors import CamlpadError

LINE = np.array([[-1.0, -1.0], [0.0, 0.0], [1.0, 1.0]])


def projected_variances(model, X):
    """Variance of the training rows along each component (the eigenvalues PCA ranks by)."""
    return project_pca_rows(model, X).var(axis=0, ddof=1)


class TestLineData:
    def test_first_component_along_diagonal(self):
        model = fit_pca(LINE)
        assert model.components[0].tolist() == pytest.approx([1 / math.sqrt(2)] * 2, abs=1e-9)
        assert projected_variances(model, LINE)[1] == pytest.approx(0.0, abs=1e-12)

    def test_projection_of_point_on_line(self):
        model = fit_pca(LINE)
        [[x, y]] = project_pca_rows(model, [[1.0, 1.0]])
        assert x == pytest.approx(math.sqrt(2), abs=1e-9)
        assert y == pytest.approx(0.0, abs=1e-9)

    def test_mean_projects_to_origin(self):
        model = fit_pca(LINE)
        assert project_pca_rows(model, model.mean)[0].tolist() == pytest.approx([0.0, 0.0], abs=1e-12)


class TestSymmetryAndDegenerate:
    def test_isotropic_square_has_equal_variances(self):
        square = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        model = fit_pca(square)
        first, second = projected_variances(model, square)
        assert first == pytest.approx(second, abs=1e-12)

    def test_one_dimensional_placeholder_axis(self):
        model = fit_pca(np.array([[1.0], [4.0], [9.0]]))
        assert model.components.tolist() == [[1.0], [0.0]]
        coords = project_pca_rows(model, np.array([[2.0], [7.0]]))
        assert coords[:, 1].tolist() == [0.0, 0.0]

    def test_too_few_rows(self):
        with pytest.raises(CamlpadError, match=r"^pca needs >= 2 rows, got 1$"):
            fit_pca(np.array([[1.0, 2.0]]))


class TestInvariants:
    def test_components_orthonormal(self):
        rng = np.random.default_rng(3)
        X = rng.normal(0, 2, (100, 5))
        model = fit_pca(X)
        gram = model.components @ model.components.T
        assert np.allclose(gram, np.eye(2), atol=1e-9)

    def test_explained_variance_ordering_and_bound(self):
        rng = np.random.default_rng(5)
        X = rng.normal(0, 3, (200, 6))
        model = fit_pca(X)
        first, second = projected_variances(model, X)
        assert first >= second
        assert first >= X.var(axis=0, ddof=1).max() - 1e-9
        total_column_variance = X.var(axis=0, ddof=1).sum()
        assert first + second <= total_column_variance + 1e-9

    def test_sign_convention_largest_coordinate_positive(self):
        rng = np.random.default_rng(7)
        for seed in range(10):
            X = np.random.default_rng(seed).normal(0, 1, (50, 4))
            model = fit_pca(X)
            for component in model.components:
                assert component[np.abs(component).argmax()] > 0

    def test_projection_is_affine(self):
        rng = np.random.default_rng(9)
        X = rng.normal(0, 2, (30, 3))
        model = fit_pca(X)
        shift = np.array([0.5, -1.0, 2.0])
        a = rng.normal(0, 1, (5, 3))
        lhs = project_pca_rows(model, a + shift) - project_pca_rows(model, a)
        rhs = model.components @ shift
        assert np.allclose(lhs, rhs, atol=1e-9)

