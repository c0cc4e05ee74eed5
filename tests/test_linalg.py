import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from test_fa import fixture_model_input
from riversep import errors
from riversep.linalg import (
    _column_mean,
    _ZERO_VAR_REL,
    _column_moments,
    _column_signs,
    _eigh_descending,
    correlation_matrix,
    covariance_matrix,
)


def brute_force_covariance(x):
    """Textbook double-loop sample covariance, used as an oracle."""
    x = np.asarray(x, dtype=float)
    n, p = x.shape
    means = [sum(x[:, j]) / n for j in range(p)]
    c = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            acc = 0.0
            for t in range(n):
                acc += (x[t, i] - means[i]) * (x[t, j] - means[j])
            c[i, j] = acc / (n - 1)
    return c


class TestColumnStatistics:
    """The column mean is a product with a ones vector, not ``np.mean``; the
    two differ only in summation order, on either memory layout."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(5000, 3), (50, 30)])
    def test_mean_and_sd_match_numpy(self, shape, order):
        rng = np.random.default_rng(5)
        offsets = rng.uniform(-10.0, 10.0, size=shape[1])
        scales = rng.uniform(0.1, 5.0, size=shape[1])
        x = np.asarray(rng.normal(size=shape) * scales + offsets, order=order)
        assert_allclose(_column_mean(x), np.mean(x, axis=0), rtol=1e-14, atol=0)
        mean, sd, c = _column_moments(x, standardize=False)
        assert_allclose(mean, np.mean(x, axis=0), rtol=1e-14, atol=0)
        assert_allclose(sd, np.std(x, axis=0, ddof=1), rtol=1e-14, atol=0)
        assert_allclose(c, np.cov(x, rowvar=False), rtol=1e-12, atol=1e-13)
        r = _column_moments(x, standardize=True)[2]
        assert_allclose(r, np.corrcoef(x, rowvar=False), rtol=1e-12, atol=1e-13)

    def test_constant_column_of_a_tall_matrix_has_zero_variance(self):
        # 0.1 is inexact in binary, so the column's computed mean may miss it
        # in the last bit; the column must still read as constant.
        rng = np.random.default_rng(6)
        x = np.column_stack([rng.normal(size=5000), np.full(5000, 0.1), rng.normal(size=5000)])
        with pytest.raises(errors.ZeroVarianceColumn) as exc:
            correlation_matrix(x)
        assert exc.value.col == 1

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_zero_variance_threshold_is_the_column_abs_max(self, order):
        # The threshold is _ZERO_VAR_REL times max |x| per column, in the
        # column's own units: an sd exactly on it is flagged, one ulp above
        # it is not, column by column, in columns scaled by 2**-960, 1 and
        # 2**960, whose squares underflow and overflow in those units.
        on, above = two_cell_column(0), two_cell_column(1)
        scales = 2.0 ** np.array([-960, 0, 960])
        _column_moments(np.asarray(np.column_stack([above] * 3) * scales, order=order), True)
        for j in range(3):
            columns = [on if i == j else above for i in range(3)]
            x = np.asarray(np.column_stack(columns) * scales, order=order)
            with pytest.raises(errors.ZeroVarianceColumn) as exc:
                _column_moments(x, standardize=True)
            assert exc.value.col == j

    def test_sd_that_underflows_in_the_data_units_is_zero_variance(self):
        # scaled, the column's sd is a tenth of its max; in its own units it
        # is a tenth of the smallest subnormal, which rounds to 0
        x = np.column_stack([np.linspace(0.0, 1.0, 100), np.zeros(100)])
        x[-1, 1] = 5e-324
        with pytest.raises(errors.ZeroVarianceColumn) as exc:
            correlation_matrix(x)
        assert exc.value.col == 1


def two_cell_column(ulps):
    """Two cells a - d and a + d whose mean a, centered cells and variance
    2d^2 are exact, so their sd is sqrt(2) * d rounded once; a is chosen so
    that _ZERO_VAR_REL * (a + d), the threshold, is ``ulps`` ulps below it."""
    d = 500 * 2.0**-52
    sd = threshold = np.sqrt(2.0) * d
    for _ in range(ulps):
        threshold = np.nextafter(threshold, 0.0)
    start = round((sd / _ZERO_VAR_REL - d) / 2.0**-52)
    a = next(j * 2.0**-52 for j in range(start - 8, start + 8)
             if _ZERO_VAR_REL * (j * 2.0**-52 + d) == threshold)
    column = np.array([a - d, a + d])
    assert _column_moments(column[:, None], standardize=False)[1] == sd
    return column


class TestOverflow:
    """Sums that overflow raise a typed error, with no numpy warning.  A
    correlation sums each column over the power of two at its max |x|, so
    only a centered cell past the largest float makes it fail."""

    @staticmethod
    def table(cell):
        x = np.random.default_rng(9).standard_normal((50, 4))
        x[7, 2] = cell
        return x

    @pytest.mark.parametrize("cell", [1e200, 1.5e155, 1.7e308])
    def test_overflowing_sum_of_squares_raises(self, cell):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.OutOfRange, match="sums of squares overflow"):
                covariance_matrix(self.table(cell))

    @pytest.mark.parametrize("cell", [1e200, 1.5e155, 1.7e308])
    def test_correlation_of_a_large_cell_is_scale_free(self, cell):
        # the column over 2**600 keeps every cell a normal float
        x = self.table(cell)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = correlation_matrix(x)
            x[:, 2] *= 2.0**-600
            assert_array_equal(correlation_matrix(x), r)
        assert np.isfinite(r).all()

    def test_overflowing_centered_cell_raises(self):
        # the column's range, and so its sd times sqrt(n - 1), overflows
        x = self.table(1.7e308)
        x[8, 2] = -1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.OutOfRange, match="sums of squares overflow"):
                correlation_matrix(x)

    def test_overflowing_mean_raises(self):
        x = np.full((50, 2), 1e307)
        x[:, 1] = np.linspace(-1.0, 1.0, 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.OutOfRange, match="sums of squares overflow"):
                covariance_matrix(x)

    def test_large_finite_squares_pass(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = correlation_matrix(self.table(1e150))
        assert np.isfinite(r).all()


class TestCovariance:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(9, 4)) * 3 + 1
        assert_allclose(covariance_matrix(x), brute_force_covariance(x), atol=1e-12)

    def test_identical_columns(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert_allclose(covariance_matrix(x), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_constant_column_gives_zero_row(self):
        x = np.array([[1.0, 2.0], [1.0, 4.0], [1.0, 9.0]])
        c = covariance_matrix(x)
        assert_allclose(c[0, :], [0.0, 0.0], atol=1e-15)

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 6))
        c = covariance_matrix(x)
        assert_allclose(c, c.T, atol=0)
        assert np.linalg.eigvalsh(c).min() > -1e-9

    def test_too_few_rows(self):
        with pytest.raises(errors.TooFewRows):
            covariance_matrix([[1.0, 2.0]])


class TestCorrelation:
    def test_perfectly_anticorrelated(self):
        x = np.array([[1.0, -1.0], [2.0, -2.0], [3.0, -3.0]])
        r = correlation_matrix(x)
        assert_allclose(r, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)

    def test_equals_covariance_of_standardized(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(15, 4)) * [2, 5, 0.3, 1]
        r = correlation_matrix(x)
        z = (x - np.mean(x, axis=0)) / np.std(x, axis=0, ddof=1)
        assert_allclose(r, np.cov(z, rowvar=False), atol=1e-12)

    def test_unit_diagonal_and_bounds(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(30, 7))
        r = correlation_matrix(x)
        assert_allclose(np.diag(r), np.ones(7), atol=1e-12)
        assert np.all(r <= 1.0) and np.all(r >= -1.0)

    def test_moments_give_the_clipped_correlation(self):
        # the fixture's model input has two diagonal cells that round to
        # 1 + eps; PCA's moments and FA's correlation share one clip
        x = fixture_model_input()
        r = _column_moments(x, standardize=True)[2]
        assert_array_equal(r, correlation_matrix(x))
        assert np.abs(r).max() <= 1.0

    def test_zero_variance_column(self):
        with pytest.raises(errors.ZeroVarianceColumn) as exc:
            correlation_matrix([[1.0, 2.0], [1.0, 3.0]])
        assert exc.value.col == 0
        # equal up to representation error; must still be flagged
        with pytest.raises(errors.ZeroVarianceColumn) as exc:
            correlation_matrix([[1.0, 0.1], [2.0, 0.1], [4.0, 0.1]])
        assert exc.value.col == 1

    def test_rejects_nan(self):
        with pytest.raises(errors.OutOfRange):
            correlation_matrix([[1.0, 2.0], [np.nan, 3.0]])

    @pytest.mark.parametrize("x", [[1.0, 2.0], np.empty((0, 3)), np.ones((2, 2, 2))])
    def test_rejects_a_non_matrix(self, x):
        with pytest.raises(errors.ShapeMismatch):
            correlation_matrix(x)


class TestUnsignedCore:
    """``_eigh_descending`` is LAPACK's solve with eigenvalues descending and
    LAPACK's orientation."""

    def test_keeps_lapack_orientation(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(7, 7))
        s = (a + a.T) / 2
        lapack_values, lapack_vectors = np.linalg.eigh(s)
        values, vectors = _eigh_descending(s)
        np.testing.assert_array_equal(values, lapack_values[::-1])
        np.testing.assert_array_equal(vectors, lapack_vectors[:, ::-1])

    def test_ties_keep_lapack_order(self):
        values, vectors = _eigh_descending(np.diag([1.0, 3.0, 1.0]))
        assert_array_equal(values, [3.0, 1.0, 1.0])
        assert_array_equal(vectors, np.eye(3)[:, [1, 0, 2]])


def test_column_signs_turn_each_largest_entry_positive():
    # a tie in magnitude goes to the first row; a zero column keeps its sign
    v = np.array([[0.6, -0.5, 0.0], [-0.8, 0.5, 0.0]])
    assert_array_equal(_column_signs(v), [-1.0, -1.0, 1.0])


class TestLapackFailure:
    @staticmethod
    def _fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    def test_eigh_failure_raises_did_not_converge(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", self._fail)
        with pytest.raises(errors.DidNotConverge, match="eigh"):
            _eigh_descending(np.eye(3))
