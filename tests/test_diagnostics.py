"""Tests for the screening diagnostics.

Each statistic has at least one input whose value is known by direct
arithmetic: the alternating series for the ACF, exact product-of-marginals
grids for mutual information, and the checkerboard ring for Moran's I.
"""

import warnings

import numpy as np
import pytest

from riversep.diagnostics import (
    AcfResult,
    SpatialWeights,
    acf,
    morans_i,
    mutual_information_discrete,
    mutual_information_matrix,
)
from riversep.errors import (
    ConstantField,
    ConstantSeries,
    DegenerateRange,
    LengthMismatch,
    OutOfRange,
    ShapeMismatch,
    TooShort,
)


def reference_mi_table(x, bins):
    """Pairwise mutual information as it was first computed: one
    ``np.histogram2d`` per pair i <= j, then the plug-in formula."""
    p = x.shape[1]
    mi = np.zeros((p, p))
    for i in range(p):
        for j in range(i, p):
            counts, _, _ = np.histogram2d(x[:, i], x[:, j], bins=bins)
            joint = counts / counts.sum()
            px = joint.sum(axis=1)
            py = joint.sum(axis=0)
            nonzero = joint > 0.0
            ratio = joint[nonzero] / np.outer(px, py)[nonzero]
            mi[i, j] = mi[j, i] = float(np.sum(joint[nonzero] * np.log2(ratio)))
    return mi


def per_lag_acf(x, max_lag):
    """ACF values of one series as they were first computed: the mean and
    each lag's cross-sum by ``np.sum`` over 1-D arrays, one lag at a time."""
    centered = x - x.mean()
    denom = float(np.sum(centered**2))
    values = [1.0]
    for h in range(1, max_lag + 1):
        values.append(float(np.sum(centered[:-h] * centered[h:])) / denom)
    return np.array(values)


def random_sizes(rng, count):
    """``count`` (rows, columns, bins) draws from 10-400, 2-12 and 2-12,
    led by the smallest and the largest."""
    draws = rng.integers((10, 2, 2), (401, 13, 13), size=(count - 2, 3))
    return [(10, 2, 2), (400, 12, 12), *(tuple(map(int, d)) for d in draws)]


def random_table(rng, n, p, bins):
    """A seeded n x p table for ``bins`` bins, with ties and with several
    cells on each column's last edge."""
    kind = rng.integers(3)
    if kind == 0:
        # rounded continuous data: ties, arbitrary scales and offsets
        x = rng.normal(size=(n, p)) * rng.uniform(0.01, 1e3, size=p)
        x = np.round(x + rng.normal(scale=1e3, size=p), int(rng.integers(0, 3)))
    elif kind == 1:
        # integers 0..bins: every interior edge is hit exactly
        x = rng.integers(0, bins + 1, size=(n, p)).astype(float)
    else:
        # a handful of distinct values
        x = rng.choice(rng.normal(size=4), size=(n, p))
    rows = rng.integers(0, n, size=(3, p))
    x[rows, np.arange(p)] = x.max(axis=0)
    x[0, x.min(axis=0) == x.max(axis=0)] -= 1.0
    return x


def ring_weights(n):
    """Nearest-neighbor adjacency on a ring of n sites."""
    w = np.zeros((n, n))
    for i in range(n):
        w[i, (i + 1) % n] = 1.0
        w[i, (i - 1) % n] = 1.0
    return SpatialWeights(w)


class TestAcf:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(0)
        r = acf(rng.normal(size=50), max_lag=10)
        assert r.values[0] == 1.0

    def test_alternating_series(self):
        # x = +1,-1,... of length 20: mean 0, lag-1 cross-sum is 19 terms
        # of -1 against a denominator of 20.
        x = np.array([1.0, -1.0] * 10)
        r = acf(x, max_lag=3)
        assert r.values[1] == pytest.approx(-0.95, abs=0.01)
        assert r.values[2] == pytest.approx(18.0 / 20.0)

    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=40)
        r = acf(x, max_lag=5)
        mean = x.mean()
        for h in range(6):
            expected = sum(
                (x[t] - mean) * (x[t + h] - mean) for t in range(40 - h)
            ) / sum((x[t] - mean) ** 2 for t in range(40))
            assert r.values[h] == pytest.approx(expected, abs=1e-12)

    def test_white_noise_stays_in_band(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=500)
        r = acf(x, max_lag=20)
        inside = np.abs(r.values[1:]) < r.conf_band
        assert inside.mean() >= 0.9
        assert r.conf_band == pytest.approx(1.96 / np.sqrt(500))

    def test_values_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.normal(size=rng.integers(10, 60))
            r = acf(x, max_lag=5)
            assert np.all(np.abs(r.values) <= 1.0 + 1e-12)

    def test_constant_series(self):
        with pytest.raises(ConstantSeries):
            acf(np.ones(30), max_lag=5)

    def test_too_short(self):
        with pytest.raises(TooShort):
            acf(np.arange(6.0), max_lag=5)

    @pytest.mark.parametrize("cells", [[1.5e155], [1.7e308, 1.7e308]])
    def test_overflowing_sum_of_squares_is_rejected_without_warnings(self, cells):
        # one cell squares past the largest float, or two overflow the mean
        x = np.random.default_rng(8).normal(size=30)
        x[3:3 + len(cells)] = cells
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match="sum of squares overflows"):
                acf(x, max_lag=5)

    def test_result_fields(self):
        r = acf(np.sin(np.arange(30.0)), max_lag=4)
        assert isinstance(r, AcfResult)
        np.testing.assert_array_equal(r.lags, np.arange(5))
        assert r.n == 30

    def test_table_rows_are_each_columns_acf_bit_for_bit(self):
        # and each column's ACF is the per-lag 1-D computation's, bit for bit
        rng = np.random.default_rng(20261019)
        for _ in range(60):
            n = int(rng.integers(2, 700))
            p = int(rng.integers(1, 14))
            max_lag = int(rng.integers(0, min(n - 1, 25)))
            x = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-3, 3, size=p)
            x += rng.normal(scale=100.0, size=p)
            r = acf(x, max_lag)
            assert r.values.shape == (p, max_lag + 1)
            assert r.n == n
            for j in range(p):
                one = acf(x[:, j], max_lag)
                np.testing.assert_array_equal(r.values[j], one.values)
                np.testing.assert_array_equal(one.values, per_lag_acf(x[:, j], max_lag))
                assert r.conf_band == one.conf_band

    @pytest.mark.parametrize(
        "kinds",
        [
            ("constant", "overflow"),
            ("overflow", "constant"),
            ("fine", "square_overflow", "constant"),
            ("non_finite", "constant"),
            ("constant", "non_finite"),
        ],
    )
    @pytest.mark.parametrize("max_lag", [5, 40])
    def test_table_raises_what_the_first_failing_column_raises(self, kinds, max_lag):
        x = np.random.default_rng(12).normal(size=(30, len(kinds)))
        for j, kind in enumerate(kinds):
            if kind == "constant":
                x[:, j] = 2.0
            elif kind == "overflow":
                x[3:5, j] = 1.7e308
            elif kind == "square_overflow":
                x[3, j] = 1.5e155
            elif kind == "non_finite":
                x[4, j] = np.nan

        def column_by_column():
            for j in range(x.shape[1]):
                acf(x[:, j], max_lag)

        with pytest.raises(Exception) as want:
            column_by_column()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Exception) as got:
                acf(x, max_lag)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_not_one_or_two_dimensional(self):
        with pytest.raises(ShapeMismatch):
            acf(np.zeros((10, 2, 2)), max_lag=3)


class TestMutualInformation:
    def test_exact_independence_is_zero(self):
        # Every (x bin, y bin) combination appears exactly once, so the
        # joint is the product of its marginals by construction.
        x = np.repeat(np.arange(4.0), 4)
        y = np.tile(np.arange(4.0), 4)
        assert mutual_information_discrete(x, y, bins=4) == pytest.approx(0.0, abs=1e-12)

    def test_identity_two_bins_one_bit(self):
        x = np.arange(16.0)
        assert mutual_information_discrete(x, x, bins=2) == pytest.approx(1.0, abs=1e-12)

    def test_identity_four_bins_two_bits(self):
        x = np.arange(16.0)
        assert mutual_information_discrete(x, x, bins=4) == pytest.approx(2.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=200)
        y = x + rng.normal(size=200)
        a = mutual_information_discrete(x, y)
        b = mutual_information_discrete(y, x)
        assert a == pytest.approx(b, abs=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(size=100)
            y = rng.normal(size=100)
            assert mutual_information_discrete(x, y) >= -1e-12

    def test_dependence_beats_independence(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=500)
        coupled = mutual_information_discrete(x, 2.0 * x + 0.01 * rng.normal(size=500))
        free = mutual_information_discrete(x, rng.normal(size=500))
        assert coupled > free + 0.5

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mutual_information_discrete(np.arange(12.0), np.arange(13.0))

    def test_too_short(self):
        with pytest.raises(TooShort):
            mutual_information_discrete(np.arange(9.0), np.arange(9.0))

    def test_degenerate_range(self):
        with pytest.raises(DegenerateRange):
            mutual_information_discrete(np.ones(20), np.arange(20.0))

    def test_bad_bins(self):
        with pytest.raises(OutOfRange):
            mutual_information_discrete(np.arange(20.0), np.arange(20.0), bins=1)

    def test_bins_past_the_cap(self):
        # past 1024 bins one pair's joint histogram outgrows the 2**20-cell
        # bincount budget
        with pytest.raises(OutOfRange, match=r"2\.\.1024, got 1025"):
            mutual_information_discrete(np.arange(20.0), np.arange(20.0), bins=1025)


class TestMutualInformationMatrix:
    def test_matches_one_histogram2d_per_pair_bit_for_bit(self):
        rng = np.random.default_rng(20261018)
        for n, p, bins in random_sizes(rng, 200):
            x = random_table(rng, n, p, bins)
            got = mutual_information_matrix(x, bins)
            want = reference_mi_table(x, bins)
            upper = np.triu_indices(p)
            np.testing.assert_array_equal(got[upper], want[upper])
            np.testing.assert_array_equal(got, got.T)

    def test_diagonal_is_the_binned_entropy(self):
        rng = np.random.default_rng(31)
        for n, p, bins in random_sizes(rng, 50):
            x = random_table(rng, n, p, bins)
            diagonal = np.diag(mutual_information_matrix(x, bins))
            for j in range(p):
                counts, _ = np.histogram(x[:, j], bins=bins)
                q = counts[counts > 0] / n
                assert diagonal[j] == pytest.approx(-np.sum(q * np.log2(q)), abs=1e-12)

    def test_pair_entry_is_mutual_information_discrete(self):
        rng = np.random.default_rng(9)
        x = np.round(rng.normal(size=(60, 3)), 1)
        mi = mutual_information_matrix(x, bins=5)
        assert mi[0, 2] == mutual_information_discrete(x[:, 0], x[:, 2], bins=5)

    def test_overflowing_range_names_the_column(self):
        # both cells are finite, but max - min is not: the edges would be
        x = np.random.default_rng(10).normal(size=(20, 3))
        x[0, 1], x[1, 1] = 1.7e308, -1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match="column 1 spans"):
                mutual_information_matrix(x)
            with pytest.raises(OutOfRange, match="too wide to bin"):
                mutual_information_discrete(x[:, 0], x[:, 1])

    def test_large_bins_count_the_pairs_in_chunks(self):
        # 300 bins: a bincount takes 11 pairs of 300**2 cells, so the 21
        # pairs of 6 columns take two
        rng = np.random.default_rng(44)
        x = random_table(rng, 400, 6, 300)
        got = mutual_information_matrix(x, 300)
        upper = np.triu_indices(6)
        np.testing.assert_array_equal(got[upper], reference_mi_table(x, 300)[upper])
        np.testing.assert_array_equal(got, got.T)

    def test_underflowing_step_leaves_other_columns_bins_alone(self):
        # column 1's range is two subnormals wide, so its step (range / bins)
        # underflows to zero; np.linspace then divides before multiplying,
        # and column 0's edges must not follow it there
        bins = 6
        edges_0 = np.linspace(0.0, 1.0, bins + 1)
        col_0 = np.concatenate([edges_0, np.arange(bins + 1) / bins, np.linspace(0, 1, 9)])
        col_1 = np.resize([0.0, 1e-323, 5e-324], col_0.shape[0])
        x = np.column_stack([col_0, col_1, col_0[::-1]])
        got = mutual_information_matrix(x, bins)
        upper = np.triu_indices(3)
        np.testing.assert_array_equal(got[upper], reference_mi_table(x, bins)[upper])

    def test_not_two_dimensional(self):
        with pytest.raises(ShapeMismatch):
            mutual_information_matrix(np.arange(20.0))

    def test_too_short(self):
        with pytest.raises(TooShort):
            mutual_information_matrix(np.arange(18.0).reshape(9, 2))

    def test_bad_bins(self):
        with pytest.raises(OutOfRange, match="bins"):
            mutual_information_matrix(np.arange(40.0).reshape(20, 2), bins=1)

    def test_non_finite(self):
        x = np.arange(40.0).reshape(20, 2)
        x[4, 1] = np.nan
        with pytest.raises(OutOfRange, match="finite"):
            mutual_information_matrix(x)

    def test_degenerate_column(self):
        x = np.column_stack([np.arange(20.0), np.ones(20), np.arange(20.0)])
        with pytest.raises(DegenerateRange):
            mutual_information_matrix(x)


class TestSpatialWeights:
    def test_diagonal_must_be_zero(self):
        with pytest.raises(OutOfRange):
            SpatialWeights(np.eye(3))

    def test_negative_rejected(self):
        w = np.zeros((3, 3))
        w[0, 1] = -1.0
        with pytest.raises(OutOfRange):
            SpatialWeights(w)

    def test_all_zero_rejected(self):
        with pytest.raises(OutOfRange):
            SpatialWeights(np.zeros((3, 3)))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatch):
            SpatialWeights(np.ones((2, 3)))


class TestMoransI:
    def test_checkerboard_ring_is_minus_one(self):
        # Every weighted pair is a (+1, -1) neighbor product: perfect
        # negative spatial correlation.
        w = ring_weights(10)
        x = np.array([1.0, -1.0] * 5)
        assert morans_i(x, w) == pytest.approx(-1.0, abs=1e-12)

    def test_smooth_ring_is_positive(self):
        w = ring_weights(12)
        x = np.sin(np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False))
        assert morans_i(x, w) > 0.5

    def test_permutation_mean(self):
        # Under random labeling E[I] = -1/(n-1); a seeded permutation
        # average must sit within three standard errors of it.
        rng = np.random.default_rng(9)
        n = 16
        w = SpatialWeights(
            np.triu(rng.uniform(0.0, 1.0, size=(n, n)), 1)
            + np.triu(rng.uniform(0.0, 1.0, size=(n, n)), 1).T
        )
        x = rng.normal(size=n)
        draws = np.array([morans_i(rng.permutation(x), w) for _ in range(1000)])
        se = draws.std(ddof=1) / np.sqrt(draws.shape[0])
        assert abs(draws.mean() - (-1.0 / (n - 1))) < 3.0 * se

    def test_affine_invariance(self):
        rng = np.random.default_rng(12)
        w = ring_weights(9)
        x = rng.normal(size=9)
        base = morans_i(x, w)
        assert morans_i(-3.5 * x + 11.0, w) == pytest.approx(base, abs=1e-10)

    def test_constant_field(self):
        with pytest.raises(ConstantField):
            morans_i(np.full(6, 2.0), ring_weights(6))

    def test_length_vs_sites(self):
        with pytest.raises(ShapeMismatch):
            morans_i(np.arange(5.0), ring_weights(6))
