import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import rows_layout
from test_fa import fixture_model_input
from riversep import errors, pca
from riversep.linalg import _eigh_descending, correlation_matrix, covariance_matrix
from riversep.pca import (
    PcaModel,
    explained_variance,
    fit_pca,
    kaiser_retain,
    scores,
)


def model_from_stdevs(stdevs, scaled=True):
    """Assemble a model by hand; loadings, mean and sd are irrelevant to
    spectrum rules."""
    p = len(stdevs)
    return PcaModel(
        loadings=np.eye(p),
        stdevs=np.asarray(stdevs, dtype=float),
        scaled=scaled,
        mean=np.zeros(p),
        sd=np.ones(p),
    )


class TestFitPca:
    def test_two_collinear_columns(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=40)
        x = np.column_stack([a, 2 * a + 1])
        m = fit_pca(x, scale=True)
        # scaled collinear pair: correlation [[1,1],[1,1]], eigenvalues 2, 0
        assert_allclose(m.stdevs, [np.sqrt(2), 0.0], atol=1e-8)

    def test_spectrum_matches_sampling_oracle(self):
        # near-identity covariance: all component deviations close to 1
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2000, 5))
        m = fit_pca(x, scale=True)
        assert np.all(np.abs(m.stdevs - 1.0) < 0.15)

    def test_total_variance_equals_variable_count_when_scaled(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(38, 11)) @ rng.normal(size=(11, 11))
        m = fit_pca(x, scale=True)
        assert abs(np.sum(m.stdevs**2) - 11.0) < 1e-8

    def test_loadings_orthonormal(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(25, 6))
        m = fit_pca(x)
        assert_allclose(m.loadings.T @ m.loadings, np.eye(6), atol=1e-10)

    def test_spectrum_invariant_under_rotation(self):
        # unscaled, centered fits: rotating the data rotates loadings but
        # leaves the spectrum alone
        rng = np.random.default_rng(4)
        x = rng.normal(size=(30, 5)) * [3, 2, 1, 0.5, 0.1]
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        m1 = fit_pca(x, scale=False)
        m2 = fit_pca(x @ q, scale=False)
        assert_allclose(m1.stdevs, m2.stdevs, atol=1e-8)

    def test_deterministic_reruns(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20, 4))
        m1, m2 = fit_pca(x), fit_pca(x)
        assert np.array_equal(m1.loadings, m2.loadings)
        assert np.array_equal(m1.stdevs, m2.stdevs)

    def test_too_few_rows(self):
        with pytest.raises(errors.TooFewRows):
            fit_pca(np.ones((2, 3)))

    def test_one_variable_rejected(self):
        with pytest.raises(errors.OutOfRange, match="^need at least two variables$"):
            fit_pca(np.arange(10.0).reshape(10, 1))

    def test_scale_is_keyword_only(self):
        # the first positional flag was once center: one must fail, not scale
        x = np.random.default_rng(10).normal(size=(10, 3))
        with pytest.raises(TypeError):
            fit_pca(x, False)

    def test_constant_column_with_scaling(self):
        x = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        with pytest.raises(errors.ZeroVarianceColumn):
            fit_pca(x, scale=True)

    def test_scaled_fit_decomposes_the_fa_correlation(self, monkeypatch):
        # unclipped, two of the fixture's correlation diagonal cells round
        # to 1 + eps; the fit solves FA's clipped matrix once, unchecked,
        # and orients its vectors by the _column_signs rule
        x = fixture_model_input()
        solves = []

        def counted(a):
            solves.append(a)
            return _eigh_descending(a)

        monkeypatch.setattr(pca, "_eigh_descending", counted)
        model = fit_pca(x)
        values, vectors = rows_layout.signed_eigh(correlation_matrix(x))
        assert len(solves) == 1
        assert_array_equal(model.loadings, vectors)
        assert_array_equal(model.stdevs, np.sqrt(np.clip(values, 0.0, None)))


class TestKaiserRetain:
    def test_published_spectrum_keeps_four(self):
        # the four leading deviations sit above 1, the rest below
        lead = [1.7091970, 1.4538088, 1.2109395, 1.0650152]
        rest_var = (11.0 - np.sum(np.square(lead))) / 7.0
        stdevs = lead + [np.sqrt(rest_var)] * 7
        m = model_from_stdevs(stdevs)
        assert all(s < 1 for s in stdevs[4:])
        assert kaiser_retain(m) == 4

    def test_strictly_greater_than_one(self):
        m = model_from_stdevs([1.5, 1.0, 0.5])
        assert kaiser_retain(m) == 1

    def test_all_unit(self):
        assert kaiser_retain(model_from_stdevs([1.0, 1.0])) == 0

    @pytest.mark.parametrize("p", [2, 3, 11, 40])
    def test_an_excess_within_p_eps_of_1_is_rounding(self, p):
        # a tie at 1 may round to the doubles just above it; an excess of
        # more than p * eps counts
        eps = np.finfo(float).eps
        rest = [1.0] * (p - 1)
        assert kaiser_retain(model_from_stdevs([np.nextafter(1.0, 2.0), *rest])) == 0
        assert kaiser_retain(model_from_stdevs([1.0 + p * eps, *rest])) == 0
        above = np.nextafter(1.0 + p * eps, 2.0)
        assert kaiser_retain(model_from_stdevs([above, *rest])) == 1

    def test_requires_scaled_fit(self):
        m = model_from_stdevs([2.0, 0.5], scaled=False)
        with pytest.raises(errors.RuleInapplicable):
            kaiser_retain(m)


class TestExplainedVariance:
    def test_full_rank_is_one(self):
        m = model_from_stdevs([2.0, 1.0, 0.5])
        assert explained_variance(m, 3) == pytest.approx(1.0)

    def test_degenerate_second_component(self):
        m = model_from_stdevs([np.sqrt(2), 0.0])
        assert explained_variance(m, 1) == pytest.approx(1.0)

    def test_published_spectrum_share(self):
        lead = [1.7091970, 1.4538088, 1.2109395, 1.0650152]
        rest_var = (11.0 - np.sum(np.square(lead))) / 7.0
        m = model_from_stdevs(lead + [np.sqrt(rest_var)] * 7)
        expected = np.sum(np.square(lead)) / 11.0  # independent arithmetic
        got = explained_variance(m, 4)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.694, abs=1e-3)

    def test_out_of_range(self):
        m = model_from_stdevs([1.0, 1.0])
        with pytest.raises(errors.OutOfRange):
            explained_variance(m, 0)
        with pytest.raises(errors.OutOfRange):
            explained_variance(m, 3)


class TestScores:
    def test_training_score_covariance_is_spectrum(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 5)) @ rng.normal(size=(5, 5))
        m = fit_pca(x, scale=True)
        s = scores(m, x)
        c = covariance_matrix(s)
        assert_allclose(np.diag(c), m.stdevs**2, atol=1e-8)
        assert np.abs(c - np.diag(np.diag(c))).max() < 1e-8

    def test_identity_loadings_pass_through(self):
        # exactly uncorrelated columns with descending variances: the
        # loadings are the identity, so scores equal the centered input
        base = np.array(
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 0.5], [0.0, -0.5]]
        ) * [4.0, 1.0]
        m = fit_pca(base, scale=False)
        assert_allclose(m.loadings, np.eye(2), atol=1e-12)
        assert_allclose(scores(m, base), base - base.mean(axis=0), atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(30, 4))
        m = fit_pca(x, scale=True)
        s = scores(m, x)
        pre = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
        assert_allclose(s @ m.loadings.T, pre, atol=1e-8)

    def test_new_data_is_standardized_with_the_training_statistics(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(30, 3)) * [1.0, 2.0, 5.0]
        shift = np.array([3.0, -1.0, 10.0])
        for scale in (True, False):
            m = fit_pca(x, scale=scale)
            moved = scores(m, x + shift)
            assert not np.allclose(moved, scores(m, x))
            spread = x.std(axis=0, ddof=1) if scale else 1.0
            assert_allclose(moved, scores(m, x) + (shift / spread) @ m.loadings)

    def test_column_count_checked(self):
        rng = np.random.default_rng(8)
        m = fit_pca(rng.normal(size=(10, 3)))
        with pytest.raises(errors.OutOfRange):
            scores(m, rng.normal(size=(5, 4)))


class TestRowsLayoutBitIdentity:
    """Column moments and scores run on variables x rows copies; every
    model field and score must carry the bits of the rows x variables
    computation."""

    @pytest.mark.parametrize("scale", [True, False])
    def test_fit_and_scores_match_the_rows_layout(self, scale):
        for x in rows_layout.tables():
            model = fit_pca(x, scale=scale)
            mean, sd, c = rows_layout.column_moments(x, standardize=scale)
            values, vectors = rows_layout.signed_eigh(c)
            assert_array_equal(model.mean, mean)
            assert_array_equal(model.sd, sd)
            assert_array_equal(model.loadings, vectors)
            assert_array_equal(model.stdevs, np.sqrt(np.clip(values, 0.0, None)))
            got = scores(model, x)
            assert got.flags.c_contiguous
            assert_array_equal(got, rows_layout.scores(model, x))

    def test_covariance_and_correlation_match_the_rows_layout(self):
        for x in rows_layout.tables():
            assert_array_equal(covariance_matrix(x), rows_layout.column_moments(x, False)[2])
            assert_array_equal(correlation_matrix(x), rows_layout.column_moments(x, True)[2])
