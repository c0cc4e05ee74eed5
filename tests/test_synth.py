import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import rows_layout
from riversep import errors, synth
from riversep.ica import IcaConfig, fast_ica
from riversep.pca import fit_pca, scores
from riversep.synth import (
    _centered_columns,
    _greedy_match,
    evaluate_recovery,
    generate_scenario,
)


def draw_source_oracle(seed, distribution, rows):
    """``synth._draw_source`` standardized by numpy's mean and sample sd."""
    rng = np.random.default_rng(seed)
    if distribution == "uniform":
        s = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=rows)
    elif distribution == "laplace":
        u = rng.uniform(0.0, 1.0, size=rows) - 0.5
        b = 1.0 / np.sqrt(2.0)
        s = -b * np.sign(u) * np.log1p(-2.0 * np.abs(u))
    else:
        s = rng.standard_normal(rows)
    return (s - s.mean()) / s.std(ddof=1)


class TestGenerateScenario:
    @pytest.mark.parametrize("distribution", ["uniform", "laplace", "gaussian"])
    def test_standardization_matches_numpy_mean_and_std(self, distribution):
        for rows in [3, 4, 7, 8, 9, 16, 17, 100, 129, 1000, 4999, 5000, 8000]:
            for seed in range(3):
                got = synth._draw_source(np.random.default_rng(seed), distribution, rows)
                assert_array_equal(got, draw_source_oracle(seed, distribution, rows))

    def test_noise_free_blend_is_exact(self):
        sc = generate_scenario(["uniform", "laplace"], rows=500, seed=1)
        assert_allclose(sc.observed, sc.sources @ sc.mixing.T, atol=0)

    def test_sources_standardized(self):
        sc = generate_scenario(["uniform", "laplace", "gaussian"], rows=200, seed=2)
        assert_allclose(sc.sources.mean(axis=0), np.zeros(3), atol=1e-12)
        assert_allclose(sc.sources.std(axis=0, ddof=1), np.ones(3), atol=1e-12)

    def test_bit_identical_reruns(self):
        a = generate_scenario(["uniform", "gaussian"], rows=300, noise_sd=0.2, seed=3)
        b = generate_scenario(["uniform", "gaussian"], rows=300, noise_sd=0.2, seed=3)
        assert np.array_equal(a.sources, b.sources)
        assert np.array_equal(a.mixing, b.mixing)
        assert np.array_equal(a.observed, b.observed)

    @pytest.mark.parametrize("noise_sd,streams", [(0.0, [0, 2, 3]), (0.2, [0, 2, 3, 1])])
    def test_noise_stream_is_built_only_when_noise_is_drawn(
        self, monkeypatch, noise_sd, streams
    ):
        # child streams: 0 the mixing, 1 the noise, 2 + i source i
        built = []
        default_rng = np.random.default_rng

        def logged(seed):
            built.append(seed.spawn_key[-1])
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", logged)
        generate_scenario(["uniform", "laplace"], rows=100, noise_sd=noise_sd, seed=5)
        assert built == streams

    def test_adding_a_source_keeps_existing_columns(self):
        two = generate_scenario(["uniform", "laplace"], rows=400, seed=4)
        three = generate_scenario(["uniform", "laplace", "gaussian"], rows=400, seed=4)
        assert np.array_equal(two.sources, three.sources[:, :2])

    def test_sources_nearly_uncorrelated_at_scale(self):
        sc = generate_scenario(["gaussian", "uniform"], rows=5000, seed=5)
        c = np.corrcoef(sc.sources.T)
        assert abs(c[0, 1]) < 0.05

    def test_condition_bound_respected(self):
        sc = generate_scenario(["uniform", "uniform", "uniform"], rows=100,
                               mixing_condition_max=10.0, seed=6)
        assert np.linalg.cond(sc.mixing) <= 10.0

    def test_unsatisfiable_condition_bound(self):
        with pytest.raises(errors.ConditioningFailed) as exc:
            generate_scenario(["uniform", "uniform"], rows=50,
                              mixing_condition_max=1.0000001, seed=7)
        assert exc.value.attempts == 50
        assert exc.value.best > 1.0

    def test_more_channels_than_sources(self):
        sc = generate_scenario(["uniform", "laplace"], rows=100, n_observed=5, seed=8)
        assert sc.observed.shape == (100, 5)
        assert sc.mixing.shape == (5, 2)

    def test_fewer_channels_rejected(self):
        with pytest.raises(errors.ShapeMismatch):
            generate_scenario(["uniform", "uniform"], rows=100, n_observed=1)

    def test_unknown_distribution(self):
        with pytest.raises(errors.OutOfRange):
            generate_scenario(["cauchy"], rows=100)

    def test_laplace_has_heavy_tails(self):
        sc = generate_scenario(["laplace"], rows=20000, seed=9)
        s = sc.sources[:, 0]
        kurtosis = np.mean(s**4) / np.mean(s**2) ** 2 - 3.0
        assert 2.0 < kurtosis < 4.5  # population excess kurtosis is 3


class TestEvaluateRecovery:
    def test_ica_on_clean_uniform_mixture(self):
        sc = generate_scenario(["uniform", "uniform"], rows=5000,
                               mixing_condition_max=10.0, seed=10)
        model = fast_ica(sc.observed, IcaConfig(n_components=2, seed=10))
        report = evaluate_recovery(sc, model)
        assert report.method == "ica"
        assert report.amari < 0.05
        assert all(c > 0.95 for c in report.matched_correlations)

    def test_pca_on_oblique_mixing_fails_to_unmix(self):
        # non-orthogonal mixing: orthogonal loadings cannot undo it
        sc = generate_scenario(["uniform", "uniform"], rows=5000,
                               mixing_condition_max=10.0, seed=42)
        assert np.linalg.cond(sc.mixing) > 1.5
        model = fit_pca(sc.observed, scale=False)
        report = evaluate_recovery(sc, model)
        assert report.method == "pca"
        assert report.amari > 0.1

    def test_gaussian_sources_not_identifiable(self):
        # Rotational symmetry makes the recovered axes arbitrary, so
        # match quality swings wildly from seed to seed.  The sample must
        # stay modest: with two sources and exclusive matching the worst
        # large-sample alignment is cos(45 deg) ~ 0.707, which caps the
        # asymptotic spread below 0.3 — the swing shows at survey-sized n.
        quality = []
        for seed in range(12):
            sc = generate_scenario(["gaussian", "gaussian"], rows=100, seed=seed)
            model = fast_ica(sc.observed, IcaConfig(n_components=2, seed=seed))
            report = evaluate_recovery(sc, model)
            quality.extend(report.matched_correlations)
        assert max(quality) - min(quality) > 0.3

    def test_noise_degrades_recovery_monotonically(self):
        means = []
        for noise in (0.0, 0.1, 0.5):
            vals = []
            for seed in range(10):
                sc = generate_scenario(["uniform", "uniform"], rows=3000,
                                       noise_sd=noise,
                                       mixing_condition_max=10.0, seed=100 + seed)
                model = fast_ica(sc.observed, IcaConfig(n_components=2, seed=seed))
                vals.append(evaluate_recovery(sc, model).amari)
            means.append(np.mean(vals))
        assert means[0] <= means[1] <= means[2]

    def test_matching_agrees_with_corrcoef(self):
        sc = generate_scenario(["uniform", "laplace", "uniform"], rows=3000, seed=14)
        noise = np.random.default_rng(14).normal(size=(3000, 3))
        # recovered column j carries source order[j], scaled, shifted and noisy
        order = [2, 0, 1]
        recovered = sc.sources[:, order] * [2.0, -0.5, 3.0] + [1.0, -4.0, 0.0] + 0.5 * noise
        full = np.corrcoef(sc.sources, recovered, rowvar=False)
        expected = [abs(full[i, 3 + order.index(i)]) for i in range(3)]
        got = _greedy_match(_centered_columns(sc.sources), recovered)
        assert_allclose(got, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("constant", [0.0, 0.1, -3.7e5])
    def test_zero_variance_recovered_column_reads_zero(self, constant):
        sc = generate_scenario(["uniform", "uniform"], rows=5000, seed=12)
        recovered = np.column_stack([2.0 * sc.sources[:, 1] + 1.0, np.full(5000, constant)])
        assert _greedy_match(_centered_columns(sc.sources), recovered) == (0.0, pytest.approx(1.0))

    def test_sources_are_centered_once_per_scenario(self, monkeypatch):
        sc = generate_scenario(["uniform", "laplace"], rows=500, seed=15)
        centered = []
        original = synth._centered_columns

        def counted(x):
            centered.append(x is sc.sources)
            return original(x)

        monkeypatch.setattr(synth, "_centered_columns", counted)
        ica_model = fast_ica(sc.observed, IcaConfig(n_components=2, seed=15))
        first = evaluate_recovery(sc, ica_model)
        evaluate_recovery(sc, fit_pca(sc.observed, scale=False))
        assert evaluate_recovery(sc, ica_model) == first
        assert centered.count(True) == 1
        assert len(centered) == 4

    def test_wrong_model_type(self):
        sc = generate_scenario(["uniform"], rows=100, seed=11)
        with pytest.raises(errors.ShapeMismatch):
            evaluate_recovery(sc, object())


class TestRowsLayoutBitIdentity:
    """The scenario's mixing product and the arrays that recovery is scored
    on must carry the bits of the rows x columns computation, so that every
    written correlation stays the same."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dists", rows_layout.SCENARIOS, ids="+".join)
    def test_scenario_and_recovery_match_the_rows_layout(self, dists, seed):
        k = len(dists)
        sc = generate_scenario(dists, rows=5000, seed=seed)
        # the models' column means sum in a layout-bound order
        assert sc.observed.flags.c_contiguous
        assert_array_equal(sc.observed, rows_layout.mixing_product(sc.sources, sc.mixing))
        cfg = IcaConfig(n_components=k, seed=seed)
        ica_model = fast_ica(sc.observed, cfg)
        pca_model = fit_pca(sc.observed, scale=False)
        recovered = {
            "ica": (ica_model.sources, rows_layout.fast_ica(sc.observed, cfg).sources),
            "pca": (scores(pca_model, sc.observed)[:, :k],
                    rows_layout.scores(pca_model, sc.observed)[:, :k]),
        }
        for x, oracle in [(sc.sources, sc.sources), *recovered.values()]:
            xc, inv = _centered_columns(x)
            xc_oracle, inv_oracle = rows_layout.centered_columns(oracle)
            assert_array_equal(xc, xc_oracle)
            assert_array_equal(inv, inv_oracle)
        for model in (ica_model, pca_model):
            report = evaluate_recovery(sc, model)
            oracle = recovered[report.method][1]
            truth = _centered_columns(sc.sources)
            assert report.matched_correlations == _greedy_match(truth, oracle)
