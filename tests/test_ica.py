import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import rows_layout
from riversep import errors, ica
from riversep.ica import IcaConfig, IcaModel, _sym_decorrelate, amari_index
from riversep.linalg import _column_signs, correlation_matrix, covariance_matrix
from riversep.pca import fit_pca
from riversep.synth import generate_scenario


def paper_defaults(k, seed=0):
    return IcaConfig(n_components=k, max_iter=200, tol=1e-4, seed=seed)


def fast_ica(x, cfg, scale=False):
    """FastICA of ``x`` whitened from its PCA: the covariance PCA that
    synth-bench fits, or with ``scale`` the correlation PCA of a run."""
    return ica.fast_ica(x, fit_pca(x, scale=scale), cfg)


def whitened(x, k, scale=False):
    """The unmixing of one FastICA step, which rotates the whitening it
    takes from the PCA, and ``x`` centered."""
    model = fast_ica(x, IcaConfig(n_components=k, max_iter=1), scale)
    return model.unmixing, x - x.mean(axis=0)


class TestWhiten:
    @pytest.mark.parametrize("scale", [False, True])
    def test_identity_covariance(self, scale):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(500, 4)) @ rng.normal(size=(4, 4))
        k, xc = whitened(x, 4, scale)
        assert_allclose(covariance_matrix(xc @ k.T), np.eye(4), atol=1e-8)

    @pytest.mark.parametrize("scale", [False, True])
    def test_rank_deficient(self, scale):
        rng = np.random.default_rng(2)
        a = rng.normal(size=100)
        x = np.column_stack([a, 2 * a, 3 * a])
        with pytest.raises(errors.RankDeficient) as exc:
            whitened(x, 2, scale)
        assert exc.value.effective_rank == 1

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_rank_is_matrix_ranks_count_on_the_pca_eigenvalues(self, rank):
        # eigenvalues above p * eps times the largest count, as
        # np.linalg.matrix_rank counts them for a symmetric matrix
        rng = np.random.default_rng(rank)
        x = rng.normal(size=(200, rank)) @ rng.normal(size=(rank, 6))
        pca = fit_pca(x, scale=False)
        assert np.linalg.matrix_rank(covariance_matrix(x), hermitian=True) == rank
        ica.fast_ica(x, pca, IcaConfig(n_components=rank, max_iter=1))
        with pytest.raises(errors.RankDeficient) as exc:
            ica.fast_ica(x, pca, IcaConfig(n_components=rank + 1, max_iter=1))
        assert exc.value.effective_rank == rank

    def test_reduced_components(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 6))
        k, xc = whitened(x, 2)
        assert k.shape == (2, 6)
        assert_allclose(covariance_matrix(xc @ k.T), np.eye(2), atol=1e-8)

    @pytest.mark.parametrize("scale", [False, True])
    @pytest.mark.parametrize("shape", [(40, 4), (30, 9)], ids=str)
    def test_unmixing_rotates_the_scaled_covariance_eigenvectors(self, shape, scale):
        # the whitening rows: descending variance, each row oriented by the
        # _column_signs rule, and divided by the column sds for a
        # correlation PCA
        rng = np.random.default_rng(7)
        p = shape[1]
        spread = np.diag([8.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.2, 0.1, 0.05][:p])
        x = rng.normal(size=shape) @ spread @ np.linalg.qr(rng.normal(size=(p, p)))[0]
        moments = correlation_matrix(x) if scale else covariance_matrix(x)
        values, vectors = rows_layout.signed_eigh(moments)
        assert np.all(np.diff(values[:3]) < -0.1)
        expected = (vectors[:, :3] / np.sqrt(values[:3])).T
        # the inverse of the whitening on its row space
        inverse = vectors[:, :3] * np.sqrt(values[:3])
        if scale:
            expected /= x.std(axis=0, ddof=1)
            inverse *= x.std(axis=0, ddof=1)[:, None]
        unmixing = whitened(x, 3, scale)[0]
        rotation = unmixing @ inverse
        assert_allclose(rotation @ rotation.T, np.eye(3), rtol=0, atol=1e-12)
        assert_allclose(rotation.T @ unmixing, expected, rtol=1e-8)

    def test_lapack_failure_is_did_not_converge(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        x = np.random.default_rng(8).normal(size=(40, 3))
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(errors.DidNotConverge, match="eigh"):
            whitened(x, 1)

    @pytest.mark.parametrize("shape", [(40, 2), (3, 2)], ids=str)
    def test_overflowing_centering_is_out_of_range(self, shape):
        # finite cells whose difference from the column mean overflows
        x = np.random.default_rng(9).normal(size=shape)
        x[:, 0] = -1.0e308
        x[0, 0] = 1.7e308
        with pytest.raises(errors.OutOfRange, match="^column sums of squares overflow$"):
            whitened(x, 1)


class TestFastIca:
    def test_recovers_uniform_sources(self):
        sc = generate_scenario(["uniform", "uniform"], rows=5000,
                               mixing_condition_max=10.0, seed=11)
        model = fast_ica(sc.observed, paper_defaults(2, seed=11))
        assert model.converged
        assert amari_index(model.unmixing, sc.mixing) < 0.05

    def test_identity_mixing_recovered_as_signed_permutation(self):
        sc = generate_scenario(["laplace", "laplace"], rows=8000, seed=5)
        model = fast_ica(sc.sources, paper_defaults(2, seed=5))
        # each row should pick out one source: one entry near +-1, rest near 0
        mags = np.sort(np.abs(model.unmixing), axis=1)
        assert np.all(mags[:, -1] > 0.93)
        assert np.all(mags[:, :-1] < 0.07)

    def test_source_columns_unit_variance(self):
        sc = generate_scenario(["uniform", "laplace", "uniform"], rows=4000, seed=7)
        model = fast_ica(sc.observed, paper_defaults(3, seed=7))
        assert model.converged
        sd = model.sources.std(axis=0, ddof=1)
        assert_allclose(sd, np.ones(3), atol=1e-6)

    @pytest.mark.parametrize("scale", [False, True])
    def test_unmixing_maps_the_centered_input_to_the_sources(self, scale):
        sc = generate_scenario(["uniform", "uniform"], rows=2000, seed=9)
        pca = fit_pca(sc.observed, scale=scale)
        model = ica.fast_ica(sc.observed, pca, paper_defaults(2, seed=9))
        assert model.unmixing.shape == (2, 2)
        assert_allclose(model.sources, (sc.observed - pca.mean) @ model.unmixing.T,
                        rtol=0, atol=1e-12)

    def test_mixing_reconstructs_observed(self):
        sc = generate_scenario(["uniform", "laplace"], rows=3000, seed=13)
        model = fast_ica(sc.observed, paper_defaults(2, seed=13))
        xc = sc.observed - sc.observed.mean(axis=0)
        assert_allclose(model.sources @ model.mixing.T, xc, atol=1e-6)

    def test_bit_identical_given_seed(self):
        sc = generate_scenario(["uniform", "uniform"], rows=1500, seed=21)
        a = fast_ica(sc.observed, paper_defaults(2, seed=3))
        b = fast_ica(sc.observed, paper_defaults(2, seed=3))
        assert np.array_equal(a.sources, b.sources)
        assert np.array_equal(a.unmixing, b.unmixing)
        assert np.array_equal(a.mixing, b.mixing)
        assert a.delta_history == b.delta_history
        assert a.iterations == b.iterations

    def test_seed_sensitivity_bounded(self):
        sc = generate_scenario(["uniform", "uniform", "uniform"], rows=5000,
                               mixing_condition_max=10.0, seed=33)
        indices = []
        for seed in range(10):
            model = fast_ica(sc.observed, paper_defaults(3, seed=seed))
            if model.converged:
                indices.append(amari_index(model.unmixing, sc.mixing))
        assert len(indices) >= 8
        assert max(indices) - min(indices) < 0.02

    def test_non_convergence_is_flagged_not_raised(self):
        sc = generate_scenario(["gaussian", "gaussian"], rows=800, seed=2)
        model = fast_ica(sc.observed, IcaConfig(n_components=2, max_iter=3,
                                                tol=1e-12, seed=2))
        assert isinstance(model, IcaModel)
        assert not model.converged
        assert model.iterations == 3
        assert len(model.delta_history) == 3

    def test_delta_history_tracks_iterations(self):
        sc = generate_scenario(["uniform", "uniform"], rows=2000, seed=15)
        model = fast_ica(sc.observed, paper_defaults(2, seed=15))
        assert len(model.delta_history) == model.iterations
        assert model.delta_history[-1] < 1e-4

    def test_update_matches_the_row_major_formula(self):
        # The fit iterates in components x rows layout; this is the same
        # fixed point written rows x components, as the update was first
        # implemented, replayed for the fit's own number of iterations.  The
        # fit then orders and orients its rows, so the two agree up to a
        # signed permutation.
        sc = generate_scenario(["uniform", "laplace", "uniform"], rows=4000, seed=23)
        cfg = paper_defaults(3, seed=23)
        model = fast_ica(sc.observed, cfg)
        z, _, inverse, _ = rows_layout.whiten(sc.observed, 3, False)
        n = z.shape[0]
        w = _sym_decorrelate(np.random.default_rng(cfg.seed).standard_normal((3, 3)))
        for _ in range(model.iterations):
            gu = np.tanh(z @ w.T)
            gprime = 1.0 - gu**2
            w = _sym_decorrelate((gu.T @ z) / n - np.diag(gprime.mean(axis=0)) @ w)
        assert model.iterations > 2
        # the fit's rotation, its unmixing with the whitening taken off
        rotation = model.unmixing @ inverse
        signed_permutation = np.round(rotation @ w.T)
        assert_array_equal(np.sort(np.abs(signed_permutation), axis=0), [[0] * 3] * 2 + [[1] * 3])
        assert_allclose(rotation, signed_permutation @ w, rtol=0, atol=1e-12)

    def test_slow_first_step_near_a_saddle_is_not_a_fixed_point(self):
        # This start sits near a saddle of the contrast: its first step moves
        # less than tol (8.8e-5), and the steps after it grow before the fit
        # settles on a separating solution.
        sc = generate_scenario(["laplace", "laplace"], rows=5000, seed=1005)
        model = fast_ica(sc.observed, paper_defaults(2, seed=1005))
        assert model.delta_history[0] < 1e-4 < model.delta_history[1]
        assert model.converged
        assert model.iterations > 2
        assert amari_index(model.unmixing, sc.mixing) < 0.05

    @pytest.mark.xfail(
        strict=True,
        reason="FastICA stops while passing a saddle when a slow step follows shrinking "
        "ones; ROADMAP item 8's stop rule",
    )
    def test_a_slow_step_after_shrinking_ones_is_not_a_fixed_point(self):
        # Its deltas are 0.072, 0.019 and 9.5e-5, so the fit stops at
        # iteration 3 with Amari 0.330; at tol=1e-6 the steps grow again
        # (to 0.083) and it settles at Amari 0.0074 after 8 iterations.
        sc = generate_scenario(("uniform",) * 3, rows=5000, seed=12)
        model = fast_ica(sc.observed, IcaConfig(3, seed=12))
        assert amari_index(model.unmixing, sc.mixing) < 0.05

    def test_one_iteration_never_converges(self):
        sc = generate_scenario(["uniform", "uniform"], rows=500, seed=4)
        model = fast_ica(sc.observed, IcaConfig(n_components=2, max_iter=1, tol=1.0))
        assert not model.converged
        assert model.iterations == 1

    def test_decorrelation_of_near_singular_matrix_is_orthonormal(self):
        # (w w^T)^(-1/2) w through an eigensolve loses orthonormality here;
        # the polar factor does not.
        w = _sym_decorrelate(np.array([[1.0, 0.0], [1.0, 1e-9]]))
        assert_allclose(w @ w.T, np.eye(2), atol=1e-12)

    def test_lost_orthonormality_is_a_package_error(self, monkeypatch):
        # Raised, not asserted, so that it survives ``python -O``.
        monkeypatch.setattr(ica, "_sym_decorrelate", lambda w: 2.0 * w)
        sc = generate_scenario(["uniform", "uniform"], rows=500, seed=3)
        with pytest.raises(errors.RiversepError, match="orthonormality"):
            fast_ica(sc.observed, paper_defaults(2))

    def test_too_few_rows_for_components(self):
        rng = np.random.default_rng(4)
        with pytest.raises(errors.TooFewRows):
            fast_ica(rng.normal(size=(25, 3)), IcaConfig(n_components=3))

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"n_components": 0}, "n_components must be at least 1"),
            ({"max_iter": 0}, "max_iter must be at least 1"),
            ({"tol": 0.0}, "tol must be positive"),
            ({"tol": float("nan")}, "tol must be positive"),
            ({"seed": -1}, "seed must be non-negative"),
        ],
    )
    def test_config_validation(self, settings, message):
        with pytest.raises(errors.OutOfRange, match=f"^{message}$"):
            IcaConfig(**{"n_components": 2, **settings})

    def test_a_count_left_to_the_caller_constructs_and_fast_ica_refuses_it(self):
        # None means the caller decides the count from the data
        cfg = IcaConfig(n_components=None, seed=3)
        assert cfg.n_components is None
        x = np.random.default_rng(0).standard_normal((100, 3))
        with pytest.raises(errors.OutOfRange, match="^n_components must be a count, not None$"):
            fast_ica(x, cfg)

    def test_config_has_no_contrast_setting(self):
        # the contrast is always logcosh with alpha = 1
        assert list(IcaConfig.__dataclass_fields__) == ["n_components", "max_iter", "tol", "seed"]
        with pytest.raises(TypeError, match="contrast"):
            IcaConfig(n_components=2, contrast="cube")

    def test_model_holds_what_the_fit_found(self):
        # the settings are the caller's, and the count is unmixing.shape[0]
        assert list(IcaModel.__dataclass_fields__) == [
            "sources",
            "unmixing",
            "mixing",
            "converged",
            "iterations",
            "delta_history",
        ]


def assert_models_identical(model, oracle):
    for field in ("sources", "mixing", "unmixing"):
        assert_array_equal(getattr(model, field), getattr(oracle, field), err_msg=field)
    assert model.converged == oracle.converged
    assert model.iterations == oracle.iterations
    assert model.delta_history == oracle.delta_history


class TestRowsLayoutBitIdentity:
    """Whitening and FastICA run on components x rows arrays; every model
    field must carry the bits of the rows x components computation."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dists", rows_layout.SCENARIOS, ids="+".join)
    def test_scenario_fit_matches_the_rows_layout(self, dists, seed):
        x = generate_scenario(dists, rows=5000, seed=seed).observed
        cfg = paper_defaults(len(dists), seed=seed)
        assert_models_identical(fast_ica(x, cfg), rows_layout.fast_ica(x, cfg, False))

    @pytest.mark.parametrize("scale", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_fifty_by_eleven_fit_matches_the_rows_layout(self, seed, scale):
        x = rows_layout.fifty_by_eleven(seed)
        cfg = paper_defaults(3, seed=seed)
        assert_models_identical(fast_ica(x, cfg, scale), rows_layout.fast_ica(x, cfg, scale))

    def test_sources_stay_c_ordered(self):
        # the recovery scores sum the sources' columns in a layout-bound order
        x = generate_scenario(rows_layout.SCENARIOS[0], rows=500, seed=5).observed
        assert fast_ica(x, paper_defaults(2, seed=5)).sources.flags.c_contiguous

    def test_logcosh_contrast_consumes_its_argument(self):
        u = np.random.default_rng(6).standard_normal((3, 5000))
        expected = rows_layout.contrast(u.copy())
        gu, gprime = ica._contrast(u)
        assert gu is u
        assert_array_equal(gu, expected[0])
        assert_array_equal(gprime, expected[1])


class TestMixingOrderAndScale:
    @pytest.mark.parametrize("scale", [False, True])
    def test_mixing_is_the_least_squares_reconstruction(self, scale):
        # the regression of the centered input on the unit-variance sources
        x = rows_layout.fifty_by_eleven(3)
        model = fast_ica(x, paper_defaults(3, seed=3), scale)
        xc = x - x.mean(axis=0)
        expected = xc.T @ model.sources / (x.shape[0] - 1)
        assert_allclose(model.mixing, expected, rtol=0, atol=1e-10 * np.abs(expected).max())

    def test_a_covariance_pcas_mixing_is_the_pinv_of_the_unmixing(self):
        x = generate_scenario(rows_layout.SCENARIOS[1], rows=500, seed=7).observed
        model = fast_ica(x, paper_defaults(3, seed=7))
        expected = np.linalg.pinv(model.unmixing)
        assert_allclose(model.mixing, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("scale", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_components_are_ordered_by_variance_and_oriented_by_their_mixing(self, seed, scale):
        # in the PCA's units: the column sums of squares of the mixing
        # descend, and each column's largest-magnitude entry is positive
        x = rows_layout.fifty_by_eleven(seed)
        model = fast_ica(x, paper_defaults(3, seed=seed), scale)
        mixing = model.mixing / x.std(axis=0, ddof=1)[:, None] if scale else model.mixing
        assert np.all(np.diff(np.sum(mixing**2, axis=0)) <= 0)
        assert_array_equal(_column_signs(mixing), np.ones(3))


class TestAmariIndex:
    def test_exact_inverse_scores_zero(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(4, 4))
        assert amari_index(np.linalg.inv(a), a) == pytest.approx(0.0, abs=1e-12)

    def test_scaled_permutation_scores_zero(self):
        perm = np.array([[0.0, -2.5], [0.7, 0.0]])
        assert amari_index(perm, np.eye(2)) == pytest.approx(0.0, abs=1e-12)
        # one source: no pair to normalize over
        assert amari_index(np.array([[2.0]]), np.array([[-3.0]])) == 0.0

    def test_invariance_under_signed_permutation_and_uniform_scale(self):
        # The two-sided index normalizes rows *and* columns of |W A|, so it
        # is exactly invariant under signed permutations and under a single
        # scalar applied to every row.  (Rescaling rows by *different*
        # factors moves the column-normalized term, so general diagonal
        # rescaling is deliberately not asserted here.)
        rng = np.random.default_rng(8)
        w = rng.normal(size=(3, 3))
        a = rng.normal(size=(3, 3))
        base = amari_index(w, a)
        perm = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        signs = np.diag([1.0, -1.0, -1.0])
        assert amari_index(perm @ signs @ w, a) == pytest.approx(base, abs=1e-12)
        assert amari_index(-2.5 * w, a) == pytest.approx(base, abs=1e-12)
        assert amari_index(0.125 * perm @ w, a) == pytest.approx(base, abs=1e-12)

    def test_all_ones_is_maximal(self):
        assert amari_index(np.ones((2, 2)), np.eye(2)) == pytest.approx(1.0)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            w = rng.normal(size=(4, 4))
            a = rng.normal(size=(4, 4))
            v = amari_index(w, a)
            assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize(
        "w, a, error, message",
        [
            (np.ones((2, 3)), np.ones((2, 2)), errors.OutOfRange, "w_est has 3 columns, a_true has 2 rows"),
            (np.ones((3, 2)), np.ones((2, 2)), errors.OutOfRange, "w_est @ a_true must be square"),
            ([[1.0, 0.0], [0.0, 0.0]], np.eye(2), errors.Singular, "product matrix has an all-zero row or column"),
        ],
        ids=["inner_dimensions", "non_square_product", "zero_row"],
    )
    def test_bad_input_rejected(self, w, a, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            amari_index(w, a)
