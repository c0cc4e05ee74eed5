import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import rows_layout
from riversep import errors, ica
from riversep.ica import (
    IcaConfig,
    IcaModel,
    _sym_decorrelate,
    amari_index,
    fast_ica,
    whiten,
)
from riversep.linalg import _column_signs, covariance_matrix
from riversep.synth import generate_scenario


def paper_defaults(k, seed=0):
    return IcaConfig(n_components=k, max_iter=200, tol=1e-4, seed=seed)


class TestWhiten:
    def test_identity_covariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(500, 4)) @ rng.normal(size=(4, 4))
        z, k = whiten(x, 4)
        assert z.shape == (500, 4)
        assert_allclose(covariance_matrix(z), np.eye(4), atol=1e-8)

    def test_projection_matches_transform(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 5))
        z, k = whiten(x, 3)
        xc = x - x.mean(axis=0)
        assert_allclose(z, xc @ k.T, atol=1e-12)

    @pytest.mark.parametrize(
        "rows, k, error, message",
        [
            (1, 1, errors.TooFewRows, "need at least 2 rows, got 1"),
            (5, 0, errors.OutOfRange, "n_components must be at least 1"),
        ],
    )
    def test_too_few_rows_or_components(self, rows, k, error, message):
        x = np.random.default_rng(5).normal(size=(rows, 3))
        with pytest.raises(error, match=f"^{message}$"):
            whiten(x, k)

    def test_rank_deficient(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=100)
        x = np.column_stack([a, 2 * a, 3 * a])
        with pytest.raises(errors.RankDeficient) as exc:
            whiten(x, 2)
        assert exc.value.effective_rank == 1

    def test_reduced_components(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 6))
        z, k = whiten(x, 2)
        assert z.shape == (300, 2)
        assert k.shape == (2, 6)
        assert_allclose(covariance_matrix(z), np.eye(2), atol=1e-8)

    @pytest.mark.parametrize("shape", [(40, 4), (5, 4), (6, 9)], ids=str)
    def test_whitening_rows_are_the_scaled_covariance_eigenvectors(self, shape):
        # descending variance, each row oriented by the _column_signs rule
        rng = np.random.default_rng(7)
        n, p = shape
        x = rng.normal(size=shape) @ np.diag([8.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.2, 0.1, 0.05][:p])
        m = min(3, n - 1)
        values, vectors = rows_layout.signed_eigh(covariance_matrix(x))
        assert np.all(np.diff(values[:m]) < -0.1)
        _, k = whiten(x, m)
        assert_allclose(k, (vectors[:, :m] / np.sqrt(values[:m])).T, rtol=1e-8)

    @pytest.mark.parametrize("shape", [(40, 3), (4, 3)], ids=str)
    def test_lapack_failure_is_did_not_converge(self, monkeypatch, shape):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        x = np.random.default_rng(8).normal(size=shape)
        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(errors.DidNotConverge, match="svd"):
            whiten(x, 1)

    @pytest.mark.parametrize("shape", [(40, 2), (3, 2)], ids=str)
    def test_overflowing_centering_is_out_of_range(self, shape):
        # finite cells whose difference from the column mean overflows
        x = np.random.default_rng(9).normal(size=shape)
        x[:, 0] = -1.0e308
        x[0, 0] = 1.7e308
        with np.errstate(over="ignore"), pytest.raises(errors.OutOfRange, match="non-finite"):
            whiten(x, 1)

    # tall; one row short of LAPACK's own QR crossover floor(11p/6) for p =
    # 3, 11 and 24, and further below it; wide; and one column
    @pytest.mark.parametrize(
        "shape,k",
        [(shape, k) for shape in [(50, 11), (4, 3), (12, 11), (19, 11), (40, 24),
                                  (43, 24), (30, 40)] for k in (1, 3)]
        + [((2, 1), 1), ((3, 1), 1)],
        ids=str,
    )
    def test_every_shape_is_whitened_from_its_r_factor(self, monkeypatch, shape, k):
        # the SVD of R agrees with the full SVD of the centered data to
        # rounding: within 1e-12 on these well-conditioned tables, a margin
        # that grows with the ratio of the first to the k-th singular value
        qr_shapes = []
        qr = np.linalg.qr

        def logged_qr(a, *args, **kwargs):
            qr_shapes.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", logged_qr)
        for seed in range(50):
            x = np.random.default_rng(seed).normal(size=shape)
            qr_shapes.clear()
            z, w = whiten(x, k)
            assert qr_shapes == [shape]
            z_full, w_full = rows_layout.whiten(x, k)
            assert_allclose(z, z_full, rtol=0, atol=1e-12 * np.abs(z_full).max())
            assert_allclose(w, w_full, rtol=0, atol=1e-12 * np.abs(w_full).max())
            assert_allclose(covariance_matrix(z), np.eye(k), rtol=0, atol=1e-12)
            assert_array_equal(_column_signs(w.T), np.ones(k))


class TestFastIca:
    def test_recovers_uniform_sources(self):
        sc = generate_scenario(["uniform", "uniform"], rows=5000,
                               mixing_condition_max=10.0, seed=11)
        model = fast_ica(sc.observed, paper_defaults(2, seed=11))
        assert model.converged
        assert amari_index(model.unmixing @ model.whitening, sc.mixing) < 0.05

    def test_identity_mixing_recovered_as_signed_permutation(self):
        sc = generate_scenario(["laplace", "laplace"], rows=8000, seed=5)
        model = fast_ica(sc.sources, paper_defaults(2, seed=5))
        prod = model.unmixing @ model.whitening
        # each row should pick out one source: one entry near +-1, rest near 0
        mags = np.sort(np.abs(prod), axis=1)
        assert np.all(mags[:, -1] > 0.93)
        assert np.all(mags[:, :-1] < 0.07)

    def test_source_columns_unit_variance(self):
        sc = generate_scenario(["uniform", "laplace", "uniform"], rows=4000, seed=7)
        model = fast_ica(sc.observed, paper_defaults(3, seed=7))
        assert model.converged
        sd = model.sources.std(axis=0, ddof=1)
        assert_allclose(sd, np.ones(3), atol=1e-6)

    def test_sources_equal_projection_identity(self):
        sc = generate_scenario(["uniform", "uniform"], rows=2000, seed=9)
        model = fast_ica(sc.observed, paper_defaults(2, seed=9))
        xc = sc.observed - sc.observed.mean(axis=0)
        assert_allclose(model.sources, xc @ model.whitening.T @ model.unmixing.T,
                        atol=1e-8)

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
                indices.append(
                    amari_index(model.unmixing @ model.whitening, sc.mixing)
                )
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
        # implemented, replayed for the fit's own number of iterations.
        sc = generate_scenario(["uniform", "laplace", "uniform"], rows=4000, seed=23)
        cfg = paper_defaults(3, seed=23)
        model = fast_ica(sc.observed, cfg)
        z, _ = whiten(sc.observed, 3)
        n = z.shape[0]
        w = _sym_decorrelate(np.random.default_rng(cfg.seed).standard_normal((3, 3)))
        for _ in range(model.iterations):
            gu = np.tanh(z @ w.T)
            gprime = 1.0 - gu**2
            w = _sym_decorrelate((gu.T @ z) / n - np.diag(gprime.mean(axis=0)) @ w)
        assert model.iterations > 2
        assert_allclose(model.unmixing, w, rtol=0, atol=1e-12)

    def test_slow_first_step_near_a_saddle_is_not_a_fixed_point(self):
        # This start sits near a saddle of the contrast: its first step moves
        # less than tol (8.8e-5), and the steps after it grow before the fit
        # settles on a separating solution.
        sc = generate_scenario(["laplace", "laplace"], rows=5000, seed=1005)
        model = fast_ica(sc.observed, paper_defaults(2, seed=1005))
        assert model.delta_history[0] < 1e-4 < model.delta_history[1]
        assert model.converged
        assert model.iterations > 2
        assert amari_index(model.unmixing @ model.whitening, sc.mixing) < 0.05

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
        assert amari_index(model.unmixing @ model.whitening, sc.mixing) < 0.05

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


def assert_models_identical(model, oracle):
    for field in ("sources", "mixing", "unmixing", "whitening"):
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
        z, k = whiten(x, len(dists))
        z_oracle, k_oracle = rows_layout.whiten(x, len(dists))
        assert_array_equal(z, z_oracle)
        assert_array_equal(k, k_oracle)
        assert_models_identical(fast_ica(x, cfg), rows_layout.fast_ica(x, cfg))

    @pytest.mark.parametrize("seed", range(5))
    def test_fifty_by_eleven_fit_matches_the_rows_layout(self, seed):
        x = rows_layout.fifty_by_eleven(seed)
        cfg = paper_defaults(3, seed=seed)
        assert_models_identical(fast_ica(x, cfg), rows_layout.fast_ica(x, cfg))

    def test_sources_stay_c_ordered(self):
        # the recovery scores sum the sources' columns in a layout-bound order
        x = generate_scenario(rows_layout.SCENARIOS[0], rows=500, seed=5).observed
        assert fast_ica(x, paper_defaults(2, seed=5)).sources.flags.c_contiguous

    def test_mixing_is_the_pinv_of_the_unmixing_and_whitening(self):
        x = generate_scenario(rows_layout.SCENARIOS[1], rows=500, seed=7).observed
        model = fast_ica(x, paper_defaults(3, seed=7))
        expected = np.linalg.pinv(model.unmixing @ model.whitening)
        assert_array_equal(model.mixing, expected)
        assert model.mixing is model.mixing

    def test_logcosh_contrast_consumes_its_argument(self):
        u = np.random.default_rng(6).standard_normal((3, 5000))
        expected = rows_layout.contrast(u.copy())
        gu, gprime = ica._contrast(u)
        assert gu is u
        assert_array_equal(gu, expected[0])
        assert_array_equal(gprime, expected[1])


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
