"""Tests for maximum-likelihood factor analysis.

The strongest oracles here are algebraic: a compound-symmetry correlation
matrix is fit exactly by one factor with known loadings, and a matrix
constructed as ``lam @ lam.T + diag(psi)`` must be recovered with zero
discrepancy.  Sampling behavior is checked against a seeded simulation
from a known two-factor population.
"""

import dataclasses
import math

import numpy as np
import pytest

from riversep.errors import (
    DofNegative,
    EmptyResult,
    NotConverged,
    OutOfRange,
    ShapeMismatch,
    SingularCorrelation,
    TooFewRows,
)
from riversep import fa
from riversep.fa import (
    FaModel,
    _chi2_upper_tail,
    _hessian_log,
    _objective_log,
    fa_dof,
    fit_fa_ml,
    fit_fa_ml_corr,
    lr_test,
    profiled_discrepancy,
    residual_matrix,
    smallest_adequate_k,
)
from riversep.linalg import correlation_matrix


def compound_symmetry(p, rho):
    r = np.full((p, p), rho)
    np.fill_diagonal(r, 1.0)
    return r


def two_factor_population():
    """A 6-variable, 2-factor population with all uniquenesses interior."""
    lam = np.array(
        [
            [0.8, 0.0],
            [0.7, 0.2],
            [0.6, 0.3],
            [0.0, 0.8],
            [0.2, 0.7],
            [0.3, 0.6],
        ]
    )
    psi = 1.0 - (lam**2).sum(axis=1)
    return lam, psi, lam @ lam.T + np.diag(psi)


def simulate_sweep(p, n_factors, seed):
    """Seeded data with loadings U(0.3, 0.9) of random sign and uniquenesses
    max(1 - communality, 0.05), n = 10p rows."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.3, 0.9, size=(p, n_factors))
    lam *= rng.choice([-1.0, 1.0], size=(p, n_factors))
    psi = np.maximum(1.0 - (lam**2).sum(axis=1), 0.05)
    n = 10 * p
    noise = rng.normal(size=(n, p)) * np.sqrt(psi)
    return rng.normal(size=(n, n_factors)) @ lam.T + noise


def simulate_two_factor(n=1000, seed=2026):
    lam, psi, pop = two_factor_population()
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=(n, lam.shape[1]))
    noise = rng.normal(size=(n, lam.shape[0])) * np.sqrt(psi)
    return scores @ lam.T + noise, pop


class TestDof:
    def test_published_grid(self):
        assert fa_dof(11, 1) == 44
        assert fa_dof(11, 2) == 34
        assert fa_dof(11, 3) == 25

    def test_always_integer(self):
        # (p-k)^2 - p - k is even for every integer pair, so the halving
        # in the formula is exact.
        for p in range(2, 15):
            for k in range(0, p):
                assert 2 * fa_dof(p, k) == (p - k) ** 2 - p - k

    def test_negative_dof_rejected(self):
        with pytest.raises(DofNegative) as exc:
            fit_fa_ml_corr(np.eye(11), 7, 100)
        assert exc.value.k == 7
        assert exc.value.dof < 0


class TestCompoundSymmetry:
    """rho = 0.64 everywhere is fit exactly by loadings 0.8, psi 0.36."""

    def test_one_factor_exact(self):
        m = fit_fa_ml_corr(compound_symmetry(3, 0.64), 1, n_obs=100)
        np.testing.assert_allclose(m.loadings.ravel(), [0.8, 0.8, 0.8], atol=1e-3)
        np.testing.assert_allclose(m.uniquenesses, [0.36, 0.36, 0.36], atol=1e-3)
        assert np.abs(m.residual).max() <= 1e-8
        assert m.converged and not m.heywood

    def test_saturated_model_accepted(self):
        # p=3, k=1 has zero degrees of freedom: the statistic collapses
        # and the p-value is pinned to 1.
        m = fit_fa_ml_corr(compound_symmetry(3, 0.64), 1, n_obs=100)
        assert m.dof == 0
        assert m.log_likelihood_stat == pytest.approx(0.0, abs=1e-6)
        assert m.p_value == 1.0

    def test_unit_diagonal_of_fit(self):
        m = fit_fa_ml_corr(compound_symmetry(5, 0.4), 1, n_obs=200)
        np.testing.assert_allclose(np.diag(m.fitted()), np.ones(5), atol=1e-6)


class TestExactRecovery:
    def test_perfect_fit_statistic_vanishes(self):
        _, _, pop = two_factor_population()
        m = fit_fa_ml_corr(pop, 2, n_obs=500)
        assert m.log_likelihood_stat == pytest.approx(0.0, abs=1e-6)
        assert m.p_value == pytest.approx(1.0, abs=1e-9)
        assert np.abs(m.residual).max() <= 1e-8

    def test_lr_test_matches_model_fields(self):
        _, _, pop = two_factor_population()
        m = fit_fa_ml_corr(pop, 2, n_obs=500)
        stat, dof, p = lr_test(m, 500)
        assert stat == pytest.approx(m.log_likelihood_stat, abs=1e-12)
        assert dof == m.dof == fa_dof(6, 2)
        assert p == pytest.approx(m.p_value, abs=1e-12)

    def test_rounding_negative_statistic_reads_as_perfect_fit(self):
        _, _, pop = two_factor_population()
        m = fit_fa_ml_corr(pop, 2, n_obs=500)
        stat, _, p = lr_test(dataclasses.replace(m, discrepancy=-1e-15), 500)
        assert stat < 0.0
        assert p == 1.0

    def test_lr_test_requires_convergence(self):
        _, _, pop = two_factor_population()
        m = fit_fa_ml_corr(pop, 2, n_obs=500)
        broken = FaModel(
            loadings=m.loadings,
            uniquenesses=m.uniquenesses,
            k=m.k,
            log_likelihood_stat=m.log_likelihood_stat,
            dof=m.dof,
            p_value=m.p_value,
            residual=m.residual,
            converged=False,
            heywood=False,
            discrepancy=m.discrepancy,
            n_obs=m.n_obs,
        )
        with pytest.raises(NotConverged):
            lr_test(broken, 500)


class TestSimulatedTwoFactor:
    def test_fitted_matrix_near_population(self):
        x, pop = simulate_two_factor()
        m = fit_fa_ml(x, 2)
        assert m.converged
        assert np.abs(m.fitted() - pop).max() < 0.08

    def test_offdiagonal_residuals_small(self):
        x, _ = simulate_two_factor()
        m = fit_fa_ml(x, 2)
        off = m.residual - np.diag(np.diag(m.residual))
        assert np.abs(off).max() < 0.05

    def test_discrepancy_monotone_in_k(self):
        x, _ = simulate_two_factor()
        d = [fit_fa_ml(x, k).discrepancy for k in (1, 2, 3)]
        assert d[0] >= d[1] - 1e-6
        assert d[1] >= d[2] - 1e-6

    def test_communalities_in_range(self):
        x, _ = simulate_two_factor()
        for k in (1, 2):
            m = fit_fa_ml(x, k)
            communality = 1.0 - m.uniquenesses
            assert np.all(communality >= -1e-12)
            assert np.all(communality <= 0.995 + 1e-12)

    def test_deterministic_refit(self):
        x, _ = simulate_two_factor()
        a = fit_fa_ml(x, 2)
        b = fit_fa_ml(x, 2)
        np.testing.assert_array_equal(a.loadings, b.loadings)
        np.testing.assert_array_equal(a.uniquenesses, b.uniquenesses)
        assert a.log_likelihood_stat == b.log_likelihood_stat

    def test_sign_convention_on_loading_columns(self):
        x, _ = simulate_two_factor()
        m = fit_fa_ml(x, 2)
        for j in range(m.loadings.shape[1]):
            col = m.loadings[:, j]
            assert col[np.argmax(np.abs(col))] > 0


class TestGradient:
    """The analytic gradient of the profiled objective versus central
    finite differences of the objective value."""

    def central_difference(self, psi, r, k, h=1e-6):
        fd = np.empty(psi.shape[0])
        for i in range(psi.shape[0]):
            e = np.zeros(psi.shape[0])
            e[i] = h
            up, _ = profiled_discrepancy(psi + e, r, k)
            dn, _ = profiled_discrepancy(psi - e, r, k)
            fd[i] = (up - dn) / (2.0 * h)
        return fd

    def test_matches_at_interior_points(self):
        x, _ = simulate_two_factor()
        r = correlation_matrix(x)
        rng = np.random.default_rng(7)
        for _ in range(5):
            psi = rng.uniform(0.2, 0.9, size=6)
            _, grad = profiled_discrepancy(psi, r, 2)
            fd = self.central_difference(psi, r, 2)
            assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-4

    def test_matches_near_the_optimum(self):
        x, _ = simulate_two_factor()
        r = correlation_matrix(x)
        m = fit_fa_ml(x, 2)
        psi = m.uniquenesses * 1.15
        _, grad = profiled_discrepancy(psi, r, 2)
        fd = self.central_difference(psi, r, 2)
        assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-4

    def test_vanishes_at_the_optimum(self):
        # Relative error is undefined where both sides are ~0; the honest
        # statement at the optimum is absolute agreement at rounding level.
        x, _ = simulate_two_factor()
        r = correlation_matrix(x)
        m = fit_fa_ml(x, 2)
        _, grad = profiled_discrepancy(m.uniquenesses, r, 2)
        fd = self.central_difference(m.uniquenesses, r, 2)
        assert np.abs(grad).max() < 1e-10
        assert np.abs(grad - fd).max() < 1e-8


class TestHessian:
    """The exact Hessian over log-uniquenesses versus central differences
    of the analytic gradient."""

    @pytest.mark.parametrize("p", [11, 30, 60])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_central_differences(self, p, k):
        r = correlation_matrix(simulate_sweep(p, 2, seed=p))
        rho = np.log(np.random.default_rng(k).uniform(0.2, 0.9, size=p))
        hess = _hessian_log(rho, r, k)
        h = 1e-5
        fd = np.empty((p, p))
        for i in range(p):
            e = np.zeros(p)
            e[i] = h
            _, up = _objective_log(rho + e, r, k)
            _, dn = _objective_log(rho - e, r, k)
            fd[:, i] = (up - dn) / (2.0 * h)
        assert np.abs(hess - fd).max() / np.abs(fd).max() < 1e-6


    @pytest.mark.parametrize("k", [1, 2])
    def test_tied_eigenvalues_still_fit(self, k):
        # Uncorrelated variables tie every eigenvalue of the scaled matrix
        # at the start, where the exact curvature is unbounded.
        m = fit_fa_ml_corr(np.eye(6), k, n_obs=200)
        assert m.converged
        assert m.discrepancy == pytest.approx(0.0, abs=1e-12)


class TestNewtonSweep:
    """Every fit of a seeded sweep ends at a KKT point within the evaluation
    budget of the projected Newton."""

    def check_fits(self, monkeypatch, x, ks):
        calls = []
        original = fa.profiled_discrepancy

        def counted(psi, r, k):
            calls.append(k)
            return original(psi, r, k)

        monkeypatch.setattr(fa, "profiled_discrepancy", counted)
        r = correlation_matrix(x)
        lb = np.log(0.005)
        for k in ks:
            calls.clear()
            m = fit_fa_ml(x, k)
            assert m.converged
            assert len(calls) <= 40
            rho = np.log(m.uniquenesses)
            _, grad = _objective_log(rho, r, k)
            held = ((rho <= lb) & (grad > 0)) | ((rho >= 0.0) & (grad < 0))
            assert np.abs(grad[~held]).max() <= 1e-10

    @pytest.mark.parametrize("p", [11, 30, 60])
    @pytest.mark.parametrize("n_factors", [1, 2, 3])
    def test_fits_converge_in_few_evaluations(self, monkeypatch, p, n_factors):
        x = simulate_sweep(p, n_factors, seed=10 * p + n_factors)
        self.check_fits(monkeypatch, x, (1, 2, 3))

    def test_decrease_below_rounding_does_not_stall(self, monkeypatch):
        # Near this optimum the Newton step's predicted decrease is below
        # the rounding of F, so F cannot confirm it in a line search.
        self.check_fits(monkeypatch, simulate_sweep(11, 3, seed=3113), (1,))


class TestChiSquareTail:
    @pytest.mark.parametrize("x", [1e-8, 0.3, 1.0, 3.84, 10.0, 50.0])
    def test_closed_forms_at_one_and_two_dof(self, x):
        one = math.erfc(math.sqrt(x / 2))
        assert _chi2_upper_tail(x, 1) == pytest.approx(one, rel=1e-13)
        assert _chi2_upper_tail(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-13)

    @pytest.mark.parametrize(
        "dof, critical",
        [
            (1, 3.841458820694124),
            (2, 5.991464547107979),
            (3, 7.814727903251178),
            (10, 18.307038053275146),
            (30, 43.77297182574219),
            (100, 124.34211340400407),
            (1000, 1074.679448803441),
        ],
    )
    def test_five_percent_critical_values(self, dof, critical):
        assert _chi2_upper_tail(critical, dof) == pytest.approx(0.05, rel=1e-11)

    @pytest.mark.parametrize("dof", [999, 1000, 4999])
    def test_large_dof_median(self, dof):
        # Wilson-Hilferty: the median is close to dof * (1 - 2 / (9 dof))**3.
        median = dof * (1.0 - 2.0 / (9.0 * dof)) ** 3
        assert _chi2_upper_tail(median, dof) == pytest.approx(0.5, abs=1e-3)


class TestHeywood:
    def test_boundary_uniqueness_is_floored_and_flagged(self):
        lam = np.array([0.999, 0.8, 0.7, 0.6])
        r = np.outer(lam, lam)
        np.fill_diagonal(r, 1.0)
        m = fit_fa_ml_corr(r, 1, n_obs=200)
        assert m.heywood
        assert m.converged
        assert m.uniquenesses[0] == pytest.approx(0.005, abs=1e-12)
        assert np.all(m.uniquenesses >= 0.005 - 1e-12)

    def test_interior_fit_not_flagged(self):
        _, _, pop = two_factor_population()
        m = fit_fa_ml_corr(pop, 2, n_obs=500)
        assert not m.heywood


class TestSelection:
    def test_published_p_value_sequence(self):
        sel = smallest_adequate_k((1.17e-06, 0.0321, 0.113), alpha=0.05)
        assert sel.k == 3
        assert sel.adequate

    def test_first_fit_already_adequate(self):
        sel = smallest_adequate_k((0.9,), alpha=0.05)
        assert sel.k == 1 and sel.adequate

    def test_exhaustion_flags_inadequate(self):
        sel = smallest_adequate_k((0.001, 0.002, 0.01), alpha=0.05)
        assert sel.k == 3
        assert not sel.adequate

    def test_empty_sequence_rejected(self):
        with pytest.raises(EmptyResult):
            smallest_adequate_k((), alpha=0.05)

    def test_bad_alpha_rejected(self):
        with pytest.raises(OutOfRange):
            smallest_adequate_k((0.5,), alpha=0.0)


class TestResidualMatrix:
    def test_perfect_fit_residual_zero(self):
        _, _, pop = two_factor_population()
        m = fit_fa_ml_corr(pop, 2, n_obs=500)
        assert np.abs(residual_matrix(m, pop)).max() <= 1e-8

    def test_null_model_residual_is_r_minus_identity(self):
        r = compound_symmetry(4, 0.3)
        null = FaModel(
            loadings=np.zeros((4, 0)),
            uniquenesses=np.ones(4),
            k=0,
            log_likelihood_stat=0.0,
            dof=fa_dof(4, 0),
            p_value=1.0,
            residual=r - np.eye(4),
            converged=True,
            heywood=False,
            discrepancy=0.0,
            n_obs=100,
        )
        np.testing.assert_allclose(residual_matrix(null, r), r - np.eye(4))

    def test_shape_mismatch(self):
        _, _, pop = two_factor_population()
        m = fit_fa_ml_corr(pop, 2, n_obs=500)
        with pytest.raises(ShapeMismatch):
            residual_matrix(m, np.eye(5))


class TestInputValidation:
    def test_too_few_rows(self):
        rng = np.random.default_rng(0)
        with pytest.raises(TooFewRows):
            fit_fa_ml(rng.normal(size=(5, 6)), 1)

    def test_zero_factors_rejected(self):
        with pytest.raises(OutOfRange):
            fit_fa_ml_corr(compound_symmetry(4, 0.3), 0, 100)

    def test_singular_correlation(self):
        rng = np.random.default_rng(1)
        col = rng.normal(size=100)
        x = np.column_stack([col, 2.0 * col, rng.normal(size=100), rng.normal(size=100)])
        with pytest.raises(SingularCorrelation):
            fit_fa_ml(x, 1)

    def test_non_unit_diagonal_rejected(self):
        bad = compound_symmetry(4, 0.3) * 2.0
        with pytest.raises(OutOfRange):
            fit_fa_ml_corr(bad, 1, 100)

    def test_labels_carried_through(self):
        x, _ = simulate_two_factor()
        labels = tuple(f"v{i}" for i in range(6))
        m = fit_fa_ml(x, 2, variable_labels=labels)
        assert m.variable_labels == labels
