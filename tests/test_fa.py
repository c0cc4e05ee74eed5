"""Tests for maximum-likelihood factor analysis.

The strongest oracles here are algebraic: a compound-symmetry correlation
matrix is fit exactly by one factor with known loadings, and a matrix
constructed as ``lam @ lam.T + diag(psi)`` must be recovered with zero
discrepancy.  Sampling behavior is checked against a seeded simulation
from a known two-factor population.
"""

import dataclasses

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
from riversep.fa import (
    FaModel,
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
