"""Tests for maximum-likelihood factor analysis.

The strongest oracles here are algebraic: a compound-symmetry correlation
matrix is fit exactly by one factor with known loadings, and a matrix
constructed as ``lam @ lam.T + diag(psi)`` must be recovered with zero
discrepancy.  Sampling behavior is checked against a seeded simulation
from a known two-factor population.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import rows_layout
import riversep.cli
from riversep.config import load_config
from riversep.errors import (
    DidNotConverge,
    DofNegative,
    EmptyResult,
    NotSymmetric,
    OutOfRange,
    ShapeMismatch,
    Singular,
    TooFewRows,
)
from riversep import fa
from riversep.fa import (
    FaModel,
    _bartlett_test,
    _chi2_upper_tail,
    _hessian_log,
    _objective_log,
    fa_dof,
    fit_fa_ml,
    fit_fa_ml_corr,
    profiled_discrepancy,
    smallest_adequate_k,
)
from riversep.linalg import _column_signs, _eigh_descending, correlation_matrix

FIXTURES = Path(__file__).parent / "fixtures"


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


class TestModelFields:
    def test_a_fit_holds_what_it_found(self):
        # the degrees of freedom are fa_dof(p, k), a function of the inputs
        assert list(FaModel.__dataclass_fields__) == [
            "loadings",
            "uniquenesses",
            "k",
            "log_likelihood_stat",
            "p_value",
            "residual",
            "converged",
            "heywood",
            "discrepancy",
        ]


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
        assert fa_dof(3, 1) == 0
        m = fit_fa_ml_corr(compound_symmetry(3, 0.64), 1, n_obs=100)
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
        # Bartlett's correction applied to the minimized discrepancy, with its
        # chi-square tail, on a one-factor fit that two-factor data reject
        x, _ = simulate_two_factor()
        n, p = x.shape
        m = fit_fa_ml(x, 1)
        stat = (n - 1 - (2 * p + 5) / 6 - 2 / 3) * m.discrepancy
        assert m.log_likelihood_stat == pytest.approx(stat, rel=1e-12)
        assert m.p_value == _chi2_upper_tail(m.log_likelihood_stat, fa_dof(p, 1))
        assert m.p_value < 1e-6

    def test_rounding_negative_statistic_reads_as_perfect_fit(self):
        stat, p = _bartlett_test(-1e-15, 500, 6, 2, fa_dof(6, 2))
        assert stat < 0.0
        assert p == 1.0


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


class TestProfiledDiscrepancy:
    """The public profiled objective is the fitter's: the same checks on
    ``r``, the same solve, and a check that ``psi`` is p uniquenesses."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equals_the_loop_objective_bit_for_bit(self, k):
        r = correlation_matrix(simulate_two_factor()[0])
        rng = np.random.default_rng(k)
        for rho in rng.uniform(np.log(fa._PSI_FLOOR), 0.0, size=(5, 6)):
            psi = np.exp(rho)
            value, grad = profiled_discrepancy(psi, r, k)
            loop_value, loop_grad, _ = _objective_log(rho, r, k)
            assert value == loop_value
            assert_same_bits(grad * psi, loop_grad)

    @pytest.mark.parametrize(
        "psi",
        [np.full(5, 0.5), np.full(7, 0.5), np.full((6, 1), 0.5), [0.5] * 5 + [0.0],
         np.full(6, -0.5), [0.5] * 5 + [np.inf], [0.5] * 5 + [np.nan]],
        ids=["short", "long", "column", "zero", "negative", "inf", "nan"],
    )
    def test_rejects_psi_that_is_not_p_uniquenesses(self, psi):
        r = correlation_matrix(simulate_two_factor()[0])
        with pytest.raises(OutOfRange, match="^psi must hold 6 positive, finite values$"):
            profiled_discrepancy(psi, r, 2)

    def test_rejects_what_the_fitter_rejects(self):
        r = correlation_matrix(simulate_two_factor()[0])
        psi = np.full(6, 0.5)
        with pytest.raises(OutOfRange, match="unit diagonal"):
            profiled_discrepancy(psi, 2.0 * r, 2)
        with pytest.raises(ShapeMismatch, match="square"):
            profiled_discrepancy(psi, r[:, :5], 2)
        bad = r.copy()
        bad[0, 1] += 1e-6
        with pytest.raises(NotSymmetric):
            profiled_discrepancy(psi, bad, 2)


class TestHessian:
    """The exact Hessian over log-uniquenesses versus central differences
    of the analytic gradient."""

    @pytest.mark.parametrize("p", [11, 30, 60])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_central_differences(self, p, k):
        r = correlation_matrix(simulate_sweep(p, 2, seed=p))
        rho = np.log(np.random.default_rng(k).uniform(0.2, 0.9, size=p))
        hess = _hessian_log(_objective_log(rho, r, k)[2], k)
        h = 1e-5
        fd = np.empty((p, p))
        for i in range(p):
            e = np.zeros(p)
            e[i] = h
            _, up, _ = _objective_log(rho + e, r, k)
            _, dn, _ = _objective_log(rho - e, r, k)
            fd[:, i] = (up - dn) / (2.0 * h)
        assert np.abs(hess - fd).max() / np.abs(fd).max() < 1e-6


    @pytest.mark.parametrize("k", [1, 2])
    def test_tied_eigenvalues_still_fit(self, k):
        # Uncorrelated variables tie every eigenvalue of the scaled matrix
        # at the start, where the exact curvature is unbounded.
        m = fit_fa_ml_corr(np.eye(6), k, n_obs=200)
        assert m.converged
        assert m.discrepancy == pytest.approx(0.0, abs=1e-12)


def definitional_discrepancy(m, r):
    """``ln det S - ln det R + tr(S^-1 R) - p`` of the fitted matrix ``S``."""
    sigma = m.fitted()
    return (
        np.linalg.slogdet(sigma)[1] - np.linalg.slogdet(r)[1]
        + np.trace(np.linalg.solve(sigma, r)) - r.shape[0]
    )


class TestNewtonSweep:
    """Every fit of a seeded sweep ends at a KKT point within the evaluation
    budget of the projected Newton, and reports the definitional discrepancy
    of its loadings."""

    def check_fits(self, monkeypatch, x, ks):
        # Count the evaluation the Newton loop calls, not the public wrapper.
        calls = []
        original = fa._objective_log

        def counted(rho, r, k):
            calls.append(k)
            return original(rho, r, k)

        monkeypatch.setattr(fa, "_objective_log", counted)
        r = correlation_matrix(x)
        lb = np.log(0.005)
        for k in ks:
            calls.clear()
            m = fit_fa_ml(x, k)
            assert m.converged
            assert 0 < len(calls) <= 40
            rho = np.log(m.uniquenesses)
            _, grad, _ = original(rho, r, k)
            held = ((rho <= lb) & (grad > 0)) | ((rho >= 0.0) & (grad < 0))
            assert np.abs(grad[~held]).max() <= 1e-10
            expected = definitional_discrepancy(m, r)
            assert m.discrepancy == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("p", [11, 30, 60])
    @pytest.mark.parametrize("n_factors", [1, 2, 3])
    def test_fits_converge_in_few_evaluations(self, monkeypatch, p, n_factors):
        x = simulate_sweep(p, n_factors, seed=10 * p + n_factors)
        self.check_fits(monkeypatch, x, (1, 2, 3))

    def test_decrease_below_rounding_does_not_stall(self, monkeypatch):
        # Near this optimum the Newton step's predicted decrease is below
        # the rounding of F, so F cannot confirm it in a line search.
        self.check_fits(monkeypatch, simulate_sweep(11, 3, seed=3113), (1,))


def fixture_model_input():
    cfg = load_config(FIXTURES / "pipeline.json")
    return riversep.cli._Pipeline(cfg).model_input.values


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestOneEigensolvePerPoint:
    """The Newton loop eigensolves each evaluated point once: the Hessian
    and the final loadings reuse the accepted point's eigenpairs."""

    def count_calls(self, monkeypatch, name):
        calls = []
        original = getattr(fa, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(fa, name, counted)
        return calls

    def test_fixture_fits_solve_once_per_evaluation(self, monkeypatch):
        # one solve per evaluated point, plus R's; the discrepancy is read
        # from the final point's pairs, so the fitted matrix is not solved
        x = fixture_model_input()
        evals = self.count_calls(monkeypatch, "_objective_log")
        solves = self.count_calls(monkeypatch, "_eigh_descending")
        got = []
        for k in (1, 2, 3):
            evals.clear()
            solves.clear()
            assert fit_fa_ml(x, k).converged
            got.append((len(evals), len(solves)))
        assert got == [(8, 9), (6, 7), (10, 11)]

    def refit_loadings(self, m, x):
        r = correlation_matrix(x)
        psi = m.uniquenesses
        return fa._loadings_at(psi, _eigh_descending(fa._scaled(psi, r)), m.k)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_iteration_cap_returns_the_loadings_of_its_point(self, monkeypatch, k):
        monkeypatch.setattr(fa, "_NEWTON_MAX_ITER", 2)
        hessians = self.count_calls(monkeypatch, "_hessian_log")
        x = simulate_sweep(11, 2, seed=0)
        m = fit_fa_ml(x, k)
        assert len(hessians) == 2
        np.testing.assert_array_equal(m.loadings, self.refit_loadings(m, x))

    @pytest.mark.parametrize("k, n_factors, seed", [(1, 2, 3), (2, 1, 0), (3, 2, 1)])
    def test_failed_line_search_returns_the_loadings_of_its_point(
        self, monkeypatch, k, n_factors, seed
    ):
        # One trial per line search: each of these fits ends on a trial
        # rejected far from the point it returns.
        monkeypatch.setattr(fa, "_MAX_HALVINGS", 1)
        evals = self.count_calls(monkeypatch, "_objective_log")
        x = simulate_sweep(11, n_factors, seed=seed)
        m = fit_fa_ml(x, k)
        rho_last = evals[-1][0]
        assert np.abs(rho_last - np.log(m.uniquenesses)).max() > 0.1
        np.testing.assert_array_equal(m.loadings, self.refit_loadings(m, x))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_eigenvector_signs_do_not_reach_f_gradient_or_hessian(self, k):
        r = correlation_matrix(simulate_sweep(11, 2, seed=5))
        rng = np.random.default_rng(k)
        psi = rng.uniform(0.2, 0.9, size=11)
        values, vectors = eig = _eigh_descending(fa._scaled(psi, r))
        for _ in range(5):
            signs = rng.choice([-1.0, 1.0], size=11)
            flipped = (values, vectors * signs)
            value, grad = fa._profiled(psi, eig, k)
            value_f, grad_f = fa._profiled(psi, flipped, k)
            assert value == value_f
            assert_same_bits(grad, grad_f)
            assert_same_bits(_hessian_log(eig, k), _hessian_log(flipped, k))
            assert_same_bits(
                fa._loadings_at(psi, eig, k), fa._loadings_at(psi, flipped, k)
            )

    @pytest.mark.parametrize("source", ["fixture", "sweep"])
    def test_unchecked_loop_solve_returns_the_checked_bits(self, source):
        # Inside the box the loop's scaled matrices are finite and exactly
        # symmetric, so the loop's unchecked solve gives the bits of a
        # signed solve; only the orientation of the vectors differs.
        x = fixture_model_input() if source == "fixture" else simulate_sweep(30, 2, seed=2)
        r = fa._validate_correlation(correlation_matrix(x))
        lb, ub = np.log(fa._PSI_FLOOR), np.log(fa._PSI_CEIL)
        p = r.shape[0]
        points = np.random.default_rng(7).uniform(lb, ub, size=(20, p))
        for rho in [np.full(p, lb), np.full(p, ub), *points]:
            psi = np.exp(rho)
            scaled = fa._scaled(psi, r)
            assert_same_bits(scaled, scaled.T)
            values, vectors = _eigh_descending(scaled)
            loop_values, loop_vectors = _objective_log(rho, r, 2)[2]
            assert_same_bits(values, loop_values)
            assert_same_bits(vectors, loop_vectors)
            signed_values, signed_vectors = rows_layout.signed_eigh(scaled)
            assert_same_bits(values, signed_values)
            assert_same_bits(vectors * _column_signs(vectors), signed_vectors)

    def test_zero_loading_columns_keep_their_signs(self):
        # With every scaled eigenvalue at 1 the loadings are signed zeros;
        # their signs follow the vectors' sign rule, not LAPACK's.
        psi = np.ones(6)
        values, vectors = eig = _eigh_descending(fa._scaled(psi, np.eye(6)))
        flipped = (values, -vectors)
        assert_same_bits(fa._loadings_at(psi, eig, 2), fa._loadings_at(psi, flipped, 2))

    # Call 1 solves R itself; then come the starting point's scaled solve,
    # the first Hessian's and the first trial's.
    @pytest.mark.parametrize("failing_call", [2, 3, 4])
    def test_lapack_failure_in_the_loop_is_typed(self, monkeypatch, failing_call):
        calls = []
        original = np.linalg.eigh

        def eigh(a):
            calls.append(1)
            if len(calls) == failing_call:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original(a)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        with pytest.raises(DidNotConverge, match="eigh"):
            fit_fa_ml(simulate_sweep(11, 2, seed=0), 2)
        assert len(calls) == failing_call


class TestDiscrepancy:
    """The discrepancy read from the final scaled eigenpairs is the
    definitional one of the returned loadings (the sweep's fits are
    checked in :class:`TestNewtonSweep`)."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fixture_fits(self, k):
        x = fixture_model_input()
        r, m = correlation_matrix(x), fit_fa_ml(x, k)
        expected = definitional_discrepancy(m, r)
        assert m.discrepancy == pytest.approx(expected, rel=1e-12, abs=1e-12)
        # every head eigenvalue ends above 1: the optimizer's own value
        values = _eigh_descending(fa._scaled(m.uniquenesses, r))[0]
        assert values[k - 1] > 1.0
        assert m.discrepancy == profiled_discrepancy(m.uniquenesses, r, k)[0]

    def test_head_eigenvalue_below_one(self, monkeypatch):
        # At psi = 1 the scaled matrix is R itself, with eigenvalues 2.5 and
        # 0.7 (five times): the second loading column is clipped to zero,
        # so the fitted matrix's discrepancy exceeds F by g(0.7).
        def stop_at_one(rho, r, k, lb, ub):
            rho = np.zeros(r.shape[0])
            value, grad, eig = _objective_log(rho, r, k)
            return rho, value, grad, np.ones(rho.size, dtype=bool), eig

        monkeypatch.setattr(fa, "_projected_newton", stop_at_one)
        r = compound_symmetry(6, 0.3)
        m = fit_fa_ml_corr(r, 2, n_obs=200)
        np.testing.assert_array_equal(m.uniquenesses, np.ones(6))
        assert np.all(m.loadings[:, 1] == 0.0)
        f = profiled_discrepancy(np.ones(6), r, 2)[0]
        assert m.discrepancy - f == pytest.approx(0.7 - math.log(0.7) - 1.0, rel=1e-12)
        expected = definitional_discrepancy(m, r)
        assert m.discrepancy == pytest.approx(expected, rel=1e-12, abs=1e-12)


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
        np.testing.assert_allclose(m.residual, pop - m.fitted(), rtol=0, atol=1e-15)
        assert np.abs(m.residual).max() <= 1e-8

    def test_null_model_residual_is_r_minus_identity(self):
        r = compound_symmetry(4, 0.3)
        null = FaModel(
            loadings=np.zeros((4, 0)),
            uniquenesses=np.ones(4),
            k=0,
            log_likelihood_stat=0.0,
            p_value=1.0,
            residual=r - np.eye(4),
            converged=True,
            heywood=False,
            discrepancy=0.0,
        )
        np.testing.assert_array_equal(null.fitted(), np.eye(4))
        np.testing.assert_allclose(r - null.fitted(), null.residual)


class TestInputValidation:
    def test_too_few_rows(self):
        rng = np.random.default_rng(0)
        with pytest.raises(TooFewRows):
            fit_fa_ml(rng.normal(size=(5, 6)), 1)

    def test_too_few_observations_for_the_correlation(self):
        with pytest.raises(TooFewRows, match="^need at least 4 rows, got 3$"):
            fit_fa_ml_corr(np.eye(3), 1, 3)

    def test_zero_factors_rejected(self):
        with pytest.raises(OutOfRange):
            fit_fa_ml_corr(compound_symmetry(4, 0.3), 0, 100)

    def test_singular_correlation(self):
        rng = np.random.default_rng(1)
        col = rng.normal(size=100)
        x = np.column_stack([col, 2.0 * col, rng.normal(size=100), rng.normal(size=100)])
        with pytest.raises(Singular):
            fit_fa_ml(x, 1)

    def test_non_unit_diagonal_rejected(self):
        bad = compound_symmetry(4, 0.3) * 2.0
        with pytest.raises(OutOfRange):
            fit_fa_ml_corr(bad, 1, 100)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatch, match="square"):
            fit_fa_ml_corr(compound_symmetry(4, 0.3)[:, :3], 1, 100)

    def test_asymmetric_rejected(self):
        bad = compound_symmetry(4, 0.3)
        bad[0, 1] += 1e-6
        with pytest.raises(NotSymmetric) as info:
            fit_fa_ml_corr(bad, 1, 100)
        assert info.value.max_asym == pytest.approx(1e-6)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, value):
        bad = compound_symmetry(4, 0.3)
        bad[1, 2] = bad[2, 1] = value
        with pytest.raises(OutOfRange):
            fit_fa_ml_corr(bad, 1, 100)
