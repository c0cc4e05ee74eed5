"""Maximum-likelihood exploratory factor analysis.

The common-factor model writes each standardized variable as a linear blend
of ``k`` latent factors plus a variable-specific error term::

    x_i = sum_j a_ij f_j + e_i

so the model correlation matrix is ``Lambda @ Lambda.T + Psi`` with ``Psi``
diagonal (the uniquenesses).  Fitting maximizes the Gaussian likelihood of
the sample correlation matrix.  The loadings are profiled out analytically:
for fixed uniquenesses the optimal ``Lambda`` comes from the top-``k``
eigenpairs of ``Psi^(-1/2) R Psi^(-1/2)``, which reduces the search to the
uniquenesses alone.  A quasi-Newton pass over log-uniquenesses is followed
by a Newton polish so interior optima are resolved to near machine
precision.  No rotation is applied to the result.

Uniquenesses are kept in ``[0.005, 1]``; solutions pinned at the lower
bound are flagged (``heywood``) rather than rejected.  Model fit is judged
by the Bartlett-corrected likelihood-ratio statistic against a chi-square
upper tail, and by the off-diagonal residuals of the fitted correlation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.special import chdtrc

from .errors import (
    DofNegative,
    EmptyResult,
    NotConverged,
    NotSymmetric,
    OutOfRange,
    ShapeMismatch,
    SingularCorrelation,
    TooFewRows,
)
from .linalg import _column_signs, as_matrix, correlation_matrix, sym_eigen

# Lower bound on uniquenesses: a communality may not exceed 0.995, so a
# boundary (Heywood) solution is flagged instead of producing a degenerate
# zero residual variance.
_PSI_FLOOR = 0.005
_PSI_CEIL = 1.0

# Eigenvalues of the sample correlation at or below this are treated as
# exact singularity (R has unit diagonal, so the scale is fixed).
_SINGULAR_EIG = 1e-10

# KKT tolerance on the log-scale gradient used for the converged flag.
_GRAD_TOL = 1e-6


@dataclass(frozen=True)
class FaModel:
    """A fitted common-factor decomposition of a correlation matrix.

    Attributes
    ----------
    loadings : ndarray, shape (p, k)
        Factor loadings, unrotated.  Column signs are fixed so the largest
        absolute entry in each column is positive.  Only ``loadings @
        loadings.T`` is statistically identified.
    uniquenesses : ndarray, shape (p,)
        Per-variable residual variances, in ``[0.005, 1]``.
    k : int
        Number of factors (0 denotes the null model with no factors).
    log_likelihood_stat : float
        Bartlett-corrected likelihood-ratio statistic for the fit.
    dof : int
        Degrees of freedom ``((p - k)**2 - p - k) // 2``.
    p_value : float
        Upper-tail chi-square probability of the statistic.
    residual : ndarray, shape (p, p)
        Sample correlation minus the fitted ``Lambda Lambda' + Psi``.
    converged : bool
        True when the optimizer met its gradient criterion (bound-pinned
        coordinates are judged by their one-sided condition).
    heywood : bool
        True when any uniqueness finished at the lower bound.
    discrepancy : float
        Minimized ML discrepancy ``ln det(S) - ln det(R) + tr(R S^-1) - p``
        where ``S`` is the fitted matrix; decreases as ``k`` grows.
    n_obs : int
        Sample size the fit (and its statistic) assumed.
    variable_labels : tuple of str, or None
        Optional column names carried through for reporting.
    """

    loadings: np.ndarray
    uniquenesses: np.ndarray
    k: int
    log_likelihood_stat: float
    dof: int
    p_value: float
    residual: np.ndarray
    converged: bool
    heywood: bool
    discrepancy: float
    n_obs: int
    variable_labels: tuple | None = None

    @property
    def n_variables(self) -> int:
        return self.uniquenesses.shape[0]

    def fitted(self) -> np.ndarray:
        """Model correlation matrix ``loadings @ loadings.T + diag(psi)``."""
        return self.loadings @ self.loadings.T + np.diag(self.uniquenesses)


class FactorSelection(NamedTuple):
    """Outcome of the sequential factor-count search.

    ``adequate`` is False when every candidate fit was rejected, in which
    case ``k`` is the largest count tried.
    """

    k: int
    adequate: bool
    p_values: tuple


def fa_dof(p: int, k: int) -> int:
    """Degrees of freedom of the k-factor model on p variables.

    The count ``((p - k)**2 - p - k) / 2`` is always an integer; it reaches
    zero when the model is saturated and is negative when the model has
    more free parameters than the correlation matrix supplies.
    """
    return ((p - k) ** 2 - p - k) // 2


def profiled_discrepancy(psi, r, k: int):
    """ML discrepancy with loadings profiled out, and its gradient.

    For fixed uniquenesses ``psi`` the optimal loadings are known in closed
    form, which collapses the ML objective to a function of the
    eigenvalues ``lam_j`` of ``diag(psi)^(-1/2) R diag(psi)^(-1/2)``::

        F(psi) = sum over the p - k smallest of (lam_j - ln lam_j - 1)

    Parameters
    ----------
    psi : array_like, shape (p,)
        Strictly positive uniquenesses.
    r : array_like, shape (p, p)
        Sample correlation matrix.
    k : int
        Number of factors profiled out.

    Returns
    -------
    value : float
        The profiled discrepancy; zero iff the model fits exactly.
    gradient : ndarray, shape (p,)
        Analytic derivative with respect to ``psi``:
        ``g_i = (1 / psi_i) * sum_{j>k} (1 - lam_j) * v_ij**2``.
    """
    psi = np.asarray(psi, dtype=float)
    r = np.asarray(r, dtype=float)
    d = 1.0 / np.sqrt(psi)
    m = r * np.outer(d, d)
    values, vectors = sym_eigen((m + m.T) / 2.0)
    tail = np.clip(values[k:], 1e-300, None)
    value = float(np.sum(tail - np.log(tail) - 1.0))
    gradient = ((1.0 - values[k:]) * vectors[:, k:] ** 2).sum(axis=1) / psi
    return value, gradient


def _objective_log(rho, r, k):
    """Profiled discrepancy over log-uniquenesses (chain rule absorbs psi)."""
    psi = np.exp(rho)
    value, grad_psi = profiled_discrepancy(psi, r, k)
    return value, grad_psi * psi


def _loadings_at(psi, r, k):
    """Optimal loadings for fixed uniquenesses (the profiling identity)."""
    d = np.sqrt(psi)
    m = r * np.outer(1.0 / d, 1.0 / d)
    values, vectors = sym_eigen((m + m.T) / 2.0)
    top = np.sqrt(np.clip(values[:k] - 1.0, 0.0, None))
    loadings = d[:, None] * vectors[:, :k] * top
    return loadings * _column_signs(loadings)


def _newton_polish(rho, r, k, lb, ub):
    """Newton iteration on the log-scale gradient, bound-aware.

    L-BFGS-B stops on its own ftol well before the gradient reaches
    rounding level; Newton steps on the analytic gradient push interior
    coordinates to ~1e-12.  Coordinates pinned at a bound are frozen out
    of each step.  The central-difference Jacobian is the expensive part,
    and near the optimum the iterates move by far less than the
    differencing step h, so it is computed lazily: once, then reused
    until the point drifts by more than ~h, the free set changes, or a
    step gets rejected.
    """
    h = 1e-5
    p = rho.shape[0]
    jac = None
    jac_at = None
    jac_free = None
    for _ in range(40):
        value, grad = _objective_log(rho, r, k)
        free = (rho > lb + 1e-12) & (rho < ub - 1e-12)
        if not np.any(free):
            break
        if np.max(np.abs(grad[free])) < 1e-12:
            break
        fresh = (
            jac is None
            or not np.array_equal(free, jac_free)
            or np.max(np.abs(rho - jac_at)) > 1e-3
        )
        if fresh:
            jac = np.empty((p, p))
            for i in range(p):
                e = np.zeros(p)
                e[i] = h
                _, g_plus = _objective_log(rho + e, r, k)
                _, g_minus = _objective_log(rho - e, r, k)
                jac[:, i] = (g_plus - g_minus) / (2.0 * h)
            jac = (jac + jac.T) / 2.0
            jac_at = rho.copy()
            jac_free = free.copy()
        idx = np.flatnonzero(free)
        try:
            step = np.linalg.solve(jac[np.ix_(idx, idx)], -grad[idx])
        except np.linalg.LinAlgError:
            break
        # Backtrack until the objective stops increasing.
        scale = 1.0
        improved = False
        for _ in range(25):
            trial = rho.copy()
            trial[idx] = np.clip(rho[idx] + scale * step, lb, ub)
            trial_value, _ = _objective_log(trial, r, k)
            if trial_value <= value + 1e-15:
                rho = trial
                improved = True
                break
            scale /= 2.0
        if improved:
            continue
        if fresh:
            break
        jac = None  # stale Jacobian may be the blocker; retry once fresh
    return rho


def _validate_correlation(r) -> np.ndarray:
    r = as_matrix(r, "r")
    p, q = r.shape
    if p != q:
        raise ShapeMismatch(f"correlation matrix must be square, got {p}x{q}")
    asym = float(np.max(np.abs(r - r.T)))
    if asym > 1e-8:
        raise NotSymmetric(asym)
    if np.max(np.abs(np.diag(r) - 1.0)) > 1e-6:
        raise OutOfRange("correlation matrix must have unit diagonal")
    return (r + r.T) / 2.0


def fit_fa_ml_corr(r, k: int, n_obs: int, variable_labels=None) -> FaModel:
    """Fit the k-factor model directly to a correlation matrix.

    This is the population-input mode: ``r`` is taken as the sample
    correlation of ``n_obs`` observations.  Exact-recovery checks use it to
    hand the fitter a noise-free target.

    Parameters
    ----------
    r : array_like, shape (p, p)
        Symmetric correlation matrix with unit diagonal, nonsingular.
    k : int
        Number of factors, at least 1 and small enough that the model has
        nonnegative degrees of freedom.
    n_obs : int
        Nominal sample size; enters only the likelihood-ratio statistic.
    variable_labels : sequence of str, optional
        Names carried into the model for reporting.

    Raises
    ------
    DofNegative
        If ``((p-k)**2 - p - k)/2 < 0``.
    SingularCorrelation
        If ``r`` has an eigenvalue at numerical zero.
    """
    r = _validate_correlation(r)
    p = r.shape[0]
    if k < 1:
        raise OutOfRange(f"factor count must be at least 1, got {k}")
    dof = fa_dof(p, k)
    if dof < 0:
        raise DofNegative(k, dof)
    if n_obs <= p:
        raise TooFewRows(n_obs, p + 1)
    r_values, r_vectors = sym_eigen(r)
    if r_values[-1] <= _SINGULAR_EIG:
        raise SingularCorrelation(
            f"correlation matrix is singular (min eigenvalue {r_values[-1]:.3g})"
        )

    # Joreskog's starting point: psi0 proportional to 1/diag(R^-1).
    inv_diag = ((r_vectors / r_values) * r_vectors).sum(axis=1)
    psi0 = np.clip((1.0 - k / (2.0 * p)) / inv_diag, _PSI_FLOOR * 2, _PSI_CEIL)

    lb, ub = np.log(_PSI_FLOOR), np.log(_PSI_CEIL)
    result = minimize(
        _objective_log,
        np.log(psi0),
        args=(r, k),
        jac=True,
        method="L-BFGS-B",
        bounds=[(lb, ub)] * p,
        options={"maxiter": 1000, "ftol": 1e-14, "gtol": 1e-10},
    )
    rho = _newton_polish(result.x, r, k, lb, ub)

    psi = np.exp(rho)
    _, grad = _objective_log(rho, r, k)
    at_floor = rho <= lb + 1e-12
    at_ceil = rho >= ub - 1e-12
    interior = ~(at_floor | at_ceil)
    converged = bool(
        np.all(np.abs(grad[interior]) <= _GRAD_TOL)
        and np.all(grad[at_floor] >= -_GRAD_TOL)
        and np.all(grad[at_ceil] <= _GRAD_TOL)
    )
    heywood = bool(np.any(at_floor))

    loadings = _loadings_at(psi, r, k)
    sigma = loadings @ loadings.T + np.diag(psi)
    residual = r - sigma

    # Discrepancy in its definitional form (equals the profiled value at
    # the optimum, up to the rounding of the two eigensolves).
    s_values, s_vectors = sym_eigen((sigma + sigma.T) / 2.0)
    sigma_inv = (s_vectors / s_values) @ s_vectors.T
    discrepancy = float(
        np.sum(np.log(s_values)) - np.sum(np.log(r_values))
        + np.sum(r * sigma_inv) - p
    )

    stat, p_value = _bartlett_test(discrepancy, n_obs, p, k, dof)

    labels = tuple(variable_labels) if variable_labels is not None else None
    return FaModel(
        loadings=loadings,
        uniquenesses=psi,
        k=k,
        log_likelihood_stat=stat,
        dof=dof,
        p_value=p_value,
        residual=residual,
        converged=converged,
        heywood=heywood,
        discrepancy=discrepancy,
        n_obs=int(n_obs),
        variable_labels=labels,
    )


def _bartlett_test(discrepancy, n, p, k, dof):
    """Bartlett-corrected likelihood-ratio statistic and its upper-tail
    chi-square p-value."""
    stat = float((n - 1.0 - (2.0 * p + 5.0) / 6.0 - 2.0 * k / 3.0) * discrepancy)
    if dof == 0:
        # Saturated model: the chi-square family degenerates to a point
        # mass at zero (scipy yields nan), so the fit is accepted outright.
        return stat, 1.0
    # chdtrc is nan below zero where the chi-square tail is 1; a rounding-
    # negative statistic must read as a perfect fit.
    return stat, float(chdtrc(dof, max(stat, 0.0)))


def fit_fa_ml(x, k: int, variable_labels=None) -> FaModel:
    """Fit the k-factor model to a data matrix (rows are observations).

    The sample correlation matrix is computed with the n-1 convention and
    handed to :func:`fit_fa_ml_corr` with ``n_obs`` equal to the row count.

    Raises
    ------
    TooFewRows
        If the matrix has no more rows than columns.
    """
    x = as_matrix(x)
    n, p = x.shape
    if n <= p:
        raise TooFewRows(n, p + 1)
    r = correlation_matrix(x)
    return fit_fa_ml_corr(r, k, n, variable_labels=variable_labels)


def lr_test(m: FaModel, n: int):
    """Bartlett-corrected likelihood-ratio test of a fitted model.

    Parameters
    ----------
    m : FaModel
        A converged fit.
    n : int
        Sample size to evaluate the statistic at (usually ``m.n_obs``).

    Returns
    -------
    (stat, dof, p) : tuple
        The corrected statistic, its degrees of freedom, and the upper-tail
        chi-square probability.

    Raises
    ------
    NotConverged
        If the model's optimizer did not meet its criterion.
    """
    if not m.converged:
        raise NotConverged("cannot test a fit that did not converge")
    stat, p_value = _bartlett_test(m.discrepancy, n, m.n_variables, m.k, m.dof)
    return stat, m.dof, p_value


def smallest_adequate_k(p_values: Sequence[float], alpha: float = 0.05) -> FactorSelection:
    """Apply the sequential stopping rule to a p-value sequence.

    The rule accepts the smallest factor count whose likelihood-ratio
    p-value exceeds ``alpha``; if every candidate is rejected, the largest
    count tried is returned with ``adequate=False``.
    """
    if not 0.0 < alpha < 1.0:
        raise OutOfRange(f"alpha must be in (0, 1), got {alpha}")
    p_values = tuple(float(v) for v in p_values)
    if not p_values:
        raise EmptyResult("no p-values to select from")
    for i, p in enumerate(p_values):
        if p > alpha:
            return FactorSelection(i + 1, True, p_values)
    return FactorSelection(len(p_values), False, p_values)


def residual_matrix(m: FaModel, r) -> np.ndarray:
    """Difference between a correlation matrix and the model's fit.

    Returns ``r - (loadings @ loadings.T + diag(psi))``.  For the null
    model (``k=0``, no loadings, unit uniquenesses) this is ``r - I``.

    Raises
    ------
    ShapeMismatch
        If ``r`` is not the p x p matrix the model was built for.
    """
    r = as_matrix(r, "r")
    p = m.n_variables
    if r.shape != (p, p):
        raise ShapeMismatch(
            f"expected a {p}x{p} correlation matrix, got {r.shape[0]}x{r.shape[1]}"
        )
    return r - m.fitted()
