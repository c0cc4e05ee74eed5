"""Maximum-likelihood exploratory factor analysis.

The common-factor model writes each standardized variable as a linear blend
of ``k`` latent factors plus a variable-specific error term::

    x_i = sum_j a_ij f_j + e_i

so the model correlation matrix is ``Lambda @ Lambda.T + Psi`` with ``Psi``
diagonal (the uniquenesses).  Fitting maximizes the Gaussian likelihood of
the sample correlation matrix.  The loadings are profiled out analytically:
for fixed uniquenesses the optimal ``Lambda`` comes from the top-``k``
eigenpairs of ``Psi^(-1/2) R Psi^(-1/2)``, which reduces the search to the
uniquenesses alone.  One projected Newton method over log-uniquenesses,
started at Joreskog's point, minimizes that profiled discrepancy on its
exact Hessian (Jennrich & Robinson 1969), to near machine precision at an
interior optimum.  Each fit eigensolves ``R`` once and each evaluated
point once, without a sign rule; the Hessian, the final loadings and the
discrepancy are read from those pairs.  No rotation is applied.

Uniquenesses are kept in ``[0.005, 1]``; solutions pinned at the lower
bound are flagged (``heywood``) rather than rejected.  Model fit is judged
by the Bartlett-corrected likelihood-ratio statistic against a chi-square
upper tail, and by the off-diagonal residuals of the fitted correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DidNotConverge,
    DofNegative,
    EmptyResult,
    NotSymmetric,
    OutOfRange,
    ShapeMismatch,
    Singular,
    TooFewRows,
)
from .linalg import _column_signs, _eigh_descending, as_matrix, correlation_matrix

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

# Projected Newton: the free gradient at which it stops, its iteration and
# step-halving caps, and the floor under the Hessian's lifted eigenvalues.
_NEWTON_GTOL = 1e-12
_NEWTON_MAX_ITER = 100
_MAX_HALVINGS = 20
_EIG_LIFT = 1e-8


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
        Number of factors, at least 1.
    log_likelihood_stat : float
        Bartlett-corrected likelihood-ratio statistic for the fit.
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
        ML discrepancy ``ln det(S) - ln det(R) + tr(R S^-1) - p`` of the
        returned (clipped) loadings, ``S`` the fitted matrix: the minimized
        value unless a head scaled eigenvalue ends below 1.  Decreases in k.
    """

    loadings: np.ndarray
    uniquenesses: np.ndarray
    k: int
    log_likelihood_stat: float
    p_value: float
    residual: np.ndarray
    converged: bool
    heywood: bool
    discrepancy: float

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


def fa_dof(p: int, k: int) -> int:
    """Degrees of freedom of the k-factor model on p variables.

    The count ``((p - k)**2 - p - k) / 2`` is always an integer; it reaches
    zero when the model is saturated and is negative when the model has
    more free parameters than the correlation matrix supplies.
    """
    return ((p - k) ** 2 - p - k) // 2


def _scaled(psi, r):
    """``diag(psi)^(-1/2) R diag(psi)^(-1/2)``.  Each entry is
    ``r_ij * (d_i * d_j)``, so the result is exactly symmetric where ``r``
    is."""
    d = 1.0 / np.sqrt(psi)
    return r * np.outer(d, d)


def profiled_discrepancy(psi, r, k: int):
    """ML discrepancy with loadings profiled out, and its gradient.

    For fixed uniquenesses ``psi`` the optimal loadings are known in closed
    form, which collapses the ML objective to a function of the
    eigenvalues ``lam_j`` of ``diag(psi)^(-1/2) R diag(psi)^(-1/2)``::

        F(psi) = sum over the p - k smallest of (lam_j - ln lam_j - 1)

    Parameters
    ----------
    psi : array_like, shape (p,)
        Strictly positive, finite uniquenesses.
    r : array_like, shape (p, p)
        Sample correlation matrix, checked as :func:`fit_fa_ml_corr` checks it.
    k : int
        Number of factors profiled out.

    Returns
    -------
    value : float
        The profiled discrepancy; zero iff the model fits exactly.
    gradient : ndarray, shape (p,)
        Analytic derivative with respect to ``psi``:
        ``g_i = (1 / psi_i) * sum_{j>k} (1 - lam_j) * v_ij**2``.

    Raises
    ------
    ShapeMismatch, NotSymmetric, OutOfRange
        As :func:`fit_fa_ml_corr` for ``r``; :class:`OutOfRange` also unless
        ``psi`` holds p positive, finite values.
    """
    r = _validate_correlation(r)
    psi = np.asarray(psi, dtype=float)
    if psi.shape != r.shape[:1] or not np.all(np.isfinite(psi) & (psi > 0.0)):
        raise OutOfRange(f"psi must hold {r.shape[0]} positive, finite values")
    return _profiled(psi, _eigh_descending(_scaled(psi, r)), k)


def _profiled(psi, eig, k):
    """:func:`profiled_discrepancy` from the scaled eigenpairs ``eig``."""
    values, vectors = eig
    tail = np.clip(values[k:], 1e-300, None)
    value = float(np.sum(tail - np.log(tail) - 1.0))
    gradient = ((1.0 - values[k:]) * vectors[:, k:] ** 2).sum(axis=1) / psi
    return value, gradient


def _objective_log(rho, r, k):
    """Profiled discrepancy over log-uniquenesses (chain rule absorbs psi),
    its gradient, and the scaled eigenpairs both were computed from.
    With ``r`` validated and ``rho`` in the box, the scaled matrix is
    finite and exactly symmetric, so :func:`_eigh_descending` solves it
    unchecked, with LAPACK's signs: each reader of the vectors is sign-free
    or, as :func:`_loadings_at` does, orients them first."""
    psi = np.exp(rho)
    eig = _eigh_descending(_scaled(psi, r))
    value, grad_psi = _profiled(psi, eig, k)
    return value, grad_psi * psi, eig


def _hessian_log(eig, k):
    """Exact Hessian of the profiled discrepancy over log-uniquenesses.

    With eigenpairs ``(lam_j, v_j)`` of the scaled matrix and ``T`` the
    ``p - k`` smallest, eigenvalue perturbation (Jennrich & Robinson 1969)
    gives ``H_il = sum_{j in T} sum_m c_jm v_ij v_im v_lj v_lm``, where
    ``c_jm = lam_j`` for ``m`` in ``T`` and
    ``c_jm = (lam_j - 1)(lam_j + lam_m) / (lam_j - lam_m)`` for the ``k``
    largest, whose gap is floored at a tie ``lam_k = lam_(k+1)``.  ``eig``
    holds the scaled eigenpairs at the point, as :func:`_objective_log`
    returns them.
    """
    values, vectors = eig
    p = values.shape[0]
    tail, head = values[k:, None], values[None, :k]
    c = np.repeat(tail, p, axis=1)
    gap = np.minimum(tail - head, -1e-12 * head)  # a tie has unbounded curvature
    c[:, :k] = (tail - 1.0) * (tail + head) / gap
    pairs = (vectors[:, k:, None] * vectors[:, None, :]).reshape(p, -1)
    return (pairs * c.ravel()) @ pairs.T


def _loadings_at(psi, eig, k):
    """Optimal loadings for fixed uniquenesses (the profiling identity),
    from the scaled eigenpairs ``eig`` at ``psi``.

    The top vectors take the :func:`_column_signs` rule first: where the
    clip zeroes a column, its zeros then carry that rule's signs, not
    LAPACK's.
    """
    values, vectors = eig
    top = np.sqrt(np.clip(values[:k] - 1.0, 0.0, None))
    head = vectors[:, :k]
    loadings = np.sqrt(psi)[:, None] * (head * _column_signs(head)) * top
    return loadings * _column_signs(loadings)


def _projected_newton(rho, r, k, lb, ub):
    """Minimize the profiled discrepancy over the box ``lb <= rho <= ub``.

    Coordinates at a bound whose gradient points out of the box are held;
    the free block takes a Newton step on the exact Hessian, its
    eigenvalues made positive (``|w|``, floored), projected onto the box
    and shortened by Armijo backtracking with an allowance for the
    rounding of ``F``.  Returns the final point, its ``F``, gradient, free
    set and scaled eigenpairs.  Each evaluated point is eigensolved once:
    the Hessian and the caller's loadings reuse the accepted point's pairs.
    """
    value, grad, eig = _objective_log(rho, r, k)
    for iteration in range(_NEWTON_MAX_ITER + 1):
        free = ~(((rho <= lb) & (grad > 0.0)) | ((rho >= ub) & (grad < 0.0)))
        done = np.all(np.abs(grad[free]) <= _NEWTON_GTOL)
        if done or iteration == _NEWTON_MAX_ITER:
            break
        try:
            w, u = np.linalg.eigh(_hessian_log(eig, k)[np.ix_(free, free)])
        except np.linalg.LinAlgError as exc:
            raise DidNotConverge("eigh") from exc
        step = -u @ ((u.T @ grad[free]) / np.maximum(np.abs(w), _EIG_LIFT))
        slack = 1e-14 * (abs(value) + rho.size)
        # A predicted decrease below F's rounding cannot be checked on F.
        trusted = -(grad[free] @ step) <= slack
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = rho.copy()
            trial[free] = np.clip(rho[free] + t * step, lb, ub)
            trial_value, trial_grad, trial_eig = _objective_log(trial, r, k)
            if trusted or trial_value <= value + 1e-4 * (grad @ (trial - rho)) + slack:
                break
            t /= 2.0
        else:
            break
        rho, value, grad, eig = trial, trial_value, trial_grad, trial_eig
    return rho, value, grad, free, eig


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


def fit_fa_ml_corr(r, k: int, n_obs: int) -> FaModel:
    """Fit the k-factor model directly to a correlation matrix.

    ``r`` is taken as the sample correlation of ``n_obs`` observations.  The
    CLI fits every factor count through it from one correlation matrix, and
    exact-recovery checks hand it a noise-free target.

    Parameters
    ----------
    r : array_like, shape (p, p)
        Symmetric correlation matrix with unit diagonal, nonsingular.
    k : int
        Number of factors, at least 1 and small enough that the model has
        nonnegative degrees of freedom.
    n_obs : int
        Nominal sample size; enters only the likelihood-ratio statistic.

    Raises
    ------
    ShapeMismatch, NotSymmetric
        If ``r`` is not square, or differs from its transpose by more than 1e-8.
    OutOfRange
        If ``k < 1``, or a diagonal entry of ``r`` is more than 1e-6 from 1.
    DofNegative
        If ``((p-k)**2 - p - k)/2 < 0``.
    TooFewRows
        If ``n_obs <= p``.
    Singular
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
    r_values, r_vectors = _eigh_descending(r)
    if r_values[-1] <= _SINGULAR_EIG:
        raise Singular(
            f"correlation matrix is singular (min eigenvalue {r_values[-1]:.3g})"
        )

    # Joreskog's starting point: psi0 proportional to 1/diag(R^-1).
    inv_diag = ((r_vectors / r_values) * r_vectors).sum(axis=1)
    psi0 = np.clip((1.0 - k / (2.0 * p)) / inv_diag, _PSI_FLOOR * 2, _PSI_CEIL)

    lb, ub = np.log(_PSI_FLOOR), np.log(_PSI_CEIL)
    rho, value, grad, free, eig = _projected_newton(np.log(psi0), r, k, lb, ub)

    # Coordinates held at a bound meet their one-sided condition already.
    psi = np.exp(rho)
    converged = bool(np.max(np.abs(grad[free]), initial=0.0) <= _GRAD_TOL)
    heywood = bool(np.any(rho <= lb))

    loadings = _loadings_at(psi, eig, k)
    residual = r - (loadings @ loadings.T + np.diag(psi))

    # Scaled, the fitted matrix has eig's vectors and eigenvalues max(lam_j, 1)
    # for j <= k, 1 beyond: its discrepancy is F plus lam - ln lam - 1 per head lam < 1.
    head = np.minimum(eig[0][:k], 1.0)
    discrepancy = value + float(np.sum(head - np.log(head) - 1.0))

    stat, p_value = _bartlett_test(discrepancy, n_obs, p, k, dof)

    return FaModel(
        loadings=loadings,
        uniquenesses=psi,
        k=k,
        log_likelihood_stat=stat,
        p_value=p_value,
        residual=residual,
        converged=converged,
        heywood=heywood,
        discrepancy=discrepancy,
    )


def _bartlett_test(discrepancy, n, p, k, dof):
    """Bartlett-corrected likelihood-ratio statistic and its upper-tail
    chi-square p-value."""
    stat = float((n - 1.0 - (2.0 * p + 5.0) / 6.0 - 2.0 * k / 3.0) * discrepancy)
    # A saturated model (the chi-square family degenerates to a point mass
    # at zero) and a statistic at or below zero by rounding both read as a
    # perfect fit.
    if dof == 0 or stat <= 0.0:
        return stat, 1.0
    return stat, _chi2_upper_tail(stat, dof)


def _chi2_upper_tail(x: float, dof: int) -> float:
    """Chi-square upper-tail probability at ``x > 0`` for integer ``dof``.

    Integer degrees of freedom give a closed form: with ``h = x / 2``, an
    even ``dof`` has ``e^-h sum_{j < dof/2} h^j / j!`` and an odd one
    ``erfc(sqrt(h)) + e^-h sum_{j < (dof-1)/2} h^(j+1/2) / Gamma(j + 3/2)``.
    Each term is formed in log space, so a large ``dof`` cannot overflow.
    """
    h = x / 2.0
    a = 0.5 * (dof % 2)
    terms = [
        math.exp((j + a) * math.log(h) - h - math.lgamma(j + a + 1.0))
        for j in range(dof // 2)
    ]
    if dof % 2:
        terms.append(math.erfc(math.sqrt(h)))
    return min(math.fsum(terms), 1.0)


def fit_fa_ml(x, k: int) -> FaModel:
    """Fit the k-factor model to a data matrix (rows are observations).

    The sample correlation matrix is computed with the n-1 convention and
    handed to :func:`fit_fa_ml_corr` with ``n_obs`` equal to the row count,
    so a matrix with no more rows than columns raises :class:`TooFewRows`.
    """
    x = as_matrix(x)
    return fit_fa_ml_corr(correlation_matrix(x), k, x.shape[0])


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
            return FactorSelection(i + 1, True)
    return FactorSelection(len(p_values), False)
