"""FastICA with symmetric (parallel) extraction.

FastICA rotates whitened principal-component scores, so it whitens from
the PCA its caller has fitted to the same data: the top k scores over their
standard deviations, which have unit sample covariance under the n-1
convention.  A correlation PCA whitens the standardized input, a
covariance PCA the centered one.  The fixed-point update uses the logcosh
contrast G(u) = log cosh u; symmetric decorrelation replaces the unmixing
matrix by its polar factor after every iteration.  A run that exhausts its
iteration budget is returned with ``converged=False`` rather than raised:
non-convergence is a reportable outcome, not a failure.

The iteration runs on the whitened data in components x rows layout, a
C-ordered (k, n) array, so that every per-component statistic is a
contiguous pass over one row.  Callers still see rows x components:
``sources`` is C-ordered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DidNotConverge, OutOfRange, RankDeficient, RiversepError, Singular, TooFewRows
from .linalg import _column_signs, as_matrix
from .pca import PcaModel, _standardized_rows

# Fewest rows per extracted component that FastICA accepts.
_ROWS_PER_COMPONENT = 10


@dataclass(frozen=True)
class IcaConfig:
    """Extraction settings; the defaults match common practice for river
    records (200 iterations, 1e-4 tolerance).  The contrast is always
    logcosh with α = 1, which storm outliers upset less than kurtosis.  An
    ``n_components`` of None leaves the count to the caller."""

    n_components: int | None
    max_iter: int = 200
    tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.n_components is not None and self.n_components < 1:
            raise OutOfRange("n_components must be at least 1")
        if self.max_iter < 1:
            raise OutOfRange("max_iter must be at least 1")
        if not self.tol > 0:
            raise OutOfRange("tol must be positive")
        if self.seed < 0:
            raise OutOfRange("seed must be non-negative")


@dataclass(frozen=True)
class IcaModel:
    """Fitted independent components, ordered by the variance each explains
    in the whitening PCA's units (correlation units for a scaled PCA),
    largest first, and each oriented so that its mixing column's
    largest-magnitude entry in those units is positive.

    ``unmixing`` is the k x p matrix that maps the centered input ``xc``
    to the sources, ``sources = xc @ unmixing.T``: the rotation FastICA
    found times the PCA's whitening.  ``sources @ mixing.T`` is the
    least-squares reconstruction of ``xc`` from the unit-variance sources.
    ``delta_history`` holds the per-iteration convergence measure.
    """

    sources: np.ndarray
    unmixing: np.ndarray
    mixing: np.ndarray
    converged: bool
    iterations: int
    delta_history: tuple[float, ...]


def _contrast(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """logcosh's (g(u), g'(u)) = (tanh u, 1 - tanh² u), g(u) written over ``u``."""
    gu = np.tanh(u, out=u)
    gprime = gu * gu
    np.subtract(1.0, gprime, out=gprime)
    return gu, gprime


def _sym_decorrelate(w: np.ndarray) -> np.ndarray:
    """Return (w w^T)^(-1/2) w, the closest matrix with orthonormal rows.

    That is the polar factor ``u @ vt`` of ``w = u @ diag(s) @ vt``, which
    stays orthonormal even when ``w`` is near-singular.
    """
    try:
        u, _, vt = np.linalg.svd(w)
    except np.linalg.LinAlgError as exc:
        raise DidNotConverge("svd") from exc
    return u @ vt


def fast_ica(x, pca: PcaModel, cfg: IcaConfig) -> IcaModel:
    """Extract independent components from ``x`` (rows are observations),
    whitened from ``pca``, the :func:`~riversep.pca.fit_pca` model of ``x``.

    All components are estimated simultaneously from a seeded random
    orthonormal start, so the same data and seed give bit-identical models.
    Raises :class:`RankDeficient` when the count exceeds the PCA's numerical
    rank: its eigenvalues above ``p * eps`` times the largest, the tolerance
    of ``np.linalg.matrix_rank`` for a symmetric matrix.

    A step counts as a fixed point only when its delta is below ``tol``
    and no larger than the previous step's: a start near a saddle of the
    contrast can move less than ``tol`` at first and then speed up on its
    way to a separating solution.  So the first iteration never converges,
    and ``max_iter=1`` always returns ``converged=False``.

    The iteration runs on the components x rows whitened data ``zt``;
    ``sources`` is C-ordered, rows x components.  A count of None is refused.
    """
    k = cfg.n_components
    if k is None:
        raise OutOfRange("n_components must be a count, not None")
    m = as_matrix(x)
    n = m.shape[0]
    if n < _ROWS_PER_COMPONENT * k:
        raise TooFewRows(n, _ROWS_PER_COMPONENT * k)
    variances = pca.stdevs**2
    rank = int(np.sum(variances > len(variances) * np.finfo(float).eps * variances[0]))
    if k > rank:
        raise RankDeficient(rank)

    loadings, stdevs = pca.loadings[:, :k], pca.stdevs[:k]
    whitening = (loadings / stdevs).T
    zt = whitening @ _standardized_rows(pca, m)  # C-ordered (k, n)
    z = zt.T

    rng = np.random.default_rng(cfg.seed)
    w = _sym_decorrelate(rng.standard_normal((k, k)))
    eye = np.eye(k)

    deltas: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        gu, gprime = _contrast(w @ zt)
        # np.add.reduce(...) / n is the arithmetic of gprime.mean(axis=1)
        mean_gprime = np.add.reduce(gprime, axis=1) / n
        w_new = _sym_decorrelate(gu @ z / n - mean_gprime[:, None] * w)
        if np.abs(w_new @ w_new.T - eye).max() >= 1e-8:
            raise RiversepError("FastICA lost orthonormality in decorrelation")
        # the reductions of np.sum and np.max, without their wrappers
        delta = float(np.abs(1.0 - np.abs(np.add.reduce(w_new * w, axis=1))).max())
        converged = delta < cfg.tol and bool(deltas) and delta <= deltas[-1]
        deltas.append(delta)
        w = w_new
        if converged:
            break

    # the mixing in the PCA's units; its column sums of squares are the
    # variance each component explains
    mixing = (loadings * stdevs) @ w.T
    order = np.argsort(-np.add.reduce(mixing * mixing, axis=0), kind="stable")
    signs = _column_signs(mixing[:, order])
    mixing = mixing[:, order] * signs
    w = w[order] * signs[:, None]
    if pca.scaled:
        whitening = whitening / pca.sd
        mixing = pca.sd[:, None] * mixing
    # C-ordered, so sums over its columns keep their order; fast, as z is
    # F-ordered
    sources = z @ w.T
    return IcaModel(
        sources=sources,
        unmixing=w @ whitening,
        mixing=mixing,
        converged=converged,
        iterations=iterations,
        delta_history=tuple(deltas),
    )


def amari_index(w_est, a_true) -> float:
    """Permutation- and scale-invariant separation error in [0, 1].

    Zero when ``w_est @ a_true`` is a scaled permutation (perfect recovery
    up to ICA's inherent ambiguities); one when every row and column is
    maximally diffuse.
    """
    w = as_matrix(w_est, "w_est")
    a = as_matrix(a_true, "a_true")
    if w.shape[1] != a.shape[0]:
        raise OutOfRange(
            f"w_est has {w.shape[1]} columns, a_true has {a.shape[0]} rows"
        )
    p = np.abs(w @ a)
    n = p.shape[0]
    if p.shape[0] != p.shape[1]:
        raise OutOfRange("w_est @ a_true must be square")
    row_max = p.max(axis=1)
    col_max = p.max(axis=0)
    if np.any(row_max == 0.0) or np.any(col_max == 0.0):
        raise Singular("product matrix has an all-zero row or column")
    if n == 1:
        return 0.0
    row_term = np.sum(p.sum(axis=1) / row_max - 1.0)
    col_term = np.sum(p.sum(axis=0) / col_max - 1.0)
    return float((row_term + col_term) / (2.0 * n * (n - 1)))
