"""FastICA with symmetric (parallel) extraction.

Whitening scales the centered data by its singular values and right
singular vectors alone, so that the whitened data has unit sample
covariance under the n-1 convention.  The fixed-point update uses the
logcosh contrast by default; symmetric decorrelation replaces the unmixing
matrix by its polar factor after every iteration.  A run that
exhausts its iteration budget is returned with ``converged=False`` rather
than raised: non-convergence is a reportable outcome, not a failure.

The iteration runs on the whitened data in components x rows layout, a
C-ordered (k, n) array, so that every per-component statistic is a
contiguous pass over one row.  Callers still see rows x components:
:func:`whiten` returns the F-ordered transpose of its (k, n) product, with
the values of the rows x components product, and ``sources`` is C-ordered.
Column means stay ``ones @ x`` on the C-ordered input: ``x.T @ ones`` sums
in another order, so every fitted model would move in its last bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DidNotConverge,
    OutOfRange,
    RankDeficient,
    RiversepError,
    Singular,
    TooFewRows,
)
from .linalg import _column_mean, _column_signs, as_matrix

# Singular values below this fraction of the largest do not count toward
# the usable rank when whitening.
_RANK_RTOL = 1e-10

# Fewest rows per extracted component that FastICA accepts.
_ROWS_PER_COMPONENT = 10


@dataclass(frozen=True)
class IcaConfig:
    """Extraction settings; the defaults match common practice for river
    records (200 iterations, 1e-4 tolerance, logcosh contrast)."""

    n_components: int
    max_iter: int = 200
    tol: float = 1e-4
    contrast: str = "logcosh"
    logcosh_alpha: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_components < 1:
            raise OutOfRange("n_components must be at least 1")
        if self.max_iter < 1:
            raise OutOfRange("max_iter must be at least 1")
        if not self.tol > 0:
            raise OutOfRange("tol must be positive")
        if self.contrast not in ("logcosh", "cube"):
            raise OutOfRange(f"unknown contrast {self.contrast!r}")
        if not 1.0 <= self.logcosh_alpha <= 2.0:
            raise OutOfRange("logcosh_alpha must lie in [1, 2]")
        if self.seed < 0:
            raise OutOfRange("seed must be non-negative")


@dataclass(frozen=True)
class IcaModel:
    """Fitted independent components.

    ``sources = xc @ whitening.T @ unmixing.T`` where ``xc`` is the
    centered input.  ``delta_history`` holds the per-iteration
    convergence measure.
    """

    sources: np.ndarray
    unmixing: np.ndarray
    whitening: np.ndarray
    converged: bool
    iterations: int
    delta_history: tuple[float, ...]
    config: IcaConfig

    @cached_property
    def mixing(self) -> np.ndarray:
        """``pinv(unmixing @ whitening)``, which reconstructs the centered
        data from the sources; computed on first read."""
        return np.linalg.pinv(self.unmixing @ self.whitening)


def whiten(x, n_components: int) -> tuple[np.ndarray, np.ndarray]:
    """Center ``x`` and project it to ``n_components`` unit-variance,
    uncorrelated columns.

    Returns ``(z, k)`` with ``z = xc @ k.T`` and ``cov(z) = I`` under the
    n-1 convention.  ``z`` may be the F-ordered transpose of the
    components x rows product ``k @ xc.T``: its values are those of
    ``xc @ k.T``, and ``z.T`` is C-contiguous.  At every shape, sigma and
    v are those of the R factor of ``xc``'s QR, with no left factor.  Raises
    :class:`RankDeficient` when the request exceeds the numerical rank of
    the centered data, :class:`OutOfRange` when the centering overflows
    and :class:`DidNotConverge` when LAPACK's SVD fails.
    """
    m = as_matrix(x)
    n = m.shape[0]
    if n < 2:
        raise TooFewRows(n, 2)
    if n_components < 1:
        raise OutOfRange("n_components must be at least 1")
    # center a components x rows copy: a row of means broadcast down a
    # tall, narrow matrix costs several times as much
    xct = np.ascontiguousarray(m.T) - _column_mean(m)[:, None]
    r = np.linalg.qr(xct.T, mode="r")
    # a centering that overflowed leaves R non-finite
    if not np.isfinite(r).all():
        raise OutOfRange("x contains non-finite entries")
    try:
        _, sigma, vt = np.linalg.svd(r, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise DidNotConverge("svd") from exc
    # the _column_signs rule, as PCA orients the eigenvectors of xc.T @ xc
    v = vt.T * _column_signs(vt.T)
    effective_rank = int(np.sum(sigma > _RANK_RTOL * max(sigma[0], 1e-300)))
    if n_components > effective_rank:
        raise RankDeficient(effective_rank)
    top = sigma[:n_components]
    # scale so the n-1 sample covariance of z is exactly the identity
    k = np.sqrt(n - 1) * (v[:, :n_components] / top).T
    return (k @ xct).T, k


def _contrast(u: np.ndarray, cfg: IcaConfig) -> tuple[np.ndarray, np.ndarray]:
    """Return (g(u), g'(u)) for the configured contrast.

    The logcosh branch overwrites ``u`` with g(u), so pass a fresh array.
    """
    if cfg.contrast == "logcosh":
        a = cfg.logcosh_alpha
        if a != 1.0:  # a product with the default 1.0 is exact: skip it
            u *= a
        gu = np.tanh(u, out=u)
        gprime = gu * gu
        np.subtract(1.0, gprime, out=gprime)
        if a != 1.0:
            gprime *= a
        return gu, gprime
    # cube: u * u * u skips numpy's generic pow loop, within about an ulp of u**3
    return u * u * u, 3.0 * u**2


def _sym_decorrelate(w: np.ndarray) -> np.ndarray:
    """Return (w w^T)^(-1/2) w, the closest matrix with orthonormal rows.

    That is the polar factor ``u @ vt`` of ``w = u @ diag(s) @ vt``, which
    stays orthonormal even when ``w`` is near-singular.
    """
    u, _, vt = np.linalg.svd(w)
    return u @ vt


def fast_ica(x, cfg: IcaConfig) -> IcaModel:
    """Extract independent components from ``x`` (rows are observations).

    The input is centered, not scaled.  All components are estimated
    simultaneously from a seeded random orthonormal start, so the same
    data and seed give bit-identical models.

    A step counts as a fixed point only when its delta is below ``tol``
    and no larger than the previous step's: a start near a saddle of the
    contrast can move less than ``tol`` at first and then speed up on its
    way to a separating solution.  So the first iteration never converges,
    and ``max_iter=1`` always returns ``converged=False``.

    The iteration runs on the components x rows whitened data ``zt``;
    ``sources`` is C-ordered, rows x components.
    """
    m = as_matrix(x)
    n, p = m.shape
    k = cfg.n_components
    if n < _ROWS_PER_COMPONENT * k:
        raise TooFewRows(n, _ROWS_PER_COMPONENT * k)

    z, whitening = whiten(m, k)
    zt = z.T  # C-ordered (k, n)

    rng = np.random.default_rng(cfg.seed)
    w = _sym_decorrelate(rng.standard_normal((k, k)))
    eye = np.eye(k)

    deltas: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        gu, gprime = _contrast(w @ zt, cfg)
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

    # C-ordered, so sums over its columns keep their order; fast, as z is
    # F-ordered
    sources = z @ w.T
    return IcaModel(
        sources=sources,
        unmixing=w,
        whitening=whitening,
        converged=converged,
        iterations=iterations,
        delta_history=tuple(deltas),
        config=cfg,
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
