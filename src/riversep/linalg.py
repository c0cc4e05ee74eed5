"""Dense matrix primitives shared by every model in the package.

All routines accept anything ``np.asarray`` turns into a 2-D float array and
are deterministic: two calls on the same input return bit-identical results
on the same numpy/BLAS build.  The eigensolver is a thin wrapper over
LAPACK's ``np.linalg.eigh`` that fixes the order and the sign of its
vectors, so downstream fits do not depend on LAPACK's arbitrary
orientation; FastICA's whitening applies the same sign rule to its singular
vectors.  Factor analysis alone takes the eigensolver's private core, which
fixes the order but not the sign; its Newton loop, whose matrices are
exactly symmetric by construction, takes that core without its checks.

Sample statistics use the n-1 (unbiased) normalization throughout.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    DidNotConverge,
    NotSymmetric,
    OutOfRange,
    ShapeMismatch,
    TooFewRows,
    ZeroVarianceColumn,
)

# Relative threshold under which a column counts as constant.  Measured
# against the column's own magnitude so that tiny-but-real variation in
# small-scale data is not destroyed.
_ZERO_VAR_REL = 1e-13


class EigenDecomposition(NamedTuple):
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def as_matrix(x, name: str = "x") -> np.ndarray:
    """Coerce ``x`` to a 2-D float64 array and validate it.

    Raises
    ------
    ShapeMismatch
        If the input is not 2-D or is empty.
    OutOfRange
        If the input contains NaN/Inf.
    """
    m = np.asarray(x, dtype=float)
    if m.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeMismatch(f"{name} must have at least one row and one column")
    if not np.isfinite(m).all():
        raise OutOfRange(f"{name} contains non-finite entries")
    return m


def _column_mean(x: np.ndarray) -> np.ndarray:
    """Column means as one matrix-vector product with a ones vector.

    On the tall, narrow matrices the models fit, ``x.mean(axis=0)`` takes
    numpy's strided reduction path and is several times slower than this
    one contiguous pass.  The sums run in BLAS order, so the result can
    differ from ``np.mean`` in the last bits.
    """
    n = x.shape[0]
    return np.ones(n) @ x / n


def _check_zero_variance(x: np.ndarray, sd: np.ndarray) -> None:
    # Constant columns can leave a roundoff-sized sd; compare against the
    # column's own scale so the check is unit-free.  The max runs along the
    # contiguous rows of the transpose, not down strided columns; a max is
    # exact, so the layout does not change the result.
    scale = np.abs(np.ascontiguousarray(x.T)).max(axis=1)
    bad = sd <= _ZERO_VAR_REL * scale
    if bad.any():
        raise ZeroVarianceColumn(int(np.argmax(bad)))


def _column_moments(
    m: np.ndarray, standardize: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(mean, sd, c)`` of the columns of a validated matrix, all from one
    centering: the means, the sample (n-1) standard deviations, and the
    sample covariance, or with ``standardize`` the correlation, which
    raises :class:`ZeroVarianceColumn` on a constant column.  The sds are
    the square roots of the covariance diagonal.

    The centering runs on a columns x rows copy ``xct``: a row of means
    broadcast down a tall, narrow ``m`` is several times slower.  The Gram
    product ``xct @ xct.T`` takes the symmetric BLAS route of
    ``xc.T @ xc``.  The means stay ``ones @ m``: ``xct @ ones`` sums in
    another order.  Raises :class:`OutOfRange` when the sums overflow.
    """
    n = m.shape[0]
    if n < 2:
        raise TooFewRows(n, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = _column_mean(m)
        xct = np.ascontiguousarray(m.T) - mean[:, None]
        c = xct @ xct.T / (n - 1)
    if not np.isfinite(c).all():
        raise OutOfRange("column sums of squares overflow")
    sd = np.sqrt(np.diag(c))
    if standardize:
        _check_zero_variance(m, sd)
        c /= np.outer(sd, sd)
    # Force exact symmetry so the result feeds straight into sym_eigen.
    return mean, sd, (c + c.T) / 2.0


def covariance_matrix(x) -> np.ndarray:
    """Sample covariance (n-1 normalization) of the columns of ``x``."""
    return _column_moments(as_matrix(x), standardize=False)[2]


def correlation_matrix(x) -> np.ndarray:
    """Sample correlation of the columns of ``x``; unit diagonal, entries in [-1, 1]."""
    r = _column_moments(as_matrix(x), standardize=True)[2]
    return np.clip(r, -1.0, 1.0)


def _column_signs(vectors: np.ndarray) -> np.ndarray:
    """Sign (+1 or -1) of each column's largest-magnitude entry; multiplying
    by it orients every column so that entry is positive.

    Ties go to the lowest index (np.argmax picks the first maximum), which
    makes the orientation deterministic.
    """
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return signs


def _sym_eigh(s) -> EigenDecomposition:
    """:func:`sym_eigen` without its sign rule: LAPACK's orientation of each
    eigenvector is kept.  For callers whose results depend on the vectors
    only through sign-invariant products; raises as :func:`sym_eigen`."""
    a = as_matrix(s, "s")
    n, m = a.shape
    if n != m:
        raise NotSymmetric(float("inf"))
    scale = max(1.0, float(np.max(np.abs(a))))
    asym = float(np.max(np.abs(a - a.T)))
    if asym > 1e-10 * scale:
        raise NotSymmetric(asym)
    return _eigh_descending((a + a.T) / 2.0)


def _eigh_descending(a: np.ndarray) -> EigenDecomposition:
    """:func:`_sym_eigh` without its checks, for a float matrix its caller
    builds finite and exactly symmetric: LAPACK's eigenpairs, reordered to
    descending eigenvalues (ties keep LAPACK's ascending order)."""
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise DidNotConverge("eigh") from exc
    order = np.argsort(-values, kind="stable")
    return EigenDecomposition(values[order], vectors[:, order])


def sym_eigen(s) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix by LAPACK.

    Eigenvalues are returned in descending order (ties keep LAPACK's
    ascending order) with orthonormal eigenvectors as columns.  Each
    eigenvector is oriented so its largest-magnitude entry is positive.

    Raises
    ------
    NotSymmetric
        If ``max|s - s.T|`` exceeds 1e-10 (relative to the matrix scale).
    DidNotConverge
        If LAPACK fails to converge.
    """
    values, vectors = _sym_eigh(s)
    return EigenDecomposition(values, vectors * _column_signs(vectors))
