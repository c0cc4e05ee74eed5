"""Dense matrix primitives shared by every model in the package.

All routines accept anything ``np.asarray`` turns into a 2-D float array and
are deterministic: two calls on the same input return bit-identical results
on the same numpy/BLAS build.  Every symmetric eigensolve is
:func:`_eigh_descending`: LAPACK's ``np.linalg.eigh`` with eigenvalues
descending and LAPACK's signs, on a matrix its caller has built or checked
finite and exactly symmetric.  A caller whose output depends on the
orientation of a vector fixes it by :func:`_column_signs` (FastICA's
whitening orients its singular vectors alike).

Sample statistics use the n-1 (unbiased) normalization throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DidNotConverge,
    OutOfRange,
    ShapeMismatch,
    TooFewRows,
    ZeroVarianceColumn,
)

# Relative threshold under which a column counts as constant.  Measured
# against the column's own magnitude so that tiny-but-real variation in
# small-scale data is not destroyed.
_ZERO_VAR_REL = 1e-13


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
    sample covariance, or with ``standardize`` the correlation, clipped to
    [-1, 1], which raises :class:`ZeroVarianceColumn` on a constant column.
    The sds are the square roots of the covariance diagonal.  ``c`` is
    exactly symmetric, so the package's eigensolves take it unchecked.

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
    if not standardize:
        return mean, sd, (c + c.T) / 2.0
    _check_zero_variance(m, sd)
    c /= np.outer(sd, sd)
    # rounding can leave a correlation, the diagonal's too, a few ulps past 1
    return mean, sd, np.clip((c + c.T) / 2.0, -1.0, 1.0)


def covariance_matrix(x) -> np.ndarray:
    """Sample covariance (n-1 normalization) of the columns of ``x``."""
    return _column_moments(as_matrix(x), standardize=False)[2]


def correlation_matrix(x) -> np.ndarray:
    """Sample correlation of the columns of ``x``, entries in [-1, 1]: the
    matrix that PCA with ``scale=True`` and ML factor analysis decompose."""
    return _column_moments(as_matrix(x), standardize=True)[2]


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


def _eigh_descending(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK's eigenpairs of ``a``, reordered to descending eigenvalues (ties
    keep LAPACK's ascending order), with LAPACK's signs.  Unchecked: for a
    float matrix its caller builds finite and exactly symmetric."""
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise DidNotConverge("eigh") from exc
    order = np.argsort(-values, kind="stable")
    return values[order], vectors[:, order]
