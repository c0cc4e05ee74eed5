"""Statistical screening checks used around the decomposition models.

Three diagnostics: temporal autocorrelation of a series or of every column
of a table, a histogram estimate of mutual information between two series
or between every pair of columns (the independence measure the separation
models aim to drive toward zero), and Moran's I for spatial dependence
across sites.  All are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConstantSeries, OutOfRange, ShapeMismatch, TooFewRows

# Most bins per column: one pair's joint histogram then fills one bincount
# of 2**20 cells, the chunk budget of mutual_information_matrix.
_MAX_BINS = 1024


class AcfResult(NamedTuple):
    """Autocorrelation values at lags 0..max_lag with a white-noise band.

    ``conf_band`` is the approximate 95% threshold ``1.96 / sqrt(n)`` for a
    series of ``n`` points; a white-noise series keeps roughly 95% of its
    nonzero-lag values inside ``±conf_band``.
    """

    values: np.ndarray
    conf_band: float


@dataclass(frozen=True)
class SpatialWeights:
    """Non-negative site-to-site weights with an exactly zero diagonal."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ShapeMismatch(f"weights must be square, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise OutOfRange("weights must be finite")
        if np.any(w < 0.0):
            raise OutOfRange("weights must be non-negative")
        if np.any(np.diag(w) != 0.0):
            raise OutOfRange("weight diagonal must be exactly zero")
        if not np.any(w > 0.0):
            raise OutOfRange("weights must have at least one positive entry")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def acf(series, max_lag: int) -> AcfResult:
    """Sample autocorrelation function of one series, or of every column of
    a table.

    Uses the biased estimator: every lag's cross-sum is divided by the
    full-series sum of squares about the full-series mean.  This keeps
    every value in [-1, 1] (each numerator is a Cauchy-Schwarz fragment of
    the denominator) at the cost of damping high lags toward zero.

    Parameters
    ----------
    series : array_like, shape (n,) or (n, p)
        The observations, in time order; the columns of a table are
        separate series.
    max_lag : int
        Largest lag to evaluate; the series must have at least
        ``max_lag + 2`` points.

    Returns
    -------
    AcfResult
        Values at lags 0..max_lag, shape (max_lag + 1,) for a series and
        (p, max_lag + 1) for a table, whose row j is the ACF of column j
        bit for bit; every lag-0 value is exactly 1.  A table raises what
        its columns, passed one at a time in order, raise first.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim not in (1, 2):
        raise ShapeMismatch(f"series must be 1-D or 2-D, got shape {x.shape}")
    # columns x rows: each sum below is pairwise along a row, as for a series
    rows = np.ascontiguousarray(np.atleast_2d(x.T))
    if not np.isfinite(rows[:1]).all():
        raise OutOfRange("series must be finite")
    if max_lag < 0:
        raise OutOfRange(f"max_lag must be non-negative, got {max_lag}")
    n = rows.shape[1]
    if n < max_lag + 2:
        raise TooFewRows(n, max_lag + 2)
    # a sum of squares past the largest float is rejected, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        centered = rows - (np.add.reduce(rows, axis=1) / n)[:, None]
        denom = np.add.reduce(centered**2, axis=1)
    failing = ~np.isfinite(denom) | (denom == 0.0)  # NaN if a cell is not finite
    if failing.any():
        j = int(np.argmax(failing))
        if not np.isfinite(rows[j]).all():
            raise OutOfRange("series must be finite")
        if not np.isfinite(denom[j]):
            raise OutOfRange("series' sum of squares overflows")
        raise ConstantSeries("series has no variation")
    values = np.ones((rows.shape[0], max_lag + 1))
    for h in range(1, max_lag + 1):
        values[:, h] = np.add.reduce(centered[:, :-h] * centered[:, h:], axis=1) / denom
    return AcfResult(
        values=values if x.ndim == 2 else values[0],
        conf_band=1.96 / np.sqrt(n),
    )


def mutual_information_discrete(x, y, bins: int = 8) -> float:
    """Plug-in mutual information of two series, in bits.

    Both variables are discretized onto ``bins`` equal-width intervals
    spanning their own ranges; the joint histogram then gives

        I = sum_ij p_ij * log2(p_ij / (p_i * p_j))

    The histogram plug-in is biased upward for continuous data (finer bins
    inflate it), so this is a comparative diagnostic, not an unbiased
    estimate of the underlying continuous quantity.  It is the off-diagonal
    entry of :func:`mutual_information_matrix` of the two columns.

    Returns
    -------
    float
        Non-negative within rounding; 0 means the binned variables are
        exactly independent.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise ShapeMismatch("inputs must be 1-D series")
    if x.shape[0] != y.shape[0]:
        raise ShapeMismatch(f"length mismatch: {x.shape[0]} vs {y.shape[0]}")
    return float(mutual_information_matrix(np.column_stack([x, y]), bins)[0, 1])


def mutual_information_matrix(x, bins: int = 8) -> np.ndarray:
    """Plug-in mutual information of every pair of columns of ``x``, in bits.

    Each column is binned once, onto ``bins`` equal-width intervals spanning
    its own range (``np.histogram2d``'s rule: a cell on the last edge falls
    in the last bin), and every pair's joint histogram is counted from the
    two columns' bin codes.  Entry (i, j) is
    :func:`mutual_information_discrete` of columns i and j; the diagonal is
    each column's binned entropy.  ``bins`` lies in 2..1024.

    Returns
    -------
    np.ndarray, shape (p, p)
        Symmetric; (j, i) is a copy of (i, j) for i <= j.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeMismatch(f"x must be 2-D, got shape {x.shape}")
    n, p = x.shape
    if n < 10:
        raise TooFewRows(n, 10)
    if not 2 <= bins <= _MAX_BINS:
        raise OutOfRange(f"bins must lie in 2..{_MAX_BINS}, got {bins}")
    if not np.all(np.isfinite(x)):
        raise OutOfRange("series must be finite")
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    if np.any(lo == hi):
        raise ConstantSeries("cannot bin a range of zero width")
    with np.errstate(over="ignore", invalid="ignore"):
        # edges[:, j] is np.linspace(lo[j], hi[j], bins + 1); linspace of the
        # arrays divides first in every column once one step underflows to 0
        step = (hi - lo) / bins
        k = np.arange(bins + 1.0)[:, None]
        edges = np.where(step == 0.0, k / bins * (hi - lo), k * step) + lo
    edges[-1] = hi
    too_wide = ~np.isfinite(edges).all(axis=0)
    if too_wide.any():
        j = int(np.argmax(too_wide))
        raise OutOfRange(f"column {j} spans {lo[j]:g} to {hi[j]:g}, too wide to bin")
    # searchsorted(side="right") - 1, as the count of edges at or below a
    # cell; a cell on the last edge falls in the last bin
    codes = (edges[:, None, :] <= x).sum(axis=0) - 1 - (x == hi)
    # one bincount per chunk of pairs i <= j (of at most 2**20 cells: one chunk
    # unless bins is large), pair k's cells from k * bins**2 on
    first, second = np.triu_indices(p)
    chunk = 2**20 // bins**2
    pair_mi = []
    for at in range(0, len(first), chunk):
        i, j = first[at : at + chunk], second[at : at + chunk]
        cells = codes[:, i] * bins + codes[:, j] + np.arange(len(i)) * bins**2
        counts = np.bincount(cells.ravel(), minlength=len(i) * bins**2)
        joint = counts.reshape(-1, bins, bins) / n
        marginals = joint.sum(axis=2)[:, :, None] * joint.sum(axis=1)[:, None, :]
        nonzero = joint > 0.0
        ratio = joint[nonzero] / marginals[nonzero]
        terms = joint[nonzero] * np.log2(ratio)
        # each pair's sum over its own run of terms, to the bits of a sum alone
        stops = np.cumsum(nonzero.sum(axis=(1, 2))).tolist()
        pair_mi += [np.add.reduce(terms[a:b]) for a, b in zip([0, *stops], stops)]
    mi = np.empty((p, p))
    mi[first, second] = mi[second, first] = pair_mi
    return mi


def morans_i(values, w: SpatialWeights) -> float:
    """Moran's I spatial autocorrelation of a field over weighted sites.

        I = (n / sum_ij W_ij) * sum_ij W_ij (x_i - m)(x_j - m) / sum_i (x_i - m)^2

    Positive values mean similar sites are linked by heavy weights;
    under random labeling the expectation is -1/(n-1).
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ShapeMismatch(f"values must be 1-D, got shape {x.shape}")
    if x.shape[0] != w.n:
        raise ShapeMismatch(f"{x.shape[0]} values for {w.n} sites")
    if x.shape[0] < 3:
        raise TooFewRows(x.shape[0], 3)
    if not np.all(np.isfinite(x)):
        raise OutOfRange("values must be finite")
    centered = x - x.mean()
    denom = float(np.sum(centered**2))
    if denom == 0.0:
        raise ConstantSeries("field has no variation")
    cross = float(centered @ w.weights @ centered)
    return (w.n / float(w.weights.sum())) * cross / denom
