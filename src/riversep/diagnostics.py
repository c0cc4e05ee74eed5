"""Statistical screening checks used around the decomposition models.

Three diagnostics: temporal autocorrelation of a single series, a
histogram estimate of mutual information between two series or between
every pair of columns (the independence measure the separation models aim
to drive toward zero), and Moran's I for spatial dependence across sites.
All are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    ConstantField,
    ConstantSeries,
    DegenerateRange,
    LengthMismatch,
    OutOfRange,
    ShapeMismatch,
    TooShort,
)


class AcfResult(NamedTuple):
    """Autocorrelation values at lags 0..max_lag with a white-noise band.

    ``conf_band`` is the approximate 95% threshold ``1.96 / sqrt(n)``; a
    white-noise series keeps roughly 95% of its nonzero-lag values inside
    ``±conf_band``.
    """

    lags: np.ndarray
    values: np.ndarray
    n: int
    conf_band: float


@dataclass(frozen=True)
class SpatialWeights:
    """Non-negative site-to-site weights with an exactly zero diagonal."""

    weights: np.ndarray = field()

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
    """Sample autocorrelation function of one series.

    Uses the biased estimator: every lag's cross-sum is divided by the
    full-series sum of squares about the full-series mean.  This keeps
    every value in [-1, 1] (each numerator is a Cauchy-Schwarz fragment of
    the denominator) at the cost of damping high lags toward zero.

    Parameters
    ----------
    series : array_like, shape (n,)
        The observations, in time order.
    max_lag : int
        Largest lag to evaluate; the series must have at least
        ``max_lag + 2`` points.

    Returns
    -------
    AcfResult
        Values at lags 0..max_lag; the lag-0 value is exactly 1.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ShapeMismatch(f"series must be 1-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise OutOfRange("series must be finite")
    if max_lag < 0:
        raise OutOfRange(f"max_lag must be non-negative, got {max_lag}")
    n = x.shape[0]
    if n < max_lag + 2:
        raise TooShort(n, max_lag + 2)
    # a sum of squares past the largest float is rejected, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        centered = x - x.mean()
        denom = float(np.sum(centered**2))
    if not np.isfinite(denom):
        raise OutOfRange("series' sum of squares overflows")
    if denom == 0.0:
        raise ConstantSeries("series has no variation")
    values = np.empty(max_lag + 1)
    values[0] = 1.0
    for h in range(1, max_lag + 1):
        values[h] = float(np.sum(centered[:-h] * centered[h:])) / denom
    return AcfResult(
        lags=np.arange(max_lag + 1),
        values=values,
        n=n,
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
        raise LengthMismatch(x.shape[0], y.shape[0])
    return float(mutual_information_matrix(np.column_stack([x, y]), bins)[0, 1])


def mutual_information_matrix(x, bins: int = 8) -> np.ndarray:
    """Plug-in mutual information of every pair of columns of ``x``, in bits.

    Each column is binned once, onto ``bins`` equal-width intervals spanning
    its own range (``np.histogram2d``'s rule: a cell on the last edge falls
    in the last bin), and every pair's joint histogram is counted from the
    two columns' bin codes.  Entry (i, j) is
    :func:`mutual_information_discrete` of columns i and j; the diagonal is
    each column's binned entropy.

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
        raise TooShort(n, 10)
    if bins < 2:
        raise OutOfRange(f"bins must be at least 2, got {bins}")
    if not np.all(np.isfinite(x)):
        raise OutOfRange("series must be finite")
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    if np.any(lo == hi):
        raise DegenerateRange("cannot bin a range of zero width")
    codes = np.empty((p, n), dtype=np.intp)
    for j in range(p):
        with np.errstate(over="ignore", invalid="ignore"):
            edges = np.linspace(lo[j], hi[j], bins + 1)
        if not np.all(np.isfinite(edges)):
            raise OutOfRange(f"column {j} spans {lo[j]:g} to {hi[j]:g}, too wide to bin")
        codes[j] = np.searchsorted(edges, x[:, j], side="right") - 1
        codes[j][x[:, j] == edges[-1]] -= 1
    mi = np.empty((p, p))
    for i in range(p):
        rows = codes[i] * bins
        for j in range(i, p):
            counts = np.bincount(rows + codes[j], minlength=bins * bins)
            mi[i, j] = mi[j, i] = _plugin_mi(counts.reshape(bins, bins).astype(float))
    return mi


def _plugin_mi(counts: np.ndarray) -> float:
    """Mutual information, in bits, of a joint histogram of counts."""
    joint = counts / counts.sum()
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nonzero = joint > 0.0
    ratio = joint[nonzero] / np.outer(px, py)[nonzero]
    return float(np.sum(joint[nonzero] * np.log2(ratio)))


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
        raise TooShort(x.shape[0], 3)
    if not np.all(np.isfinite(x)):
        raise OutOfRange("values must be finite")
    centered = x - x.mean()
    denom = float(np.sum(centered**2))
    if denom == 0.0:
        raise ConstantField("field has no variation")
    cross = float(centered @ w.weights @ centered)
    return (w.n / float(w.weights.sum())) * cross / denom
