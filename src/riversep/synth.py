"""Synthetic mixing scenarios for benchmarking the separation methods.

Every scenario is reproducible bit-for-bit from its parameters: each source
column, the mixing matrix, and the noise field draw from independent
children of one seed sequence, so adding a source never shifts the columns
that were already there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConditioningFailed, OutOfRange, ShapeMismatch
from .ica import IcaModel, amari_index
from .linalg import _ZERO_VAR_REL, _column_mean
from .pca import PcaModel, scores

# How many mixing matrices to draw before giving up on the condition bound.
_MAX_MIXING_DRAWS = 50


@dataclass(frozen=True)
class SyntheticScenario:
    """Ground-truth sources, the mixing that blends them, and the result."""

    sources: np.ndarray
    mixing: np.ndarray
    observed: np.ndarray
    distributions: tuple[str, ...]
    noise_sd: float
    seed: int

    @property
    def n_sources(self) -> int:
        return self.sources.shape[1]

    @cached_property
    def _centered_sources(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_centered_columns` of the sources, computed once for every
        model scored against them."""
        return _centered_columns(self.sources)


@dataclass(frozen=True)
class RecoveryReport:
    """How well a fitted model recovered a scenario's sources."""

    method: str
    amari: float
    matched_correlations: tuple[float, ...]


def _draw_source(rng: np.random.Generator, distribution: str, rows: int) -> np.ndarray:
    if distribution == "uniform":
        # [-sqrt(3), sqrt(3)] has unit population variance
        s = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), size=rows)
    elif distribution == "laplace":
        # inverse-CDF transform of a uniform; b = 1/sqrt(2) gives unit variance
        u = rng.uniform(0.0, 1.0, size=rows) - 0.5
        b = 1.0 / np.sqrt(2.0)
        s = -b * np.sign(u) * np.log1p(-2.0 * np.abs(u))
    elif distribution == "gaussian":
        s = rng.standard_normal(rows)
    else:
        raise OutOfRange(f"unknown source distribution {distribution!r}")
    # exactly zero-mean, unit-sd: the arithmetic of (s - s.mean()) /
    # s.std(ddof=1), centering once
    d = s - np.add.reduce(s) / rows
    return d / np.sqrt(np.add.reduce(d * d) / (rows - 1))


def generate_scenario(
    distributions: Sequence[str],
    rows: int,
    n_observed: int | None = None,
    noise_sd: float = 0.0,
    mixing_condition_max: float = 50.0,
    seed: int = 0,
) -> SyntheticScenario:
    """Draw standardized sources, a well-conditioned mixing, and the blend.

    ``observed = sources @ mixing.T + noise``.  The mixing matrix is
    redrawn (up to 50 times) until its condition number is within
    ``mixing_condition_max``.
    """
    k = len(distributions)
    if k < 1:
        raise OutOfRange("need at least one source distribution")
    if rows < 3:
        raise OutOfRange("need at least three rows")
    if noise_sd < 0:
        raise OutOfRange("noise_sd must be non-negative")
    if mixing_condition_max < 1.0:
        raise OutOfRange("a condition number bound below 1 is unsatisfiable")
    p = k if n_observed is None else n_observed
    if p < k:
        raise ShapeMismatch(f"{p} observed channels cannot carry {k} sources")

    # independent child streams: 0 -> mixing, 1 -> noise, 2 + i -> source i;
    # extending the source list leaves earlier streams untouched
    children = np.random.SeedSequence(seed).spawn(2 + k)
    mixing_rng = np.random.default_rng(children[0])

    cols = [
        _draw_source(np.random.default_rng(children[2 + i]), dist, rows)
        for i, dist in enumerate(distributions)
    ]
    sources = np.column_stack(cols)

    best = np.inf
    mixing = None
    for _attempt in range(_MAX_MIXING_DRAWS):
        cand = mixing_rng.standard_normal((p, k))
        cond = float(np.linalg.cond(cand))
        if cond < best:
            best = cond
        if cond <= mixing_condition_max:
            mixing = cand
            break
    if mixing is None:
        raise ConditioningFailed(_MAX_MIXING_DRAWS, best)

    # sources @ mixing.T, fast with the F-ordered left operand
    observed = np.stack(cols).T @ mixing.T
    if noise_sd > 0:
        noise_rng = np.random.default_rng(children[1])
        observed = observed + noise_sd * noise_rng.standard_normal((rows, p))

    return SyntheticScenario(
        sources=sources,
        mixing=mixing,
        observed=observed,
        distributions=tuple(distributions),
        noise_sd=float(noise_sd),
        seed=int(seed),
    )


def _centered_columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(xc, inv)``: the centered columns and the reciprocals of their
    lengths.  A column whose centered length is rounding next to its own
    length (zero variance) gets ``inv`` 0, so its correlations read 0.

    This stays rows x columns, unlike the fits: the means, the sums of
    squares and :func:`_greedy_match`'s cross product sum in an order set
    by the layout, and a columns x rows copy moves written correlations.
    The centering runs column by column in ``x``'s layout: a difference
    has the same bits in any order, and a broadcast row is twice as slow.
    """
    n = x.shape[0]
    mean = _column_mean(x)
    xc = np.empty_like(x)
    for j, m in enumerate(mean):
        np.subtract(x[:, j], m, out=xc[:, j])
    ss = np.ones(n) @ (xc * xc)
    # the column's own sum of squares is ss + n * mean**2
    live = ss > _ZERO_VAR_REL**2 * (ss + n * mean**2)
    inv = np.zeros_like(ss)
    inv[live] = 1.0 / np.sqrt(ss[live])
    return xc, inv


def _greedy_match(truth, recovered: np.ndarray) -> tuple[float, ...]:
    """Pair each true source with its best remaining recovered column by
    absolute correlation; returns per-true-source |corr| in source order.
    ``truth`` is the :func:`_centered_columns` pair of the true sources."""
    a, inv_a = truth
    k = a.shape[1]
    b, inv_b = _centered_columns(recovered)
    corr = np.minimum(np.abs(a.T @ b) * np.outer(inv_a, inv_b), 1.0)
    out = {}
    remaining = corr.copy()
    for _ in range(k):
        i, j = np.unravel_index(np.argmax(remaining), remaining.shape)
        out[int(i)] = float(corr[i, j])
        remaining[i, :] = -1.0
        remaining[:, j] = -1.0
    return tuple(out[i] for i in range(k))


def evaluate_recovery(scenario: SyntheticScenario, model) -> RecoveryReport:
    """Score a fitted :class:`IcaModel` or :class:`PcaModel` against truth.

    The Amari index compares the model's effective unmixing with the true
    mixing; the matched correlations pair recovered components to true
    sources greedily by absolute correlation.
    """
    k = scenario.n_sources
    if isinstance(model, IcaModel):
        if model.unmixing.shape[0] != k:
            raise ShapeMismatch(
                f"model extracts {model.unmixing.shape[0]} components, "
                f"scenario has {k} sources"
            )
        w_full = model.unmixing @ model.whitening
        recovered = model.sources
        method = "ica"
    elif isinstance(model, PcaModel):
        if model.loadings.shape[0] != scenario.mixing.shape[0]:
            raise ShapeMismatch("model and scenario disagree on channel count")
        # the transposed loadings act as the unmixing of the leading subspace
        w_full = model.loadings[:, :k].T
        recovered = scores(model, scenario.observed)[:, :k]
        method = "pca"
    else:
        raise ShapeMismatch(f"cannot evaluate model of type {type(model).__name__}")

    return RecoveryReport(
        method=method,
        amari=amari_index(w_full, scenario.mixing),
        matched_correlations=_greedy_match(scenario._centered_sources, recovered),
    )
