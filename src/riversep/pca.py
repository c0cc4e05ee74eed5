"""Principal component analysis over preprocessed annual tables.

Components come from the symmetric eigendecomposition of the sample
covariance matrix of the always-centered input (its correlation matrix when
scaled) — not from an SVD of the data — so the loadings take the
package's deterministic eigenvector sign rule.  The model keeps all
components; retention rules are views on the spectrum, never refits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, RuleInapplicable, TooFewRows
from .linalg import _column_moments, _column_signs, _eigh_descending, as_matrix


@dataclass(frozen=True)
class PcaModel:
    """Fitted principal components.

    ``loadings`` holds one orthonormal eigenvector per column (variables x
    components); ``stdevs`` are the component standard deviations, i.e. the
    square roots of the covariance eigenvalues, in descending order.
    ``mean`` and ``sd`` are the training columns' means and sample (n-1)
    standard deviations, which :func:`scores` applies to new data; a model
    assembled by hand may leave them out.  Arrays are read-only by
    convention.
    """

    loadings: np.ndarray
    stdevs: np.ndarray
    scaled: bool
    mean: np.ndarray | None = None
    sd: np.ndarray | None = None

    @property
    def n_components(self) -> int:
        return len(self.stdevs)


def fit_pca(x, *, scale: bool = True) -> PcaModel:
    """Fit a PCA of the centered input with as many components as variables.

    With ``scale=True`` it decomposes the correlation that factor analysis
    fits (every variable weighted equally); without it, raw covariances.
    """
    m = as_matrix(x)
    n, p = m.shape
    if n < 3:
        raise TooFewRows(n, 3)
    if p < 2:
        raise OutOfRange("need at least two variables")
    # Centering does not change a covariance, so only scaling shapes the fit.
    mean, sd, c = _column_moments(m, standardize=scale)
    values, vectors = _eigh_descending(c)
    stdevs = np.sqrt(np.clip(values, 0.0, None))
    return PcaModel(
        loadings=vectors * _column_signs(vectors),
        stdevs=stdevs,
        scaled=scale,
        mean=mean,
        sd=sd,
    )


def kaiser_retain(model: PcaModel) -> int:
    """Number of components whose standard deviation exceeds 1 by more than
    rounding: by more than ``p * eps`` for ``p`` components (``eps`` the
    spacing of doubles at 1).

    Only meaningful for scaled fits, where each input variable contributes
    unit variance; a component above 1 explains more than any single
    variable does.  Uncorrelated variables have stdevs of exactly 1, but
    the computed (clipped) correlation diagonal is 1 only to a few ``eps``,
    and a symmetric eigensolver moves the eigenvalues of a matrix of norm 1
    by a small multiple of ``p * eps`` (half that in their square roots), so
    a strict ``> 1`` would count such a tie by its last bit.
    """
    if not model.scaled:
        raise RuleInapplicable("Kaiser rule requires a variance-scaled fit")
    tolerance = model.n_components * np.finfo(float).eps
    return int(np.sum(model.stdevs > 1.0 + tolerance))


def explained_variance(model: PcaModel, k: int) -> float:
    """Fraction of total variance carried by the first ``k`` components."""
    if not 1 <= k <= model.n_components:
        raise OutOfRange(f"k={k} outside 1..{model.n_components}")
    var = model.stdevs**2
    return float(var[:k].sum() / var.sum())


def scores(model: PcaModel, x) -> np.ndarray:
    """Project ``x`` onto the components.

    The input is centered with the training mean and, if the fit was
    scaled, divided by the training sd, then rotated by the loadings.  On
    the training data the score columns are uncorrelated with variances
    equal to ``stdevs**2``.
    The centering and scaling run on a variables x rows copy, as in
    whitening; the scores come back C-ordered, rows x components.
    """
    m = as_matrix(x)
    if m.shape[1] != model.loadings.shape[0]:
        raise OutOfRange(
            f"{m.shape[1]} columns, model was fit with {model.loadings.shape[0]}"
        )
    if model.mean is None or model.sd is None:
        raise RuleInapplicable("scores need the training mean and sd of a fit_pca model")
    pre = np.ascontiguousarray(m.T) - model.mean[:, None]
    if model.scaled:
        pre = pre / model.sd[:, None]
    return pre.T @ model.loadings  # fast for an F-ordered left operand
