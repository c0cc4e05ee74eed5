"""Oracles for the bit-identity tests: the column statistics, whitening,
FastICA loop and PCA scores as they were computed on rows x columns
arrays, before the package moved its hot paths to columns x rows copies.

Every function here repeats the older arithmetic operation for operation,
so the package must reproduce its results bit for bit.  The BLAS products
that changed operand layout in the move are ``k @ pre`` in whitening,
``xct @ xct.T`` in the column moments, ``gu @ z`` and ``z @ w.T`` with an
F-ordered ``z`` in FastICA, ``pre.T @ loadings`` in PCA scores and the
scenario mixing product; each gives the same bits as its rows x columns
form on the BLAS these tests run on.  :func:`signed_eigh` is the signed
symmetric eigensolve that PCA's loadings, and so whitening's rows, come
from and are checked against.
"""

import numpy as np

from riversep.cli import _BENCH_SCENARIOS
from riversep.ica import IcaModel, _sym_decorrelate
from riversep.linalg import _ZERO_VAR_REL, _column_signs
from riversep.synth import generate_scenario

# the source distributions of every synth-bench scenario
SCENARIOS = tuple(dists for _, dists in _BENCH_SCENARIOS)


def fifty_by_eleven(seed):
    """A seeded 50x11 table with correlated columns on unequal scales and
    offsets, the shape of the bundled record's model input."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((50, 11)) @ rng.standard_normal((11, 11))
    return x * rng.uniform(0.1, 100.0, 11) + rng.uniform(-50.0, 50.0, 11)


def tables():
    """Seeded 50x11 tables, the same on column scales from 10**-30 to
    10**30, and 5000-row synth-bench observations."""
    for seed in range(5):
        yield fifty_by_eleven(seed)
    for seed in range(20):
        scales = 10.0 ** np.random.default_rng(seed).uniform(-30.0, 30.0, 11)
        yield fifty_by_eleven(seed % 5) * scales
    for dists in SCENARIOS[:3]:
        for seed in range(2):
            yield generate_scenario(dists, rows=5000, seed=seed).observed


def column_mean(x):
    n = x.shape[0]
    return np.ones(n) @ x / n


def signed_eigh(s):
    """LAPACK's eigenpairs of ``s``, eigenvalues descending (ties keep
    LAPACK's order), each vector oriented by the ``_column_signs`` rule."""
    values, vectors = np.linalg.eigh(s)
    order = np.argsort(-values, kind="stable")
    vectors = vectors[:, order]
    return values[order], vectors * _column_signs(vectors)


def whiten(x, n_components, standardize):
    """``(z, k, a, sd)``: the whitened rows ``z`` of the centered input,
    standardized when asked, from the signed eigenpairs of its column
    moments; the rotation ``k`` of the centered, standardized or not,
    input; ``a``, the stdev-scaled eigenvectors that map unit-variance
    sources back; and the column sds."""
    mean, sd, c = column_moments(x, standardize)
    values, vectors = signed_eigh(c)
    stdevs = np.sqrt(np.clip(values, 0.0, None))[:n_components]
    vectors = vectors[:, :n_components]
    k = (vectors / stdevs).T
    pre = x - mean
    if standardize:
        pre = pre / sd
    return pre @ k.T, k, vectors * stdevs, sd


def contrast(u):
    gu = np.tanh(u)
    return gu, 1.0 - gu**2


def fast_ica(x, cfg, standardize):
    n = x.shape[0]
    k = cfg.n_components
    z, whitening, a, sd = whiten(x, k, standardize)
    zt = np.ascontiguousarray(z.T)
    w = _sym_decorrelate(np.random.default_rng(cfg.seed).standard_normal((k, k)))
    deltas = []
    converged = False
    for iterations in range(1, cfg.max_iter + 1):
        gu, gprime = contrast(w @ zt)
        w_new = _sym_decorrelate(gu @ z / n - gprime.mean(axis=1)[:, None] * w)
        delta = float(np.max(np.abs(1.0 - np.abs(np.sum(w_new * w, axis=1)))))
        converged = delta < cfg.tol and bool(deltas) and delta <= deltas[-1]
        deltas.append(delta)
        w = w_new
        if converged:
            break
    mixing = a @ w.T
    order = np.argsort(-np.sum(mixing**2, axis=0), kind="stable")
    signs = _column_signs(mixing[:, order])
    mixing = mixing[:, order] * signs
    w = w[order] * signs[:, None]
    if standardize:
        whitening = whitening / sd
        mixing = sd[:, None] * mixing
    return IcaModel(
        sources=z @ w.T,
        unmixing=w @ whitening,
        mixing=mixing,
        converged=converged,
        iterations=iterations,
        delta_history=tuple(deltas),
    )


def column_moments(m, standardize):
    """``(mean, sd, c)`` without the zero-variance check; a correlation is
    clipped to [-1, 1]."""
    n = m.shape[0]
    mean = column_mean(m)
    xc = m - mean
    c = xc.T @ xc / (n - 1)
    sd = np.sqrt(np.diag(c))
    if standardize:
        c /= np.outer(sd, sd)
        return mean, sd, np.clip((c + c.T) / 2.0, -1.0, 1.0)
    return mean, sd, (c + c.T) / 2.0


def scores(model, x):
    pre = x - model.mean
    if model.scaled:
        pre = pre / model.sd
    return pre @ model.loadings


def mixing_product(sources, mixing):
    return sources @ mixing.T


def centered_columns(x):
    n = x.shape[0]
    mean = column_mean(x)
    xc = x - mean
    ss = np.ones(n) @ (xc * xc)
    live = ss > _ZERO_VAR_REL**2 * (ss + n * mean**2)
    inv = np.zeros_like(ss)
    inv[live] = 1.0 / np.sqrt(ss[live])
    return xc, inv
