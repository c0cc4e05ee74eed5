"""Truth scorecard: how well PCA, FA and ICA recover the bundled fixture's
drivers and loadings, which :func:`station_builder.station` returns.

Every method's components are PCA's scores at Kaiser's count, FA's Bartlett
scores at the selected count and ICA's sources.  :func:`scorecard` gives
each method the matched mean |r| of its components with the drivers, the
mean of :func:`riversep.synth._best_match`'s per-driver |r| under the
best one-to-one pairing, and PCA and FA two subspace measures:

- the canonical correlations of the method's series with the drivers
  (Hotelling 1936, *Biometrika* 28:321);
- the cosines of the principal angles between the method's loadings and the
  true loadings in correlation units (Björck & Golub 1973, *Math. Comp.*
  27:579): PCA's eigenvectors, FA's loadings.

ICA rotates PCA's top k scores, so its subspace measures are PCA's at its
k, which ``tests/test_cli.py`` pins; it gets whether FastICA converged
instead.  Run as a script, it prints the table of :func:`variants` as
markdown, marking an unconverged ICA row::

    PYTHONPATH=src:tests python tests/scorecard.py
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from riversep.cli import _Pipeline
from riversep.config import load_config
from riversep.pca import kaiser_retain, scores
from riversep.synth import _best_match, _centered_columns
from station_builder import YEARS, station

CONFIG = Path(__file__).parent / "fixtures" / "pipeline.json"
STATION = station()


@dataclass(frozen=True)
class Row:
    """One method's score: its component count ``k`` and matched mean |r|;
    for PCA and FA the canonical correlations of its series with the
    drivers and the principal-angle cosines of its loadings against the
    true ones, each largest first; for ICA whether the fit converged."""

    k: int
    matched: float
    series: np.ndarray | None = None
    loadings: np.ndarray | None = None
    converged: bool | None = None


@dataclass(frozen=True)
class Card:
    """The model input's years, and a :class:`Row` per method."""

    years: list
    rows: dict


def cosines(a, b) -> np.ndarray:
    """Cosines of the principal angles between the column spaces of ``a``
    and ``b`` (same rows), largest first."""
    return np.linalg.svd(np.linalg.qr(a)[0].T @ np.linalg.qr(b)[0], compute_uv=False)


def canonical_correlations(a, b) -> np.ndarray:
    """Canonical correlations between the columns of ``a`` and ``b`` (same
    rows), largest first."""
    return cosines(a - a.mean(axis=0), b - b.mean(axis=0))


def scorecard(cfg) -> Card:
    """Run ``cfg`` on the fixture and score each method against the truth;
    the drivers are differenced year over year when its stages difference,
    and aligned to the model input's rows by year."""
    pipe = _Pipeline(cfg)
    table = pipe.model_input
    x = table.values
    years = table.index.tolist()
    drivers, driver_years = STATION.drivers, list(YEARS)
    if "difference" in cfg.pipeline:
        drivers, driver_years = drivers[1:] - drivers[:-1], driver_years[1:]
    drivers = drivers[[driver_years.index(year) for year in years]]
    centered = _centered_columns(drivers)

    def matched(series) -> float:
        return float(np.mean(_best_match(centered, series)))

    sd = x.std(axis=0, ddof=1)
    truth = np.array([STATION.loadings[code] for code in table.codes]) / sd[:, None]

    k = kaiser_retain(pipe.pca)
    pca_scores = scores(pipe.pca, x)[:, :k]
    pca = Row(
        k,
        matched(pca_scores),
        canonical_correlations(pca_scores, drivers),
        cosines(pipe.pca.loadings[:, :k], truth),
    )

    fits, selection = pipe.fa
    fa = fits[selection.k - 1]
    z = (x - x.mean(axis=0)) / sd
    weights = fa.loadings / fa.uniquenesses[:, None]  # Psi^-1 Lambda
    bartlett = np.linalg.solve(fa.loadings.T @ weights, (z @ weights).T).T
    fa_row = Row(
        fa.k,
        matched(bartlett),
        canonical_correlations(bartlett, drivers),
        cosines(fa.loadings, truth),
    )

    ica = pipe.ica
    ica_row = Row(
        ica.sources.shape[1], matched(ica.sources), converged=ica.converged
    )
    return Card(years, {"PCA": pca, "FA": fa_row, "ICA": ica_row})


def variants() -> dict:
    """The committed fixture config, that config without its required
    variable, on levels (no ``difference`` stage), and with both changes, by
    name."""
    cfg = load_config(CONFIG)
    unrequired = replace(cfg.filter_spec, required_variable=None)
    levels = tuple(stage for stage in cfg.pipeline if stage != "difference")
    return {
        "committed": cfg,
        "no required_variable": replace(cfg, filter_spec=unrequired),
        "levels": replace(cfg, pipeline=levels),
        "levels, no required_variable": replace(cfg, filter_spec=unrequired, pipeline=levels),
    }


def cells(values) -> str:
    """Values to three decimals, as the table and the README write them;
    none (ICA's subspace measures) as an empty cell."""
    return "" if values is None else " / ".join(f"{v:.3f}" for v in values)


def main():
    print("| variant | method | k | series correlations | loading cosines | matched mean abs r |")
    print("| --- | --- | ---: | --- | --- | ---: |")
    for name, cfg in variants().items():
        for method, row in scorecard(cfg).rows.items():
            score = f"{row.matched:.3f}"
            if row.converged is False:
                score += " (not converged)"
            print(
                f"| {name} | {method} | {row.k} | {cells(row.series)} "
                f"| {cells(row.loadings)} | {score} |"
            )


if __name__ == "__main__":
    main()
