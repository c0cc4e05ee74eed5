"""Deterministic builder for the bundled station fixture.

Writes a 51-year quarterly record (204 rows, 32 variables) shaped so the
default pipeline produces pre-registered stage counts:

    ingest            204 x 32
    filter            200 x 30   (4 rows lack the required nitrate value;
                                  2 sparse variables fall below min_count)
    annual_mean        51 x 30
    drop_na_columns    51 x 17   (13 variables each miss one full year)
    drop_redundant     51 x 11   (6 composite codes removed by rule)
    difference         50 x 11

Variable values are linear blends of three latent annual series plus
seasonality and noise, so the decomposition models see genuine shared
structure.  Composite columns are exact arithmetic combinations of their
parts.  Regenerating the file always yields identical bytes.
:func:`station` returns the text together with the drivers and loadings
it drew, the one home of the fixture's truth.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SEED = 18670214
YEARS = range(1950, 2001)
QUARTER_DAYS = ((1, 15), (4, 15), (7, 15), (10, 15))

# code -> (base level, latent amplitude, noise sd, per-quarter seasonal shift)
ELEMENTARY = {
    "00010": (12.0, 1.0, 0.8, (-8.0, 2.0, 9.0, -1.0)),
    "00300": (9.5, 0.5, 0.3, (1.5, -0.5, -1.8, 0.6)),
    "00400": (7.8, 0.2, 0.06, (0.0, 0.05, -0.05, 0.0)),
    "00405": (6.0, 1.0, 0.4, (0.5, -0.2, -0.6, 0.3)),
    "00605": (0.85, 0.18, 0.05, (0.05, -0.02, -0.05, 0.02)),
    "00608": (0.32, 0.09, 0.03, (0.02, -0.01, -0.02, 0.01)),
    "00613": (0.055, 0.012, 0.004, (0.002, 0.0, -0.003, 0.001)),
    "00618": (1.40, 0.35, 0.08, (0.10, -0.04, -0.12, 0.05)),
    "00660": (0.24, 0.06, 0.02, (0.01, 0.0, -0.015, 0.005)),
    "00665": (0.31, 0.07, 0.02, (0.015, 0.0, -0.02, 0.005)),
    "00940": (18.0, 4.0, 1.2, (1.0, -0.5, -1.2, 0.7)),
}

# Variables removed because they restate other columns: each maps to the
# parts it is computed from (nitrogen bookkeeping plus unit variants).
COMPOSITES = {
    "00631": ("00618", "00613"),
    "00625": ("00605", "00608"),
    "00600": ("00625", "00618", "00613"),
    "71887": ("00600",),
    "71845": ("00608",),
    "71851": ("00618",),
}
_UNIT_FACTORS = {"71845": 18.039 / 14.007, "71851": 62.005 / 14.007, "71887": 1.0}

# Variables that each skip one full calendar year of sampling.
GAP_VARIABLES = {
    "00095": 1951,
    "00530": 1953,
    "00535": 1956,
    "00545": 1959,
    "00550": 1961,
    "00915": 1964,
    "00925": 1970,
    "00930": 1973,
    "00935": 1976,
    "00945": 1982,
    "00950": 1985,
    "00955": 1988,
    "70300": 1993,
}
_GAP_LEVELS = {
    "00095": (420.0, 60.0, 18.0),
    "00530": (22.0, 5.0, 1.5),
    "00535": (14.0, 3.0, 1.0),
    "00545": (9.0, 2.0, 0.7),
    "00550": (5.5, 1.2, 0.4),
    "00915": (34.0, 6.0, 2.0),
    "00925": (11.0, 2.5, 0.8),
    "00930": (16.0, 3.5, 1.1),
    "00935": (2.8, 0.6, 0.2),
    "00945": (28.0, 5.0, 1.6),
    "00950": (0.9, 0.2, 0.06),
    "00955": (12.0, 2.5, 0.8),
    "70300": (310.0, 45.0, 14.0),
}

# Dates on which the required nitrate determination (00618) is missing;
# these four rows are the ones the filter drops.
NITRATE_MISSING = (
    datetime.date(1955, 4, 15),
    datetime.date(1967, 7, 15),
    datetime.date(1978, 1, 15),
    datetime.date(1990, 10, 15),
)

SPARSE_DATES = {
    "00078": (
        datetime.date(1994, 4, 15),
        datetime.date(1994, 7, 15),
        datetime.date(1995, 4, 15),
        datetime.date(1996, 7, 15),
        datetime.date(1997, 4, 15),
        datetime.date(1998, 7, 15),
        datetime.date(1999, 4, 15),
        datetime.date(2000, 7, 15),
    ),
    "71820": (
        datetime.date(1996, 1, 15),
        datetime.date(1997, 7, 15),
        datetime.date(1998, 4, 15),
        datetime.date(1999, 10, 15),
        datetime.date(2000, 4, 15),
    ),
}
_SPARSE_LEVELS = {"00078": (1.2, 0.25, 0.1), "71820": (0.9998, 0.0003, 0.0001)}


def _dates():
    return [
        datetime.date(y, m, d) for y in YEARS for m, d in QUARTER_DAYS
    ]


@dataclass(frozen=True)
class Station:
    """What :func:`station` built: the record ``text`` (tab-delimited, '#'
    comments); the three latent annual ``drivers``, standardized random
    walks, row i the year ``YEARS[i]``; and each series' ``loadings`` on
    them, ``amp`` times a unit direction, by variable code."""

    text: str
    drivers: np.ndarray
    loadings: dict


def station() -> Station:
    """Build the fixture and the truth it was drawn from."""
    rng = np.random.default_rng(SEED)
    latents = []
    for _ in range(3):
        walk = np.cumsum(rng.normal(size=len(YEARS)))
        latents.append((walk - walk.mean()) / walk.std(ddof=1))
    drivers = np.column_stack(latents)
    z = dict(zip(YEARS, drivers))
    dates = _dates()

    columns: dict[str, dict] = {}
    loadings = {}

    def series(code, base, amp, noise_sd, seasonal):
        load = rng.normal(size=3)
        load /= np.sqrt((load**2).sum())
        loadings[code] = amp * load
        vals = {}
        for d in dates:
            q = (d.month - 1) // 3
            vals[d] = (
                base
                + amp * float(load @ z[d.year])
                + seasonal[q]
                + noise_sd * rng.normal()
            )
        columns[code] = vals

    for code, (base, amp, noise_sd, seasonal) in ELEMENTARY.items():
        series(code, base, amp, noise_sd, seasonal)
    for code, (base, amp, noise_sd) in _GAP_LEVELS.items():
        series(code, base, amp, noise_sd, (0.0, 0.0, 0.0, 0.0))
    for code, (base, amp, noise_sd) in _SPARSE_LEVELS.items():
        series(code, base, amp, noise_sd, (0.0, 0.0, 0.0, 0.0))

    # Knock out the required-variable rows and the full gap years.
    for d in NITRATE_MISSING:
        del columns["00618"][d]
    for code, gap_year in GAP_VARIABLES.items():
        for d in dates:
            if d.year == gap_year:
                del columns[code][d]
    for code, keep in SPARSE_DATES.items():
        columns[code] = {d: v for d, v in columns[code].items() if d in keep}

    # Composites are exact combinations of whatever parts are present.
    for code, parts in COMPOSITES.items():
        factor = _UNIT_FACTORS.get(code, 1.0)
        vals = {}
        for d in dates:
            if all(d in columns[p] for p in parts):
                vals[d] = factor * sum(columns[p][d] for p in parts)
        columns[code] = vals

    codes = sorted(columns)
    lines = [
        "# Synthetic quarterly water-quality record, one station",
        "# 1950-2000, four samples per year; values in native units",
        "# built by tests/station_builder.py -- do not edit by hand",
        "datetime\t" + "\t".join(codes),
        "10d\t" + "\t".join(["12n"] * len(codes)),
    ]
    for d in dates:
        cells = []
        for code in codes:
            v = columns[code].get(d)
            cells.append("" if v is None else f"{v:.3f}")
        lines.append(d.isoformat() + "\t" + "\t".join(cells))
    return Station("\n".join(lines) + "\n", drivers, loadings)


def main():
    target = Path(__file__).parent / "fixtures" / "station_fixture.rdb"
    target.write_text(station().text)
    print(f"wrote {target}")


if __name__ == "__main__":
    main()
