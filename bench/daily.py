"""Seeded synthetic daily RDB record for the ``daily_record`` workload.

One record is 60 years of daily rows by 24 variables, about 30% of cells
empty.  Each preprocessing stage finds something to remove:

* ``filter``: the required variable has scattered empty days, whose rows
  go; one variable has too few samples to pass ``min_count``.
* ``drop_na_columns``: three variables are empty for one whole year.
* ``drop_redundant``: two composites are exact sums of their parts.

:func:`expected_preprocessed` recomputes the preprocessed table from the
generator's own arrays with plain numpy, as the reference the CLI output
is checked against.
"""

from __future__ import annotations

import datetime
import json

import numpy as np

START_YEAR = 1960
YEARS = 60
MIN_COUNT = 100

REQUIRED = "00060"
SPARSE = "00095"
GAPPED = ("00300", "00400", "00405")
# composite -> parts; each composite cell is the sum of its parts' cells
COMPOSITES = {
    "00600": ("00605", "00608"),
    "00631": ("00613", "00618", "00620"),
}
PLAIN = (
    "00010", "00530", "00535", "00545", "00550", "00660", "00665",
    "00915", "00925", "00930", "00935", "00940",
)
CODES = (
    (REQUIRED, SPARSE)
    + GAPPED
    + tuple(COMPOSITES)
    + tuple(p for parts in COMPOSITES.values() for p in parts)
    + PLAIN
)

# Share of days on which a variable was sampled.
_P_REQUIRED = 0.90
_P_SAMPLED = 0.74
_SPARSE_SAMPLES = 40


def dates() -> list[datetime.date]:
    first = datetime.date(START_YEAR, 1, 1)
    last = datetime.date(START_YEAR + YEARS - 1, 12, 31)
    return [first + datetime.timedelta(days=i) for i in range((last - first).days + 1)]


def generate(seed: int) -> tuple[bytes, np.ndarray]:
    """Return the RDB bytes and the parsed-back values (NaN = empty cell).

    Values are written with three decimals; the returned array holds
    ``float`` of exactly the text written, so it equals what the parser
    reads.
    """
    rng = np.random.default_rng(seed)
    days = dates()
    n = len(days)
    p = len(CODES)
    col = {c: j for j, c in enumerate(CODES)}

    t = np.arange(n) / 365.25
    level = rng.uniform(1.0, 100.0, size=p)
    trend = rng.normal(0.0, 0.004, size=p)
    season = rng.uniform(0.05, 0.3, size=p)
    phase = rng.uniform(0.0, 2 * np.pi, size=p)
    noise = rng.uniform(0.02, 0.1, size=p)
    shape = (
        1.0
        + trend * t[:, None]
        + season * np.sin(2 * np.pi * t[:, None] + phase)
        + noise * rng.standard_normal((n, p))
    )
    values = np.round(level * np.clip(shape, 0.05, None), 3)

    present = rng.random((n, p)) < _P_SAMPLED
    present[:, col[REQUIRED]] = rng.random(n) < _P_REQUIRED
    present[:, col[SPARSE]] = False
    present[rng.choice(n, _SPARSE_SAMPLES, replace=False), col[SPARSE]] = True
    years = np.array([d.year for d in days])
    for code in GAPPED:
        gap_year = START_YEAR + int(rng.integers(1, YEARS - 1))
        present[years == gap_year, col[code]] = False
    for composite, parts in COMPOSITES.items():
        idx = [col[q] for q in parts]
        values[:, col[composite]] = np.round(values[:, idx].sum(axis=1), 3)
        present[:, col[composite]] = present[:, idx].all(axis=1)

    lines = [
        "# Synthetic daily water-quality record, one station",
        f"# seed {seed}; {START_YEAR}-{START_YEAR + YEARS - 1}",
        "datetime\t" + "\t".join(CODES),
        "\t".join(["10d"] + ["12n"] * p),
    ]
    lines.extend(
        d.isoformat() + "\t" + "\t".join([f"{v:.3f}" if q else "" for v, q in zip(row, mask)])
        for d, row, mask in zip(days, values.tolist(), present.tolist())
    )
    # values are k / 1000 exactly rounded, so the three-decimal text reads
    # back as the same double
    return ("\n".join(lines) + "\n").encode("ascii"), np.where(present, values, np.nan)


def config_json(input_name: str, output_dir: str) -> str:
    """Run config: every preprocessing stage, no model settings needed."""
    return json.dumps(
        {
            "input": {"path": input_name},
            "filter": {
                "min_count": MIN_COUNT,
                "start": f"{START_YEAR}-01-01",
                "end": f"{START_YEAR + YEARS - 1}-12-31",
                "required_variable": REQUIRED,
            },
            "redundancy_rules": [
                {"composite": c, "parts": list(parts)} for c, parts in COMPOSITES.items()
            ],
            "pipeline": [
                "filter",
                "annual_mean",
                "drop_na_columns",
                "drop_redundant",
                "difference",
            ],
            "output_dir": output_dir,
        },
        indent=2,
    )


def expected_preprocessed(values: np.ndarray) -> tuple[list[str], list[int], np.ndarray]:
    """Codes, years and values of ``preprocessed.csv``, from plain numpy."""
    years = np.array([d.year for d in dates()])
    keep_rows = ~np.isnan(values[:, CODES.index(REQUIRED)])
    v = values[keep_rows]
    y = years[keep_rows]
    enough = (~np.isnan(v)).sum(axis=0) >= MIN_COUNT
    enough[CODES.index(REQUIRED)] = True

    all_years = np.unique(y)
    rows = np.searchsorted(all_years, y)
    sums = np.column_stack(
        [np.bincount(rows, np.nan_to_num(c), len(all_years)) for c in v.T]
    )
    counts = np.column_stack(
        [np.bincount(rows, ~np.isnan(c), len(all_years)) for c in v.T]
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        means = sums / counts
    keep = enough & ~np.isnan(means).any(axis=0)
    kept_codes = {c for c, k in zip(CODES, keep) if k}
    for composite, parts in COMPOSITES.items():
        if composite in kept_codes and set(parts) <= kept_codes:
            keep[CODES.index(composite)] = False
    codes = [c for c, k in zip(CODES, keep) if k]
    annual = means[:, keep]
    return codes, [int(t) for t in all_years[1:]], annual[1:] - annual[:-1]
