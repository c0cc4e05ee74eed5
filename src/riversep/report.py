"""Deterministic text formatting for CLI output files.

All numeric output funnels through :func:`format_number` so that reruns on
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterator

import numpy as np

# Values whose magnitude falls outside this window switch to scientific
# notation.
_PLAIN_LO = 1e-4
_PLAIN_HI = 1e6

MISSING_TOKEN = "NA"


def format_number(x: float) -> str:
    """Format ``x`` with 12 significant digits.

    Plain decimal notation inside |x| in [1e-4, 1e6), lowercase scientific
    outside it.  NaN renders as the missing-value token.
    """
    x = float(x)
    if math.isnan(x):
        return MISSING_TOKEN
    if x == 0.0:
        return "0"
    ax = abs(x)
    if _PLAIN_LO <= ax < _PLAIN_HI:
        return f"{x:.12g}"
    return f"{x:.11e}"


def format_rows(values) -> Iterator[list[str]]:
    """Yield each row of a 2-D array as :func:`format_number` strings.

    The plain-window test runs once over the whole array, so a cell inside
    the window is formatted directly; every other cell (NaN, zero,
    scientific notation) goes through :func:`format_number`.  Rows are made
    one at a time, so a caller can stream them to a writer.
    """
    values = np.asarray(values, dtype=float)
    magnitude = np.abs(values)
    plain = (magnitude >= _PLAIN_LO) & (magnitude < _PLAIN_HI)
    for row, row_plain in zip(values.tolist(), plain.tolist()):
        yield [f"{x:.12g}" if p else format_number(x) for x, p in zip(row, row_plain)]


def format_loading(x: float) -> str:
    """Fixed 7-decimal formatting used for loading tables."""
    return f"{float(x):.7f}"


def write_json(path: Path, obj) -> None:
    """Write ``obj`` as canonical JSON (sorted keys, stable separators)."""
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
