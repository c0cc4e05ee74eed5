"""Deterministic text formatting for CLI output files.

All numeric output funnels through :func:`format_number` so that reruns on
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
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

# Rows :func:`format_rows` converts to Python floats at a time.
_ROW_BLOCK = 4096


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


def format_rows(values) -> Iterator[str]:
    """Yield each row of a 2-D array as one line of :func:`format_number`
    cells joined by commas.

    A row of only zeros, NaNs and plain-window cells is one ``%`` call:
    ``%.12g`` writes a double as ``f"{x:.12g}"`` does, NaN as ``nan`` (then
    replaced by the missing token), and zero as ``0`` once adding 0.0 has
    turned -0.0 into 0.0.  Other rows go cell by cell.  Rows are turned
    into Python floats ``_ROW_BLOCK`` at a time, so a large table never
    holds all its cells as Python objects at once.
    """
    values = np.asarray(values, dtype=float)
    row_format = ",".join(["%.12g"] * values.shape[1])
    for start in range(0, len(values), _ROW_BLOCK):
        block = values[start : start + _ROW_BLOCK] + 0.0
        magnitude = np.abs(block)
        simple = (
            ((magnitude >= _PLAIN_LO) & (magnitude < _PLAIN_HI))
            | (block == 0.0)
            | np.isnan(block)
        ).all(axis=1)
        for row, row_simple in zip(block.tolist(), simple.tolist()):
            if row_simple:
                yield (row_format % tuple(row)).replace("nan", MISSING_TOKEN)
            else:
                yield ",".join(map(format_number, row))


def keyed_lines(keys, lines) -> str:
    """Text of one ``key,line`` line per row.  An empty line (a table with
    no columns) leaves the key alone, as :mod:`csv` writes such a row."""
    return "".join(
        f"{key},{line}\n" if line else f"{key}\n" for key, line in zip(keys, lines)
    )


def csv_header(fields) -> str:
    """One CSV line of ``fields``, quoted where :mod:`csv` needs to."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(fields)
    return out.getvalue()


def csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted where :mod:`csv` needs to."""
    return csv_header([text])[:-1]


def format_loading(x: float) -> str:
    """Fixed 7-decimal formatting used for loading tables."""
    return f"{float(x):.7f}"


def write_json(path: Path, obj) -> None:
    """Write ``obj`` as canonical JSON (sorted keys, stable separators)."""
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
