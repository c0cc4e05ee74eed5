"""Deterministic text formatting for CLI output files.

All numeric output follows :func:`format_number`'s rule so that reruns on
identical inputs produce byte-identical files.  :func:`format_rows` writes
a table's fixed-decimal blocks from integer digits, with the same bytes.
"""

from __future__ import annotations

import csv
import functools
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

    Rows go ``_ROW_BLOCK`` at a time.  A block whose cells are all NaN,
    zero or fixed decimals takes :func:`_decimal_lines`, an exact integer
    path with the same bytes.  In any other block a row of only zeros,
    NaNs and plain-window cells is one ``%`` call: ``%.12g`` writes a
    double as ``f"{x:.12g}"`` does, NaN as ``nan`` (then replaced by the
    missing token), and zero as ``0`` once adding 0.0 has turned -0.0 into
    0.0.  Other rows go cell by cell.  Only one block of cells is turned
    into Python floats at a time, so a large table never holds all its
    cells as Python objects at once.
    """
    values = np.asarray(values, dtype=float)
    row_format = ",".join(["%.12g"] * values.shape[1])
    for start in range(0, len(values), _ROW_BLOCK):
        block = values[start : start + _ROW_BLOCK] + 0.0
        yield from _decimal_lines(block) or _row_lines(block, row_format)


def _row_lines(block, row_format) -> Iterator[str]:
    """The lines of ``block`` (2-D, no -0.0) by ``%`` row or by cell."""
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


# Cells whose repr :func:`_decimal_scale` reads to choose a scale.
_PROBE = 8
# A fixed decimal has at most this many significant digits, and so at most
# this many after the point.
_DIGITS = 12


def _places(cells) -> int | None:
    """Digits after the point that the repr of each of ``cells`` (Python
    floats) shows; None once a cell is nonzero and outside the plain
    window, or shows more than ``_DIGITS``."""
    places = 0
    for x in cells:
        if x != x or x == 0.0:
            continue
        x = abs(x)
        if not _PLAIN_LO <= x < _PLAIN_HI:
            return None
        # repr writes plain notation inside the window
        text = repr(x).rstrip("0")
        places = max(places, len(text) - text.index(".") - 1)
        if places > _DIGITS:
            return None
    return places


@functools.cache
def _digit_table() -> np.ndarray:
    """ASCII digits of 0..9999: row i holds the 10**i digit of each."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    table = np.stack([np.tile(np.repeat(digits, 10**i), 10 ** (3 - i)) for i in range(4)])
    table.flags.writeable = False
    return table


def _decimal_lines(block) -> list[str] | None:
    """The lines :func:`format_number` writes for ``block`` (2-D, no -0.0),
    built from integer digits; None unless :func:`_decimal_scale` finds
    one scale for every cell.

    Each cell is written into a fixed-width field of bytes (sign, whole
    digits, point, decimals, separator) with a mask of the bytes to keep,
    and the fields are compacted once.
    """
    cells = block.ravel()
    scaled = _decimal_scale(cells) if cells.size else None
    if scaled is None:
        return None
    places, k = scaled
    whole = len(str(int(k.max()) // 10**places))
    point = whole + 1
    field = np.empty((cells.size, whole + places + 3), np.uint8)
    # the digits of k, right to left, four from each remainder by 10**4
    rest = k.astype(np.intp)
    del k
    for i, column in enumerate([*range(point + places, point, -1), *range(whole, 0, -1)]):
        if i % 4 == 0:
            quad, rest = rest, rest // 10_000
            quad -= rest * 10_000
        field[:, column] = _digit_table()[i % 4][quad]
    del rest, quad

    keep = np.empty(field.shape, bool)
    # whole digits from the first nonzero one, and always the units digit
    # (the sign's and separator's slots seed the two scans)
    keep[:, 0] = keep[:, -1] = False
    for column in range(1, whole):
        np.logical_or(keep[:, column - 1], field[:, column] != ord("0"), out=keep[:, column])
    keep[:, whole] = True
    # decimals up to the last nonzero one, and the point before any
    for column in range(point + places, point, -1):
        np.logical_or(keep[:, column + 1], field[:, column] != ord("0"), out=keep[:, column])
    keep[:, point] = keep[:, point + 1]
    field[:, point] = ord(".")
    field[:, 0] = ord("-")
    np.less(cells, 0.0, out=keep[:, 0])
    # NaN (k = 0): the missing token in the sign and units slots
    missing = np.flatnonzero(np.isnan(cells))
    field[missing, 0] = ord(MISSING_TOKEN[0])
    field[missing, whole] = ord(MISSING_TOKEN[1])
    keep[missing, 0] = True
    field[:, -1] = ord(",")
    field.reshape(*block.shape, -1)[:, -1, -1] = ord("\n")
    keep[:, -1] = True

    lines = str(field[keep], "ascii").split("\n")
    lines.pop()  # after the last newline
    return lines


def _decimal_scale(cells) -> tuple[int, np.ndarray] | None:
    """``(D, k)`` with ``k = rint(a * 10**D)`` for each ``a = |v|`` of
    ``cells`` (0 for NaN), if every cell is NaN or zero or lies in the
    plain window and ``k / 10**D == a`` with ``k < 10**12`` for one ``D``
    up to 12; else None.

    Division rounds correctly, so that check proves ``a`` is the double
    nearest the decimal ``k * 10**-D`` of at most 12 significant digits.
    ``a`` lies within half an ulp (1.1e-16 relative) of that decimal,
    closer than half a 12-digit step (at least 5e-13 relative), so
    ``%.12g`` writes the decimal itself, trailing zeros stripped, in plain
    notation for ``a`` in [1e-4, 1e6).  ``D`` comes from the repr of the
    first cells, then of the first refused ones, so a block refused at its
    last cell costs at most one more array pass.
    """
    places = _places(cells[:_PROBE].tolist())
    if places is None:
        return None
    a = np.abs(cells)
    np.fmax(a, 0.0, out=a)  # NaN -> 0
    if not a.max() < _PLAIN_HI:
        return None
    for _ in range(2):
        scale = float(10**places)
        k = a * scale
        np.rint(k, out=k)
        refused = (k / scale != a) | (k >= 10.0**_DIGITS)
        refused |= (a < _PLAIN_LO) & (a != 0.0)
        if not refused.any():
            return places, k
        more = _places(a[refused][:_PROBE].tolist())
        if more is None or more <= places:
            return None
        places = more
    return None


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


def write_json(path: Path, obj) -> None:
    """Write ``obj`` as canonical JSON (sorted keys, stable separators)."""
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
