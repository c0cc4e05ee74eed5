"""Deterministic text of every output file: CSV tables (:func:`table_csv`,
and :func:`loading_csv` for 7-decimal loadings), quoted here and nowhere
else where :mod:`csv` needs to, and canonical JSON (:func:`json_text`).

All numeric output follows :func:`format_number`'s rule so that reruns on
identical inputs produce byte-identical files.  :func:`keyed_rows` writes a
table's rows, each after its key.  Keys are fixed-width bytes with a mask of
the bytes to keep: :func:`text_keys` holds the UTF-8 bytes of text (years,
variable codes), and :func:`date_keys` writes ISO ``YYYY-MM-DD`` dates, as
``str`` writes them, from each date's day number.  A block of fixed-decimal
cells is written from integer digits into the same bytes as its keys, and
its kept bytes are taken a bounded slice at a time and decoded once, with
the bytes per-cell formatting writes.
"""

from __future__ import annotations

import csv
import datetime
import functools
import io
import json
import math
from typing import Iterator

import numpy as np

# Values whose magnitude falls outside this window switch to scientific
# notation.
_PLAIN_LO = 1e-4
_PLAIN_HI = 1e6

MISSING_TOKEN = "NA"

# Rows :func:`keyed_rows` writes at a time.
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


def keyed_rows(keys, values) -> Iterator[str]:
    """Yield the CSV text of the rows of a 2-D array, each row's
    :func:`format_number` cells after its key and a comma.  ``keys`` is a
    ``(field, keep)`` pair with one key per row, as :func:`text_keys` and
    :func:`date_keys` make.  An array with no columns writes each key alone,
    as :mod:`csv` writes such a row.

    Rows go ``_ROW_BLOCK`` at a time.  A block whose cells are all NaN, zero
    or fixed decimals takes :func:`_decimal_text`, an exact integer path
    with the same bytes, and is yielded as one text.  Any other block goes
    to :func:`_row_lines`, its keys decoded for its rows, and is yielded a
    row at a time.  There a row of only zeros, NaNs and plain-window cells
    is one ``%`` call: ``%.12g`` writes a double as ``f"{x:.12g}"`` does,
    NaN as ``nan`` (then replaced by the missing token), and zero as ``0``
    once adding 0.0 has turned -0.0 into 0.0.  Other rows go cell by cell.
    Only one block of cells is turned into Python floats at a time, so a
    large table never holds all its cells as Python objects at once.
    """
    values = np.asarray(values, dtype=float)
    field, keep = keys
    if values.shape[1]:  # each key's comma is part of its field
        field = np.column_stack([field, np.full(len(field), ord(","), np.uint8)])
        keep = np.column_stack([keep, np.ones(len(keep), bool)])
    row_format = ",".join(["%.12g"] * values.shape[1])
    for start in range(0, len(values), _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        block = values[rows] + 0.0
        text = _decimal_text(block, field[rows], keep[rows])
        if text is not None:
            yield text
        else:
            texts = _key_texts(field[rows], keep[rows])
            yield from map("{}{}\n".format, texts, _row_lines(block, row_format))


def text_keys(texts) -> tuple[np.ndarray, np.ndarray]:
    """``texts`` as row keys for :func:`keyed_rows`: the UTF-8 bytes of
    each, left-aligned in a field as wide as the widest, and a mask that
    keeps each key's own bytes."""
    encoded = [text.encode("utf-8") for text in texts]
    lengths = np.array([len(key) for key in encoded], dtype=np.intp)
    keep = np.arange(lengths.max(initial=0)) < lengths[:, None]
    field = np.zeros(keep.shape, np.uint8)
    field[keep] = np.frombuffer(b"".join(encoded), np.uint8)
    return field, keep


# The day number (``date.toordinal``) of 1970-01-01, day 0 of datetime64.
_EPOCH_ORDINAL = 719163


def date_keys(dates) -> tuple[np.ndarray, np.ndarray]:
    """``dates`` (a sequence of :class:`datetime.date`) as row keys for
    :func:`keyed_rows`: ISO ``YYYY-MM-DD``, as ``str`` writes a date,
    from each date's day number."""
    ordinals = np.fromiter(map(datetime.date.toordinal, dates), np.int64, len(dates))
    days = (ordinals - _EPOCH_ORDINAL).astype("datetime64[D]")
    months = days.astype("datetime64[M]")
    year = months.astype("datetime64[Y]").astype(np.intp) + 1970
    month = months.astype(np.intp) % 12 + 1
    day = (days - months).astype(np.intp) + 1
    field = np.empty((len(ordinals), 10), np.uint8)
    field[:, 4] = field[:, 7] = ord("-")
    # (column, part, the power of ten whose digit it holds)
    for column, part, power in [
        (0, year, 3), (1, year, 2), (2, year, 1), (3, year, 0),
        (5, month, 1), (6, month, 0),
        (8, day, 1), (9, day, 0),
    ]:
        field[:, column] = _digit_table()[power][part]
    return field, np.ones(field.shape, bool)


def _key_texts(field, keep) -> list[str]:
    """The text of each key of a ``(field, keep)`` pair."""
    data = field[keep].tobytes()
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    return [data[a:b].decode("utf-8") for a, b in zip([0, *ends], ends)]


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


def _decimal_text(block, key_field, key_keep) -> str | None:
    """The text of ``block`` (2-D, no -0.0) after its keys (a ``(field,
    keep)`` pair of one key and its comma per row), built from integer
    digits; None unless :func:`_decimal_scale` finds one scale for every
    cell.

    Each cell is written into a fixed-width field of bytes (sign, whole
    digits, point, decimals, separator) with a mask of the bytes to keep.
    Each row's cell fields follow its key's, and :func:`_kept_text` makes
    the block's text from the kept bytes, decoded once.
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

    rows = len(block)
    field = np.concatenate([key_field, field.reshape(rows, -1)], axis=1)
    keep = np.concatenate([key_keep, keep.reshape(rows, -1)], axis=1)
    return _kept_text(field, keep)


# Bytes of a field :func:`_kept_text` compacts at a time.
_SLICE_BYTES = 1 << 17


def _kept_text(field, keep) -> str:
    """The UTF-8 text of the bytes of ``field`` (C-ordered ``uint8``) that
    ``keep`` marks, in order: the text ``field[keep]`` holds.

    ``np.compress`` takes the kept bytes ``_SLICE_BYTES`` of the flattened
    field at a time, so its index array stays within 8 times that at any
    table width, and the pieces are joined and decoded once (a slice may
    end inside a row or inside a character).  The pieces are dropped before
    the decode, so the peak is the kept bytes twice, as for ``field[keep]``.
    """
    data, mask = field.reshape(-1), keep.reshape(-1)
    slices = (slice(a, a + _SLICE_BYTES) for a in range(0, data.size, _SLICE_BYTES))
    return b"".join([np.compress(mask[s], data[s]).tobytes() for s in slices]).decode("utf-8")


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


def table_csv(header, keys, values) -> str:
    """CSV text of a table: the header, then each row's key (from a list of
    one per row) and its cells (:func:`keyed_rows`).  Dates are written as
    ISO dates (:func:`date_keys`), which need no quoting; any other key as
    :mod:`csv` writes it alone in a row, each distinct key quoted once."""
    if keys and isinstance(keys[0], datetime.date):
        fields = date_keys(keys)
    else:
        fields = text_keys(_quoted_keys(keys))
    return _csv_line(header) + "".join(keyed_rows(fields, values))


def loading_csv(header, codes, rows) -> str:
    """:func:`table_csv` for a loading table, whose cells have 7 decimals:
    ``%.7f`` writes a cell as ``f"{x:.7f}"`` does, one ``%`` per row."""
    row_format = ",".join(["%s"] + ["%.7f"] * rows.shape[1]) + "\n"
    lines = zip(_quoted_keys(codes), rows.tolist())
    return _csv_line(header) + "".join(row_format % (key, *row) for key, row in lines)


def _csv_line(fields) -> str:
    """One CSV line of ``fields``, quoted where :mod:`csv` needs to."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(fields)
    return out.getvalue()


def _quoted_keys(keys) -> list[str]:
    """Each key as :mod:`csv` writes it alone in a row, each distinct one once."""
    quoted = {key: _csv_line([key])[:-1] for key in dict.fromkeys(keys)}
    return [quoted[key] for key in keys]


def json_text(obj) -> str:
    """``obj`` as canonical JSON text (sorted keys, stable separators)."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
