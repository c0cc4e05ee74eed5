"""Reading and filtering of water-quality monitoring tables.

Two on-disk layouts are supported: USGS RDB (tab-delimited with ``#``
comment lines and a column-format line after the header) and RFC-4180 CSV.
Both are wide tables: the first column holds calendar dates, every other
column one monitored variable.  A CSV whose first header field is ``year``
is year-indexed instead, as :func:`emit_csv` writes an annual table: each
key is 1 to 4 ASCII digits, after surrounding whitespace is stripped, and
any other key is a :class:`MalformedRecord`.

The cell rule: a cell reads as the number ``float`` makes of it, and as
missing (NaN) when it is empty or ``NA``/``na`` after stripping whitespace,
when ``float`` rejects it, or when the number is not finite (``nan``,
``inf``, ``-inf``, or a value such as ``1e400`` that overflows), since no
model can take it.  :func:`_parse_cell` is that rule for one cell; the
row loop (:func:`_read_records`, for both layouts) reads a row at a time
and falls back to it for a row that ``float`` rejects.  Each reader that
can meet a non-finite cell maps it to NaN with the bits of ``np.nan``
over its own block: the row loop, and the C-reader branch of
:func:`_bulk_read`.  The decimal read makes none, so its blocks take no
such pass.

An RDB body is read a block of lines at a time.  One test of the whole
block (:func:`_all_records`) finds whether it holds a comment or blank
line to drop, and the block's records are read in bulk (:func:`_bulk_read`)
into a date field and the cells of each.  A block of plain decimals (each
cell empty, or an optional leading ``-``, at most one ``.`` and 1 to 15
digits), as USGS records are written, is read from its bytes with array
passes (:func:`_decimal_read`); any other block goes in one pass of
numpy's C reader.  Both refuse a record with any other field count and
read every number they take to the bits ``float`` gives.  The dates are
read from their bytes to ``datetime64[D]`` days (:func:`_iso_dates`).
The row loop reads alone each block holding anything the C reader does
not take (a cell such as ``NA`` or text, a wrong field count, a date with
surrounding whitespace, a bad date) and a block holding a NUL.  The row
loop is the one arbiter of the cell rule and of errors, so every path
gives the same table or the same first error.

The date rule, for both paths, both layouts and the config's filter dates:
a date is spelled exactly ``YYYY-MM-DD`` in ASCII digits and names a day of
the proleptic Gregorian calendar from year 1; the row loop strips
surrounding whitespace first (:func:`_parse_date`).
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import math
import os
import re
from contextlib import suppress
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    CacheWriteFailed,
    DuplicateTimestampVariable,
    EmptyResult,
    HttpStatus,
    InvalidDate,
    MalformedHeader,
    MalformedRecord,
    NetworkUnavailable,
    NotUtf8,
    OutOfRange,
    RaggedRow,
    UnknownVariable,
)
from .report import table_csv

# Cells read as missing with no call to ``float``.  It refuses both, but
# each refusal raises, and ``NA`` is how :func:`emit_csv` writes every
# missing cell: reading its output back would raise once per such cell.
_MISSING_TOKENS = {"", "na"}
_NAN = float("nan")

# Column-format tokens in the line after an RDB header, e.g. "10d" or "12n".
_FORMAT_TOKEN = re.compile(r"\d+[A-Za-z]")

# The one spelling of a date, the one :func:`_iso_dates` reads in bulk.
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

# A year key, as a date spells its year or as emit_csv writes one.
_YEAR = re.compile(r"[0-9]{1,4}")

# Lines of an RDB body per bulk read, the most the row loop reads for one
# record the bulk read refuses; records of a CSV body per array.
_BODY_BLOCK = 4096

# Seconds fetch_remote waits on the network before giving up.
_FETCH_TIMEOUT_S = 30.0


@dataclass
class Table:
    """Labelled observation table: one row per index entry, one column per
    variable code, through every stage of the pipeline.

    Until :func:`~riversep.preprocess.annual_mean` the index is ``"date"``,
    a ``datetime64[D]`` array of strictly increasing days (the parser
    merges records that share a date as long as their variables do not
    collide); after it the index is ``"year"``, an ``int64`` array.  An
    index given as a list (of :class:`datetime.date` or of ints) is
    converted on construction.  ``values`` is a float array with NaN
    marking missing cells.
    """

    index_name: str
    index: np.ndarray
    codes: list[str]
    values: np.ndarray

    def __post_init__(self):
        dtype = "datetime64[D]" if self.index_name == "date" else np.int64
        self.index = np.asarray(self.index, dtype)

    @property
    def n_rows(self) -> int:
        return len(self.index)

    @property
    def n_vars(self) -> int:
        return len(self.codes)

    def take(self, rows=None, cols=None) -> Table:
        """The table restricted by boolean masks over rows and over columns;
        ``None`` keeps every row or column.  With both masks the values are
        taken with one ``compress`` per axis, rows first, C-ordered."""
        values = self.values
        index = self.index if rows is None else self.index[rows]
        codes = list(self.codes if cols is None else compress(self.codes, cols))
        if rows is not None and cols is not None:
            values = values.compress(rows, axis=0).compress(cols, axis=1)
        elif rows is not None:
            values = values[rows]
        elif cols is not None:
            values = values[:, cols]
        return Table(self.index_name, index, codes, values)


@dataclass(frozen=True)
class FilterSpec:
    """Row/column filter applied by :func:`filter_table`."""

    min_count: int = 1
    start: datetime.date = datetime.date.min
    end: datetime.date = datetime.date.max
    required_variable: str | None = None

    def __post_init__(self):
        if self.min_count < 1:
            raise OutOfRange("min_count must be at least 1")
        if self.start > self.end:
            raise OutOfRange("filter start date is after end date")


def _text(data: bytes | str) -> str:
    """``data`` as text without one leading byte-order mark (U+FEFF); bytes
    must be UTF-8.  The whole input is decoded before the mark is dropped,
    so a :class:`NotUtf8` offset is the file's."""
    if not isinstance(data, str):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise NotUtf8(exc.start) from None
    return data[1:] if data.startswith("\ufeff") else data


def _iso_date(text: str) -> datetime.date:
    """The date ``text`` spells as exactly ``YYYY-MM-DD`` in ASCII digits,
    from year 1; raises ``ValueError`` for any other text."""
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return datetime.date.fromisoformat(text)


def _parse_date(text: str, line_no: int) -> datetime.date:
    """The date of a record's date field by :func:`_iso_date`, after
    surrounding whitespace is stripped."""
    try:
        return _iso_date(text.strip())
    except ValueError:
        raise InvalidDate(line_no, text) from None


def _parse_year(text: str, line_no: int) -> int:
    """The year of a year-indexed record's key field, after surrounding
    whitespace is stripped."""
    if not _YEAR.fullmatch(text.strip()):
        raise MalformedRecord(line_no, f"cannot parse year {text!r}")
    return int(text)


# Each index a record's first field can hold: its reader and its dtype.
_KEYS = {"date": (_parse_date, "datetime64[D]"), "year": (_parse_year, np.int64)}


def _parse_cell(text: str) -> float:
    """One cell by the module's cell rule."""
    text = text.strip()
    if text.lower() in _MISSING_TOKENS:
        return float("nan")
    try:
        value = float(text)
    except ValueError:
        # unparseable numeric cells degrade to missing rather than aborting
        return float("nan")
    return value if math.isfinite(value) else float("nan")


def _read_row(cells: Sequence[str]) -> list[float]:
    """A record's cells as floats; non-finite values are left for
    :func:`_read_records` to map over its block.  An empty cell and an
    exact ``NA`` (as :func:`emit_csv` writes a missing one) read as NaN.
    A row holding any other cell that ``float`` rejects (`` NA``, ``na``,
    text) is read cell by cell with :func:`_parse_cell`."""
    try:
        return [float(c) if c and c != "NA" else _NAN for c in cells]
    except ValueError:
        return [_parse_cell(c) for c in cells]


def _assemble(
    header: Sequence[str], dates: np.ndarray, values: np.ndarray, index_name: str = "date"
) -> Table:
    """Merge parsed records (``values`` holds one row of cells per key,
    each finite or NaN as its reader left it) into a key-sorted table
    indexed by ``index_name``.

    Records sharing a key are merged; two non-missing values for the
    same (key, variable) raise :class:`DuplicateTimestampVariable`.
    """
    codes = [c.strip() for c in header]
    if any(not c for c in codes):
        raise MalformedHeader("header contains an empty column name")
    var_codes = codes[1:]
    if len(set(var_codes)) != len(var_codes):
        raise MalformedHeader("header repeats a variable code")

    if (dates[1:] > dates[:-1]).all():  # sorted, no key repeated
        return Table(index_name, dates, var_codes, values)
    first: dict[datetime.date | int, int] = {}
    for i, date in enumerate(dates.tolist()):
        j = first.setdefault(date, i)
        if j == i:
            continue
        present = ~np.isnan(values[i])
        clash = present & ~np.isnan(values[j])
        if clash.any():
            raise DuplicateTimestampVariable(date, var_codes[int(np.argmax(clash))])
        values[j, present] = values[i, present]

    order = sorted(first)
    return Table(index_name, order, var_codes, values[[first[d] for d in order]])


def _read_records(records, n_fields: int, index_name: str = "date"):
    """Keys (days as ``datetime64[D]``, or years) and cells (a float array,
    each non-finite one set to ``np.nan``) of ``records``, ``(line number,
    fields)`` pairs in file order, one at a time; raises the first error
    with its line number."""
    parse_key, dtype = _KEYS[index_name]
    keys: list = []
    rows: list[list[float]] = []
    for line_no, fields in records:
        if len(fields) != n_fields:
            raise RaggedRow(line_no, n_fields, len(fields))
        keys.append(parse_key(fields[0], line_no))
        rows.append(_read_row(fields[1:]))
    cells = np.reshape(rows, (-1, n_fields - 1))
    np.copyto(cells, np.nan, where=~np.isfinite(cells))
    return np.array(keys, dtype), cells


def _iso_dates(fields: np.ndarray) -> np.ndarray | None:
    """The ``datetime64[D]`` days of ``S11`` date fields when each is
    exactly ``YYYY-MM-DD`` and names a day of the proleptic Gregorian
    calendar from year 1, else ``None``.  Byte 10 is NUL only in a field of
    at most 10 bytes, since ``S11`` keeps the 11th byte of a longer one."""
    b = np.ascontiguousarray(fields).view(np.uint8).reshape(len(fields), 11)
    digits = b[:, [0, 1, 2, 3, 5, 6, 8, 9]] - np.uint8(48)  # a non-digit wraps past 9
    if b[:, 10].any() or (b[:, [4, 7]] != 45).any() or (digits > 9).any():
        return None
    d = digits.astype(np.int64)
    year = ((d[:, 0] * 10 + d[:, 1]) * 10 + d[:, 2]) * 10 + d[:, 3]
    month, day = d[:, 4] * 10 + d[:, 5], d[:, 6] * 10 + d[:, 7]
    if (year < 1).any() or (month < 1).any() or (month > 12).any():
        return None
    months = (12 * (year - 1970) + month - 1).astype("datetime64[M]")
    days = months.astype("datetime64[D]") + (day - 1)
    if (days.astype("datetime64[M]") != months).any():  # day 0, or past the month's end
        return None
    return days


# The bytes of a block :func:`_decimal_read` takes: those of plain decimals
# and of dates, and the two separators.
_PLAIN_BYTES = b"0123456789.-\t\n"

# The most digits a plain decimal holds: an integer of 15 digits is below
# 2**53 (one of 16 may not be), so it and each power of ten up to 10**15
# are doubles exactly.
_PLAIN_DIGITS = 15
_POWERS_OF_TEN = np.array([float(10**k) for k in range(_PLAIN_DIGITS + 1)])

# Records per pass of :func:`_decimal_cells`.  On 4096-line blocks of 24
# cells a record, one pass a block held 5.4 MB at its peak, against the C
# reader's 1.4 MB; passes of 1024 records hold 2.4 MB, and of 512 records
# 1.9 MB at 10% more time.
_CELL_ROWS = 1024


def _decimal_cells(b: np.ndarray, lines: np.ndarray, out: np.ndarray) -> bool:
    """Whether each record in bytes ``b`` that starts at ``lines[:-1]``
    (``lines[-1]`` is one past the last one's newline) has a 10-byte date
    field and ``out.shape[1]`` cells, each empty or a plain decimal; if so,
    the cells are written to ``out`` (C-contiguous), an empty one as NaN.
    The bytes are digits, ``.``, ``-``, tabs and newlines alone.  So when
    the records hold as many separators as fields in all and each record's
    first one is its 11th byte, each record has its own field count right;
    and a cell is plain when its only ``-`` leads, it has at most one ``.``
    and it holds 1 to 15 digits.

    The cells' bytes are read a column at a time, one column per byte
    offset.  A digit ``d`` makes a cell's value ``10 * value + d``; any
    other byte, or one past the cell's end, leaves it.  The value is an
    integer below ``10**15``, so every step is exact in a double, and one
    division by the power of ten of the digits after the point rounds it
    as ``float`` does (Clinger's fast path)."""
    n_fields = out.shape[1] + 1
    ends = np.flatnonzero(b[lines[0] : lines[-1]] < 45) + lines[0]  # tabs, newlines
    if len(ends) != out.size + len(out):
        return False
    ends = ends.reshape(-1, n_fields)
    if (ends[:, 0] != lines[:-1] + 10).any():
        return False
    lengths = (ends[:, 1:] - ends[:, :-1] - 1).reshape(-1)
    if lengths.max() > _PLAIN_DIGITS + 2:  # a sign, the digits and a point
        return False
    filled = np.flatnonzero(lengths > 0)
    lengths = lengths[filled].astype(np.uint8)
    at = ends[:, :-1].reshape(-1)[filled]
    del ends  # each array a pass is done with goes before the next is made
    out.fill(np.nan)
    if not len(filled):
        return True
    cells = np.empty((int(lengths.max()), len(filled)), np.uint8)
    for row in cells:
        at += 1
        np.take(b, at, out=row, mode="clip")
    del at
    cells *= np.arange(len(cells), dtype=np.uint8)[:, None] < lengths  # past the end: 0
    points = cells == 46
    negative = cells[0] == 45
    np.subtract(cells, 48, out=cells)  # a ".", "-" or 0 wraps past 9
    digits = cells < 10
    has_point = points.any(axis=0)
    n_points = np.count_nonzero(points)
    n_minus = int(lengths.sum(dtype=np.int64)) - np.count_nonzero(digits) - n_points
    n_digits = lengths - negative - has_point  # one byte is not both
    if (
        n_minus != np.count_nonzero(negative)  # a "-" past a cell's first byte
        or n_points != np.count_nonzero(has_point)  # two points in a cell
        or n_digits.min() < 1
        or n_digits.max() > _PLAIN_DIGITS
    ):
        return False
    after = np.zeros(len(filled), bool)  # a point before the column
    places = np.zeros(len(filled), np.uint8)
    for point, digit in zip(points, digits):
        after |= point
        places += after & digit
    del points, after
    cells *= digits
    scale = digits * np.uint8(9) + np.uint8(1)
    del digits
    value = np.zeros(len(filled))
    for digit, factor in zip(cells, scale):
        value *= factor
        value += digit
    value /= _POWERS_OF_TEN.take(places)
    out.reshape(-1)[filled] = np.negative(value, out=value, where=negative)
    return True


def _decimal_read(records: Sequence[str], n_fields: int):
    """The ``S11`` date fields and the cells of the RDB ``records`` (as for
    :func:`_bulk_read`) read from their UTF-8 bytes, or ``None``.  It takes
    a block when every record has ``n_fields`` fields and a date field of
    10 bytes, and every cell is empty (NaN) or a plain decimal: an optional
    leading ``-``, at most one ``.``, and 1 to 15 digits.  The digits make
    an integer below 2**53 and the point a power of ten up to 10**15, both
    doubles exactly, so one division gives the bits ``float`` gives
    (:func:`_decimal_cells`, ``_CELL_ROWS`` records a pass).

    A block holding a byte of any other class than digits, ``.``, ``-``,
    tab and newline (an exponent, ``+``, whitespace, ``NA``, ``nan``, text,
    any non-ASCII) is refused by one pass over its bytes, before any
    per-cell work.  Every block it takes the C reader takes too, with the
    same date fields and bits."""
    data = "\n".join([*records, ""]).encode()
    if data.translate(None, _PLAIN_BYTES):
        return None
    b = np.frombuffer(data, np.uint8)
    lines = np.zeros(len(records) + 1, np.int64)
    np.cumsum(np.fromiter(map(len, records), np.int64, len(records)) + 1, out=lines[1:])
    cells = np.empty((len(records), n_fields - 1))
    for a in range(0, len(records), _CELL_ROWS):
        if not _decimal_cells(b, lines[a : a + _CELL_ROWS + 1], cells[a : a + _CELL_ROWS]):
            return None
    fields = b[lines[:-1, None] + np.arange(11)]
    fields[:, 10] = 0
    return fields.view("S11")[:, 0], cells


def _bulk_read(records: Sequence[str], n_fields: int):
    """Dates and cells of the RDB ``records`` (no comment or blank line)
    from :func:`_decimal_read` or else one pass of numpy's C reader, or
    ``None`` to leave them to :func:`_read_records`: for a NUL, which an
    ``S11`` date field drops and the decimal read refuses, a wrong field
    count (the record dtype has exactly ``n_fields`` columns), a date
    :func:`_iso_dates` does not take, or a cell the C reader refuses
    (``NA``, whitespace only, text, ``1_000``).  A cell it takes reads to
    the bits ``float`` gives; for the C reader an empty cell is written
    ``nan`` first, and once :func:`_iso_dates` takes the block's dates its
    non-finite cells are set to ``np.nan``.  A block of plain decimals,
    such as a USGS record, takes no C pass, no fill and no such pass: it
    holds no ``i``, ``n`` or ``e``, and 15 digits do not overflow.  The C
    reader takes every block the decimal read takes, with the same bits,
    so the NUL test and the C reader alone pick the blocks the row loop
    reads."""
    block = _decimal_read(records, n_fields)
    if block is not None:
        dates = _iso_dates(block[0])
        return None if dates is None else (dates, block[1])
    if any(map(str.__contains__, records, repeat("\0"))):
        return None
    try:
        filled = (
            raw.replace("\t\t", "\tnan\t").replace("\t\t", "\tnan\t")
            + ("nan" if raw[-1] == "\t" else "")
            for raw in records
        )
        block = np.loadtxt(
            filled,
            delimiter="\t",
            comments=None,
            quotechar=None,
            dtype=[("date", "S11"), ("cells", float, (n_fields - 1,))],
            ndmin=1,
        )
    except ValueError:
        return None
    dates = _iso_dates(block["date"])
    if dates is None:
        return None
    cells = block["cells"]
    np.copyto(cells, np.nan, where=~np.isfinite(cells))
    return dates, cells


def _all_records(lines: Sequence[str]) -> bool:
    """Whether every one of RDB body ``lines`` is a record: neither blank
    (empty or whitespace only) nor a ``#`` comment.  Each of the three tests
    runs over all the lines in C (``all``, and ``any`` over ``map`` of a
    ``str`` method), with no Python function call per line."""
    return (
        all(lines)
        and not any(map(str.isspace, lines))
        and not any(map(str.startswith, lines, repeat("#")))
    )


def _records(lines: list[str], start: int):
    """The line numbers and records among RDB body ``lines``, the first of
    which is file line ``start``: a ``range`` and the list itself when every
    line is a record, else the lines :func:`_all_records` takes one by one."""
    if _all_records(lines):
        return range(start, start + len(lines)), lines
    numbers = [n for n, raw in enumerate(lines, start) if _all_records((raw,))]
    return numbers, [lines[n - start] for n in numbers]


def _read_body(lines: Sequence[str], first: int, n_fields: int):
    """Days and cells of the RDB records in ``lines[first:]``, each in one
    preallocated array, filtered ``_BODY_BLOCK`` lines at a time by
    :func:`_records`.  :func:`_bulk_read` reads each block it takes, one
    of no records too, and :func:`_read_records` each other block alone.
    Blocks are read in file order and the bulk read raises no error, so
    the row loop's first error is the file's first."""
    starts = range(first, len(lines), _BODY_BLOCK)
    blocks = [_records(lines[a : a + _BODY_BLOCK], a + 1) for a in starts]
    n = sum(len(records) for _, records in blocks)
    dates, values = np.empty(n, "datetime64[D]"), np.empty((n, n_fields - 1))
    done = 0
    for numbers, records in blocks:
        block = _bulk_read(records, n_fields)
        if block is None:
            fields = (raw.split("\t") for raw in records)
            block = _read_records(zip(numbers, fields), n_fields)
        dates[done : done + len(records)], values[done : done + len(records)] = block
        done += len(records)
    return dates, values


def parse_rdb(data: bytes | str) -> Table:
    """Parse USGS RDB text: ``#`` comments, tab-delimited header, a
    column-format line (``5s	10d	12n`` style) that is validated for arity
    and discarded, then one record per line, read by :func:`_read_body`.
    The decoded text is dropped once split, so it is not held while the
    body is read."""
    text = _text(data)
    lines = text.splitlines()
    del text
    header: list[str] | None = None
    for i, raw in enumerate(lines):
        if raw.startswith("#"):
            continue
        if raw.strip() == "" and header is None:
            continue
        fields = raw.split("\t")
        if header is None:
            header = fields
            if len(header) < 2:
                raise MalformedHeader("RDB header must have at least two columns")
            continue
        if len(fields) != len(header):
            raise MalformedHeader(
                f"format line has {len(fields)} fields, header has {len(header)}"
            )
        # RDB column formats look like "10d", "12n", "5s"; anything else
        # means the format line is missing and this is already data.
        if not all(_FORMAT_TOKEN.fullmatch(f.strip()) for f in fields):
            raise MalformedHeader("line after header is not a column-format line")
        break
    else:
        if header is None:
            raise MalformedHeader("no header line found")
        raise MalformedHeader("no column-format line found")
    return _assemble(header, *_read_body(lines, i + 1, len(header)))


def parse_csv(data: bytes | str) -> Table:
    """Parse an RFC-4180 CSV with a single header row (date column first, or
    a ``year`` column for a year-indexed table); a syntax error (an
    oversized cell, a bare ``\\r``) is a MalformedRecord."""
    *lines, tail = _text(data).split("\n")  # lines as io.StringIO yields them
    reader = csv.reader(chain((line + "\n" for line in lines), [tail] if tail else []))
    try:
        header = next((fields for fields in reader if fields), None)
        if header is None:
            raise MalformedHeader("no header line found")
        if len(header) < 2:
            raise MalformedHeader("CSV header must have at least two columns")
        index_name = "year" if header[0].strip() == "year" else "date"
        body = ((reader.line_num, fields) for fields in reader if fields)
        blocks = [_read_records(islice(body, _BODY_BLOCK), len(header), index_name)]
        while len(blocks[-1][0]) == _BODY_BLOCK:
            blocks.append(_read_records(islice(body, _BODY_BLOCK), len(header), index_name))
    except csv.Error as exc:
        raise MalformedRecord(reader.line_num, str(exc)) from None
    del lines  # read, and not held beside the joined blocks
    dates, values = (np.concatenate(parts) for parts in zip(*blocks))
    return _assemble(header, dates, values, index_name)


def emit_csv(table: Table) -> str:
    """Serialize a table to CSV (:func:`~riversep.report.table_csv`).  A date
    index is written as ISO ``YYYY-MM-DD`` and a year index as digits under
    a ``year`` header, and :func:`parse_csv` reads either back up to the
    12-significant-digit number formatting."""
    return table_csv([table.index_name, *table.codes], table.index, table.values)


def filter_table(table: Table, spec: FilterSpec) -> Table:
    """Apply a :class:`FilterSpec`: restrict rows to the date range, drop
    rows where the required variable is missing, then drop variables with
    fewer than ``min_count`` non-missing values among the surviving rows.

    Counting on the surviving rows makes the operation idempotent.  The
    required variable itself is exempt from the count rule (every surviving
    row has it by construction).  Raises :class:`EmptyResult` when no row
    or no variable survives.
    """
    required = spec.required_variable
    if required is not None and required not in table.codes:
        raise UnknownVariable(required)

    # as days: numpy compares a datetime.date with each day as objects
    start, end = np.array([spec.start, spec.end], "datetime64[D]")
    row_mask = (start <= table.index) & (table.index <= end)
    if required is not None:
        row_mask &= ~np.isnan(table.values[:, table.codes.index(required)])
    if not row_mask.any():
        raise EmptyResult("no rows remain")

    counts = np.sum(~np.isnan(table.values)[row_mask], axis=0)
    col_mask = counts >= spec.min_count
    if required is not None:
        col_mask[table.codes.index(required)] = True
    if not col_mask.any():
        raise EmptyResult(f"no variable has at least {spec.min_count} samples")
    return table.take(row_mask, col_mask)


def drop_incomplete_rows(table: Table) -> Table:
    """Keep only rows with no missing cell; error if nothing survives."""
    mask = ~np.isnan(table.values).any(axis=1)
    if not mask.any():
        raise EmptyResult("no complete rows remain")
    return table.take(rows=mask)


def fetch_remote(
    site: str,
    codes: Sequence[str],
    start: str,
    end: str,
    cache_dir: str | Path,
    url_template: str,
    medium_code: str | None = None,
    offline: bool = False,
) -> bytes:
    """Fetch a monitoring record over HTTP with a content cache.

    The cache key is a hash of (site, codes, start, end, medium_code,
    url_template), everything that shapes the request; a hit never touches
    the network.  A response with no HTTP status (a ``file:`` URL) reads
    as a 200.  Downloads are written to a temporary file and renamed into
    place so a crash cannot leave a truncated cache entry, and a failed
    write removes its temporary file.
    The network stack (:mod:`urllib.request`, and with it :mod:`ssl` and
    :mod:`http.client`) is imported only when a download runs, so a
    process that never fetches never loads it.
    """
    cache_dir = Path(cache_dir)
    key = "|".join([site, ",".join(codes), start, end, medium_code or "", url_template])
    cached = cache_dir / (hashlib.sha256(key.encode("utf-8")).hexdigest() + ".rdb")
    if cached.exists():
        return cached.read_bytes()
    if offline:
        raise NetworkUnavailable(f"offline and no cached copy for site {site}")

    url = url_template.format(
        site=site,
        codes=",".join(codes),
        start=start,
        end=end,
        medium=medium_code or "",
    )
    import tempfile
    import urllib.error
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=_FETCH_TIMEOUT_S) as resp:
            status = getattr(resp, "status", None)
            if status not in (None, 200):
                raise HttpStatus(status)
            body = resp.read()
    except urllib.error.HTTPError as exc:
        raise HttpStatus(exc.code) from exc
    except urllib.error.URLError as exc:
        raise NetworkUnavailable(str(exc.reason)) from exc
    except OSError as exc:
        raise NetworkUnavailable(str(exc)) from exc

    part = None
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        fd, part = tempfile.mkstemp(dir=cache_dir, suffix=".part")
        with os.fdopen(fd, "wb") as handle:
            handle.write(body)
        os.replace(part, cached)
    except OSError as exc:
        if part is not None:
            with suppress(OSError):
                os.remove(part)
        raise CacheWriteFailed(
            f"download succeeded, but its cache file {cached} could not be written: {exc}"
        ) from exc
    return body
