"""Reading and filtering of water-quality monitoring tables.

Two on-disk layouts are supported: USGS RDB (tab-delimited with ``#``
comment lines and a column-format line after the header) and RFC-4180 CSV.
Both are wide tables: the first column holds calendar dates, every other
column one monitored variable.

The cell rule: a cell reads as the number ``float`` makes of it, and as
missing (NaN) when it is empty or ``NA``/``na`` after stripping whitespace,
when ``float`` rejects it, or when the number is not finite (``nan``,
``inf``, ``-inf``, or a value such as ``1e400`` that overflows), since no
model can take it.  :func:`_parse_cell` is that rule for one cell; the
row loop (:func:`_read_records`, for both layouts) reads a row at a time
and falls back to it for a row that ``float`` rejects, then non-finite
values are mapped to NaN over the whole array, a pass made only when a
cell is infinite or a NaN with its sign bit set (:func:`_assemble`).

An RDB body is read a block of lines at a time.  One test of the whole
block (:func:`_all_records`) finds whether it holds a comment or blank
line to drop, and the block's records go in one pass of numpy's C reader
(:func:`_bulk_read`) into records of a date field and the cells: the
reader refuses a record with any other field count and reads every number
it takes to the bits ``float`` gives.  A date spelled exactly
``YYYY-MM-DD`` is read from its bytes (:func:`_iso_dates`); a block holding
any other spelling reads its dates with ``fromisoformat``.  From the first
block holding anything it does not take (a cell such as ``NA`` or text, a
wrong field count, a bad date) the row loop reads the rest of the body: it
is the one arbiter of the cell rule and of errors, so both paths give the
same table or the same first error.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import io
import math
import operator
import os
import re
from dataclasses import dataclass
from itertools import compress, repeat
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
    NetworkUnavailable,
    NotUtf8,
    OutOfRange,
    RaggedRow,
    UnknownVariable,
)
from .report import table_csv

_MISSING_TOKENS = {"", "na"}
_NAN = float("nan")

# Column-format tokens in the line after an RDB header, e.g. "10d" or "12n".
_FORMAT_TOKEN = re.compile(r"\d+[A-Za-z]")

# Lines of an RDB body per pass of numpy's C reader: the most it reads of a
# body that the row loop then reads again.
_BODY_BLOCK = 4096

# Seconds fetch_remote waits on the network before giving up.
_FETCH_TIMEOUT_S = 30.0


@dataclass
class Table:
    """Labelled observation table: one row per index entry, one column per
    variable code, through every stage of the pipeline.

    Until :func:`~riversep.preprocess.annual_mean` the index is ``"date"``
    and holds strictly increasing dates (the parser merges records that
    share a date as long as their variables do not collide); after it the
    index is ``"year"`` and holds ints.  ``values`` is a float array with
    NaN marking missing cells.
    """

    index_name: str
    index: list
    codes: list[str]
    values: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.index)

    @property
    def n_vars(self) -> int:
        return len(self.codes)

    def take(self, rows=None, cols=None) -> Table:
        """The table restricted by boolean masks over rows and over columns;
        ``None`` keeps every row or column.  With both masks the values are
        taken in one C-ordered copy."""
        values = self.values
        index = list(self.index if rows is None else compress(self.index, rows))
        codes = list(self.codes if cols is None else compress(self.codes, cols))
        if rows is not None and cols is not None:
            values = values[np.ix_(rows, cols)]
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
    """``data`` as text; bytes must be UTF-8."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NotUtf8(exc.start) from None


def _parse_date(text: str, line_no: int) -> datetime.date:
    try:
        return datetime.date.fromisoformat(text.strip())
    except ValueError:
        raise InvalidDate(line_no, text) from None


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
    :func:`_assemble` to map.  A row holding a cell that ``float`` rejects
    (``NA``, whitespace, text) is read cell by cell with :func:`_parse_cell`."""
    try:
        return [float(c) if c else _NAN for c in cells]
    except ValueError:
        return [_parse_cell(c) for c in cells]


def _assemble(
    header: Sequence[str],
    dates: list[datetime.date],
    values: np.ndarray,
) -> Table:
    """Merge parsed records (``values`` holds one row of cells per date) into
    a date-sorted table.

    Non-finite cells become NaN first, with the bits of ``np.nan``; the
    pass runs only when :func:`_needs_nan_rewrite` finds a cell to change.
    Records sharing a date are then merged; two non-missing values for the
    same (date, variable) raise :class:`DuplicateTimestampVariable`.
    """
    codes = [c.strip() for c in header]
    if len(codes) < 2:
        raise MalformedHeader("header must name a date column and at least one variable")
    if any(not c for c in codes):
        raise MalformedHeader("header contains an empty column name")
    var_codes = codes[1:]
    if len(set(var_codes)) != len(var_codes):
        raise MalformedHeader("header repeats a variable code")

    if _needs_nan_rewrite(values):
        values[~np.isfinite(values)] = np.nan
    if all(map(operator.lt, dates, dates[1:])):  # sorted, no date repeated
        return Table("date", dates, var_codes, values)
    first: dict[datetime.date, int] = {}
    for i, date in enumerate(dates):
        j = first.setdefault(date, i)
        if j == i:
            continue
        present = ~np.isnan(values[i])
        clash = present & ~np.isnan(values[j])
        if clash.any():
            raise DuplicateTimestampVariable(date, var_codes[int(np.argmax(clash))])
        values[j, present] = values[i, present]

    order = sorted(first)
    return Table("date", order, var_codes, values[[first[d] for d in order]])


# The bits of ``-inf`` read as an unsigned integer: the least of those of
# any value with the sign bit set that is not finite.
_NEGATIVE_NON_FINITE = np.float64(-np.inf).view(np.uint64)


def _needs_nan_rewrite(values: np.ndarray) -> bool:
    """Whether some non-finite cell of ``values`` lacks the bits of
    ``np.nan``: an infinite cell, or a NaN with its sign bit set.  Text
    spells no other NaN, since ``float`` and numpy's C reader read ``nan``
    to the bits of ``np.nan`` and ``-nan`` to those with the sign bit set.
    As unsigned integers, the bits of ``-inf`` and of each NaN with its sign
    bit set are the largest of any double, so two reductions test the
    whole array, with no mask."""
    bits = values.view(np.uint64)
    return bool(np.isinf(values).any() or bits.max(initial=0) >= _NEGATIVE_NON_FINITE)


def _read_records(records, n_fields: int):
    """Dates and cell rows of ``records``, ``(line number, fields)`` pairs in
    file order, one at a time; raises the first error with its line
    number."""
    dates: list[datetime.date] = []
    rows: list[list[float]] = []
    for line_no, fields in records:
        if len(fields) != n_fields:
            raise RaggedRow(line_no, n_fields, len(fields))
        dates.append(_parse_date(fields[0], line_no))
        rows.append(_read_row(fields[1:]))
    return dates, rows


def _iso_dates(fields: np.ndarray) -> list[datetime.date] | None:
    """The dates of ``S11`` date fields when each is exactly ``YYYY-MM-DD``
    and names a day of the proleptic Gregorian calendar from year 1, else
    ``None``.  Byte 10 is NUL only in a field of at most 10 bytes, since
    ``S11`` keeps the 11th byte of a longer one."""
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
    return days.tolist()


def _bulk_read(records: Sequence[str], n_fields: int, byte_dates: bool):
    """Dates and cells of the RDB ``records`` (no comment or blank line, at
    least one record) from one pass of numpy's C reader, or ``None`` to leave
    them to :func:`_read_records`: for a wrong field count (the record dtype
    has exactly ``n_fields`` columns), a date ``fromisoformat`` rejects, or
    a cell the C reader refuses (``NA``, whitespace only, text, ``1_000``).
    A cell it takes reads to the bits ``float`` gives; an empty cell is
    written ``nan`` first.  Dates are read from their bytes by
    :func:`_iso_dates` when ``byte_dates`` (the text holds no NUL, which an
    ``S`` field would drop), and by ``fromisoformat`` when it is false or a
    date is spelled otherwise."""
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
        dates = _iso_dates(block["date"]) if byte_dates else None
        if dates is None:
            dates = [datetime.date.fromisoformat(raw[: raw.index("\t")].strip()) for raw in records]
    except ValueError:
        return None
    return dates, block["cells"]


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


def _is_record(raw: str) -> bool:
    """Whether one RDB body line is a record, by :func:`_all_records`."""
    return _all_records((raw,))


def _records(lines: list[str]) -> list[str]:
    """The records among ``lines``: the list itself when every line is one."""
    return lines if _all_records(lines) else list(filter(_is_record, lines))


def _numbered_records(lines: Sequence[str], first: int):
    """``(line number, record)`` of each record in ``lines[first:]``, in file
    order, tested a ``_BODY_BLOCK`` of lines at a time as :func:`_records`
    tests them."""
    for a in range(first, len(lines), _BODY_BLOCK):
        block = lines[a : a + _BODY_BLOCK]
        numbered = enumerate(block, start=a + 1)
        yield from numbered if _all_records(block) else (n for n in numbered if _is_record(n[1]))


def _read_body(lines: Sequence[str], first: int, n_fields: int, byte_dates: bool):
    """Dates and cells of the RDB records in ``lines[first:]``, read
    ``_BODY_BLOCK`` lines at a time by :func:`_bulk_read` (dates from their
    bytes when ``byte_dates``) until it leaves a block; :func:`_read_records`
    reads from that block on, so a body the row loop must read costs at most
    one block more than the row loop alone.  Every earlier block was read
    without error, so the row loop's first error is the file's first."""
    starts = range(first, len(lines), _BODY_BLOCK)
    blocks = [_records(lines[a : a + _BODY_BLOCK]) for a in starts]
    dates: list[datetime.date] = []
    values = np.empty((sum(map(len, blocks)), n_fields - 1))
    for a, records in zip(starts, blocks):
        if not records:  # loadtxt warns on no lines
            continue
        block = _bulk_read(records, n_fields, byte_dates)
        if block is None:
            remaining = ((line_no, raw.split("\t")) for line_no, raw in _numbered_records(lines, a))
            rest, rows = _read_records(remaining, n_fields)
            values[len(dates) :] = rows
            return dates + rest, values
        values[len(dates) : len(dates) + len(records)] = block[1]
        dates += block[0]
    return dates, values


def parse_rdb(data: bytes | str) -> Table:
    """Parse USGS RDB text: ``#`` comments, tab-delimited header, a
    column-format line (``5s	10d	12n`` style) that is validated for arity
    and discarded, then one record per line, read by :func:`_read_body`.
    The decoded text is dropped once split, so it is not held while the
    body is read."""
    text = _text(data)
    byte_dates = "\0" not in text
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
    return _assemble(header, *_read_body(lines, i + 1, len(header), byte_dates))


def parse_csv(data: bytes | str) -> Table:
    """Parse an RFC-4180 CSV with a single header row (date column first)."""
    reader = csv.reader(io.StringIO(_text(data)))
    header = next((fields for fields in reader if fields), None)
    if header is None:
        raise MalformedHeader("no header line found")
    if len(header) < 2:
        raise MalformedHeader("CSV header must have at least two columns")
    records = ((reader.line_num, fields) for fields in reader if fields)
    dates, rows = _read_records(records, len(header))
    values = np.array(rows, dtype=float).reshape(len(rows), len(header) - 1)
    return _assemble(header, dates, values)


def emit_csv(table: Table) -> str:
    """Serialize a table to CSV (:func:`~riversep.report.table_csv`); inverse
    of :func:`parse_csv` up to the 12-significant-digit number formatting.
    A date index is written as ISO ``YYYY-MM-DD``, a year index as digits."""
    return table_csv([table.index_name, *table.codes], table.index, table.values)


def filter_table(table: Table, spec: FilterSpec) -> Table:
    """Apply a :class:`FilterSpec`: restrict rows to the date range, drop
    rows where the required variable is missing, then drop variables with
    fewer than ``min_count`` non-missing values among the surviving rows.

    Counting on the surviving rows makes the operation idempotent.  The
    required variable itself is exempt from the count rule (every surviving
    row has it by construction).
    """
    required = spec.required_variable
    if required is not None and required not in table.codes:
        raise UnknownVariable(required)

    index = table.index
    if not index or (spec.start <= min(index) and max(index) <= spec.end):
        row_mask = np.ones(len(index), dtype=bool)
    else:
        row_mask = np.array([spec.start <= d <= spec.end for d in index], dtype=bool)
    if required is not None:
        row_mask &= ~np.isnan(table.values[:, table.codes.index(required)])

    counts = np.sum(~np.isnan(table.values)[row_mask], axis=0)
    col_mask = counts >= spec.min_count
    if required is not None:
        col_mask[table.codes.index(required)] = True
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
    the network.  Downloads are written to a temporary file and
    renamed into place so a crash cannot leave a truncated cache entry.
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
            status = getattr(resp, "status", 200)
            if status != 200:
                raise HttpStatus(status)
            body = resp.read()
    except urllib.error.HTTPError as exc:
        raise HttpStatus(exc.code) from exc
    except urllib.error.URLError as exc:
        raise NetworkUnavailable(str(exc.reason)) from exc
    except OSError as exc:
        raise NetworkUnavailable(str(exc)) from exc

    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=cache_dir, suffix=".part")
        with os.fdopen(fd, "wb") as handle:
            handle.write(body)
        os.replace(tmp_path, cached)
    except OSError as exc:
        raise CacheWriteFailed(str(exc)) from exc
    return body
