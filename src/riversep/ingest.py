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
row loops read a row at a time and fall back to it for a row that ``float``
rejects, then map non-finite values to NaN over the whole array.

An RDB body is read a block of lines at a time, each in one pass of
numpy's C reader (:func:`_bulk_read`), which reads every number it takes
to the bits ``float`` gives.  From the first block holding anything it
does not take (a cell such as ``NA`` or text, a wrong field count, a bad
date) the row loop (:func:`_read_lines`) reads the rest of the body: it is
the one arbiter of the cell rule and of errors, so both paths give the same
table or the same first error.
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import io
import math
import os
import re
from dataclasses import dataclass
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
from .report import csv_header, format_rows, keyed_lines

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
        index, codes, values = self.index, self.codes, self.values
        if rows is not None:
            index = [x for x, keep in zip(index, rows) if keep]
        if cols is not None:
            codes = [c for c, keep in zip(codes, cols) if keep]
        if rows is not None and cols is not None:
            values = values[np.ix_(rows, cols)]
        elif rows is not None:
            values = values[rows]
        elif cols is not None:
            values = values[:, cols]
        return Table(self.index_name, list(index), list(codes), values)


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
    dates: Sequence[datetime.date],
    values: np.ndarray,
) -> Table:
    """Merge parsed records (``values`` holds one row of cells per date) into
    a date-sorted table.

    Non-finite cells become NaN first.  Records sharing a date are then
    merged; two non-missing values for the same (date, variable) raise
    :class:`DuplicateTimestampVariable`.
    """
    codes = [c.strip() for c in header]
    if len(codes) < 2:
        raise MalformedHeader("header must name a date column and at least one variable")
    if any(not c for c in codes):
        raise MalformedHeader("header contains an empty column name")
    var_codes = codes[1:]
    if len(set(var_codes)) != len(var_codes):
        raise MalformedHeader("header repeats a variable code")

    values[~np.isfinite(values)] = np.nan
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
    if order == dates:  # strictly increasing already: no reorder copy
        return Table("date", order, var_codes, values)
    return Table("date", order, var_codes, values[[first[d] for d in order]])


def _read_lines(lines: Sequence[str], start: int, n_fields: int):
    """Dates and cell rows of the RDB records in ``lines``, the first of
    which is line ``start`` of the file, one line at a time; raises the first
    error in file order with its line number."""
    dates: list[datetime.date] = []
    rows: list[list[float]] = []
    for line_no, raw in enumerate(lines, start=start):
        if raw.startswith("#") or raw.strip() == "":
            continue
        fields = raw.split("\t")
        if len(fields) != n_fields:
            raise RaggedRow(line_no, n_fields, len(fields))
        dates.append(_parse_date(fields[0], line_no))
        rows.append(_read_row(fields[1:]))
    return dates, rows


def _bulk_read(records: Sequence[str], n_fields: int):
    """Dates and cells of the RDB ``records`` (no comment or blank line, at
    least one record) from one pass of numpy's C reader, or ``None`` to leave
    them to :func:`_read_lines`: for a wrong field count, a date
    ``fromisoformat`` rejects, or a cell the C reader refuses (``NA``,
    whitespace only, text, ``1_000``).  A cell it takes reads to the bits
    ``float`` gives; an empty cell is written ``nan`` first."""
    # the C reader ignores fields past the last used column but rejects a
    # record with too few, so the total count pins every record's count
    if sum(raw.count("\t") for raw in records) != (n_fields - 1) * len(records):
        return None
    try:
        filled = (
            raw.replace("\t\t", "\tnan\t").replace("\t\t", "\tnan\t")
            + ("nan" if raw[-1] == "\t" else "")
            for raw in records
        )
        values = np.loadtxt(
            filled,
            delimiter="\t",
            comments=None,
            quotechar=None,
            usecols=range(1, n_fields),
            dtype=float,
            ndmin=2,
        )
        # dates last: the C reader stops at the first record it refuses, so
        # a block refused early costs little
        dates = [datetime.date.fromisoformat(raw[: raw.index("\t")].strip()) for raw in records]
    except ValueError:
        return None
    return dates, values


def _read_body(lines: Sequence[str], first: int, n_fields: int):
    """Dates and cells of the RDB records in ``lines[first:]``, read
    ``_BODY_BLOCK`` lines at a time by :func:`_bulk_read` until it leaves a
    block; :func:`_read_lines` reads from that block on, so a body the row
    loop must read costs at most one block more than the row loop alone.
    Every earlier block was read without error, so the row loop's first
    error is the file's first."""
    starts = range(first, len(lines), _BODY_BLOCK)
    blocks = [
        [raw for raw in lines[a : a + _BODY_BLOCK] if raw and not raw.isspace() and not raw.startswith("#")]
        for a in starts
    ]
    dates: list[datetime.date] = []
    values = np.empty((sum(map(len, blocks)), n_fields - 1))
    for a, records in zip(starts, blocks):
        if not records:  # loadtxt warns on no lines
            continue
        block = _bulk_read(records, n_fields)
        if block is None:
            rest, rows = _read_lines(lines[a:], a + 1, n_fields)
            values[len(dates) :] = rows
            return dates + rest, values
        values[len(dates) : len(dates) + len(records)] = block[1]
        dates += block[0]
    return dates, values


def parse_rdb(data: bytes | str) -> Table:
    """Parse USGS RDB text: ``#`` comments, tab-delimited header, a
    column-format line (``5s	10d	12n`` style) that is validated for arity
    and discarded, then one record per line, read by :func:`_read_body`."""
    lines = _text(data).splitlines()
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
    """Parse an RFC-4180 CSV with a single header row (date column first)."""
    text = _text(data)
    reader = csv.reader(io.StringIO(text))
    header: list[str] | None = None
    dates: list[datetime.date] = []
    rows: list[list[float]] = []
    for fields in reader:
        line_no = reader.line_num
        if header is None:
            if not fields:
                continue
            header = fields
            if len(header) < 2:
                raise MalformedHeader("CSV header must have at least two columns")
            continue
        if not fields:
            continue
        if len(fields) != len(header):
            raise RaggedRow(line_no, len(header), len(fields))
        dates.append(_parse_date(fields[0], line_no))
        rows.append(_read_row(fields[1:]))
    if header is None:
        raise MalformedHeader("no header line found")
    values = np.array(rows, dtype=float).reshape(len(rows), len(header) - 1)
    return _assemble(header, dates, values)


def emit_csv(table: Table) -> str:
    """Serialize a table to CSV; inverse of :func:`parse_csv` up to the
    12-significant-digit number formatting.  Its index (ISO dates or years)
    never needs quoting."""
    header = csv_header([table.index_name, *table.codes])
    return header + keyed_lines(map(str, table.index), format_rows(table.values))


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

    row_mask = np.array([spec.start <= d <= spec.end for d in table.index], dtype=bool)
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
