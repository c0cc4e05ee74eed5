import csv
import datetime
import functools
import importlib.util
import io
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from riversep import errors, ingest, report
from riversep.ingest import (
    FilterSpec,
    Table,
    _parse_cell,
    drop_incomplete_rows,
    emit_csv,
    fetch_remote,
    filter_table,
    parse_csv,
    parse_rdb,
)
from riversep.report import format_number

FIXTURES = Path(__file__).parent / "fixtures"

RDB_MINIMAL = (
    "# comment line\n"
    "# another comment\n"
    "datetime\t00618\t00300\n"
    "10d\t12n\t12n\n"
    "1990-03-01\t0.5\t8.1\n"
    "1990-03-02\tNA\t8.4\n"
)


def d(text):
    return datetime.date.fromisoformat(text)


class TestParseRdb:
    def test_minimal(self):
        t = parse_rdb(RDB_MINIMAL)
        assert t.codes == ["00618", "00300"]
        assert t.index.tolist() == [d("1990-03-01"), d("1990-03-02")]
        assert_allclose(t.values[0], [0.5, 8.1])
        assert np.isnan(t.values[1, 0]) and t.values[1, 1] == 8.4

    def test_accepts_bytes(self):
        t = parse_rdb(RDB_MINIMAL.encode("utf-8"))
        assert t.n_rows == 2

    def test_bundled_fixture_counts(self):
        t = parse_rdb((FIXTURES / "small.rdb").read_bytes())
        assert t.n_rows == 20
        assert t.codes == ["00618", "00608", "00300"]
        # hand-counted missingness per column
        missing = np.isnan(t.values).sum(axis=0)
        assert list(missing) == [2, 4, 1]
        # spot-checked cells against the raw file
        assert t.values[0, 0] == 0.31
        assert t.values[1, 2] == 9.8
        assert np.isnan(t.values[2, 0])
        assert t.values[19, 1] == 0.05

    def test_format_line_arity_checked(self):
        bad = "datetime\ta\tb\n10d\t12n\n1990-01-01\t1\t2\n"
        with pytest.raises(errors.MalformedHeader):
            parse_rdb(bad)

    def test_ragged_row_reports_line(self):
        bad = "datetime\ta\tb\n10d\t12n\t12n\n1990-01-01\t1\t2\n1990-01-02\t3\n"
        with pytest.raises(errors.MalformedRecord) as exc:
            parse_rdb(bad)
        assert exc.value.line == 4

    def test_duplicate_date_same_variable(self):
        bad = (
            "datetime\ta\n10d\t12n\n"
            "1990-01-01\t1\n"
            "1990-01-01\t2\n"
        )
        with pytest.raises(errors.DuplicateTimestampVariable) as exc:
            parse_rdb(bad)
        assert exc.value.code == "a"
        assert exc.value.date == d("1990-01-01")

    def test_duplicate_date_disjoint_variables_merge(self):
        text = (
            "datetime\ta\tb\n10d\t12n\t12n\n"
            "1990-01-02\t\t5\n"
            "1990-01-01\t9\t8\n"
            "1990-01-02\t7\t\n"
        )
        t = parse_rdb(text)
        assert t.index.tolist() == [d("1990-01-01"), d("1990-01-02")]
        assert_allclose(t.values, [[9, 8], [7, 5]])

    def test_unparseable_numeric_becomes_missing(self):
        t = parse_rdb("datetime\ta\n10d\t12n\n1990-01-01\t<0.01\n")
        assert np.isnan(t.values[0, 0])

    def test_non_finite_cells_become_missing(self):
        t = parse_rdb(
            "datetime\ta\tb\tc\n10d\t12n\t12n\t12n\n1990-01-01\tinf\t-inf\t1e400\n"
        )
        assert np.isnan(t.values).all()

    def test_bad_date_raises(self):
        with pytest.raises(errors.MalformedRecord, match="^line 3: cannot parse date '01/02/1990'$"):
            parse_rdb("datetime\ta\n10d\t12n\n01/02/1990\t1\n")

    def test_duplicate_header_code(self):
        with pytest.raises(errors.MalformedHeader):
            parse_rdb("datetime\ta\ta\n10d\t12n\t12n\n1990-01-01\t1\t2\n")

    def test_missing_format_line(self):
        with pytest.raises(errors.MalformedHeader):
            parse_rdb("datetime\ta\n1990-01-01\t1\n")


# Header outcomes of each reader, and the message of each MalformedHeader
# (None: the record parses).
HEADER_CASES = {
    "rdb_comments_only": (parse_rdb, "# a comment\n# another\n", "no header line found"),
    "rdb_header_then_end": (parse_rdb, "datetime\ta\tb\n", "no column-format line found"),
    "rdb_one_column": (
        parse_rdb,
        "# c\ndatetime\n10d\n1990-01-01\n",
        "RDB header must have at least two columns",
    ),
    "rdb_empty_code": (
        parse_rdb,
        "datetime\t\tb\n10d\t12n\t12n\n1990-01-01\t1\t2\n",
        "header contains an empty column name",
    ),
    "rdb_blank_lines_before_header": (
        parse_rdb, "\n  \n\t\ndatetime\ta\n10d\t12n\n1990-01-01\t1\n", None
    ),
    "csv_blank_lines": (parse_csv, "\n\n\n", "no header line found"),
    "csv_one_column": (
        parse_csv, "date\n1990-01-01\n", "CSV header must have at least two columns"
    ),
}


@pytest.mark.parametrize("case", list(HEADER_CASES))
def test_each_header_outcome_has_its_message(case):
    parse, text, message = HEADER_CASES[case]
    if message is None:
        t = parse(text)
        assert (t.codes, t.index.tolist(), t.values.tolist()) == (["a"], [d("1990-01-01")], [[1.0]])
        return
    with pytest.raises(errors.MalformedHeader) as exc:
        parse(text)
    assert str(exc.value) == message


class TestParseCsv:
    def test_minimal(self):
        t = parse_csv("date,00618\n1990-01-01,1.5\n")
        assert t.codes == ["00618"]
        assert t.values[0, 0] == 1.5

    def test_quoted_field_with_comma(self):
        t = parse_csv('date,"total n, filtered"\n1990-01-01,2.5\n')
        assert t.codes == ["total n, filtered"]

    def test_missing_tokens(self):
        t = parse_csv("date,a,b\n1990-01-01,,NA\n")
        assert np.isnan(t.values).all()

    def test_a_row_of_na_and_decimals_is_read_without_the_one_cell_rule(self, monkeypatch):
        # emit_csv writes every missing cell as NA, so its rows must not
        # fall back to _parse_cell; other spellings of missing still do
        calls = []

        def spy(text):
            calls.append(text)
            return _parse_cell(text)

        monkeypatch.setattr(ingest, "_parse_cell", spy)
        row = ["NA", "1.5", "", "-0", "NA", "2.25"]
        t = parse_csv("date,a,b,c,d,e,f\n1990-01-01," + ",".join(row) + "\n")
        assert calls == []
        want = np.array([[_parse_cell(c) for c in row]])
        assert t.values.tobytes() == want.tobytes()
        parse_csv("date,a,b\n1990-01-01,NA, NA\n")
        assert calls == ["NA", " NA"]

    def test_ragged(self):
        with pytest.raises(errors.MalformedRecord, match="^line 2: expected 3 fields, got 2$"):
            parse_csv("date,a,b\n1990-01-01,1\n")

    # line numbers count the file's lines: blank lines and the second line
    # of a quoted field included
    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("date,a,b\n1990-01-01,1,2\n\n1990-01-03,1\n", 4, "expected 3 fields, got 2"),
            (
                'date,a,b\n1990-01-01,1,2\n1990-01-02,"3\n4",5\n1990-01-03,1,2\n1990-01-04,1\n',
                6,
                "expected 3 fields, got 2",
            ),
            ("date,a\n1990-01-01,1\n01/02/1990,2\n", 3, "cannot parse date '01/02/1990'"),
        ],
        ids=["after_blank_line", "after_two_line_field", "bad_date"],
    )
    def test_error_reports_line(self, text, line, reason):
        with pytest.raises(errors.MalformedRecord) as exc:
            parse_csv(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {reason}"

    def test_round_trip_identity(self):
        t = parse_rdb((FIXTURES / "small.rdb").read_bytes())
        text = emit_csv(t)
        again = parse_csv(text)
        assert again.index.tolist() == t.index.tolist()
        assert again.codes == t.codes
        assert_allclose(again.values, t.values, equal_nan=True)
        # a second emit is byte-stable
        assert emit_csv(again) == text

    def test_round_trip_of_a_year_indexed_table(self):
        values = np.array([[1.5, np.nan], [2.0, 3.25], [-0.5, 4.0]])
        t = Table("year", [1999, 2000, 2001], ["a", "b"], values)
        text = emit_csv(t)
        again = parse_csv(text)
        assert again.index_name == "year"
        assert again.index.dtype == np.int64
        assert again.index.tolist() == t.index.tolist()
        assert again.codes == t.codes
        assert_allclose(again.values, t.values, equal_nan=True)
        # a second emit is byte-stable
        assert emit_csv(again) == text

    def test_year_records_merge_and_sort_as_date_records_do(self):
        t = parse_csv("year,a,b\n2001,1,\n 1999 ,2,3\n2001,,4\n")
        assert t.index.tolist() == [1999, 2001]
        assert t.values.tolist() == [[2.0, 3.0], [1.0, 4.0]]

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("year,a\n1999,1\n19x9,2\n", errors.MalformedRecord, "line 3: cannot parse year '19x9'"),
            ("year,a\n1999-01-01,1\n", errors.MalformedRecord, "line 2: cannot parse year '1999-01-01'"),
            ("year,a\n12345,1\n", errors.MalformedRecord, "line 2: cannot parse year '12345'"),
            ("year,a\n,1\n", errors.MalformedRecord, "line 2: cannot parse year ''"),
            ("year,a\n1999,1\n1999,2\n", errors.DuplicateTimestampVariable,
             "duplicate value for variable a on 1999"),
            ("date,a\n1999,1\n", errors.MalformedRecord, "line 2: cannot parse date '1999'"),
        ],
        ids=["letter", "date", "five_digits", "empty", "duplicate", "year_under_date"],
    )
    def test_a_year_key_is_one_to_four_digits(self, text, error, message):
        with pytest.raises(error) as exc:
            parse_csv(text)
        assert str(exc.value) == message


# Cell spellings the row-wise parsers must read exactly as _parse_cell does.
CELL_SPELLINGS = [
    " 1.5 ", "NA", "na", "   ", "", "nan", "inf", "-inf", "1e400",
    "-0", "+3", "1_0", "abc", "2.25",
]


def same_cell(a, b):
    """Equal as floats, NaN equal to NaN, and -0.0 told apart from 0.0."""
    if np.isnan(a) or np.isnan(b):
        return bool(np.isnan(a) and np.isnan(b))
    return a == b and np.signbit(a) == np.signbit(b)


@pytest.mark.filterwarnings("error")
class TestRowWiseCells:
    """The row-at-a-time readers agree with the one-cell rule, cell by cell.

    Each spelling sits alone in a row of numbers (so a row falls back to
    ``_parse_cell`` only through that cell), and one row holds them all.
    """

    codes = [f"v{j}" for j in range(len(CELL_SPELLINGS))]
    rows = [[s] + ["2.5"] * (len(CELL_SPELLINGS) - 1) for s in CELL_SPELLINGS] + [CELL_SPELLINGS]
    days = [f"1990-01-{i + 1:02d}" for i in range(len(rows))]

    def check(self, table):
        assert table.n_rows == len(self.rows)
        for i, row in enumerate(self.rows):
            for j, cell in enumerate(row):
                assert same_cell(table.values[i, j], _parse_cell(cell)), (i, cell)

    def test_rdb(self):
        lines = ["\t".join(["datetime", *self.codes]), "\t".join(["10d"] + ["12n"] * len(self.codes))]
        lines += ["\t".join([day, *row]) for day, row in zip(self.days, self.rows)]
        self.check(parse_rdb("\n".join(lines) + "\n"))

    def test_csv(self):
        lines = [",".join(["date", *self.codes])]
        lines += [",".join([day, *row]) for day, row in zip(self.days, self.rows)]
        self.check(parse_csv("\n".join(lines) + "\n"))

    def test_infinite_first_record_does_not_collide_on_a_duplicate_date(self):
        text = (
            "datetime\ta\tb\n10d\t12n\t12n\n"
            "1990-01-01\tinf\t1e400\n"
            "1990-01-01\t4\t5\n"
        )
        t = parse_rdb(text)
        assert t.index.tolist() == [d("1990-01-01")]
        assert t.values.tolist() == [[4.0, 5.0]]


# Plain decimals, which ingest._decimal_read reads from their bytes: 1 to
# 15 digits, an optional leading "-", a point at either end or none, signed
# zeros, the largest and the smallest 15-digit values, and two that lie
# within 1e-5 of a double's spacing from the midpoint of two adjacent
# doubles (a reader that multiplies by 10.0**-places rounds both wrongly).
PLAIN_SPELLINGS = [
    "7", "-7", ".5", "-.5", "5.", "-5.", "-0", "-0.0", "007", "-007.50",
    "999999999999999", "-999999999999999", ".000000000000001", "-.000000000000001",
    "0.00000000000001", "0.001", "454.851703611744", "-711447.038359528",
]
# Spellings with the bytes of a plain decimal that are not one, so
# _decimal_read refuses their block: 16 digits and an 18-byte cell, which the
# C reader takes, and misplaced signs and points, which it refuses too.
LONG_DECIMALS = ["1234567890123456", "0.000000000000001", "-123456789012345.0"]
MALFORMED_DECIMALS = ["1.2.3", "1-2", "-", ".", "--1", "-."]

# Numeric spellings the C reader takes; each must read as _parse_cell
# reads it.  Subnormals, overflow and underflow, signed zeros, a leading
# "+", whitespace padding (ASCII, no-break space, the unit separator that
# float() itself refuses) and the spellings of inf and nan.
NUMERIC_SPELLINGS = [
    "5e-324", "2.4703282292062328e-324", "2.225073858507201e-308", "-4.9e-324",
    "1e-400", "1e400", "-1e400", "inf", "-Infinity", "nan", "-nan",
    "+0", "+3.5", "+.5", "1.7976931348623157e308", " 1.5", "1.5 ", "\u20032\u3000",
    "\xa01\xa0", "\x1f7", *PLAIN_SPELLINGS, *LONG_DECIMALS,
]
# Spellings the C reader refuses, so the row loop reads the record.
DEFERRED_SPELLINGS = [
    "NA", "na", " ", "\xa0", "abc", "1_000", "<0.01", "١٢", "0x1p3", "1e",
    "nan(1)", "1,5", *MALFORMED_DECIMALS,
]

# Date spellings other than exactly YYYY-MM-DD (Python 3.11's fromisoformat
# reads the first two, 3.10's refuses them).  The date field keeps 11
# bytes, so "1990-01-01xy" reads as "1990-01-01x", and it drops a trailing
# NUL.
OTHER_DATE_SPELLINGS = [
    "19900101", "1990-W01-1", "1990/01/01", " 1990-01-01", "1990-01-01 ", "1990-01-01\0",
    "1990-01-01xy", "0000-01-01", "1900-02-29", "1990-02-29", "1990-04-31", "1990-00-01", "1990-13-01",
    "1990-01-00", "199\xe9-01-01", "\uff11\uff19\uff19\uff10-\uff10\uff11-\uff10\uff11",
]


def _random_number(rng) -> str:
    kind = int(rng.integers(0, 5))
    if kind == 0:  # a double's shortest repr, over a wide range of magnitudes
        return repr(float(rng.standard_normal() * 10.0 ** rng.uniform(-300, 300)))
    if kind == 1:  # a subnormal
        return repr(float(rng.integers(1, 2**52)) * 5e-324)
    if kind == 2:  # a 17-40 digit mantissa, maybe with an exponent
        digits = "".join(map(str, rng.integers(0, 10, size=int(rng.integers(17, 41)))))
        point = int(rng.integers(0, len(digits) + 1))
        text = digits[:point] + "." + digits[point:]
        return text + (f"e{int(rng.integers(-330, 310))}" if rng.random() < 0.5 else "")
    if kind == 3:  # three decimals, as USGS records write them
        return f"{rng.uniform(-1000, 1000):.3f}"
    return str(rng.choice(NUMERIC_SPELLINGS))


def _plain_decimal(rng) -> str:
    """A plain decimal: 1 to 15 random digits of either sign with a point
    anywhere or none, or one of PLAIN_SPELLINGS."""
    if rng.random() < 0.2:
        return str(rng.choice(PLAIN_SPELLINGS))
    digits = "".join(map(str, rng.integers(0, 10, size=int(rng.integers(1, 16)))))
    point = int(rng.integers(0, len(digits) + 2))  # past the end: none
    text = digits[:point] + "." + digits[point:] if point <= len(digits) else digits
    return "-" + text if rng.random() < 0.5 else text


def random_rdb(rng, deferred=0.0, plain=False) -> tuple[str, int]:
    """A seeded RDB text and its variable count: increasing dates, 20% empty
    cells (some in runs, some ending a row), and a ``deferred`` share of
    cells the C reader refuses.  With ``plain`` every other cell is a
    plain decimal."""
    p = int(rng.integers(1, 7))
    n = int(rng.integers(1, 60))
    lines = ["\t".join(["datetime", *(f"v{j}" for j in range(p))]), "\t".join(["10d"] + ["12n"] * p)]
    day = d("1990-01-01")
    for _ in range(n):
        day += datetime.timedelta(days=int(rng.integers(1, 40)))
        cells = []
        for _ in range(p):
            u = rng.random()
            if u < 0.2:
                cells.append("")
            elif u < 0.2 + deferred:
                cells.append(str(rng.choice(DEFERRED_SPELLINGS)))
            else:
                cells.append(_plain_decimal(rng) if plain else _random_number(rng))
        lines.append("\t".join([day.isoformat(), *cells]))
    return "\n".join(lines) + "\n", p


def per_cell_oracle(text, p):
    """Dates and values of a :func:`random_rdb` text, one _parse_cell per cell."""
    records = [r.split("\t") for r in text.splitlines()[2:] if not r.startswith("#") and r.strip()]
    values = np.array([[_parse_cell(c) for c in r[1:]] for r in records], dtype=float)
    return [d(r[0].strip()) for r in records], values.reshape(len(records), p)


def same_bits(a, b):
    """Equal arrays, NaN equal to NaN and -0.0 told apart from 0.0."""
    return a.shape == b.shape and np.array_equal(
        np.where(np.isnan(a), np.nan, a).view(np.int64),
        np.where(np.isnan(b), np.nan, b).view(np.int64),
    )


def outcome(parse, text):
    """What ``parse`` makes of ``text``: the table, or the error's type and
    message (which carries its line number)."""
    try:
        t = parse(text)
    except errors.RiversepError as exc:
        return type(exc), str(exc)
    return t.index.tolist(), t.codes, t.values.shape, t.values.tobytes()


@pytest.fixture
def row_loop_calls(monkeypatch):
    """Count the records :func:`riversep.ingest._read_records` reads; zero
    means the bulk read took the body."""
    calls = []
    read_row = ingest._read_row
    monkeypatch.setattr(ingest, "_read_row", lambda cells: calls.append(1) or read_row(cells))
    return calls


@pytest.fixture
def bulk_reads(monkeypatch):
    """For each block :func:`riversep.ingest._bulk_read` is handed, its
    record count and whether it read the block."""
    reads = []
    bulk_read = ingest._bulk_read

    def spy(records, n_fields):
        block = bulk_read(records, n_fields)
        reads.append((len(records), block is not None))
        return block

    monkeypatch.setattr(ingest, "_bulk_read", spy)
    return reads


@pytest.fixture
def decimal_reads(monkeypatch):
    """For each block :func:`riversep.ingest._decimal_read` is handed,
    whether it read the block."""
    reads = []
    decimal_read = ingest._decimal_read

    def spy(records, n_fields):
        block = decimal_read(records, n_fields)
        reads.append(block is not None)
        return block

    monkeypatch.setattr(ingest, "_decimal_read", spy)
    return reads


@pytest.fixture
def cell_walks(monkeypatch):
    """For each pass of :func:`riversep.ingest._decimal_cells` over a block's
    records, whether it read them."""
    walks = []
    decimal_cells = ingest._decimal_cells
    monkeypatch.setattr(ingest, "_decimal_cells", lambda *args: walks.append(decimal_cells(*args)) or walks[-1])
    return walks


def parse_line_by_line(text):
    """:func:`parse_rdb` with the bulk read switched off: the row loop alone."""
    bulk = ingest._bulk_read
    ingest._bulk_read = lambda *args: None
    try:
        return parse_rdb(text)
    finally:
        ingest._bulk_read = bulk


@pytest.fixture(params=[ingest._BODY_BLOCK, 3], ids=["default_block", "block3"])
def body_block(request, monkeypatch):
    """Read RDB bodies ``param`` lines at a time."""
    monkeypatch.setattr(ingest, "_BODY_BLOCK", request.param)
    return request.param


@pytest.mark.filterwarnings("error")
class TestBulkRead:
    """The bulk read either gives the row loop's table bit for bit, or
    defers a block to the row loop, which raises the first error in file
    order.  Warnings are errors: numpy's C reader must not warn on any
    numpy this package admits."""

    @pytest.mark.parametrize("seed", range(40))
    def test_numeric_body_is_read_in_bulk_to_the_per_cell_bits(self, seed, row_loop_calls, body_block):
        text, p = random_rdb(np.random.default_rng(seed))
        t = parse_rdb(text)
        assert row_loop_calls == []
        dates, values = per_cell_oracle(text, p)
        assert t.index.tolist() == dates
        assert same_bits(t.values, values)
        assert outcome(parse_line_by_line, text) == outcome(parse_rdb, text)

    @pytest.mark.parametrize("seed", range(40))
    def test_body_with_refused_cells_is_read_by_the_row_loop(
        self, seed, row_loop_calls, bulk_reads, body_block
    ):
        text, p = random_rdb(np.random.default_rng(1000 + seed), deferred=0.05)
        t = parse_rdb(text)
        assert len(row_loop_calls) == sum(n for n, taken in bulk_reads if not taken)
        dates, values = per_cell_oracle(text, p)
        assert t.index.tolist() == dates
        assert same_bits(t.values, values)
        assert outcome(parse_line_by_line, text) == outcome(parse_rdb, text)

    @pytest.mark.parametrize("cell", NUMERIC_SPELLINGS)
    def test_each_numeric_spelling_is_read_in_bulk(self, cell, row_loop_calls, decimal_reads):
        text = f"datetime\ta\tb\n10d\t12n\t12n\n1990-01-01\t{cell}\t1\n1990-01-02\t2\t{cell}\n"
        t = parse_rdb(text)
        assert row_loop_calls == [] and decimal_reads == [cell in PLAIN_SPELLINGS]
        assert same_bits(t.values, np.array([[_parse_cell(cell), 1.0], [2.0, _parse_cell(cell)]]))

    @pytest.mark.parametrize("cell", DEFERRED_SPELLINGS)
    def test_each_refused_spelling_is_read_by_the_row_loop(self, cell, row_loop_calls, decimal_reads):
        text = f"datetime\ta\tb\n10d\t12n\t12n\n1990-01-01\t{cell}\t1\n1990-01-02\t2\t3\n"
        t = parse_rdb(text)
        assert row_loop_calls == [1, 1] and decimal_reads == [False]
        assert same_bits(t.values, np.array([[_parse_cell(cell), 1.0], [2.0, 3.0]]))

    @pytest.mark.parametrize("cell_rows", [ingest._CELL_ROWS, 2], ids=["default_pass", "pass2"])
    @pytest.mark.parametrize("seed", range(40))
    def test_plain_decimal_body_is_read_from_its_bytes_to_the_bits_of_float(
        self, seed, cell_rows, row_loop_calls, decimal_reads, body_block, monkeypatch
    ):
        monkeypatch.setattr(ingest, "_CELL_ROWS", cell_rows)
        text, p = random_rdb(np.random.default_rng(2000 + seed), plain=True)
        t = parse_rdb(text)
        assert row_loop_calls == [] and decimal_reads and all(decimal_reads)
        dates, values = per_cell_oracle(text, p)
        assert t.index.tolist() == dates
        assert same_bits(t.values, values)

    @pytest.mark.parametrize("cell", PLAIN_SPELLINGS)
    def test_each_plain_spelling_is_read_from_its_bytes_as_the_c_reader_reads_it(self, cell, monkeypatch):
        records = [f"1990-01-01\t{cell}\t1", f"1990-01-02\t\t{cell}"]
        fields, cells = ingest._decimal_read(records, 3)
        assert fields.tolist() == [b"1990-01-01", b"1990-01-02"]
        assert same_bits(cells, np.array([[_parse_cell(cell), 1.0], [nan, _parse_cell(cell)]]))
        monkeypatch.setattr(ingest, "_decimal_read", lambda *args: None)
        days, by_c_reader = ingest._bulk_read(records, 3)
        assert days.tolist() == [d("1990-01-01"), d("1990-01-02")]
        assert same_bits(by_c_reader, cells)

    @pytest.mark.parametrize(
        "records",
        [
            ["1990-01-01\t1\t2", "1990-01-02\t3"],
            ["1990-01-01\t1\t2\t3", "1990-01-02\t4"],  # the field counts balance
            ["1990-01-01\t1\t2", "1990-1-02\t3\t4"],
            ["1990-01-01\t1\t2", "1990-01-020\t3\t4"],
            ["1990-01-01\t1\t2", "19900102\t\t3\t4"],
        ],
    )
    def test_the_decimal_read_refuses_a_wrong_field_count_or_date_width(self, records):
        assert ingest._decimal_read(records, 3) is None

    def test_a_cell_refused_in_a_later_pass_refuses_the_block(
        self, row_loop_calls, bulk_reads, cell_walks, monkeypatch
    ):
        # two records a pass: the first two passes read theirs, the third
        # finds a 16-digit cell, and the C reader takes the block
        monkeypatch.setattr(ingest, "_CELL_ROWS", 2)
        records = [f"{day}\t{i}\t{i}.5" for i, day in enumerate(consecutive_dates(5))]
        records[4] = records[4].replace("\t4\t", "\t1234567890123456\t")
        text = "datetime\ta\tb\n10d\t12n\t12n\n" + "\n".join(records) + "\n"
        t = parse_rdb(text)
        assert cell_walks == [True, True, False]
        assert bulk_reads == [(5, True)] and row_loop_calls == []
        assert same_bits(t.values, per_cell_oracle(text, 2)[1])

    @pytest.mark.parametrize(
        "row", ["\t\t\t", "\t1\t\t", "\t\t1\t", "\t\t\t1", "\t1\t\t2", "\t\t2\t"]
    )
    def test_empty_cells_in_runs_and_at_the_end_of_a_row(self, row, row_loop_calls):
        text = f"datetime\ta\tb\tc\n10d\t12n\t12n\t12n\n1990-01-01{row}\n"
        t = parse_rdb(text)
        assert row_loop_calls == []
        assert same_bits(t.values, np.array([[_parse_cell(c) for c in row.split("\t")[1:]]]))

    def test_a_row_with_one_extra_field_is_ragged(self):
        text = "datetime\ta\tb\n10d\t12n\t12n\n1990-01-01\t1\t2\n1990-01-02\t3\t4\t5\n"
        with pytest.raises(errors.MalformedRecord) as exc:
            parse_rdb(text)
        assert str(exc.value) == "line 4: expected 3 fields, got 4"

    def test_an_extra_field_and_a_missing_one_that_balance_are_ragged(self):
        # the records' total field count is right; the first wrong one is
        # still reported
        text = "datetime\ta\tb\n10d\t12n\t12n\n1990-01-01\t1\t2\t3\n1990-01-02\t4\n"
        with pytest.raises(errors.MalformedRecord) as exc:
            parse_rdb(text)
        assert str(exc.value) == "line 3: expected 3 fields, got 4"

    @pytest.mark.parametrize(
        "records, message",
        [
            (["01/02/1990\t1\t2", "1990-01-02\t3\t4\t5"], "line 3: cannot parse date '01/02/1990'"),
            (["1990-01-01\t1\t2\t3", "01/02/1990\t3\t4"], "line 3: expected 3 fields, got 4"),
            (["1990-01-01\tNA\t2", "1990-01-02\t3\t4\t5", "1990-13-01\t1\t2"], "line 4: expected 3 fields, got 4"),
            (["1990-01-01\t1\t2", "1990-13-01\t1\t2", "1990-01-02\t3\t4\t5"], "line 4: cannot parse date '1990-13-01'"),
            (
                ["1990-01-01\t1\t2", "#", "1990-01-02\tNA\t2", "1990-01-03\t1", "1990-13-01\t1\t2"],
                "line 6: expected 3 fields, got 2",
            ),
            (
                ["1990-01-01\t1\t2", "1990-01-02\t1\t2", "", "1990-01-03\t1\t2", "1990-13-01\t1\t2", "x\t1"],
                "line 7: cannot parse date '1990-13-01'",
            ),
        ],
    )
    def test_the_first_error_in_file_order_wins(self, records, message, body_block):
        text = "datetime\ta\tb\n10d\t12n\t12n\n" + "\n".join(records) + "\n"
        with pytest.raises(errors.MalformedRecord) as exc:
            parse_rdb(text)
        assert str(exc.value) == message
        assert outcome(parse_rdb, text) == outcome(parse_line_by_line, text)

    def test_comment_and_blank_lines_inside_the_body(self, row_loop_calls, body_block):
        body = ["1990-01-01\t1\t", "# a note", "", "   ", "\t\t", "1990-01-02\t\t2.5", "#"]
        text = "datetime\ta\tb\n10d\t12n\t12n\n" + "\n".join(body) + "\n"
        t = parse_rdb(text)
        assert row_loop_calls == []
        assert t.index.tolist() == [d("1990-01-01"), d("1990-01-02")]
        assert same_bits(t.values, np.array([[1.0, np.nan], [np.nan, 2.5]]))
        with pytest.raises(errors.MalformedRecord) as exc:
            parse_rdb(text + "1990-01-03\t1\n")
        assert exc.value.line == 10

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_other_line_endings(self, newline, row_loop_calls):
        text = "datetime\ta\tb\n10d\t12n\t12n\n1990-01-01\t1\t\n1990-01-02\t\t2\n"
        t = parse_rdb(text.replace("\n", newline))
        assert row_loop_calls == []
        assert outcome(parse_rdb, text.replace("\n", newline)) == outcome(parse_rdb, text)

    @pytest.mark.parametrize("char", ["\x0c", "\x85", " "])
    @pytest.mark.parametrize(
        "record",
        ["1990-01-01\t1{c}2\t3", "1990-01-01\t1\t{c}", "1990-01-01{c}\t1\t2", "{c}1990-01-01\t1\t2"],
    )
    def test_line_boundaries_inside_a_record_split_it_as_the_row_loop_does(self, char, record):
        text = "datetime\ta\tb\n10d\t12n\t12n\n" + record.format(c=char) + "\n1990-01-02\t3\t4\n"
        assert outcome(parse_rdb, text) == outcome(parse_line_by_line, text)

    # with b lines a block, records 0..b-1 are the first block, b..2b-1 the
    # second, and 2b, 2b+1 the third
    @pytest.mark.parametrize("block, offset", [(0, 0), (0, -1), (1, 0), (1, -1), (2, 0), (2, -1)])
    def test_the_row_loop_reads_only_the_block_with_a_refused_cell(
        self, block, offset, row_loop_calls, bulk_reads, body_block
    ):
        records = [f"{day}\t{i}\t{i}.5" for i, day in enumerate(consecutive_dates(2 * body_block + 2))]
        first = block * body_block
        size = min(body_block, len(records) - first)
        refused = first + offset % size
        records[refused] = records[refused].replace("\t", "\tNA\t", 1).rsplit("\t", 1)[0]
        text = "datetime\ta\tb\n10d\t12n\t12n\n" + "\n".join(records) + "\n"
        t = parse_rdb(text)
        assert row_loop_calls == [1] * size
        assert bulk_reads == [(n, i != block) for i, n in enumerate([body_block, body_block, 2])]
        dates, values = per_cell_oracle(text, 2)
        assert t.index.tolist() == dates
        assert same_bits(t.values, values)
        assert outcome(parse_rdb, text) == outcome(parse_line_by_line, text)

    def test_refused_blocks_apart_leave_the_blocks_between_them_to_the_bulk_read(
        self, row_loop_calls, bulk_reads, body_block
    ):
        # "<0.01" in the first and third of four blocks: the second and fourth
        # are read in bulk, and a record a field short in the fourth is still
        # the row loop's error
        records = [f"{day}\t{i}\t{i}.5" for i, day in enumerate(consecutive_dates(4 * body_block))]
        for refused in (body_block - 1, 2 * body_block):
            records[refused] = records[refused].replace("\t", "\t<0.01\t", 1).rsplit("\t", 1)[0]
        text = "datetime\ta\tb\n10d\t12n\t12n\n" + "\n".join(records) + "\n"
        t = parse_rdb(text)
        assert row_loop_calls == [1] * (2 * body_block)
        assert bulk_reads == [(body_block, taken) for taken in (False, True, False, True)]
        assert np.isnan(t.values[[body_block - 1, 2 * body_block], 0]).all()
        assert outcome(parse_rdb, text) == outcome(parse_line_by_line, text)
        ragged = 3 * body_block + 1
        records[ragged] = records[ragged].rsplit("\t", 1)[0]
        text = "datetime\ta\tb\n10d\t12n\t12n\n" + "\n".join(records) + "\n"
        assert outcome(parse_rdb, text) == (errors.MalformedRecord, f"line {ragged + 3}: expected 3 fields, got 2")
        assert outcome(parse_rdb, text) == outcome(parse_line_by_line, text)

    def test_a_refused_last_line_in_every_block(self, row_loop_calls, bulk_reads, cell_walks, body_block):
        # the decimal read refuses each block on its bytes alone, before a
        # pass over its cells
        records = [f"{day}\t{i}\t{i}.5" for i, day in enumerate(consecutive_dates(3 * body_block))]
        for last in range(body_block - 1, len(records), body_block):
            records[last] = records[last].rsplit("\t", 1)[0] + "\tNA"
        text = "datetime\ta\tb\n10d\t12n\t12n\n" + "\n".join(records) + "\n"
        t = parse_rdb(text)
        assert row_loop_calls == [1] * len(records)
        assert bulk_reads == [(body_block, False)] * 3
        assert cell_walks == []
        assert np.isnan(t.values[body_block - 1 :: body_block, 1]).all()
        assert outcome(parse_rdb, text) == outcome(parse_line_by_line, text)

    def test_unsorted_records_come_out_sorted(self, row_loop_calls):
        text = "datetime\ta\n10d\t12n\n1990-01-03\t3\n1990-01-01\t1\n1990-01-02\t\n"
        t = parse_rdb(text)
        assert row_loop_calls == []
        assert t.index.tolist() == [d("1990-01-01"), d("1990-01-02"), d("1990-01-03")]
        assert same_bits(t.values, np.array([[1.0], [np.nan], [3.0]]))

    @pytest.mark.parametrize("body", ["", "# only a comment\n", "\n\n  \n"])
    def test_empty_body_is_an_empty_table_without_a_warning(self, body, body_block):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = parse_rdb("datetime\ta\tb\n10d\t12n\t12n\n" + body)
        assert t.index.tolist() == [] and t.codes == ["a", "b"]
        assert t.values.shape == (0, 2)

    def test_plain_dates_are_read_from_their_bytes(self, row_loop_calls, body_block, monkeypatch):
        # the edge years, a leap day, and a date on each side of the first
        # block boundary
        days = [day.isoformat() for day in consecutive_dates(body_block + 1, "1800-01-01")]
        days[0], days[body_block - 1], days[body_block] = "0001-01-01", "2000-02-29", "9999-12-31"
        text = "datetime\ta\n10d\t12n\n" + "".join(f"{day}\t{i}\n" for i, day in enumerate(days))
        iso_dates = ingest._iso_dates
        read = []
        monkeypatch.setattr(ingest, "_iso_dates", lambda fields: read.append(iso_dates(fields)) or read[-1])
        t = parse_rdb(text)
        assert row_loop_calls == []
        assert len(read) == 2 and all(block is not None for block in read)
        assert t.index.tolist() == sorted(map(d, days))
        assert outcome(parse_rdb, text) == outcome(parse_line_by_line, text)

    @pytest.mark.parametrize("date", OTHER_DATE_SPELLINGS)
    def test_other_date_spellings_give_the_row_loops_outcome(self, date, body_block):
        # the fourth record starts the second block of three lines; the row
        # loop strips surrounding whitespace and then takes YYYY-MM-DD alone,
        # on every Python (3.11's fromisoformat also reads 19900101 and
        # 1990-W01-1)
        records = ["1989-12-29\t1\t2", "1989-12-30\t\t3", "1989-12-31\t4\t", f"{date}\t5\t6"]
        text = "datetime\ta\tb\n10d\t12n\t12n\n" + "\n".join(records) + "\n"
        got = outcome(parse_rdb, text)
        assert got == outcome(parse_line_by_line, text)
        if date.strip() == "1990-01-01":
            assert got[0][-1] == d("1990-01-01")
        else:
            assert got == (errors.MalformedRecord, f"line 6: cannot parse date {date!r}")

    @pytest.mark.parametrize("date", [s for s in OTHER_DATE_SPELLINGS if s.isascii() and "\0" not in s])
    def test_a_date_spelled_otherwise_is_not_read_from_its_bytes(self, date):
        assert ingest._iso_dates(np.array([b"1990-01-01", date.encode()], dtype="S11")) is None

    def test_a_trailing_extra_empty_field_is_ragged(self, body_block):
        text = "datetime\ta\tb\n10d\t12n\t12n\n1990-01-01\t1\t2\n1990-01-02\t3\t4\t\n"
        with pytest.raises(errors.MalformedRecord) as exc:
            parse_rdb(text)
        assert str(exc.value) == "line 4: expected 3 fields, got 4"
        assert outcome(parse_rdb, text) == outcome(parse_line_by_line, text)

    def test_a_record_a_field_short_at_the_end_of_a_block_is_ragged(self, body_block):
        records = [f"{day}\t{i}\t{i}" for i, day in enumerate(consecutive_dates(body_block + 1))]
        records[body_block - 1] = records[body_block - 1].rsplit("\t", 1)[0]
        text = "datetime\ta\tb\n10d\t12n\t12n\n" + "\n".join(records) + "\n"
        with pytest.raises(errors.MalformedRecord) as exc:
            parse_rdb(text)
        assert str(exc.value) == f"line {body_block + 2}: expected 3 fields, got 2"
        assert outcome(parse_rdb, text) == outcome(parse_line_by_line, text)

    def test_a_ragged_row_after_comments_in_bulk_read_blocks_has_its_file_line(
        self, row_loop_calls, body_block
    ):
        # the first two blocks each hold a comment line and are read in bulk;
        # the third holds a record, then one a field short
        body = [f"{day}\t{i}\t{i}.5" for i, day in enumerate(consecutive_dates(3 * body_block))]
        for at in (body_block + 1, 1):
            body.insert(at, "# a note")
        ragged = 2 * body_block + 1
        body[ragged] = body[ragged].rsplit("\t", 1)[0]
        text = "datetime\ta\tb\n10d\t12n\t12n\n" + "\n".join(body) + "\n"
        with pytest.raises(errors.MalformedRecord) as exc:
            parse_rdb(text)
        assert row_loop_calls == [1]
        assert str(exc.value) == f"line {ragged + 3}: expected 3 fields, got 2"
        assert outcome(parse_rdb, text) == outcome(parse_line_by_line, text)

    def test_a_leading_space_date_hands_only_its_block_to_the_row_loop(
        self, row_loop_calls, bulk_reads, body_block
    ):
        days = [day.isoformat() for day in consecutive_dates(2 * body_block + 1)]
        canonical = "datetime\ta\tb\n10d\t12n\t12n\n" + "".join(
            f"{day}\t{i}\t{i}.5\n" for i, day in enumerate(days)
        )
        # a record inside the second block, which starts at record body_block
        text = canonical.replace(f"\n{days[body_block + 1]}\t", f"\n {days[body_block + 1]}\t")
        assert text != canonical
        parse_rdb(text)
        assert row_loop_calls == [1] * body_block
        assert bulk_reads == [(body_block, True), (body_block, False), (1, True)]
        assert outcome(parse_rdb, text) == outcome(parse_rdb, canonical)

    @pytest.mark.parametrize("where", ["comment", "cell"])
    def test_a_nul_sends_only_its_own_block_to_the_row_loop(self, where, row_loop_calls, bulk_reads, body_block):
        # an S11 date field drops a trailing NUL, so no block holding one goes
        # to the C reader; here the NUL is in the second block, after a first
        # that is read in bulk.  A comment is dropped before a block is read,
        # so a NUL in one sends no block to the row loop.
        records = [f"{day}\t{i}\t{i}.5" for i, day in enumerate(consecutive_dates(body_block + 1))]
        if where == "comment":
            records.insert(body_block, "# a\0note")
        else:
            records[body_block] = records[body_block].replace("\t", "\t1\0", 1)
        text = "datetime\ta\tb\n10d\t12n\t12n\n" + "\n".join(records) + "\n"
        t = parse_rdb(text)
        assert row_loop_calls == ([1] if where == "cell" else [])
        assert bulk_reads == [(body_block, True), (1, where == "comment")]
        dates, values = per_cell_oracle(text, 2)
        assert t.index.tolist() == dates
        assert same_bits(t.values, values)
        assert np.isnan(t.values[-1, 0]) == (where == "cell")

    def test_a_date_with_a_trailing_nul_is_invalid_where_the_row_loop_reads_it(
        self, row_loop_calls, bulk_reads, body_block
    ):
        records = [f"{day}\t{i}\t{i}.5" for i, day in enumerate(consecutive_dates(body_block + 1))]
        records[body_block] = records[body_block].replace("\t", "\0\t", 1)
        text = "datetime\ta\tb\n10d\t12n\t12n\n" + "\n".join(records) + "\n"
        date = records[body_block].split("\t")[0]
        assert outcome(parse_rdb, text) == (errors.MalformedRecord, f"line {body_block + 3}: cannot parse date {date!r}")
        # the row loop raises on the date, before it reads the record's cells
        assert row_loop_calls == []
        assert bulk_reads == [(body_block, True), (1, False)]

    @pytest.mark.parametrize("line", ["# a\0note", "# \0"])
    def test_a_nul_in_a_header_comment_leaves_every_block_to_the_bulk_read(
        self, line, row_loop_calls, bulk_reads, body_block
    ):
        records = [f"{day}\t{i}\t{i}.5" for i, day in enumerate(consecutive_dates(2 * body_block + 1))]
        body = "datetime\ta\tb\n10d\t12n\t12n\n" + "\n".join(records) + "\n"
        got = outcome(parse_rdb, f"{line}\n{body}")
        assert row_loop_calls == []
        assert bulk_reads == [(body_block, True), (body_block, True), (1, True)]
        assert got == outcome(parse_rdb, body)

    def test_a_block_of_comment_lines_alone_is_the_decimal_reads(
        self, row_loop_calls, bulk_reads, decimal_reads, body_block
    ):
        # the second block holds no record: the decimal read reads it to
        # empty arrays, and the C reader is not handed it
        days = consecutive_dates(body_block + 1)
        lines = [f"{day}\t{i}\t{i}.5" for i, day in enumerate(days[:-1])]
        lines += ["# a note"] * body_block + [f"{days[-1]}\t1\t"]
        text = "datetime\ta\tb\n10d\t12n\t12n\n" + "\n".join(lines) + "\n"
        t = parse_rdb(text)
        assert row_loop_calls == []
        assert bulk_reads == [(body_block, True), (0, True), (1, True)]
        assert decimal_reads == [True, True, True]
        assert ingest._decimal_read([], 3)[0].shape == (0,)
        assert t.index.tolist() == list(days)
        assert outcome(parse_rdb, text) == outcome(parse_line_by_line, text)


@pytest.mark.parametrize("date", [s for s in OTHER_DATE_SPELLINGS if "\0" not in s])
def test_a_csv_date_has_the_rdb_row_loops_rule(date):
    # NUL is left out: Python 3.10's csv reader refuses a line holding one
    text = f"date,a\n1989-12-31,1\n{date},2\n"
    if date.strip() == "1990-01-01":
        assert parse_csv(text).index.tolist() == [d("1989-12-31"), d("1990-01-01")]
    else:
        assert outcome(parse_csv, text) == (errors.MalformedRecord, f"line 3: cannot parse date {date!r}")


# Texts whose lines csv reads alike from io.StringIO and from parse_csv.
CSV_LINE_EDGES = {
    "crlf": "date,a,b\r\n1990-01-01,1,2\r\n1990-01-02,3,\r\n",
    "quoted_newline_in_a_cell": 'date,a,b\n1990-01-01,"1\n",2\n1990-01-02,3,4\n',
    "quoted_newline_in_a_code": 'date,"a\nx",b\n1990-01-01,1,2\n',
    "unterminated_quote_at_the_end": 'date,a,b\n1990-01-01,1,"2',
    "unterminated_quote_then_newline": 'date,a,b\n1990-01-01,1,"2\n',
    "blank_lines": "\n\ndate,a,b\n\n1990-01-01,1,2\n\n\n1990-01-03,,5\n",
    "other_line_breaks_in_cells": "date,a,b\n1990-01-01,1\x0c,2\u2028\n1990-01-02,\x1c3, 4\x0b\n",
    "no_final_newline": "date,a,b\n1990-01-01,1,2",
    "header_only": "date,a,b\n",
    "header_only_without_newline": "date,a,b",
}


@pytest.mark.parametrize("text", list(CSV_LINE_EDGES.values()), ids=list(CSV_LINE_EDGES))
def test_parse_csv_reads_the_records_csv_reads_from_io_stringio(text):
    header, *rows = [row for row in csv.reader(io.StringIO(text)) if row]
    t = parse_csv(text)
    assert t.codes == [code.strip() for code in header[1:]]
    assert t.index.tolist() == [d(row[0]) for row in rows]
    cells = np.array([[_parse_cell(c) for c in row[1:]] for row in rows]).reshape(len(rows), len(header) - 1)
    assert same_bits(t.values, cells)


def test_a_quote_left_open_at_the_end_ends_on_the_last_line():
    # io.StringIO yields no line past a final newline, so the ragged
    # record ends on line 2, not on a blank line 3
    text = 'date,a,b\n1990-01-01,"1\n'
    assert outcome(parse_csv, text) == (errors.MalformedRecord, "line 2: expected 3 fields, got 2")


@pytest.mark.parametrize(
    "text, line",
    [
        ("date,a," + "b" * 200_000 + "\n1990-01-01,1,2\n", 1),
        ("date,a,b\n1990-01-01,1," + "9" * 200_000 + "\n", 2),
        ("date,a,b\r1990-01-01,1,2\r", 1),
        ('date,a,b\n1990-01-01,"1\n",2\n1990-01-02,3\r,4\n', 4),
    ],
    ids=["oversized_code", "oversized_cell", "bare_cr_line_ends", "cr_after_a_quoted_newline"],
)
def test_a_csv_syntax_error_is_a_malformed_record_on_the_readers_line(text, line):
    with pytest.raises(errors.MalformedRecord) as info:
        parse_csv(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {info.value.reason}"


class TestIndexContract:
    """A date index is a ``datetime64[D]`` array and a year index an
    integer one, from the parsers, the stages and a table built by hand."""

    @pytest.mark.parametrize("late", [False, True], ids=["bulk", "row_loop_mid_body"])
    def test_parsers_return_days(self, late, row_loop_calls, body_block):
        days = consecutive_dates(2 * body_block + 1)
        records = [f"{day}\t{i}" for i, day in enumerate(days)]
        if late:  # the row loop takes over at the second block
            records[body_block] = " " + records[body_block]
        text = "datetime\ta\n10d\t12n\n" + "\n".join(records) + "\n"
        t = parse_rdb(text)
        assert (row_loop_calls != []) == late
        assert t.index.dtype == np.dtype("datetime64[D]")
        assert t.index.tolist() == days
        back = parse_csv(emit_csv(t))
        assert back.index.dtype == np.dtype("datetime64[D]")
        assert back.index.tolist() == days

    def test_a_table_built_from_lists_is_normalized(self):
        dated = Table("date", [d("1990-01-02"), d("1991-03-04")], ["a"], np.zeros((2, 1)))
        annual = Table("year", [1990, 1991], ["a"], np.zeros((2, 1)))
        assert dated.index.dtype == np.dtype("datetime64[D]")
        assert dated.index.tolist() == [d("1990-01-02"), d("1991-03-04")]
        assert np.issubdtype(annual.index.dtype, np.integer)
        assert annual.index.tolist() == [1990, 1991]
        assert Table("date", [], ["a"], np.empty((0, 1))).index.dtype == np.dtype("datetime64[D]")

    def test_take_keeps_the_dtype(self):
        values = np.array([[1.5, -0.0, 7.0], [np.nan, 2.25, 8.0], [3.0, 1e-300, -np.inf]])
        dated = Table("date", consecutive_dates(3), ["a", "b", "c"], values)
        annual = Table("year", [1990, 1991, 1992], ["a", "b", "c"], values)
        rows, cols = np.array([True, False, True]), np.array([False, True, True])
        for t in (dated, annual):
            for taken in (t.take(rows), t.take(cols=[True, False, True]), t.take(), t.take(rows, cols)):
                assert taken.index.dtype == t.index.dtype
            both = t.take(rows, cols)
            assert both.values.flags.c_contiguous
            assert same_bits(both.values, values[np.ix_(rows, cols)])
            assert (both.index.tolist(), both.codes) == (t.index[rows].tolist(), ["b", "c"])
        assert dated.take(np.array([True, False, True])).index.tolist() == consecutive_dates(3)[::2]

    def test_filter_keeps_both_inclusive_bounds(self):
        days = consecutive_dates(5)
        t = Table("date", days, ["a"], np.arange(5.0)[:, None])
        out = filter_table(t, FilterSpec(start=days[1], end=days[3]))
        assert out.index.dtype == np.dtype("datetime64[D]")
        assert out.index.tolist() == days[1:4]
        assert out.values[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_filter_defaults_keep_every_date_from_year_1_to_9999(self):
        days = [d("0001-01-01"), d("1990-01-01"), d("9999-12-31")]
        t = Table("date", days, ["a"], np.ones((3, 1)))
        spec = FilterSpec()
        assert (spec.start, spec.end) == (datetime.date.min, datetime.date.max)
        assert filter_table(t, spec).index.tolist() == days

    def test_filter_of_an_empty_table(self):
        t = Table("date", [], ["a", "b"], np.empty((0, 2)))
        with pytest.raises(errors.EmptyResult, match="^no rows remain$"):
            filter_table(t, FilterSpec(start=d("1990-01-01")))


def one_line_is_record(raw):
    """The record rule as one Python test per line: neither blank nor a
    ``#`` comment."""
    return raw != "" and not raw.isspace() and not raw.startswith("#")


# Lines that are not records (empty, whitespace only, comments), and lines
# that are: a comment mark after whitespace does not make a comment.
SKIPPED_LINES = ["", " ", "\t", "\x1c", "\u3000", "\x0c \x85", "#", "# a note", "#\t1\t2"]
RECORD_LINES = [" #", "\t#", "\u3000#", "1990-01-01\t1\t2", "x"]


class TestRecordTest:
    """One test of a whole block of body lines finds its records, and their
    line numbers, as a test of each line does."""

    @pytest.mark.parametrize("line", SKIPPED_LINES + RECORD_LINES)
    def test_each_line_alone(self, line):
        numbers, records = ingest._records([line], 7)
        kept = one_line_is_record(line)
        assert kept == (line in RECORD_LINES)
        assert (list(numbers), records) == (([7], [line]) if kept else ([], []))
        assert ingest._all_records([line]) == kept

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_mixes_of_lines(self, seed):
        rng = np.random.default_rng(seed)
        pool = SKIPPED_LINES + RECORD_LINES * 3
        lines = [pool[i] for i in rng.integers(0, len(pool), size=rng.integers(0, 12))]
        start = int(rng.integers(1, 10_000))
        oracle = [(n, raw) for n, raw in enumerate(lines, start) if one_line_is_record(raw)]
        numbers, records = ingest._records(lines, start)
        assert ingest._all_records(lines) == all(map(one_line_is_record, lines))
        assert list(numbers) == [n for n, _ in oracle]
        assert records == [raw for _, raw in oracle]

    def test_a_block_of_records_is_kept_as_it_is(self):
        lines = RECORD_LINES * 2
        numbers, records = ingest._records(lines, 5)
        assert records is lines
        assert numbers == range(5, 5 + len(lines))

    @pytest.mark.parametrize("line", ["", " ", "\x1c", "\u3000", "#", " #"])
    @pytest.mark.parametrize("where", ["first", "block_end", "block_start", "last"])
    @pytest.mark.parametrize("reader", ["bulk", "row_loop"])
    def test_lines_at_block_edges_read_as_the_line_by_line_rule_reads_them(
        self, line, where, reader, body_block, monkeypatch
    ):
        # with an NA cell in the first record the row loop reads the body
        records = [f"{day}\t{i}\t{i}.5" for i, day in enumerate(consecutive_dates(2 * body_block + 1))]
        if reader == "row_loop":
            records[0] = records[0].replace("\t0\t", "\tNA\t")
        at = {"first": 0, "block_end": body_block - 1, "block_start": body_block, "last": len(records)}[where]
        records.insert(at, line)
        text = "datetime\ta\tb\n10d\t12n\t12n\n" + "\n".join(records) + "\n"
        got = outcome(parse_rdb, text)
        with monkeypatch.context() as patched:
            patched.setattr(ingest, "_all_records", lambda lines: all(map(one_line_is_record, lines)))
            assert got == outcome(parse_rdb, text)
        assert got == outcome(parse_line_by_line, text)


# Text for each non-finite value, and every spelling of one these tests
# read, overflowing ones among them.
NON_FINITE = ["inf", "-inf", "nan", "-nan"]
NON_FINITE_SPELLINGS = [*NON_FINITE, "Infinity", "1e400", "-1e400"]


def nan_rewritten(values):
    """``values`` with every non-finite cell set to ``np.nan``."""
    values = values.copy()
    values[~np.isfinite(values)] = np.nan
    return values


def non_finite_mixes():
    names = list(NON_FINITE)
    return [[name] for name in names] + [list(pair) for pair in zip(names, names[1:] + names[:1])] + [names]


class TestNonFiniteCells:
    """Every non-finite cell becomes NaN with the bits of ``np.nan``, set by
    the reader that meets it: the row loop, or the C-reader branch of the
    bulk read.  The decimal read meets none."""

    def test_nan_reads_to_the_bits_of_np_nan_and_minus_nan_to_their_negation(self):
        nan_bits = np.float64(np.nan).view(np.uint64)
        read = np.loadtxt(["nan", "-nan"], ndmin=1)
        by_float = np.array([float("nan"), float("-nan")])
        for cells in (read, by_float):
            assert cells.view(np.uint64).tolist() == [nan_bits, nan_bits | np.uint64(1 << 63)]

    @pytest.mark.parametrize("mix", non_finite_mixes(), ids="+".join)
    def test_parsed_cells_have_the_bits_of_the_whole_array_rewrite(self, mix):
        cells = [*mix, "", "1.5"]
        rows = zip(consecutive_dates(len(cells)), cells, cells[::-1])
        text = "datetime\ta\tb\n10d\t12n\t12n\n" + "".join(f"{day}\t{a}\t{b}\n" for day, a, b in rows)
        got = parse_rdb(text).values.tobytes()
        by_float = np.array([[float(a or "nan"), float(b or "nan")] for a, b in zip(cells, cells[::-1])])
        assert got == nan_rewritten(by_float).tobytes()
        assert got == parse_line_by_line(text).values.tobytes()
        assert got == parse_csv(text.replace("\t", ",").replace("10d,12n,12n\n", "")).values.tobytes()

    @pytest.mark.parametrize("cell", NON_FINITE_SPELLINGS)
    def test_the_decimal_read_refuses_every_non_finite_spelling(self, cell, decimal_reads, row_loop_calls):
        text = f"datetime\ta\tb\n10d\t12n\t12n\n1990-01-01\t{cell}\t1\n1990-01-02\t2\t{cell}\n"
        want = np.array([[nan, 1.0], [2.0, nan]]).tobytes()
        assert parse_rdb(text).values.tobytes() == want
        assert decimal_reads == [False] and row_loop_calls == []  # the C reader read it
        assert parse_line_by_line(text).values.tobytes() == want

    @pytest.mark.parametrize("cell", NON_FINITE_SPELLINGS)
    def test_the_csv_row_loop_maps_every_non_finite_spelling(self, cell):
        text = f"date,a,b\n1990-01-01,{cell},1\n1990-01-02,2,{cell}\n"
        assert parse_csv(text).values.tobytes() == np.array([[nan, 1.0], [2.0, nan]]).tobytes()

    def test_the_decimal_read_makes_only_finite_cells_and_np_nan(self):
        extremes = ["999999999999999", "-999999999999999", ".000000000000001", "-0.0", ""]
        pairs = list(zip(extremes, extremes[::-1]))
        records = [f"1990-01-{i + 1:02}\t{a}\t{b}" for i, (a, b) in enumerate(pairs)]
        _, cells = ingest._decimal_read(records, 3)
        nan_bits = np.float64(np.nan).view(np.uint64)
        assert (np.isfinite(cells) | (cells.view(np.uint64) == nan_bits)).all()
        assert cells.tobytes() == np.array([[float(a or "nan"), float(b or "nan")] for a, b in pairs]).tobytes()


@pytest.mark.parametrize("parse", [parse_rdb, parse_csv])
def test_bytes_that_are_not_utf8_are_a_typed_error(parse):
    data = RDB_MINIMAL.encode()
    bad = data[:40] + b"\xff" + data[40:]
    with pytest.raises(errors.NotUtf8) as exc:
        parse(bad)
    assert exc.value.offset == 40
    # the whole input is decoded before a byte-order mark is dropped, so the
    # offset stays the file's
    with pytest.raises(errors.NotUtf8) as exc:
        parse(b"\xef\xbb\xbf" + bad)
    assert exc.value.offset == 43


BOM = "\ufeff"


@pytest.mark.parametrize("as_bytes", [True, False], ids=["bytes", "str"])
def test_a_byte_order_mark_is_dropped_before_either_parser_reads(as_bytes):
    # the station fixture's first comment line would otherwise start with
    # U+FEFF, not "#", and be read as a header of one column
    rdb = (FIXTURES / "station_fixture.rdb").read_text()
    for parse, text in ((parse_rdb, rdb), (parse_csv, emit_csv(parse_rdb(rdb)))):
        marked = BOM + text
        assert outcome(parse, marked.encode() if as_bytes else marked) == outcome(parse, text)
        assert parse(text).n_rows == 204
    # one mark is dropped, not two
    with pytest.raises(errors.MalformedHeader, match="at least two columns"):
        parse_rdb(BOM + BOM + rdb)


# Values on both sides of format_number's plain-notation window and its
# special cases.
EDGE_VALUES = [
    np.nan, 0.0, -0.0, 1e-4, np.nextafter(1e-4, 0.0), -1e-4, 999999.9999999,
    1e6, -1e6, np.nextafter(1e6, 0.0), 5e-324, 2.5e-310, 1.7e308, -1.7e308,
    np.inf, -np.inf, 123.456, -0.1,
]


def per_cell_csv(index_name, index, codes, values):
    lines = [",".join([index_name, *codes])]
    lines += [",".join([key, *map(format_number, row)]) for key, row in zip(index, values)]
    return "\n".join(lines) + "\n"


def assert_same_text(got, want):
    """Fail unless ``got == want``, naming the first line that differs (or
    the line counts) instead of diffing the whole texts, which can take
    minutes on a table of thousands of rows.  Lines keep their ends, so a
    missing final newline differs too."""
    if got == want:
        return
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for number, (a, b) in enumerate(zip(got_lines, want_lines), start=1):
        if a != b:
            pytest.fail(f"line {number} differs:\n  got  {a!r}\n  want {b!r}")
    pytest.fail(f"{len(got_lines)} lines written, {len(want_lines)} wanted")


def consecutive_dates(n, first="1990-01-01"):
    return [d(first) + datetime.timedelta(days=i) for i in range(n)]


def consecutive_days(n, first="1990-01-01"):
    """:func:`consecutive_dates` as a ``datetime64[D]`` array, as a table's
    date index holds them."""
    return np.array(consecutive_dates(n, first), "datetime64[D]")


def _seeded_wide_range(rows=2000, cols=8, seed=3):
    """Magnitudes log-uniform over 1e-8..1e8, random signs, 20% NaN and
    some signed zeros."""
    rng = np.random.default_rng(seed)
    values = rng.choice([-1.0, 1.0], size=(rows, cols)) * 10.0 ** rng.uniform(
        -8.0, 8.0, size=(rows, cols)
    )
    values[rng.random((rows, cols)) < 0.02] = 0.0
    values[rng.random((rows, cols)) < 0.02] = -0.0
    values[rng.random((rows, cols)) < 0.2] = np.nan
    return values


def _seeded_tiny_column(rows=5000, cols=24, seed=5):
    """Cells uniform in [0, 100), with more digits than a fixed decimal
    holds, and one column in (1e-6, 9e-5), below the plain window, so that
    every row mixes both of format_number's branches."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 100.0, size=(rows, cols))
    values[:, cols // 2] = rng.uniform(1e-6, 9e-5, size=rows)
    return values


nan, inf = np.nan, np.inf
ROW_PATH_CASES = {
    "edge_values": [EDGE_VALUES, EDGE_VALUES[::-1]],
    "all_plain": [[1.5, -2.25, 123456.789], [999999.9999999, -1e-4, 3.14159265358979]],
    "plain_nan_signed_zero": [[1.0, nan, -0.0], [nan, nan, nan], [-0.0, 0.0, -0.0], [0.5, 0.0, nan]],
    "mixed": [
        [1.0, 2.0, 1e6],
        [1.0, nan, -0.0],
        [5e-324, 0.0, 3.0],
        [inf, 1.0, 2.0],
        [1e-4, 999999.0, nan],
        [-inf, nan, 0.0],
        [0.25, 1e-5, -7.5],
    ],
    "seeded_wide_range": _seeded_wide_range(),
    # more rows than one block of keyed_rows' float conversion
    "seeded_wide_range_blocks": _seeded_wide_range(rows=2 * report._ROW_BLOCK + 7, cols=3, seed=4),
    "seeded_tiny_column": _seeded_tiny_column(),
    # blocks of a column-major array, as a transposed matrix is
    "column_major": np.asfortranarray(_seeded_tiny_column(rows=9, cols=10)),
    "no_variables": np.empty((3, 0)),
    "no_rows": np.empty((0, 4)),
    # a third scale (0.125's, after 0.5's and 0.25's) is not tried: the
    # block goes to the row path
    "third_decimal_scale": [[0.5]] * 8 + [[0.25]] * 8 + [[0.125]],
}


@pytest.mark.parametrize("case", ROW_PATH_CASES)
def test_emit_equals_per_cell_format_number(case, monkeypatch):
    # Each row is one % call whose format holds each cell's branch of
    # format_number; it must write format_number's bytes without calling it.
    values = np.array(ROW_PATH_CASES[case], dtype=float)
    n, p = values.shape
    codes = [f"v{j}" for j in range(p)]
    dates = consecutive_dates(n)
    years = list(range(1900, 1900 + n))
    dated = Table("date", dates, codes, values)
    annual = Table("year", years, codes, values)
    expected_dated = per_cell_csv("date", [x.isoformat() for x in dates], codes, values)
    assert_same_text(emit_csv(dated), expected_dated)
    expected_annual = per_cell_csv("year", [str(y) for y in years], codes, values)
    assert_same_text(emit_csv(annual), expected_annual)

    calls = []
    monkeypatch.setattr(report, "format_number", lambda x: calls.append(x) or "")
    written(values)
    assert calls == []


# Dates whose ISO text is written from their day numbers: the first and
# last dates Python has, a three-digit year, and both sides of 1900's
# missing and 2000's present leap day.
EDGE_DATES = ["0001-01-01", "0999-12-31", "1900-02-28", "1900-03-01", "2000-02-29", "9999-12-31"]


@pytest.mark.parametrize("refused", [False, True], ids=["decimal", "refused"])
def test_emit_writes_edge_dates_as_str_does(refused):
    dates = [d(x) for x in EDGE_DATES]
    values = np.array(
        [[1.5, nan], [-2.25, 3.0], [nan, nan], [0.0, 96.644], [7.0, 1e-4], [8.5, -0.5]]
    )
    if refused:
        values[-1, -1] = 0.1 + 0.2
    t = Table("date", dates, ["a", "b"], values)
    assert_same_text(emit_csv(t), per_cell_csv("date", [str(x) for x in dates], t.codes, values))


@pytest.mark.parametrize("refused_block", [0, 1])
def test_emit_keys_line_up_across_a_refused_block(refused_block):
    # one block written from integer digits and one by the row loop, on
    # dates that cross a century's missing leap day
    values = fixed_decimals(3, (report._ROW_BLOCK + 10, 3), seed=12)
    block = slice(None, report._ROW_BLOCK) if refused_block == 0 else slice(report._ROW_BLOCK, None)
    values[block][-1, -1] = 0.1 + 0.2
    dates = consecutive_dates(len(values), first="1890-06-01")
    t = Table("date", dates, ["a", "b", "c"], values)
    assert_same_text(emit_csv(t), per_cell_csv("date", [str(x) for x in dates], t.codes, values))


@pytest.mark.parametrize("refused", [False, True], ids=["decimal", "refused"])
def test_emit_writes_year_keys_of_each_width(refused):
    years = [7, 998, 999, 1000, 1001, 2024]
    values = np.array([[1.5], [nan], [-2.25], [0.0], [3.125], [nan]])
    if refused:
        values[0, 0] = 0.1 + 0.2
    t = Table("year", years, ["a"], values)
    assert_same_text(emit_csv(t), per_cell_csv("year", [str(y) for y in years], t.codes, values))


# bench/daily.py, the benchmark's record generator, loaded by its path: the
# bench/workload.py beside it imports scipy, which the package does without
_spec = importlib.util.spec_from_file_location("daily", Path(__file__).parents[1] / "bench" / "daily.py")
daily = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(daily)

# name -> (records the row loop reads, blocks of six the decimal read takes,
# the count of each DAILY_MARKS match)
DAILY_RECORDS = {
    "record": (0, 6, [0, 0, 0, 0, 0, 0]),
    "comments_nonfinite": (0, 4, [6, 6, 1, 1, 0, 0]),
    "late_date": (4096, 5, [0, 0, 0, 0, 1, 0]),
    "censored": (8192, 4, [0, 0, 0, 0, 0, 2]),
}
DAILY_MARKS = [r"^# a comment inside the block\n", r"^\n", r"\t-nan\t", r"\tinf\t", r"^ \d", r"\t<0\.01\t"]


@functools.cache
def daily_records():
    """Name -> text of the seed-5 record of ``bench/daily.py`` (six
    4096-line blocks) and of three variants: ``comments_nonfinite`` with a
    comment line and a blank line inside each block, and a ``-nan`` and an
    ``inf`` cell in 00010; ``late_date`` with a leading space, which only
    the row loop reads, on one date of the fourth block; ``censored`` with
    ``<0.01`` in 00010 in the first and third blocks."""
    lines = daily.generate(5)[0].decode().splitlines(keepends=True)
    body = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 2
    column = lines[body - 2].split("\t").index("00010")

    def edited(cells):
        out = list(lines)
        for row, cell in cells:
            fields = out[row].split("\t")
            fields[column] = cell
            out[row] = "\t".join(fields)
        return out

    nonfinite = edited([(body + 100, "-nan"), (body + 9000, "inf")])
    for start in reversed(range(body + 1000, len(nonfinite), 4096)):
        nonfinite[start:start] = ["# a comment inside the block\n", "\n"]
    late = list(lines)
    late[body + 3 * 4096 + 10] = " " + late[body + 3 * 4096 + 10]
    censored = edited([(body + 50, "<0.01"), (body + 2 * 4096 + 50, "<0.01")])
    return dict(zip(DAILY_RECORDS, ["".join(v) for v in (lines, nonfinite, late, censored)]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", DAILY_RECORDS)
def test_a_daily_record_of_six_blocks_reads_alike_by_every_path(name, row_loop_calls, decimal_reads):
    # the decimal read takes each block of plain decimals, numpy's C reader
    # each other block but the ones a refused line sends to the row loop;
    # the row loop alone reads the same table, ingested.csv's text is
    # per-cell format_number, and parse_csv reads it back
    text = daily_records()[name]
    row_loop_reads, decimal_blocks, marks = DAILY_RECORDS[name]
    assert [len(re.findall(mark, text, re.MULTILINE)) for mark in DAILY_MARKS] == marks
    t = parse_rdb(text.encode())
    assert t.n_rows > 5 * 4096 and len(row_loop_calls) == row_loop_reads
    assert len(decimal_reads) == 6 and sum(decimal_reads) == decimal_blocks
    by_rows = parse_line_by_line(text.encode())
    assert t.index.dtype == by_rows.index.dtype == "datetime64[D]"
    assert (by_rows.index.tolist(), by_rows.codes) == (t.index.tolist(), t.codes)
    assert by_rows.values.tobytes() == t.values.tobytes()
    missing = np.isnan(t.values)
    assert np.isfinite(t.values[~missing]).all()
    assert (t.values[missing].view(np.int64) == np.float64(nan).view(np.int64)).all()
    written_csv = emit_csv(t)
    keys = [str(day) for day in t.index]
    assert_same_text(written_csv, per_cell_csv(t.index_name, keys, t.codes, t.values.tolist()))
    back = parse_csv(written_csv.encode())
    assert back.index.dtype == "datetime64[D]"
    assert (back.index.tolist(), back.codes) == (t.index.tolist(), t.codes)
    assert same_bits(back.values, t.values)


def test_a_nul_in_the_daily_records_first_comment_leaves_every_block_to_the_decimal_read(
    row_loop_calls, decimal_reads
):
    text = daily_records()["record"]
    assert text.startswith("#") and "\0" not in text
    got = outcome(parse_rdb, ("#\0" + text[1:]).encode())
    assert row_loop_calls == [] and decimal_reads == [True] * 6
    assert got == outcome(parse_rdb, text.encode())


def test_keyed_rows_holds_one_block_of_cells_as_python_floats():
    # 20000 x 24 cells are 11.5 MB as Python floats; one block of rows at a
    # time keeps the peak near 5 MB (24.5 MB when the whole table was
    # converted at once)
    rng = np.random.default_rng(23)
    values = rng.uniform(0.0, 100.0, size=(20000, 24))
    values[rng.random(values.shape) < 0.3] = np.nan
    keys = report.date_keys(consecutive_days(len(values)))
    tracemalloc.start()
    try:
        for _ in report.keyed_rows(keys, values):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_parse_rdb_does_not_hold_the_decoded_text_while_reading_the_body():
    # a 2.9 MB body of 20000 x 24 cells peaks at ~11.5 MB read from its
    # bytes in passes of 1024 records (~10.5 MB by the C reader, ~13.8 MB
    # in one pass a block), and at ~13.9 MB when the decoded text is held
    # beside its lines; the bound is 1.2x the 10.4 MB of a reader that
    # parsed every date from text
    rng = np.random.default_rng(29)
    cells = np.round(rng.uniform(0.0, 500.0, size=(20000, 24)), 3).astype(str)
    cells[rng.random(cells.shape) < 0.3] = ""
    lines = ["\t".join(["datetime", *(f"v{j:02d}" for j in range(24))]), "\t".join(["10d"] + ["12n"] * 24)]
    days = consecutive_dates(20000)
    lines += ["\t".join([day.isoformat(), *row]) for day, row in zip(days, cells.tolist())]
    data = ("\n".join(lines) + "\n").encode()
    tracemalloc.start()
    try:
        t = parse_rdb(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.values.shape == (20000, 24)
    assert peak < 12.5e6, peak


def test_parse_rdb_holds_one_block_of_row_loop_floats():
    # the same body with NA for each empty cell: every block goes to the row
    # loop, which peaks at ~12.1 MB holding one block of Python floats; a
    # reader holding the rest of the body from the first refused block
    # peaked at ~26.2 MB
    rng = np.random.default_rng(29)
    cells = np.round(rng.uniform(0.0, 500.0, size=(20000, 24)), 3).astype(str)
    cells[rng.random(cells.shape) < 0.3] = "NA"
    lines = ["\t".join(["datetime", *(f"v{j:02d}" for j in range(24))]), "\t".join(["10d"] + ["12n"] * 24)]
    days = consecutive_dates(20000)
    lines += ["\t".join([day.isoformat(), *row]) for day, row in zip(days, cells.tolist())]
    data = ("\n".join(lines) + "\n").encode()
    tracemalloc.start()
    try:
        t = parse_rdb(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.values.shape == (20000, 24)
    assert same_bits(t.values, parse_line_by_line(data).values)
    assert peak < 15e6, peak


@pytest.mark.parametrize("missing", ["", "NA"])
def test_parse_csv_holds_one_block_of_row_loop_floats(missing):
    # the same body as CSV peaks at ~10.7 MB (empty cells) and ~11.6 MB
    # (NA); a reader that held the text as io.StringIO and every row as
    # Python floats peaked at ~29.6 and ~34.2 MB
    rng = np.random.default_rng(29)
    cells = np.round(rng.uniform(0.0, 500.0, size=(20000, 24)), 3).astype(str)
    cells[rng.random(cells.shape) < 0.3] = missing
    days = consecutive_dates(20000)
    lines = [",".join(["date", *(f"v{j:02d}" for j in range(24))])]
    lines += [",".join([day.isoformat(), *row]) for day, row in zip(days, cells.tolist())]
    data = ("\n".join(lines) + "\n").encode()
    tracemalloc.start()
    try:
        t = parse_csv(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.values.shape == (20000, 24)
    rdb = [lines[0].replace(",", "\t"), "\t".join(["10d"] + ["12n"] * 24)]
    rdb += [line.replace(",", "\t") for line in lines[1:]]
    assert same_bits(t.values, parse_rdb("\n".join(rdb) + "\n").values)
    assert peak < 15e6, peak


def test_keyed_rows_holds_one_block_of_decimal_cells():
    # the integer path for fixed-decimal blocks keeps the same bound
    rng = np.random.default_rng(25)
    values = np.round(rng.uniform(0.0, 500.0, size=(20000, 24)), 3)
    values[rng.random(values.shape) < 0.3] = np.nan
    assert report._decimal_scale(values[: report._ROW_BLOCK].ravel())[0] == 3
    keys = report.date_keys(consecutive_days(len(values)))
    tracemalloc.start()
    try:
        for _ in report.keyed_rows(keys, values):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def written(values):
    """:func:`report.keyed_rows`' text of ``values``, each row keyed by its
    number."""
    keys = report.text_keys([str(i) for i in range(len(values))])
    return "".join(report.keyed_rows(keys, values))


def per_cell_text(values):
    """``values`` written by per-cell format_number, each row keyed by its
    number."""
    rows = enumerate(np.asarray(values).tolist())
    return "".join(",".join([str(i), *map(format_number, row)]) + "\n" for i, row in rows)


@pytest.fixture
def decimal_path(monkeypatch):
    """Whether each block took the integer path (True) or the row loop."""
    outcomes = []
    real = report._decimal_text

    def spy(block, key_field):
        text = real(block, key_field)
        outcomes.append(text is not None)
        return text

    monkeypatch.setattr(report, "_decimal_text", spy)
    return outcomes


def fixed_decimals(places, shape, seed):
    """Seeded cells of ``places`` decimals in the plain window, both signs,
    10% NaN, with one cell whose last decimal is nonzero."""
    rng = np.random.default_rng(seed)
    lo = 10 ** max(places - 4, 0)
    hi = min(10**12, 10 ** (6 + places)) - 1
    k = rng.integers(lo, hi, size=shape, endpoint=True)
    k.flat[0] = k.flat[0] // 10 * 10 + 7
    values = k / 10.0**places * rng.choice([-1.0, 1.0], size=shape)
    missing = rng.random(shape) < 0.1
    missing.flat[0] = False
    values[missing] = np.nan
    return values


@pytest.mark.filterwarnings("error")
class TestDecimalBlocks:
    """Fixed-decimal blocks are written from integer digits, with the bytes
    per-cell format_number writes; any other block goes to the row loop.
    Each row is written after its key either way."""

    @pytest.mark.parametrize("places", range(13))
    def test_every_scale_both_signs(self, places, decimal_path):
        values = fixed_decimals(places, (300, 7), seed=places)
        assert report._decimal_scale(values.ravel())[0] == places
        assert_same_text(written(values), per_cell_text(values))
        assert decimal_path == [True]

    @pytest.mark.parametrize(
        "cell, taken",
        [
            (0.999999999999, True),  # k = 10**12 - 1 at D = 12
            # k = 10**12 + 1 at D = 12: 13 digits, which %.12g rounds to "1"
            (1.000000000001, False),
            (0.9999999999999, False),
            (1e-4, True),
            (0.0001, True),
            (np.nextafter(1e-4, 0.0), False),
            (999999.999999, True),
            (123456.789012, True),
            (1e6, False),
            (np.nextafter(1e6, 0.0), False),
            (0.0, True),
            (-0.0, True),
            (-1e-4, True),
            (-999999.999999, True),
            # 4 and 5 whole digits, 8 and 9 digits of k, and 8 and 9 whole
            # digits (outside the plain window); beside the 0.5 cells,
            # leading zeros cross a quad of digits
            (1000.5, True),
            (-10000.25, True),
            (1234.5678, True),
            (-12345.6789, True),
            (12345678.0, False),
            (-123456789.0, False),
            (0.1 + 0.2, False),
            (np.inf, False),
            (5e-324, False),
        ],
    )
    @pytest.mark.parametrize("position", ["first", "after_probe"])
    def test_single_cell(self, cell, taken, position, decimal_path):
        # the cell alone, and after more cells than the repr probe reads
        values = np.array([[cell]]) if position == "first" else np.full((3, 4), 0.5)
        values.flat[-1] = cell
        assert_same_text(written(values), per_cell_text(values))
        assert decimal_path == [taken]

    @pytest.mark.parametrize(
        "values",
        [
            # a nonzero cell below 1e-4, exact at the scale of the first cells
            [[0.12345] * 9 + [0.00009]],
            [[0.12345] * 9 + [-0.00009]],
            # a 13-digit cell that is exact at D = 12
            [[0.123456789012] * 9 + [1.000000000001]],
            [[96.644] * 9 + [1e6]],
            [[96.644] * 9 + [np.inf]],
            # exact at a third scale, after two refinements
            [[0.5] * 8 + [0.25] * 8 + [0.125]],
        ],
        ids=["below_window", "below_window_negative", "thirteen_digits", "1e6", "inf", "third_scale"],
    )
    def test_refused_past_the_probe(self, values, decimal_path):
        values = np.array(values)
        assert_same_text(written(values), per_cell_text(values))
        assert decimal_path == [False]

    def test_refused_cells_set_a_finer_scale(self, decimal_path):
        # the first cells show 3 decimals, a later one 5
        values = np.full((4, 5), 96.644)
        values[3, 4] = 1.23457
        assert report._decimal_scale(values.ravel())[0] == 5
        assert_same_text(written(values), per_cell_text(values))
        assert decimal_path == [True]

    @pytest.mark.parametrize(
        "values, taken",
        [
            ([[1.5, nan, 2.25], [nan, nan, nan], [nan, -3.0, 0.0]], [True]),
            ([[nan, nan], [nan, nan]], [True]),
            ([[1.5], [nan], [-0.0], [123.25]], [True]),
            # the largest cell has 4, 5, 8 and 9 digits: leading zeros of
            # the smaller cells cross a quad of digits
            ([[1000.5, 0.5, -3.0], [nan, -0.0, 12.0]], [True]),
            ([[10000.5, 1.5, 0.5], [-99999.0, nan, -0.0]], [True]),
            ([[1234.5678, 0.0001], [-5.0, nan], [0.0, 12.5]], [True]),
            ([[-12345.6789, 0.0001, 7.0], [nan, 100.01, -0.0]], [True]),
            (np.empty((3, 0)), [False]),
            (np.empty((0, 4)), []),
        ],
        ids=[
            "nan_row", "all_nan", "one_column", "whole_4", "whole_5", "digits_8", "digits_9", "no_columns", "no_rows",
        ],
    )
    def test_shapes(self, values, taken, decimal_path):
        values = np.array(values, dtype=float)
        assert_same_text(written(values), per_cell_text(values))
        assert decimal_path == taken

    @pytest.mark.parametrize("refused_block", [0, 1])
    def test_blocks_across_the_row_block_boundary(self, refused_block, decimal_path):
        values = fixed_decimals(3, (report._ROW_BLOCK + 10, 4), seed=11)
        rows = slice(None, report._ROW_BLOCK) if refused_block == 0 else slice(report._ROW_BLOCK, None)
        values[rows][-1, -1] = 0.1 + 0.2
        assert_same_text(written(values), per_cell_text(values))
        assert decimal_path == [refused_block != 0, refused_block == 0]

    def test_fixture_record(self, decimal_path):
        t = parse_rdb((FIXTURES / "station_fixture.rdb").read_bytes())
        assert_same_text(written(t.values), per_cell_text(t.values))
        assert decimal_path == [True]


@pytest.fixture
def compacted(monkeypatch):
    """Check each :func:`report._kept_text` call against the bytes of
    ``field`` other than 0xFF, taken from the whole block at once; the
    calls' texts."""
    texts = []
    real = report._kept_text

    def checked(field):
        text = real(field)
        assert text == str(field[field != 0xFF], "utf-8")
        texts.append(text)
        return text

    monkeypatch.setattr(report, "_kept_text", checked)
    return texts


# Codes whose UTF-8 bytes number 2, 3 and 4 per character.
WIDE_CODES = ["nitraté", "硝酸盐", "\U0001d4dd\U0001d4de", "ö", "00618"]


@pytest.mark.filterwarnings("error")
class TestKeptText:
    """A block's kept bytes are compacted a bounded slice at a time, with
    the text that one compaction of the whole block gives."""

    @pytest.mark.parametrize("slice_bytes", [1, 2, 3, 7, 13, 64, report._SLICE_BYTES])
    def test_slices_shorter_than_a_row_and_rows_across_slices(self, slice_bytes, compacted, monkeypatch):
        # rows of 11 + 4 * 8 bytes: a slice of up to 13 bytes is shorter
        # than a row, and rows straddle every slice boundary that is not a
        # multiple of a row
        monkeypatch.setattr(report, "_SLICE_BYTES", slice_bytes)
        values = fixed_decimals(3, (150, 4), seed=slice_bytes)
        assert_same_text(written(values), per_cell_text(values))
        dates = consecutive_dates(len(values))
        t = Table("date", dates, ["a", "b", "c", "d"], values)
        assert_same_text(emit_csv(t), per_cell_csv("date", [str(x) for x in dates], t.codes, values))
        assert len(compacted) == 2

    @pytest.mark.parametrize("slice_bytes", [1, 2, 3, 5, 11])
    def test_a_multibyte_code_split_by_a_slice(self, slice_bytes, compacted, monkeypatch):
        monkeypatch.setattr(report, "_SLICE_BYTES", slice_bytes)
        values = fixed_decimals(2, (len(WIDE_CODES), 3), seed=7)
        header = ["variable", "x", "y", "z"]
        got = report.table_csv(header, WIDE_CODES, values)
        want = per_cell_csv("variable", WIDE_CODES, header[1:], values)
        assert_same_text(got, want)
        assert compacted == [want.split("\n", 1)[1]]

    @pytest.mark.parametrize("slice_bytes", [1, 4, report._SLICE_BYTES])
    @pytest.mark.parametrize("rows", [1, 0], ids=["one_row", "header_only"])
    def test_one_row_and_header_only_tables(self, rows, slice_bytes, compacted, monkeypatch):
        monkeypatch.setattr(report, "_SLICE_BYTES", slice_bytes)
        values = np.array([[96.644, np.nan, -0.5]])[:rows]
        for keys, index_name in [(consecutive_days(rows), "date"), (WIDE_CODES[:rows], "variable")]:
            got = report.table_csv([index_name, "a", "b", "c"], keys, values)
            want = per_cell_csv(index_name, [str(key) for key in keys], ["a", "b", "c"], values)
            assert_same_text(got, want)
        assert len(compacted) == 2 * rows

    @pytest.mark.parametrize("shape", [(4096, 500), (4, 500_000)], ids=["4096x500", "4x500000"])
    def test_the_compaction_holds_the_kept_bytes_twice_at_any_width(self, shape, monkeypatch):
        # One block of 2M one-decimal cells, ~8 MB of text.  Like one
        # compaction of the whole block it holds the kept bytes and their
        # text, and at most a slice's bytes more; one copy of the whole
        # field's bytes to delete from would hold ~10 MB more on either
        # table, and np.compress of the whole block an 8-byte index per
        # kept byte (~63 MB).
        values = np.random.default_rng(31).integers(0, 100, size=shape) / 10.0
        peaks = []
        real = report._kept_text

        def measured(field):
            tracemalloc.start()
            try:
                text = real(field)
                peaks.append((tracemalloc.get_traced_memory()[1], len(text)))
            finally:
                tracemalloc.stop()
            return text

        monkeypatch.setattr(report, "_kept_text", measured)
        for _ in report.keyed_rows(report.date_keys(consecutive_days(shape[0])), values):
            pass
        [(peak, size)] = peaks
        assert size > 7.5e6
        assert peak < 2 * size + 2e6, (peak, size)


def make_table(dates, codes, values):
    return Table("date", [d(x) for x in dates], list(codes), np.asarray(values, dtype=float))


class TestFilterTable:
    def test_min_count_drops_sparse_variable(self):
        t = make_table(
            ["1990-01-01", "1990-02-01", "1990-03-01"],
            ["a", "b"],
            [[1, np.nan], [2, np.nan], [3, 7]],
        )
        out = filter_table(t, FilterSpec(min_count=2))
        assert out.codes == ["a"]
        assert out.n_rows == 3

    def test_date_range_is_inclusive(self):
        t = make_table(
            ["1990-01-01", "1991-01-01", "1992-01-01"],
            ["a"],
            [[1], [2], [3]],
        )
        out = filter_table(
            t, FilterSpec(start=d("1990-01-01"), end=d("1991-01-01"))
        )
        assert out.index.tolist() == [d("1990-01-01"), d("1991-01-01")]

    def test_required_variable_drops_rows(self):
        t = make_table(
            ["1990-01-01", "1990-02-01", "1990-03-01"],
            ["a", "b"],
            [[1, 5], [np.nan, 6], [3, 7]],
        )
        out = filter_table(t, FilterSpec(required_variable="a"))
        assert out.n_rows == 2
        assert_allclose(out.values, [[1, 5], [3, 7]])

    def test_a_window_with_no_sample_leaves_no_rows(self):
        t = make_table(["1990-01-01", "1990-02-01"], ["a", "b"], [[1, np.nan], [np.nan, 6]])
        with pytest.raises(errors.EmptyResult, match="^no rows remain$"):
            filter_table(t, FilterSpec(start=d("1991-01-01")))
        # the required variable's missing cells take the remaining rows
        with pytest.raises(errors.EmptyResult, match="^no rows remain$"):
            filter_table(t, FilterSpec(end=d("1990-01-31"), required_variable="b"))

    def test_a_min_count_no_variable_meets_leaves_no_variables(self):
        t = make_table(["1990-01-01", "1990-02-01"], ["a", "b"], [[1, np.nan], [2, 6]])
        with pytest.raises(errors.EmptyResult, match="^no variable has at least 3 samples$"):
            filter_table(t, FilterSpec(min_count=3))
        # the required variable is exempt from the count, so it survives alone
        out = filter_table(t, FilterSpec(min_count=3, required_variable="b"))
        assert (out.codes, out.n_rows) == (["b"], 1)

    def test_unknown_required_variable(self):
        t = make_table(["1990-01-01"], ["a"], [[1]])
        with pytest.raises(errors.UnknownVariable):
            filter_table(t, FilterSpec(required_variable="zz"))

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(30, 5))
        values[rng.random(size=values.shape) < 0.4] = np.nan
        dates = [f"1990-01-{i + 1:02d}" for i in range(30)]
        t = make_table(dates, list("abcde"), values)
        spec = FilterSpec(
            min_count=10,
            start=d("1990-01-03"),
            end=d("1990-01-28"),
            required_variable="c",
        )
        once = filter_table(t, spec)
        twice = filter_table(once, spec)
        assert twice.index.tolist() == once.index.tolist()
        assert twice.codes == once.codes
        assert_allclose(twice.values, once.values, equal_nan=True)

    def test_row_and_column_masks_take_one_c_ordered_copy(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=(40, 6))
        values[rng.random(values.shape) < 0.5] = np.nan
        t = make_table([f"1990-02-{i % 28 + 1:02d}" for i in range(40)], list("abcdef"), values)
        spec = FilterSpec(min_count=18, required_variable="b")
        out = filter_table(t, spec)
        assert 0 < out.n_rows < t.n_rows and 0 < out.n_vars < t.n_vars
        assert out.values.flags.c_contiguous
        rows = ~np.isnan(values[:, 1])
        cols = np.isin(t.codes, out.codes)
        np.testing.assert_array_equal(out.values, values[rows][:, cols])

    def test_bad_spec_rejected(self):
        with pytest.raises(errors.OutOfRange):
            FilterSpec(min_count=0)
        with pytest.raises(errors.OutOfRange):
            FilterSpec(start=d("1995-01-01"), end=d("1990-01-01"))


class TestDropIncompleteRows:
    def test_drops_only_rows_with_gaps(self):
        t = make_table(
            ["1990-01-01", "1990-02-01", "1990-03-01"],
            ["a", "b"],
            [[1, 5], [np.nan, 6], [3, 7]],
        )
        out = drop_incomplete_rows(t)
        assert out.n_rows == 2
        assert not np.isnan(out.values).any()

    def test_empty_result(self):
        t = make_table(["1990-01-01"], ["a", "b"], [[np.nan, 1]])
        with pytest.raises(errors.EmptyResult):
            drop_incomplete_rows(t)


class TestFetchRemote:
    URL = "https://example.invalid/data?site={site}&codes={codes}&start={start}&end={end}"

    def test_cache_hit_skips_network(self, tmp_path, monkeypatch):
        import urllib.request

        payload = (FIXTURES / "small.rdb").read_bytes()
        # warm the cache through a stubbed download, then poison the network
        monkeypatch.setattr(
            urllib.request,
            "urlopen",
            lambda *a, **k: _FakeResponse(payload),
        )
        first = fetch_remote(
            "TEST-0001", ["00618"], "1995-01-01", "1996-12-31", tmp_path, self.URL
        )
        assert first == payload

        def explode(*a, **k):
            raise AssertionError("network touched despite cache hit")

        monkeypatch.setattr(urllib.request, "urlopen", explode)
        second = fetch_remote(
            "TEST-0001", ["00618"], "1995-01-01", "1996-12-31", tmp_path, self.URL
        )
        assert second == payload
        assert parse_rdb(second).n_rows == 20

    def test_medium_and_url_template_key_the_cache(self, tmp_path, monkeypatch):
        import urllib.request

        requested = []

        def download(url, **kwargs):
            requested.append(url)
            return _FakeResponse(url.encode("utf-8"))

        monkeypatch.setattr(urllib.request, "urlopen", download)
        args = ("TEST-0001", ["00618"], "1995-01-01", "1996-12-31", tmp_path)
        url = self.URL + "&medium={medium}"
        water = fetch_remote(*args, url, medium_code="WS")
        sediment = fetch_remote(*args, url, medium_code="SB")
        mirror = fetch_remote(*args, "https://mirror.invalid/{site}", medium_code="WS")
        assert len({water, sediment, mirror}) == 3
        assert len(requested) == 3
        assert len(list(tmp_path.glob("*.rdb"))) == 3

        def explode(*a, **k):
            raise AssertionError("network touched despite cache hit")

        monkeypatch.setattr(urllib.request, "urlopen", explode)
        assert fetch_remote(*args, url, medium_code="WS") == water
        assert fetch_remote(*args, url, medium_code="SB") == sediment

    def test_download_waits_thirty_seconds(self, tmp_path, monkeypatch):
        import urllib.request

        calls = []

        def download(url, **kwargs):
            calls.append(kwargs)
            return _FakeResponse(b"body")

        monkeypatch.setattr(urllib.request, "urlopen", download)
        fetch_remote("X", ["a"], "1990-01-01", "1990-12-31", tmp_path, self.URL)
        assert calls == [{"timeout": 30.0}]

    def test_offline_without_cache(self, tmp_path):
        with pytest.raises(errors.NetworkUnavailable):
            fetch_remote(
                "TEST-0001", ["00618"], "1995-01-01", "1996-12-31",
                tmp_path, self.URL, offline=True,
            )

    def test_http_error_status(self, tmp_path, monkeypatch):
        import urllib.error
        import urllib.request

        def raise_404(*a, **k):
            raise urllib.error.HTTPError(self.URL, 404, "not found", None, None)

        monkeypatch.setattr(urllib.request, "urlopen", raise_404)
        with pytest.raises(errors.HttpStatus) as exc:
            fetch_remote("X", ["a"], "1990-01-01", "1990-12-31", tmp_path, self.URL)
        assert exc.value.status == 404

    def test_network_down(self, tmp_path, monkeypatch):
        import urllib.error
        import urllib.request

        def raise_urlerror(*a, **k):
            raise urllib.error.URLError("no route to host")

        monkeypatch.setattr(urllib.request, "urlopen", raise_urlerror)
        with pytest.raises(errors.NetworkUnavailable):
            fetch_remote("X", ["a"], "1990-01-01", "1990-12-31", tmp_path, self.URL)

    def test_a_status_other_than_200_without_http_error(self, tmp_path, monkeypatch):
        import urllib.request

        monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **k: _FakeResponse(b"", status=204))
        with pytest.raises(errors.HttpStatus, match="^server returned HTTP status 204$") as exc:
            fetch_remote("X", ["a"], "1990-01-01", "1990-12-31", tmp_path, self.URL)
        assert exc.value.status == 204
        assert list(tmp_path.iterdir()) == []

    def test_a_read_that_times_out(self, tmp_path, monkeypatch):
        import urllib.request

        response = _FakeResponse(TimeoutError("timed out"))
        monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **k: response)
        with pytest.raises(errors.NetworkUnavailable, match="^timed out$"):
            fetch_remote("X", ["a"], "1990-01-01", "1990-12-31", tmp_path, self.URL)
        assert list(tmp_path.iterdir()) == []

    def test_a_cache_dir_that_is_a_file(self, tmp_path, monkeypatch):
        import urllib.request

        monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **k: _FakeResponse(b"body"))
        cache = tmp_path / "cache"
        cache.write_bytes(b"not a directory\n")
        with pytest.raises(errors.CacheWriteFailed) as exc:
            fetch_remote("X", ["a"], "1990-01-01", "1990-12-31", cache, self.URL)
        cached = cache / "b8a3427e935f3f4e6f632309923a4bdd211d86ecc8316b0779c29d4ec021d0a4.rdb"
        assert str(exc.value) == (
            f"download succeeded, but its cache file {cached} could not be written: "
            f"[Errno 17] File exists: '{cache}'"
        )
        assert cache.read_bytes() == b"not a directory\n"

    def test_a_file_url_is_fetched_and_cached(self, tmp_path):
        # a file: response has no HTTP status, and reads as a 200
        payload = (FIXTURES / "small.rdb").read_bytes()
        (tmp_path / "TEST-0001.rdb").write_bytes(payload)
        args = ("TEST-0001", ["00618"], "1995-01-01", "1996-12-31", tmp_path / "cache")
        template = tmp_path.as_uri() + "/{site}.rdb"
        assert fetch_remote(*args, template) == payload
        assert [p.read_bytes() for p in (tmp_path / "cache").iterdir()] == [payload]
        (tmp_path / "TEST-0001.rdb").unlink()
        assert fetch_remote(*args, template, offline=True) == payload
        with pytest.raises(errors.NetworkUnavailable):
            fetch_remote("TEST-0002", *args[1:], template)

    def test_a_failed_cache_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        import urllib.request

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(urllib.request, "urlopen", lambda *a, **k: _FakeResponse(b"body"))
        monkeypatch.setattr(ingest.os, "replace", refuse)
        with pytest.raises(errors.CacheWriteFailed, match=r"could not be written: \[Errno 13\] Permission denied$"):
            fetch_remote("X", ["a"], "1990-01-01", "1990-12-31", tmp_path, self.URL)
        assert list(tmp_path.iterdir()) == []


class _FakeResponse:
    """A response of ``status`` whose ``read`` returns ``body``, or raises
    it if it is an exception."""

    def __init__(self, body, status=200):
        self._body = body
        self.status = status

    def read(self):
        if isinstance(self._body, BaseException):
            raise self._body
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False
