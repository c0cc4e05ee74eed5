import datetime
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from riversep import errors, report
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
        assert t.index == [d("1990-03-01"), d("1990-03-02")]
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
        with pytest.raises(errors.RaggedRow) as exc:
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
        assert t.index == [d("1990-01-01"), d("1990-01-02")]
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
        with pytest.raises(errors.InvalidDate):
            parse_rdb("datetime\ta\n10d\t12n\n01/02/1990\t1\n")

    def test_duplicate_header_code(self):
        with pytest.raises(errors.MalformedHeader):
            parse_rdb("datetime\ta\ta\n10d\t12n\t12n\n1990-01-01\t1\t2\n")

    def test_missing_format_line(self):
        with pytest.raises(errors.MalformedHeader):
            parse_rdb("datetime\ta\n1990-01-01\t1\n")


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

    def test_ragged(self):
        with pytest.raises(errors.RaggedRow):
            parse_csv("date,a,b\n1990-01-01,1\n")

    def test_round_trip_identity(self):
        t = parse_rdb((FIXTURES / "small.rdb").read_bytes())
        text = emit_csv(t)
        again = parse_csv(text)
        assert again.index == t.index
        assert again.codes == t.codes
        assert_allclose(again.values, t.values, equal_nan=True)
        # a second emit is byte-stable
        assert emit_csv(again) == text


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
        assert t.index == [d("1990-01-01")]
        assert t.values.tolist() == [[4.0, 5.0]]


@pytest.mark.parametrize("parse", [parse_rdb, parse_csv])
def test_bytes_that_are_not_utf8_are_a_typed_error(parse):
    data = RDB_MINIMAL.encode()
    bad = data[:40] + b"\xff" + data[40:]
    with pytest.raises(errors.NotUtf8) as exc:
        parse(bad)
    assert exc.value.offset == 40


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


nan, inf = np.nan, np.inf
# name -> (values, rows that must fall back to per-cell formatting, or None
# for "some but not all")
ROW_PATH_CASES = {
    "edge_values": ([EDGE_VALUES, EDGE_VALUES[::-1]], 2),
    "all_plain": (
        [[1.5, -2.25, 123456.789], [999999.9999999, -1e-4, 3.14159265358979]],
        0,
    ),
    "plain_nan_signed_zero": (
        [[1.0, nan, -0.0], [nan, nan, nan], [-0.0, 0.0, -0.0], [0.5, 0.0, nan]],
        0,
    ),
    "mixed": (
        [
            [1.0, 2.0, 1e6],
            [1.0, nan, -0.0],
            [5e-324, 0.0, 3.0],
            [inf, 1.0, 2.0],
            [1e-4, 999999.0, nan],
            [-inf, nan, 0.0],
            [0.25, 1e-5, -7.5],
        ],
        5,
    ),
    "seeded_wide_range": (_seeded_wide_range(), None),
    "no_variables": (np.empty((3, 0)), 0),
    "no_rows": (np.empty((0, 4)), 0),
}


@pytest.mark.parametrize("case", ROW_PATH_CASES)
def test_emit_equals_per_cell_format_number(case, monkeypatch):
    # A row of zeros, NaNs and plain-window cells is formatted whole; any
    # other row cell by cell.  Both must write format_number's bytes.
    values, fallback_rows = ROW_PATH_CASES[case]
    values = np.array(values, dtype=float)
    n, p = values.shape
    codes = [f"v{j}" for j in range(p)]
    dates = [d("1990-01-01") + datetime.timedelta(days=i) for i in range(n)]
    years = list(range(1900, 1900 + n))
    dated = Table("date", dates, codes, values)
    annual = Table("year", years, codes, values)
    expected_dated = per_cell_csv("date", [x.isoformat() for x in dates], codes, values)
    assert emit_csv(dated) == expected_dated
    expected_annual = per_cell_csv("year", [str(y) for y in years], codes, values)
    assert emit_csv(annual) == expected_annual

    calls = []
    monkeypatch.setattr(report, "format_number", lambda x: calls.append(x) or "")
    list(report.format_rows(values))
    if fallback_rows is None:
        assert 0 < len(calls) < values.size
    else:
        assert len(calls) == fallback_rows * p


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
        assert out.index == [d("1990-01-01"), d("1991-01-01")]

    def test_required_variable_drops_rows(self):
        t = make_table(
            ["1990-01-01", "1990-02-01", "1990-03-01"],
            ["a", "b"],
            [[1, 5], [np.nan, 6], [3, 7]],
        )
        out = filter_table(t, FilterSpec(required_variable="a"))
        assert out.n_rows == 2
        assert_allclose(out.values, [[1, 5], [3, 7]])

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
        assert twice.index == once.index
        assert twice.codes == once.codes
        assert_allclose(twice.values, once.values, equal_nan=True)

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


class _FakeResponse:
    status = 200

    def __init__(self, body):
        self._body = body

    def read(self):
        return self._body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False
