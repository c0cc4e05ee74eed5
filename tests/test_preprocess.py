import csv
import datetime
import io
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from riversep import errors
from riversep.config import load_config
from riversep.ingest import Table, emit_csv, parse_rdb
from riversep.preprocess import (
    STAGES,
    RedundancyRule,
    annual_mean,
    difference,
    drop_na_columns,
    drop_redundant,
)


def make_table(dates, codes, values):
    dates = [datetime.date.fromisoformat(x) for x in dates]
    return Table("date", dates, list(codes), np.asarray(values, dtype=float))


def make_annual(years, codes, values):
    return Table("year", list(years), list(codes), np.asarray(values, dtype=float))


def brute_force_annual(table):
    """Dict-based groupby oracle for annual_mean."""
    out = {}
    for i, date in enumerate(table.index.tolist()):
        for j, code in enumerate(table.codes):
            v = table.values[i, j]
            if not np.isnan(v):
                out.setdefault((date.year, code), []).append(v)
    return {k: sum(v) / len(v) for k, v in out.items()}


def per_year_mask_annual(table):
    """annual_mean as it was first written: one mask over every row per
    year, each year's block summed with missing cells set to 0."""
    dates = table.index.tolist()
    years = sorted({d.year for d in dates})
    values = np.full((len(years), table.n_vars), np.nan)
    row_years = np.array([d.year for d in dates])
    for i, year in enumerate(years):
        block = table.values[row_years == year]
        present = ~np.isnan(block)
        counts = present.sum(axis=0)
        with np.errstate(over="ignore"):
            sums = np.where(present, block, 0.0).sum(axis=0)
        has_any = counts > 0
        values[i, has_any] = sums[has_any] / counts[has_any]
        bad = has_any & ~np.isfinite(values[i])
        if bad.any():
            j = int(np.argmax(bad))
            raise errors.OutOfRange(
                f"annual mean of {table.codes[j]} in {year} is "
                f"{values[i, j]:g}: its samples overflow or are infinite"
            )
    return Table("year", years, list(table.codes), values)


def random_dated_table(rng, n_rows, n_cols):
    """A seeded table over 1950-1961, rows in random date order, with
    magnitudes spread over six decades, NaN and -0.0 cells, years of up to
    ~40 rows and, given two or more columns, one column empty for a year."""
    years = rng.integers(1950, 1962, size=n_rows)
    dates = [
        datetime.date(int(y), int(m), int(d))
        for y, m, d in zip(years, rng.integers(1, 13, n_rows), rng.integers(1, 29, n_rows))
    ]
    values = rng.normal(size=(n_rows, n_cols)) * 10.0 ** rng.uniform(-3, 3, (n_rows, n_cols))
    values[rng.random(values.shape) < 0.3] = np.nan
    values[rng.random(values.shape) < 0.1] = -0.0
    if n_cols > 1 and n_rows:
        values[years == years[0], 1] = np.nan
    return Table("date", dates, [f"v{j}" for j in range(n_cols)], values)


def assert_same_bits(got, want):
    assert got.index.tolist() == want.index.tolist()
    assert np.issubdtype(got.index.dtype, np.integer)
    assert got.codes == want.codes
    assert got.values.shape == want.values.shape
    np.testing.assert_array_equal(got.values, want.values)
    np.testing.assert_array_equal(np.signbit(got.values), np.signbit(want.values))


class TestAnnualMean:
    @pytest.mark.parametrize("n_cols", [1, 2, 3, 24])
    def test_bit_identical_to_per_year_masks(self, n_cols):
        # numpy sums one column pairwise and several row by row; both
        # orders must come out as they did from each year's masked block
        rng = np.random.default_rng(1000 + n_cols)
        for n_rows in [0, 1, 7, 9, 60, *rng.integers(2, 480, size=40)]:
            t = random_dated_table(rng, int(n_rows), n_cols)
            assert_same_bits(annual_mean(t), per_year_mask_annual(t))

    @pytest.mark.parametrize("n_cols", [1, 2, 3, 24])
    @pytest.mark.parametrize(
        "layout", ["shuffled", "sorted", "sorted, column-masked", "sorted, row- and column-masked"]
    )
    def test_any_row_order_and_layout_matches_per_year_masks(self, layout, n_cols):
        # parsed tables come sorted and are summed without a sorted copy;
        # a column mask alone leaves their values F-ordered, filter_table's
        # row and column masks C-ordered, and each year's run must still
        # sum in the masked block's order
        rng = np.random.default_rng(2000 + n_cols)
        for n_rows in [0, 1, 7, 9, 60, *rng.integers(2, 480, size=20)]:
            t = random_dated_table(rng, int(n_rows), n_cols + 1)
            if layout != "shuffled":
                order = sorted(range(t.n_rows), key=t.index.__getitem__)
                t = Table("date", [t.index[i] for i in order], t.codes, t.values[order])
            if layout == "sorted, column-masked":
                t = t.take(cols=[False] + [True] * n_cols)
                assert n_rows < 2 or n_cols < 2 or not t.values.flags.c_contiguous
            elif layout == "sorted, row- and column-masked":
                # filter_table's take of rows and columns at once
                rows = rng.random(t.n_rows) < 0.9
                t = t.take(rows, [False] + [True] * n_cols)
                assert t.values.flags.c_contiguous
            else:
                t = Table("date", t.index, t.codes[1:], np.ascontiguousarray(t.values[:, 1:]))
            before = t.values.copy()
            assert_same_bits(annual_mean(t), per_year_mask_annual(t))
            np.testing.assert_array_equal(t.values, before)
            np.testing.assert_array_equal(np.signbit(t.values), np.signbit(before))

    def test_negative_zero_cells(self):
        # a year of only -0.0 samples, one of -0.0 and +0.0, one of -0.0
        # and a missing cell
        for n_cols in (1, 2):
            t = make_table(
                ["1990-01-01", "1990-06-01", "1991-01-01", "1991-06-01",
                 "1992-01-01", "1992-06-01"],
                [f"v{j}" for j in range(n_cols)],
                np.repeat([[-0.0], [-0.0], [-0.0], [0.0], [-0.0], [np.nan]], n_cols, axis=1),
            )
            assert_same_bits(annual_mean(t), per_year_mask_annual(t))

    def test_empty_table(self):
        t = Table("date", [], ["a", "b"], np.empty((0, 2)))
        a = annual_mean(t)
        assert a.index.tolist() == [] and a.codes == ["a", "b"] and a.values.shape == (0, 2)

    @pytest.mark.parametrize("order", ["sorted", "reversed"])
    def test_overflow_names_the_same_year_and_code(self, order):
        # 1991 overflows in b and c and 1990 in c only: 1990 and c are named
        dates = ["1990-02-01", "1990-05-01", "1991-02-01", "1991-05-01"]
        values = [[1.0, 2.0, 1.7e308], [1.0, 3.0, 1.7e308],
                  [1.0, 1.7e308, 1.7e308], [1.0, 1.7e308, 1.7e308]]
        if order == "reversed":
            dates, values = dates[::-1], values[::-1]
        t = make_table(dates, ["a", "b", "c"], values)
        with pytest.raises(errors.OutOfRange) as want:
            per_year_mask_annual(t)
        with pytest.raises(errors.OutOfRange) as got:
            annual_mean(t)
        assert str(got.value) == str(want.value)
        assert "of c in 1990" in str(got.value)

    def test_two_samples_average(self):
        t = make_table(["1990-03-01", "1990-09-01"], ["a"], [[2.0], [4.0]])
        a = annual_mean(t)
        assert a.index.tolist() == [1990]
        assert_allclose(a.values, [[3.0]])

    def test_missing_samples_ignored(self):
        t = make_table(
            ["1990-03-01", "1990-09-01", "1991-03-01"],
            ["a"],
            [[2.0], [np.nan], [5.0]],
        )
        a = annual_mean(t)
        assert a.index.tolist() == [1990, 1991]
        assert_allclose(a.values, [[2.0], [5.0]])

    def test_years_are_an_integer_array(self):
        t = make_table(["0001-06-01", "1969-12-31", "1970-01-01", "9999-12-31"], ["a"], [[1.0]] * 4)
        a = annual_mean(t)
        assert np.issubdtype(a.index.dtype, np.integer)
        assert a.index.tolist() == [1, 1969, 1970, 9999]

    def test_overflowing_mean_is_rejected(self):
        t = make_table(
            ["1990-03-01", "1990-09-01", "1991-03-01"],
            ["a", "b"],
            [[1.0, 1.7e308], [2.0, 1.7e308], [3.0, 4.0]],
        )
        with pytest.raises(errors.OutOfRange, match="annual mean of b in 1990 is inf"):
            annual_mean(t)

    def test_year_with_no_samples_for_variable_stays_missing(self):
        t = make_table(
            ["1990-03-01", "1991-03-01"],
            ["a", "b"],
            [[1.0, np.nan], [2.0, 7.0]],
        )
        a = annual_mean(t)
        assert np.isnan(a.values[0, 1])
        assert a.values[1, 1] == 7.0

    def test_matches_groupby_oracle(self):
        rng = np.random.default_rng(17)
        dates, rows = [], []
        for year in range(1990, 1996):
            for month in rng.choice(range(1, 13), size=rng.integers(1, 9), replace=False):
                dates.append(f"{year}-{month:02d}-15")
                row = rng.normal(size=3)
                row[rng.random(3) < 0.3] = np.nan
                rows.append(row)
        t = make_table(dates, ["a", "b", "c"], rows)
        a = annual_mean(t)
        oracle = brute_force_annual(t)
        for i, year in enumerate(a.index):
            for j, code in enumerate(a.codes):
                if (year, code) in oracle:
                    assert a.values[i, j] == pytest.approx(oracle[(year, code)], abs=1e-12)
                else:
                    assert np.isnan(a.values[i, j])

    def test_row_order_invariance(self):
        rng = np.random.default_rng(18)
        dates = [f"199{y}-0{m}-10" for y in range(3) for m in (1, 5, 9)]
        values = rng.normal(size=(9, 2))
        t = make_table(dates, ["a", "b"], values)
        perm = rng.permutation(9)
        t_perm = make_table([dates[i] for i in perm], ["a", "b"], values[perm])
        a, b = annual_mean(t), annual_mean(t_perm)
        assert a.index.tolist() == b.index.tolist()
        assert_allclose(a.values, b.values)


class TestDropNaColumns:
    def test_drops_gappy_variable(self):
        a = make_annual([1990, 1991], ["a", "b"], [[1, np.nan], [2, 3]])
        out = drop_na_columns(a)
        assert out.codes == ["a"]

    def test_keeps_complete_table(self):
        a = make_annual([1990, 1991], ["a", "b"], [[1, 5], [2, 3]])
        out = drop_na_columns(a)
        assert out.codes == ["a", "b"]

    def test_empty_result(self):
        a = make_annual([1990, 1991], ["a"], [[np.nan], [2]])
        with pytest.raises(errors.EmptyResult):
            drop_na_columns(a)


class TestDropRedundant:
    RULES = (
        RedundancyRule("no3_no2", ("no3", "no2")),
        RedundancyRule("tkn", ("org_n", "nh3")),
        RedundancyRule("total_n", ("tkn", "no3", "no2")),
    )

    def test_composite_removed_when_parts_present(self):
        a = make_annual(
            [1990], ["no3", "no2", "no3_no2"], [[1.0, 2.0, 3.0]]
        )
        out = drop_redundant(a, self.RULES)
        assert out.codes == ["no3", "no2"]

    def test_composite_kept_when_part_absent(self):
        a = make_annual([1990], ["no3", "no3_no2"], [[1.0, 3.0]])
        out = drop_redundant(a, self.RULES)
        assert out.codes == ["no3", "no3_no2"]

    def test_chained_rules_hand_oracle(self):
        # total_n depends on tkn, which is itself removed by an earlier
        # rule; parts are checked against the input columns, so both
        # composites go and the elementary species stay.
        codes = ["org_n", "nh3", "no3", "no2", "tkn", "total_n"]
        a = make_annual([1990, 1991], codes, np.arange(12.0).reshape(2, 6))
        out = drop_redundant(a, self.RULES)
        assert out.codes == ["org_n", "nh3", "no3", "no2"]

    def test_rule_order_irrelevant(self):
        codes = ["org_n", "nh3", "no3", "no2", "tkn", "total_n"]
        a = make_annual([1990], codes, [np.arange(6.0)])
        out_fwd = drop_redundant(a, self.RULES)
        out_rev = drop_redundant(a, tuple(reversed(self.RULES)))
        assert out_fwd.codes == out_rev.codes

    def test_bad_rule_rejected(self):
        with pytest.raises(errors.RuleInapplicable):
            RedundancyRule("x", ())
        with pytest.raises(errors.RuleInapplicable):
            RedundancyRule("x", ("x", "y"))


class TestDifference:
    def test_constant_series_gives_zeros(self):
        a = make_annual([1990, 1991, 1992], ["a"], [[5.0], [5.0], [5.0]])
        out = difference(a)
        assert out.index.tolist() == [1991, 1992]
        assert_allclose(out.values, [[0.0], [0.0]])

    def test_doubling_series(self):
        a = make_annual([1990, 1991, 1992, 1993], ["a"], [[1.0], [2.0], [4.0], [8.0]])
        out = difference(a, lag=1)
        assert_allclose(out.values[:, 0], [1.0, 2.0, 4.0])

    def test_lag_two(self):
        a = make_annual([1990, 1991, 1992, 1993], ["a"], [[1.0], [2.0], [4.0], [8.0]])
        out = difference(a, lag=2)
        assert np.issubdtype(out.index.dtype, np.integer)
        assert out.index.tolist() == [1992, 1993]
        assert_allclose(out.values[:, 0], [3.0, 6.0])

    def test_cumsum_reconstructs(self):
        rng = np.random.default_rng(19)
        values = rng.normal(size=(8, 3))
        a = make_annual(range(1990, 1998), ["a", "b", "c"], values)
        out = difference(a)
        recon = values[0] + np.cumsum(out.values, axis=0)
        assert_allclose(recon, values[1:], atol=1e-12)

    def test_non_consecutive_years(self):
        a = make_annual([1990, 1992], ["a"], [[1.0], [2.0]])
        with pytest.raises(errors.NonConsecutiveYears) as exc:
            difference(a)
        assert (exc.value.year_before_gap, exc.value.year_after_gap) == (1990, 1992)

    def test_too_short(self):
        a = make_annual([1990], ["a"], [[1.0]])
        with pytest.raises(errors.TooShort):
            difference(a)

    def test_missing_cells_rejected(self):
        a = make_annual([1990, 1991], ["a"], [[1.0], [np.nan]])
        with pytest.raises(errors.MissingCells):
            difference(a)

    def test_lag_below_one_rejected(self):
        a = make_annual([1990, 1991], ["a"], [[1.0], [2.0]])
        with pytest.raises(errors.OutOfRange):
            difference(a, lag=0)


class TestAnnualCsv:
    def test_round_trip(self):
        a = make_annual([1990, 1991], ["a", "b"], [[1.25, np.nan], [2.5, 3.75]])
        text = emit_csv(a)
        assert text == "year,a,b\n1990,1.25,NA\n1991,2.5,3.75\n"
        header, *rows = csv.reader(io.StringIO(text))
        assert header == ["year", *a.codes]
        assert [int(r[0]) for r in rows] == a.index.tolist()
        again = [[float("nan") if c == "NA" else float(c) for c in r[1:]] for r in rows]
        assert_allclose(again, a.values, equal_nan=True)


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize(
    "pipeline",
    [
        None,  # the fixture config's own
        # years with no complete row leave gaps, so no difference here
        ("filter", "drop_incomplete_rows", "annual_mean", "drop_na_columns",
         "drop_redundant"),
    ],
    ids=["fixture", "drop_incomplete_rows"],
)
def test_stage_table_declares_the_index_each_stage_returns(pipeline):
    cfg = load_config(FIXTURES / "pipeline.json")
    if pipeline is not None:
        cfg = replace(cfg, pipeline=pipeline)
    table = parse_rdb((FIXTURES / "station_fixture.rdb").read_bytes())
    assert table.index_name == "date"
    for name in cfg.pipeline:
        assert table.index_name == STAGES[name].takes, name
        table = STAGES[name].step(table, cfg)
        assert table.index_name == STAGES[name].returns, name
    assert table.n_rows > 0
