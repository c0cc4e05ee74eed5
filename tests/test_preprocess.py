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
    for i, date in enumerate(table.index):
        for j, code in enumerate(table.codes):
            v = table.values[i, j]
            if not np.isnan(v):
                out.setdefault((date.year, code), []).append(v)
    return {k: sum(v) / len(v) for k, v in out.items()}


class TestAnnualMean:
    def test_two_samples_average(self):
        t = make_table(["1990-03-01", "1990-09-01"], ["a"], [[2.0], [4.0]])
        a = annual_mean(t)
        assert a.index == [1990]
        assert_allclose(a.values, [[3.0]])

    def test_missing_samples_ignored(self):
        t = make_table(
            ["1990-03-01", "1990-09-01", "1991-03-01"],
            ["a"],
            [[2.0], [np.nan], [5.0]],
        )
        a = annual_mean(t)
        assert a.index == [1990, 1991]
        assert_allclose(a.values, [[2.0], [5.0]])

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
        assert a.index == b.index
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
        assert out.index == [1991, 1992]
        assert_allclose(out.values, [[0.0], [0.0]])

    def test_doubling_series(self):
        a = make_annual([1990, 1991, 1992, 1993], ["a"], [[1.0], [2.0], [4.0], [8.0]])
        out = difference(a, lag=1)
        assert_allclose(out.values[:, 0], [1.0, 2.0, 4.0])

    def test_lag_two(self):
        a = make_annual([1990, 1991, 1992, 1993], ["a"], [[1.0], [2.0], [4.0], [8.0]])
        out = difference(a, lag=2)
        assert out.index == [1992, 1993]
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
        assert [int(r[0]) for r in rows] == a.index
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
