"""Reduction of daily observation tables to analysis-ready annual tables.

The workflow mirrors common practice for sparse, irregular monitoring
records: collapse each calendar year to the mean of whatever samples it
holds, drop variables that still have year gaps, delete composite variables
whose constituents are all present, and finally difference consecutive
years to strip trends.  :data:`STAGES` declares every pipeline stage once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    EmptyResult,
    MissingCells,
    NonConsecutiveYears,
    OutOfRange,
    RuleInapplicable,
    TooShort,
)
from .ingest import Table, drop_incomplete_rows, filter_table


@dataclass(frozen=True)
class RedundancyRule:
    """Composite variable that is removed when every part is present."""

    composite: str
    parts: tuple[str, ...]

    def __post_init__(self):
        if not self.parts:
            raise RuleInapplicable("a redundancy rule needs at least one part")
        if self.composite in self.parts:
            raise RuleInapplicable("a composite cannot be its own part")


def annual_mean(table: Table) -> Table:
    """Collapse a dated table to a year-indexed one of per-year means of the
    non-missing samples.

    The year axis lists every year that appears in the input (order
    ascending); a (year, variable) cell with no samples stays missing.

    Raises
    ------
    EmptyResult
        If the table has no rows.
    OutOfRange
        If a mean is not finite: the year's samples overflow when summed,
        or some are infinite.
    """
    if not table.n_rows:
        raise EmptyResult("the table has no rows to average")
    row_years = table.index.astype("datetime64[Y]").astype(np.intp) + 1970
    values = table.values
    # each year one run of rows, in table order; parsed tables are sorted,
    # so only an unsorted one pays for a sorted copy
    if (row_years[1:] < row_years[:-1]).any():
        order = np.argsort(row_years, kind="stable")
        row_years, values = row_years[order], values[order]
    years, starts = np.unique(row_years, return_index=True)
    present = ~np.isnan(values)
    counts = np.empty((len(years), table.n_vars), dtype=np.intp)
    sums = np.empty(counts.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as an error
        for i, (a, b) in enumerate(zip(starts, [*starts[1:], len(values)])):
            counts[i] = np.add.reduce(present[a:b], axis=0, dtype=np.intp)
            # zero-filled and C-ordered in any layout: numpy sums several
            # columns row by row and one pairwise, as in the sorted copy
            run = np.zeros((b - a, table.n_vars))
            np.copyto(run, values[a:b], where=present[a:b])
            sums[i] = np.add.reduce(run, axis=0)
    values = np.full(counts.shape, np.nan)
    has_any = counts > 0
    values[has_any] = sums[has_any] / counts[has_any]
    bad = has_any & ~np.isfinite(values)
    if bad.any():
        # the first year in ascending order, then its first column
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise OutOfRange(
            f"annual mean of {table.codes[j]} in {years[i]} is "
            f"{values[i, j]:g}: its samples overflow or are infinite"
        )
    return Table("year", years, list(table.codes), values)


def drop_na_columns(table: Table) -> Table:
    """Drop every variable that still has a missing annual cell."""
    keep = ~np.isnan(table.values).any(axis=0)
    if not keep.any():
        raise EmptyResult("every variable has at least one empty year")
    return table.take(cols=keep)


def drop_redundant(
    table: Table, rules: tuple[RedundancyRule, ...] | list[RedundancyRule]
) -> Table:
    """Remove composite variables whose parts are all columns of ``table``.

    Rule parts are checked against the *input* column set, so chained rules
    (a composite appearing as a part of another rule) behave the same in
    any rule order.
    """
    codes = set(table.codes)
    removed = {
        rule.composite
        for rule in rules
        if rule.composite in codes and all(p in codes for p in rule.parts)
    }
    keep = [c not in removed for c in table.codes]
    if not any(keep):
        raise EmptyResult("redundancy rules removed every variable")
    return table.take(cols=keep)


def difference(table: Table) -> Table:
    """Difference consecutive years of a dense annual table.

    Output rows are labeled by the later year of each pair; row count drops
    by one.  The years must be consecutive so every difference spans
    exactly one year.  An overflowing difference raises :class:`OutOfRange`.
    """
    n_missing = int(np.isnan(table.values).sum())
    if n_missing:
        raise MissingCells(n_missing)
    if table.n_rows <= 1:
        raise TooShort(table.n_rows, 2)
    years = table.index
    gaps = np.diff(years)
    if np.any(gaps != 1):
        first_gap = int(np.argmax(gaps != 1))
        raise NonConsecutiveYears(int(years[first_gap]), int(years[first_gap + 1]))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as an error
        values = table.values[1:] - table.values[:-1]
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]  # the first year, then its first column
        raise OutOfRange(
            f"difference of {table.codes[j]} in {years[1 + i]} is {values[i, j]:g}: it overflows"
        )
    return Table("year", years[1:], list(table.codes), values)


class Stage(NamedTuple):
    """One pipeline stage: the ``Table.index_name`` it takes and the one it
    returns, and its step on (table, run settings)."""

    takes: str
    returns: str
    step: Callable


STAGES = {
    "filter": Stage("date", "date", lambda t, cfg: filter_table(t, cfg.filter_spec)),
    "drop_incomplete_rows": Stage(
        "date", "date", lambda t, cfg: drop_incomplete_rows(t)
    ),
    "annual_mean": Stage("date", "year", lambda t, cfg: annual_mean(t)),
    "drop_na_columns": Stage("year", "year", lambda t, cfg: drop_na_columns(t)),
    "drop_redundant": Stage(
        "year", "year", lambda t, cfg: drop_redundant(t, cfg.redundancy_rules)
    ),
    "difference": Stage("year", "year", lambda t, cfg: difference(t)),
}
