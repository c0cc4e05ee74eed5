"""Reduction of daily observation tables to analysis-ready annual tables.

The workflow mirrors common practice for sparse, irregular monitoring
records: collapse each calendar year to the mean of whatever samples it
holds, drop variables that still have year gaps, delete composite variables
whose constituents are all present, and finally difference consecutive
years to strip trends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyResult,
    MissingCells,
    NonConsecutiveYears,
    OutOfRange,
    RuleInapplicable,
    TooShort,
)
from .ingest import Table


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
    OutOfRange
        If a mean is not finite: the year's samples overflow when summed,
        or some are infinite.
    """
    years = sorted({d.year for d in table.index})
    values = np.full((len(years), table.n_vars), np.nan)
    row_years = np.array([d.year for d in table.index])
    for i, year in enumerate(years):
        block = table.values[row_years == year]
        present = ~np.isnan(block)
        counts = present.sum(axis=0)
        with np.errstate(over="ignore"):  # reported below as an error
            sums = np.where(present, block, 0.0).sum(axis=0)
        has_any = counts > 0
        values[i, has_any] = sums[has_any] / counts[has_any]
        bad = has_any & ~np.isfinite(values[i])
        if bad.any():
            j = int(np.argmax(bad))
            raise OutOfRange(
                f"annual mean of {table.codes[j]} in {year} is "
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


def difference(table: Table, lag: int = 1) -> Table:
    """Difference a dense annual table at the given lag.

    Output rows are labeled by the later year of each pair; row count drops
    by ``lag``.  The years must be consecutive so every difference spans
    exactly ``lag`` years.
    """
    if lag < 1:
        raise OutOfRange(f"lag must be at least 1, got {lag}")
    n_missing = int(np.isnan(table.values).sum())
    if n_missing:
        raise MissingCells(n_missing)
    if table.n_rows <= lag:
        raise TooShort(table.n_rows, lag + 1)
    years = np.asarray(table.index)
    gaps = np.diff(years)
    if np.any(gaps != 1):
        first_gap = int(np.argmax(gaps != 1))
        raise NonConsecutiveYears(int(years[first_gap]), int(years[first_gap + 1]))
    return Table(
        "year",
        [int(y) for y in years[lag:]],
        list(table.codes),
        table.values[lag:] - table.values[:-lag],
    )
