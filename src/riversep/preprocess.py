"""Reduction of daily observation tables to analysis-ready annual tables.

The workflow mirrors common practice for sparse, irregular monitoring
records: collapse each calendar year to the mean of whatever samples it
holds, drop variables that still have year gaps, delete composite variables
whose constituents are all present, and finally difference consecutive
years to strip trends.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyResult,
    MissingCells,
    NonConsecutiveYears,
    OutOfRange,
    RuleInapplicable,
    TooShort,
    UnknownVariable,
)
from .ingest import TimeSeriesTable, Variable
from .report import csv_header, format_rows, keyed_lines


@dataclass
class AnnualTable:
    """Year-by-variable table of annual means; NaN marks empty years."""

    years: list[int]
    variables: list[Variable]
    values: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.years)

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    def codes(self) -> list[str]:
        return [v.code for v in self.variables]


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


def annual_mean(table: TimeSeriesTable) -> AnnualTable:
    """Collapse a daily table to per-year means of the non-missing samples.

    The year axis lists every year that appears in the input (order
    ascending); a (year, variable) cell with no samples stays missing.

    Raises
    ------
    OutOfRange
        If a mean is not finite: the year's samples overflow when summed,
        or some are infinite.
    """
    years = sorted({d.year for d in table.dates})
    values = np.full((len(years), table.n_vars), np.nan)
    row_years = np.array([d.year for d in table.dates])
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
                f"annual mean of {table.variables[j].code} in {year} is "
                f"{values[i, j]:g}: its samples overflow or are infinite"
            )
    return AnnualTable(years=years, variables=list(table.variables), values=values)


def drop_na_columns(table: AnnualTable) -> AnnualTable:
    """Drop every variable that still has a missing annual cell."""
    keep = ~np.isnan(table.values).any(axis=0)
    if not keep.any():
        raise EmptyResult("every variable has at least one empty year")
    return AnnualTable(
        years=list(table.years),
        variables=[v for v, k in zip(table.variables, keep) if k],
        values=table.values[:, keep],
    )


def drop_redundant(
    table: AnnualTable, rules: tuple[RedundancyRule, ...] | list[RedundancyRule]
) -> tuple[AnnualTable, list[str]]:
    """Remove composite variables whose parts are all columns of ``table``.

    Rule parts are checked against the *input* column set, so chained rules
    (a composite appearing as a part of another rule) behave the same in
    any rule order.  Returns the pruned table and the removed codes in rule
    order.
    """
    codes = set(table.codes())
    removed = []
    for rule in rules:
        if rule.composite in codes and all(p in codes for p in rule.parts):
            removed.append(rule.composite)
    removed_set = set(removed)
    keep = [v.code not in removed_set for v in table.variables]
    if not any(keep):
        raise EmptyResult("redundancy rules removed every variable")
    return (
        AnnualTable(
            years=list(table.years),
            variables=[v for v, k in zip(table.variables, keep) if k],
            values=table.values[:, keep],
        ),
        removed,
    )


def difference(table: AnnualTable, lag: int = 1) -> AnnualTable:
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
    years = np.asarray(table.years)
    gaps = np.diff(years)
    if np.any(gaps != 1):
        first_gap = int(np.argmax(gaps != 1))
        raise NonConsecutiveYears(int(years[first_gap]), int(years[first_gap + 1]))
    return AnnualTable(
        years=[int(y) for y in years[lag:]],
        variables=list(table.variables),
        values=table.values[lag:] - table.values[:-lag],
    )


def emit_annual_csv(table: AnnualTable) -> str:
    """Serialize an annual table (inverse of :func:`parse_annual_csv`)."""
    header = csv_header(["year", *table.codes()])
    return header + keyed_lines(map(str, table.years), format_rows(table.values))


def parse_annual_csv(text: str) -> AnnualTable:
    reader = csv.reader(io.StringIO(text))
    rows = [r for r in reader if r]
    if not rows or len(rows[0]) < 2:
        raise UnknownVariable("year")
    header = rows[0]
    years = []
    values = []
    for fields in rows[1:]:
        years.append(int(fields[0]))
        values.append(
            [float("nan") if c.strip().lower() in ("", "na") else float(c) for c in fields[1:]]
        )
    return AnnualTable(
        years=years,
        variables=[Variable(code=c) for c in header[1:]],
        values=np.asarray(values, dtype=float) if values else np.empty((0, len(header) - 1)),
    )
