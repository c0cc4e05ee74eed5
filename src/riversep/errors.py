"""Exception types raised across the package.

:class:`RiversepError` is the base class of every one.  The command line
exits 2 on a :class:`ConfigError` (as on a bad command-line value) and 3
on any other, reported as ``error in stage '<name>'``.  A failure gets a
type of its own only where a caller can act on the difference; otherwise
it is raised as the type of the failure it restates, with its own message
(a constant field, or a column of zero range to bin, is a
:class:`ConstantSeries`).
Every error that callers may want to branch on carries its context as
attributes (column index or code, line number, HTTP status, ...) rather
than only a formatted message.
"""

from __future__ import annotations

import datetime


class RiversepError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# matrix / decomposition errors


class ZeroVarianceColumn(RiversepError):
    """``col`` is an index from :mod:`linalg`, a variable code from the CLI's gate."""
    def __init__(self, col: int | str):
        self.col = col
        super().__init__(f"column {col} has zero sample variance")


class TooFewRows(RiversepError):
    def __init__(self, rows: int, required: int):
        self.rows = rows
        self.required = required
        super().__init__(f"need at least {required} rows, got {rows}")


class NotSymmetric(RiversepError):
    def __init__(self, max_asym: float):
        self.max_asym = max_asym
        super().__init__(f"matrix is not symmetric (max |s - s.T| = {max_asym:g})")


class DidNotConverge(RiversepError):
    def __init__(self, routine: str):
        self.routine = routine
        super().__init__(f"LAPACK {routine} did not converge")


class ShapeMismatch(RiversepError):
    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(detail)


# ---------------------------------------------------------------------------
# ingestion errors


class NotUtf8(RiversepError):
    def __init__(self, offset: int):
        self.offset = offset
        super().__init__(f"input is not UTF-8 text (invalid byte at offset {offset})")


class MalformedHeader(RiversepError):
    pass


class RaggedRow(RiversepError):
    def __init__(self, line: int, expected: int, got: int):
        self.line = line
        self.expected = expected
        self.got = got
        super().__init__(f"line {line}: expected {expected} fields, got {got}")


class MalformedRecord(RiversepError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class InvalidDate(RiversepError):
    def __init__(self, line: int, text: str):
        self.line = line
        self.text = text
        super().__init__(f"line {line}: cannot parse date {text!r}")


class DuplicateTimestampVariable(RiversepError):
    """``date`` is the row's key: a date, or a year in a year-indexed table."""
    def __init__(self, date: datetime.date | int, code: str):
        self.date = date
        self.code = code
        super().__init__(f"duplicate value for variable {code} on {date}")


class UnknownVariable(RiversepError):
    def __init__(self, code: str):
        self.code = code
        super().__init__(f"variable {code} is not present in the table")


class EmptyResult(RiversepError):
    pass


class NetworkUnavailable(RiversepError):
    pass


class HttpStatus(RiversepError):
    def __init__(self, status: int):
        self.status = status
        super().__init__(f"server returned HTTP status {status}")


class CacheWriteFailed(RiversepError):
    pass


# ---------------------------------------------------------------------------
# preprocessing errors


class NonConsecutiveYears(RiversepError):
    def __init__(self, year_before_gap: int, year_after_gap: int):
        self.year_before_gap = year_before_gap
        self.year_after_gap = year_after_gap
        super().__init__(
            f"years are not consecutive: {year_before_gap} -> {year_after_gap}"
        )


class TooShort(RiversepError):
    def __init__(self, length: int, required: int):
        self.length = length
        self.required = required
        super().__init__(f"need at least {required} observations, got {length}")


class MissingCells(RiversepError):
    def __init__(self, count: int):
        self.count = count
        super().__init__(f"table has {count} missing cells; a dense table is required")


# ---------------------------------------------------------------------------
# model errors


class RankDeficient(RiversepError):
    def __init__(self, effective_rank: int):
        self.effective_rank = effective_rank
        super().__init__(f"effective rank is only {effective_rank}")


class Singular(RiversepError):
    pass


class DofNegative(RiversepError):
    def __init__(self, k: int, dof: int):
        self.k = k
        self.dof = dof
        super().__init__(f"{k} factors leave {dof} degrees of freedom")


class OutOfRange(RiversepError):
    def __init__(self, detail: str):
        self.detail = detail
        super().__init__(detail)


class RuleInapplicable(RiversepError):
    pass


# ---------------------------------------------------------------------------
# diagnostics / synthesis errors


class ConstantSeries(RiversepError):
    pass


class ConditioningFailed(RiversepError):
    def __init__(self, attempts: int, best: float):
        self.attempts = attempts
        self.best = best
        super().__init__(
            f"no mixing matrix with acceptable condition number in {attempts} draws "
            f"(best seen {best:.3g})"
        )


# ---------------------------------------------------------------------------
# configuration errors


class ConfigError(RiversepError):
    pass
