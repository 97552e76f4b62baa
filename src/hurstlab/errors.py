"""Exception types shared across the toolkit."""

from __future__ import annotations


class HurstLabError(Exception):
    """Base class for every error raised by hurstlab."""


class NonPositivePrice(HurstLabError):
    """A price value is zero or negative (corrupt input row)."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class SeriesTooShort(HurstLabError):
    """The series has too few points for the requested operation."""


class NonFiniteInput(HurstLabError):
    """A NaN or infinity reached a numeric routine."""


class DegenerateRegression(HurstLabError):
    """A least-squares fit has no slope: fewer than 2 points or no x spread."""


class InvalidSetting(HurstLabError, ValueError):
    """A setting or an input is outside what the routine given it accepts."""


class InvalidH(InvalidSetting):
    """Requested self-similarity parameter outside the open interval (0, 1)."""


class EmptyUniverse(HurstLabError):
    """A scan was requested over zero instruments."""


class TooFewObservations(HurstLabError):
    """Not enough pooled observations to form the requested percentile buckets."""


class MalformedRow(HurstLabError):
    """A CSV row could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class DuplicateDate(HurstLabError):
    """Two rows carry the same (instrument, date) key."""

    def __init__(self, message: str, instrument_id: str, date: object):
        super().__init__(message)
        self.instrument_id = instrument_id
        self.date = date


class DuplicateInstrument(HurstLabError):
    """Two series in one universe carry the same instrument id."""

    def __init__(self, message: str, instrument_id: str):
        super().__init__(message)
        self.instrument_id = instrument_id
