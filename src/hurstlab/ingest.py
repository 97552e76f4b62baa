"""CSV ingestion and emission of price universes.

The on-disk format is long CSV with header ``instrument,date,price`` and
``YYYY-MM-DD`` calendar dates.  After a per-instrument sort by date, each
instrument's rows are mapped to consecutive trading-day ordinals
0..n-1; downstream code never sees calendar dates.  Whatever prices the
file carries are treated as ground truth (no adjustment logic here).

Both directions work a column at a time: ingest validates whole columns
of a bounded chunk of records and groups every row by packed
(instrument, date) keys, sorted once unless they ascend already;
``write_csv`` renders each date string once and each instrument's rows
with one ``%`` of a repeated row template.

``ingest_csv`` splits blocks of plain records (three bare printable ASCII
fields, as ``write_csv`` writes them) at their commas; any other records go
through ``csv.reader``.  Both meet the same checks, so nothing else changes.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import re
from collections import Counter
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DuplicateDate, DuplicateInstrument, HurstLabError, InvalidSetting, MalformedRow, NonPositivePrice
)
from .series import PriceSeries

__all__ = ["CSV_HEADER", "ingest_csv", "ingest_rows", "ingest_dir", "write_csv"]

CSV_HEADER = ("instrument", "date", "price")

_EPOCH = dt.date(2000, 1, 3).toordinal()  # day 0 of emitted synthetic calendars

# Records validated per step: large enough that per-chunk overhead vanishes,
# small enough that the chunk's column lists stay in cache (65536 was slower).
_CHUNK_ROWS = 4096

# Bytes ingest_csv reads at a time: 64-512 KB take the same time, but a block's
# strings lift the memory peak above 128 KB (3.6x the returned arrays at 512 KB).
_BLOCK_BYTES = 1 << 17
_PLAIN_HEADER = b"instrument,date,price\n"
_PRINTABLE = bytes(range(0x21, 0x7F)).translate(None, b'",')  # deleted, they leave ",,\n" of a plain record

_NEEDS_QUOTES = frozenset(',"\r\n')

# The one date form write_csv emits.  From Python 3.11 on, date.fromisoformat
# alone would also take 20000103 and 2000-W01-1, which 3.10 rejects.
_ISO_DATE = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII)


def ingest_rows(rows: Iterable[Sequence[str]], source: str = "<input>") -> list[PriceSeries]:
    """Parse header + data rows into per-instrument series.

    An error names the first bad record in input order.  Line numbers in
    errors count records, with the header as line 1.
    """
    it = iter(rows)
    try:
        header = next(it)
    except StopIteration:
        raise MalformedRow(f"{source}: empty file, expected header {','.join(CSV_HEADER)}", 1)
    if tuple(h.strip().lower() for h in header) != CSV_HEADER:
        raise MalformedRow(
            f"{source}: expected header {','.join(CSV_HEADER)}, got {','.join(header)}", 1
        )
    return _add_rows(_Columns(source), it, 2)


def _add_rows(columns: _Columns, rows: Iterator[Sequence[str]], line: int) -> list[PriceSeries]:
    """Add ``rows``, the first on ``line``, to ``columns`` in chunks; return the universe."""
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        columns.add(chunk, line)
        line += len(chunk)
    return columns.universe()


class _Columns:
    """Instrument codes, date ordinals and prices of the records accepted so far."""

    def __init__(self, source: str):
        self.source = source
        self.codes: dict[str, int] = {}  # instrument id -> code, in order of first appearance
        self.ordinals: dict[str, int] = {}  # date text -> proleptic Gregorian ordinal (< 2**22)
        self.keys: list[np.ndarray] = []  # per chunk: code << 32 | ordinal of each record
        self.prices: list[np.ndarray] = []

    def add(self, chunk: list[Sequence[str]], first_line: int) -> None:
        """Skip blank records, note those without three fields, strip the rest and ``add_columns``."""
        lines: Sequence[int] = range(first_line, first_line + len(chunk))
        faults: list[tuple[int, HurstLabError]] = []
        if set(map(len, chunk)) != {3}:
            kept = []
            for i, row in enumerate(chunk):
                if len(row) == 3:
                    kept.append(i)
                elif row and not (len(row) == 1 and not row[0].strip()):
                    what = f"{self.source}:{lines[i]}: expected 3 fields, got {len(row)}"
                    faults.append((lines[i], MalformedRow(what, lines[i])))
            lines = [lines[i] for i in kept]
            chunk = [chunk[i] for i in kept]
            if not chunk:
                self._raise_first(faults)
                return
        ids, date_texts, price_texts = (list(map(str.strip, column)) for column in zip(*chunk))
        self.add_columns(ids, date_texts, price_texts, lines, faults)

    def add_columns(self, ids: list[str], date_texts: list[str], price_texts: list[str],
                    lines: Sequence[int], faults: list[tuple[int, HurstLabError]]) -> None:
        """Validate and append the stripped fields of records on ``lines``, after ``faults``.

        Each check runs over a whole column and notes its first failing
        record.  The earliest record wins, and within one record the check
        that comes first below, so the error is the one a loop checking
        record after record would raise.
        """

        def fault(i: int, kind: type[HurstLabError], what: str) -> None:
            faults.append((lines[i], kind(f"{self.source}:{lines[i]}: {what}", lines[i])))

        if "" in ids:
            fault(ids.index(""), MalformedRow, "empty instrument id")

        bad_dates = set()
        for text in set(date_texts).difference(self.ordinals):
            try:
                if not _ISO_DATE.fullmatch(text):
                    raise ValueError(text)
                self.ordinals[text] = dt.date.fromisoformat(text).toordinal()
            except ValueError:
                bad_dates.add(text)
        if bad_dates:
            i = next(i for i, text in enumerate(date_texts) if text in bad_dates)
            fault(i, MalformedRow, f"bad ISO date {date_texts[i]!r}")

        try:
            prices = np.fromiter(map(float, price_texts), dtype=np.float64, count=len(price_texts))
        except ValueError:
            i = next(i for i, text in enumerate(price_texts) if not _is_float(text))
            fault(i, MalformedRow, f"bad price {price_texts[i]!r}")
            prices = np.array([float(text) for text in price_texts[:i]])  # earlier records may fail below
        for mask, kind, what in (
            (~np.isfinite(prices), MalformedRow, "non-finite"),
            (prices <= 0.0, NonPositivePrice, "non-positive"),
        ):
            if mask.any():
                i = int(np.argmax(mask))
                fault(i, kind, f"{what} price {price_texts[i]!r}")
        self._raise_first(faults)

        codes = self.codes
        for instrument in dict.fromkeys(ids):
            codes.setdefault(instrument, len(codes))
        keys = np.fromiter(map(codes.__getitem__, ids), dtype=np.int64, count=len(ids))
        keys <<= 32
        keys |= np.fromiter(map(self.ordinals.__getitem__, date_texts), dtype=np.int64, count=len(ids))
        self.keys.append(keys)
        self.prices.append(prices)

    @staticmethod
    def _raise_first(faults: list[tuple[int, HurstLabError]]) -> None:
        if faults:
            raise min(faults, key=lambda f: f[0])[1]  # min keeps the first of equal lines

    def universe(self) -> list[PriceSeries]:
        """Series sorted by instrument id, each in date order, from the packed keys sorted once if need be.

        Each column's chunks are dropped once joined, so at most about twice
        the returned arrays are alive at once.
        """
        if not self.keys:
            return []
        keys = np.concatenate(self.keys)
        self.keys.clear()
        prices = np.concatenate(self.prices)
        self.prices.clear()
        if not (keys[1:] >= keys[:-1]).all():  # a grouped, date-ordered file is in order
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            prices = prices[order]
            del order
        repeated = np.flatnonzero(keys[1:] == keys[:-1])
        if repeated.size:
            # codes follow first appearance: report the duplicate that comes first in (id, date) order
            names = list(self.codes)
            repeated_codes = keys[repeated] >> 32
            code = min(np.unique(repeated_codes).tolist(), key=names.__getitem__)
            key = int(keys[repeated[np.argmax(repeated_codes == code)]])
            instrument, date = names[code], dt.date.fromordinal(key & 0xFFFFFFFF)
            raise DuplicateDate(
                f"{self.source}: duplicate date {date.isoformat()} for {instrument}", instrument, date
            )
        bounds = np.searchsorted(keys, np.arange(len(self.codes) + 1, dtype=np.int64) << 32).tolist()
        del keys
        return [
            PriceSeries(name, np.arange(end - start), prices[start:end])
            for name, (start, end) in sorted(zip(self.codes, zip(bounds, bounds[1:])))
        ]


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def ingest_csv(path: str | Path) -> list[PriceSeries]:
    """Read one long-format CSV file into a price universe.

    A leading UTF-8 byte-order mark, as spreadsheet exports write, is skipped.
    Blocks of plain records are split; from the first block that is not
    plain (a record boundary), the rest of the file goes through ``csv.reader``.
    A field ``csv.reader`` rejects, or a byte that is not UTF-8, raises
    ``MalformedRow`` naming the file (and for the byte, its offset and line).
    """
    path = Path(path)
    try:
        with path.open("rb") as f:
            if f.read(len(_PLAIN_HEADER)) != _PLAIN_HEADER:
                f.seek(0)
                with io.TextIOWrapper(f, "utf-8-sig", newline="") as text:
                    return ingest_rows(csv.reader(text), path.name)
            columns = _Columns(path.name)
            line = _add_plain_blocks(columns, f)
            with io.TextIOWrapper(f, "utf-8", newline="") as text:
                return _add_rows(columns, csv.reader(text), line)
    except csv.Error as exc:
        raise MalformedRow(f"{path.name}: {exc}") from exc
    except UnicodeDecodeError:
        # the decoder's position counts from its current chunk; locate the byte in the whole file
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise MalformedRow(f"{path.name}: line {line}, byte {exc.start}: not UTF-8 ({exc.reason})") from None
        raise


def _add_plain_blocks(columns: _Columns, f: BinaryIO) -> int:
    """Add the records of ``f`` from here while they come in plain blocks of whole records.

    Leaves ``f`` at the first record not added and returns its line.
    """
    line, start, tail = 2, f.tell(), b""
    while data := f.read(_BLOCK_BYTES):
        tail += data
        cut = tail.rfind(b"\n") + 1
        if not cut:  # no record ends in this read; growing the tail read by read would be quadratic
            break
        block, tail = tail[:cut], tail[cut:]
        records = block.count(b"\n")
        if block.translate(None, _PRINTABLE) != b",,\n" * records:
            break
        parts = block.decode("ascii").replace("\n", ",").split(",")
        # csv.reader rejects a field over its size limit; only a block this long can hold one
        limit = csv.field_size_limit()
        if len(block) - 3 * records > limit and max(map(len, parts)) > limit:
            break
        columns.add_columns(parts[0:-1:3], parts[1::3], parts[2::3], range(line, line + records), [])
        start, line = start + cut, line + records
    f.seek(start)  # a last record without its newline is left to csv.reader
    return line


def ingest_dir(path: str | Path) -> list[PriceSeries]:
    """Read every regular ``*.csv`` file in ``path`` (one or more instruments each); subdirectories are not read."""
    path = Path(path)
    files = sorted(p for p in path.iterdir() if p.suffix.lower() == ".csv" and p.is_file())
    if not files:
        raise MalformedRow(f"{path}: no .csv files found")
    universe: list[PriceSeries] = []
    seen: set[str] = set()
    for file in files:
        for series in ingest_csv(file):
            if series.instrument_id in seen:
                raise DuplicateInstrument(
                    f"{file.name}: instrument {series.instrument_id} appears in multiple files",
                    series.instrument_id,
                )
            seen.add(series.instrument_id)
            universe.append(series)
    universe.sort(key=lambda s: s.instrument_id)
    return universe


def _csv_field(text: str) -> str:
    """``text`` as the csv module's minimal quoting writes it."""
    if _NEEDS_QUOTES.isdisjoint(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def write_csv(universe: Iterable[PriceSeries], path: str | Path) -> None:
    """Write ``universe`` to ``path`` as ingestion-format CSV, one instrument at a time, in id order.

    Trading-day ordinals are rendered as calendar days counted from a
    fixed epoch, so ingesting the file recovers series whose ordinals
    started at 0 exactly (prices round-trip via ``repr``).  An id holding
    a comma, quote or line break is quoted as ``csv`` does; an empty id,
    one with whitespace around it, one held by two series, or a series
    with a day outside the calendar's years 1-9999 raises
    ``InvalidSetting`` before the file is opened.
    """
    ordered = sorted(universe, key=lambda s: s.instrument_id)
    # ingest strips the whitespace around every field and joins the rows of an id, so these would not read back
    counts = Counter(s.instrument_id for s in ordered)
    lost = [name for name, n in counts.items() if n > 1 or not name or name != name.strip()]
    if lost:
        raise InvalidSetting(f"instrument ids {', '.join(map(repr, lost))} would not read back from CSV")
    first, last = 1 - _EPOCH, dt.date.max.toordinal() - _EPOCH
    for series in ordered:
        if len(series) and not first <= series.dates[0] <= series.dates[-1] <= last:
            raise InvalidSetting(f"{series.instrument_id}: a day outside {first}..{last} (years 1-9999) has no date")
    with Path(path).open("w", encoding="utf-8") as f:
        f.write(",".join(CSV_HEADER) + "\n")
        if not ordered:
            return
        days = np.unique(np.concatenate([s.dates for s in ordered]))
        iso = np.array([dt.date.fromordinal(_EPOCH + d).isoformat() for d in days.tolist()], dtype=object)
        for series in ordered:
            # one % of a repeated row template, the id escaped for it, over dates and prices in row order
            row = _csv_field(series.instrument_id).replace("%", "%%") + ",%s,%r\n"
            fields: list = [None] * (2 * len(series))
            fields[0::2] = iso[np.searchsorted(days, series.dates)].tolist()
            fields[1::2] = series.prices.tolist()
            f.write((row * len(series)) % tuple(fields))
