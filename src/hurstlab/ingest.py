"""CSV ingestion and emission of price universes.

The on-disk format is long CSV with header ``instrument,date,price`` and
ISO-8601 calendar dates.  After a per-instrument sort by date, each
instrument's rows are mapped to consecutive trading-day ordinals
0..n-1; downstream code never sees calendar dates.  Whatever prices the
file carries are treated as ground truth (no adjustment logic here).
"""

from __future__ import annotations

import csv
import datetime as dt
import io
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DuplicateDate, DuplicateInstrument, MalformedRow, NonPositivePrice
from .series import PriceSeries

__all__ = ["CSV_HEADER", "ingest_csv", "ingest_rows", "ingest_dir", "emit_csv", "write_csv"]

CSV_HEADER = ("instrument", "date", "price")

_EPOCH = dt.date(2000, 1, 3).toordinal()  # day 0 of emitted synthetic calendars


def ingest_rows(rows: Iterable[Sequence[str]], source: str = "<input>") -> list[PriceSeries]:
    """Parse header + data rows into per-instrument series.

    Line numbers in errors count the header as line 1.
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
    per_instrument: dict[str, list[tuple[dt.date, float]]] = {}
    for line, row in enumerate(it, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # blank line
        if len(row) != 3:
            raise MalformedRow(f"{source}:{line}: expected 3 fields, got {len(row)}", line)
        instrument, date_text, price_text = (f.strip() for f in row)
        if not instrument:
            raise MalformedRow(f"{source}:{line}: empty instrument id", line)
        try:
            date = dt.date.fromisoformat(date_text)
        except ValueError:
            raise MalformedRow(f"{source}:{line}: bad ISO date {date_text!r}", line)
        try:
            price = float(price_text)
        except ValueError:
            raise MalformedRow(f"{source}:{line}: bad price {price_text!r}", line)
        if not np.isfinite(price):
            raise MalformedRow(f"{source}:{line}: non-finite price {price_text!r}", line)
        if price <= 0.0:
            raise NonPositivePrice(f"{source}:{line}: non-positive price {price_text!r}", line)
        per_instrument.setdefault(instrument, []).append((date, price))
    universe = []
    for instrument in sorted(per_instrument):
        entries = sorted(per_instrument[instrument], key=lambda e: e[0])
        for (d1, _), (d2, _) in zip(entries, entries[1:]):
            if d1 == d2:
                raise DuplicateDate(
                    f"{source}: duplicate date {d1.isoformat()} for {instrument}", instrument, d1
                )
        prices = np.array([p for _, p in entries])
        universe.append(PriceSeries(instrument, np.arange(len(entries)), prices))
    return universe


def ingest_csv(path: str | Path) -> list[PriceSeries]:
    """Read one long-format CSV file into a price universe."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as f:
        return ingest_rows(csv.reader(f), source=path.name)


def ingest_dir(path: str | Path) -> list[PriceSeries]:
    """Read every ``*.csv`` file under ``path`` (one or more instruments each)."""
    path = Path(path)
    files = sorted(p for p in path.iterdir() if p.suffix.lower() == ".csv")
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


def emit_csv(universe: Iterable[PriceSeries]) -> str:
    """Universe as ingestion-format CSV text.

    Trading-day ordinals are rendered as calendar days counted from a
    fixed epoch, so ``ingest_rows`` on the output recovers series whose
    ordinals started at 0 exactly (prices round-trip via ``repr``).
    """
    buf = io.StringIO()
    buf.write(",".join(CSV_HEADER) + "\n")
    for series in sorted(universe, key=lambda s: s.instrument_id):
        for ordinal, price in zip(series.dates, series.prices):
            date = dt.date.fromordinal(_EPOCH + int(ordinal)).isoformat()
            buf.write(f"{series.instrument_id},{date},{float(price)!r}\n")
    return buf.getvalue()


def write_csv(universe: Iterable[PriceSeries], path: str | Path) -> None:
    Path(path).write_text(emit_csv(universe), encoding="utf-8")
