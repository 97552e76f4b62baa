"""Serialization of observations and rendering of bucket-report tables."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import InvalidSetting
from .ingest import _csv_field
from .pipeline import BucketReport, ObservationPool

__all__ = [
    "OBSERVATION_COLUMNS",
    "observations_csv",
    "render_method_table",
    "report_csv",
]

OBSERVATION_COLUMNS = (
    "instrument_id",
    "window_end",
    "method",
    "h",
    "suspect",
    "forward_log_return",
)


def observations_csv(pool: ObservationPool) -> str:
    """One (window, method) pool as CSV text, in canonical (instrument id, window end) order.

    An id holding a comma, quote or line break is quoted as ``csv`` does.
    The whole pool is one ``%`` of a repeated row template over its fields
    in row order; ``%s`` and ``%.9g`` print what ``{}`` and ``{:.9g}`` print.
    """
    header = ",".join(OBSERVATION_COLUMNS) + "\n"
    ids = pool.instrument_id.tolist()
    quoted = {name: _csv_field(name) for name in set(ids)}
    fields: list = [None] * (5 * len(pool))
    fields[0::5] = map(quoted.__getitem__, ids)
    fields[1::5] = pool.window_end.tolist()
    fields[2::5] = pool.h.tolist()
    fields[3::5] = np.where(pool.suspect, "true", "false").tolist()
    fields[4::5] = pool.forward_log_return.tolist()
    row = f"%s,%s,{pool.method.value},%.9g,%s,%.9g\n"
    return header + (row * len(pool)) % tuple(fields)


def _fmt_pct(value: float) -> str:
    return "n/a" if math.isnan(value) else f"{value:.2f}%"


def _render_table(title: str, labels: Sequence[str], columns: Sequence[tuple[str, list[str]]]) -> str:
    """Fixed-layout text table: one labeled row per bucket, one column per window."""
    label_width = max(len("H range"), *(len(lbl) for lbl in labels))
    widths = [max(len(head), *(len(cell) for cell in cells)) for head, cells in columns]
    lines = [title]
    header = "H range".ljust(label_width)
    for (head, _), w in zip(columns, widths):
        header += "  " + head.rjust(w)
    lines.append(header)
    for i, lbl in enumerate(labels):
        line = lbl.ljust(label_width)
        for (_, cells), w in zip(columns, widths):
            line += "  " + cells[i].rjust(w)
        lines.append(line)
    return "\n".join(lines) + "\n"


def render_method_table(reports: Sequence[BucketReport]) -> str:
    """Multi-window table for one method: bucket rows down, window sizes across."""
    if not reports:
        raise InvalidSetting("no reports to render")
    method = reports[0].method
    scheme = reports[0].scheme
    for rep in reports:
        if rep.method is not method or rep.scheme != scheme:
            raise InvalidSetting("render_method_table expects one method and one scheme")
    reports = sorted(reports, key=lambda r: r.window)
    labels = [row.label for row in reports[0].rows]
    columns = [
        (str(rep.window), [_fmt_pct(row.annualized_return) for row in rep.rows])
        for rep in reports
    ]
    title = f"Annualized return for {method.value} ({scheme} buckets)"
    return _render_table(title, labels, columns)


def report_csv(rep: BucketReport) -> str:
    """Report rows (buckets then the "any" row) as CSV text, returns with 9 significant digits."""
    lines = ["bucket,count,annualized_return_pct\n"]
    for row in rep.rows:
        pct = "" if math.isnan(row.annualized_return) else f"{row.annualized_return:.9g}"
        lines.append(f"{row.label},{row.count},{pct}\n")
    return "".join(lines)
