import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hurstlab import Method, ObservationPool, PriceSeries, ScanSpec, report, scan
from hurstlab.ingest import _csv_field
from hurstlab.reporting import (
    OBSERVATION_COLUMNS,
    observations_csv,
    render_method_table,
    report_csv,
)

FIXTURES = Path(__file__).parent / "fixtures"

# Format exemplar percentages in published-table style (rows: very low .. very
# high, columns: window sizes).  They exercise the renderer's layout only and
# are not reproducible from any data shipped here.
EXEMPLAR_TABLE = {
    32: (9.87, 12.00, 13.74, 14.16, 17.80),
    64: (10.38, 12.83, 13.26, 14.65, 15.65),
    128: (9.73, 12.40, 12.45, 14.78, 16.98),
    256: (10.76, 11.94, 12.25, 13.23, 16.06),
    512: (12.27, 12.60, 12.48, 12.61, 13.03),
}


def exemplar_pool(window):
    """100 observations whose bucket means annualize to the exemplar values."""
    pcts = EXEMPLAR_TABLE[window]
    return ObservationPool(
        window,
        Method.GHE,
        np.array([f"F{i:03d}" for i in range(100)], dtype=object),
        window - 1 + 20 * np.arange(100),
        np.arange(100) / 100.0,
        np.array([math.log(1.0 + pcts[i // 20] / 100.0) * window / 252.0 for i in range(100)]),
    )


def _pool(rows):
    """A 128-day GHE pool of (instrument, window end, h, forward log return) rows."""
    ids, ends, hs, fwds = zip(*rows)
    ids = np.array(ids, dtype=object)
    return ObservationPool(128, Method.GHE, ids, np.array(ends), np.array(hs), np.array(fwds))


# floats whose 9-digit forms are edge cases: signed zero, the least subnormal, exponent switches, the largest
EDGE_FLOATS = (-0.0, 5e-324, 1e-5, 0.1, 1e16, 123456789.5, 1.7976931348623157e308)


def _per_row_csv(pool):
    """The per-row f-string form of ``observations_csv``: the oracle for its bytes."""
    header = ",".join(OBSERVATION_COLUMNS) + "\n"
    ids = [_csv_field(name) for name in pool.instrument_id.tolist()]
    row = f"{{}},{{}},{pool.method.value},{{:.9g}},{{}},{{:.9g}}\n".format
    suspect = np.where(pool.suspect, "true", "false").tolist()
    h, forward = pool.h.tolist(), pool.forward_log_return.tolist()
    return header + "".join(map(row, ids, pool.window_end.tolist(), h, suspect, forward))


class TestObservationCsv:
    def test_edge_floats_print_as_the_per_row_form(self):
        values = [*EDGE_FLOATS, *(-v for v in EDGE_FLOATS)]
        pool = _pool([("E", 127 + 20 * i, h, f) for i, (h, f) in enumerate(itertools.product(values, values))])
        assert observations_csv(pool) == _per_row_csv(pool)
        empty = pool.select(np.zeros(len(pool), dtype=bool))
        assert observations_csv(empty) == _per_row_csv(empty) == ",".join(OBSERVATION_COLUMNS) + "\n"

    def test_exact_format_and_significant_digits(self):
        pool = _pool([("ACME", 127, 0.123456789123, -0.00123456789123), ("ACME", 147, 2.5, 0.25)])
        text = observations_csv(pool)
        assert text.splitlines()[0] == ",".join(OBSERVATION_COLUMNS)
        assert text.splitlines()[1] == "ACME,127,GHE,0.123456789,false,-0.00123456789"
        assert text.splitlines()[2] == "ACME,147,GHE,2.5,true,0.25"
        assert observations_csv(pool.select([False, False])) == text.splitlines(keepends=True)[0]

    def test_canonical_row_order(self):
        # instruments given out of id order; scan pools their rows by id, then window end
        walk = np.exp(np.cumsum(np.tile([0.01, -0.02, 0.015], 50)))
        universe = [PriceSeries(name, np.arange(150), walk) for name in ("B", "A")]
        pool = scan(universe, ScanSpec(window=32, roll_step=20, methods=(Method.GM2,))).pools[Method.GM2]
        lines = observations_csv(pool).splitlines()[1:]
        expected = [[name, str(t)] for name in "AB" for t in (31, 51, 71, 91, 111)]
        assert [ln.split(",")[0:2] for ln in lines] == expected


class TestReportRendering:
    def test_single_window_table_has_six_labeled_rows(self):
        rep = report(exemplar_pool(128))
        text = render_method_table([rep])
        lines = text.splitlines()
        assert len(lines) == 8  # title + header + 6 labeled rows
        assert lines[1].startswith("H range")
        for label, line in zip(("very low", "low", "normal", "high", "very high", "any"), lines[2:]):
            assert line.startswith(label)

    def test_multi_window_golden_bytes(self):
        reports = [
            report(exemplar_pool(w)) for w in sorted(EXEMPLAR_TABLE)
        ]
        text = render_method_table(reports)
        golden = (FIXTURES / "quintile_table_golden.txt").read_text(encoding="utf-8")
        assert text == golden
        # the two exemplar cells called out for the 128-day column
        assert "16.98%" in text and "13.24%" in text

    def test_empty_bucket_renders_na(self):
        pool = _pool([("A", 127 + 20 * i, 0.5, 0.0) for i in range(25)])
        text = render_method_table([report(pool)])
        assert "n/a" in text

    def test_no_reports_rejected(self):
        with pytest.raises(ValueError, match="^no reports to render$"):
            render_method_table([])

    def test_mixed_methods_rejected(self):
        a = report(exemplar_pool(128))
        b = report(replace(exemplar_pool(128), method=Method.GM2))
        with pytest.raises(ValueError):
            render_method_table([a, b])

    def test_report_csv_shape(self):
        rep = report(exemplar_pool(128))
        lines = report_csv(rep).splitlines()
        assert lines[0] == "bucket,count,annualized_return_pct"
        assert len(lines) == 7
        assert lines[1].startswith("very low,20,")
        assert lines[6].startswith("any,100,")
        any_pct = float(lines[6].split(",")[2])
        assert any_pct == pytest.approx(13.2415, abs=5e-4)
