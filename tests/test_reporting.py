import math
from pathlib import Path

import pytest

from hurstlab import Method, Observation, report
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


def exemplar_observations(window):
    """100 observations whose bucket means annualize to the exemplar values."""
    pcts = EXEMPLAR_TABLE[window]
    out = []
    for i in range(100):
        pct = pcts[i // 20]
        out.append(
            Observation(
                instrument_id=f"F{i:03d}",
                window_end=window - 1 + 20 * i,
                method=Method.GHE,
                h=i / 100.0,
                suspect=False,
                forward_log_return=math.log(1.0 + pct / 100.0) * window / 252.0,
                forward_days=window,
            )
        )
    return out


def _obs(instrument="A", window_end=127, h=0.5, suspect=False, fwd=0.01, method=Method.GHE):
    return Observation(instrument, window_end, method, h, suspect, fwd, 128)


class TestObservationCsv:
    def test_exact_format_and_significant_digits(self):
        rows = [
            _obs("ACME", 127, h=0.123456789123, fwd=-0.00123456789123),
            _obs("ACME", 147, h=2.5, suspect=True, fwd=0.25),
        ]
        text = observations_csv(rows)
        assert text.splitlines()[0] == ",".join(OBSERVATION_COLUMNS)
        assert text.splitlines()[1] == "ACME,127,GHE,0.123456789,false,-0.00123456789"
        assert text.splitlines()[2] == "ACME,147,GHE,2.5,true,0.25"

    def test_canonical_row_order(self):
        rows = [_obs("B", 147), _obs("A", 147), _obs("A", 127)]
        lines = observations_csv(rows).splitlines()[1:]
        assert [ln.split(",")[0:2] for ln in lines] == [
            ["A", "127"],
            ["A", "147"],
            ["B", "147"],
        ]


class TestReportRendering:
    def test_single_window_table_has_six_labeled_rows(self):
        rep = report(exemplar_observations(128), 128, Method.GHE)
        text = render_method_table([rep])
        lines = text.splitlines()
        assert len(lines) == 8  # title + header + 6 labeled rows
        assert lines[1].startswith("H range")
        for label, line in zip(("very low", "low", "normal", "high", "very high", "any"), lines[2:]):
            assert line.startswith(label)

    def test_multi_window_golden_bytes(self):
        reports = [
            report(exemplar_observations(w), w, Method.GHE) for w in sorted(EXEMPLAR_TABLE)
        ]
        text = render_method_table(reports)
        golden = (FIXTURES / "quintile_table_golden.txt").read_text(encoding="utf-8")
        assert text == golden
        # the two exemplar cells called out for the 128-day column
        assert "16.98%" in text and "13.24%" in text

    def test_empty_bucket_renders_na(self):
        obs = [_obs("A", 127 + 20 * i, h=0.5, fwd=0.0) for i in range(25)]
        text = render_method_table([report(obs, 128, Method.GHE)])
        assert "n/a" in text

    def test_mixed_methods_rejected(self):
        a = report(exemplar_observations(128), 128, Method.GHE)
        obs = [
            Observation(o.instrument_id, o.window_end, Method.GM2, o.h, o.suspect,
                        o.forward_log_return, o.forward_days)
            for o in exemplar_observations(128)
        ]
        b = report(obs, 128, Method.GM2)
        with pytest.raises(ValueError):
            render_method_table([a, b])

    def test_report_csv_shape(self):
        rep = report(exemplar_observations(128), 128, Method.GHE)
        lines = report_csv(rep).splitlines()
        assert lines[0] == "bucket,count,annualized_return_pct"
        assert len(lines) == 7
        assert lines[1].startswith("very low,20,")
        assert lines[6].startswith("any,100,")
        any_pct = float(lines[6].split(",")[2])
        assert any_pct == pytest.approx(13.2415, abs=5e-4)
