import numpy as np
import pytest

from hurstlab import (
    DuplicateDate,
    DuplicateInstrument,
    MalformedRow,
    NonPositivePrice,
    emit_csv,
    generate_drifted_cohort,
    ingest_csv,
    ingest_dir,
)
from hurstlab.ingest import ingest_rows


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestIngest:
    def test_three_row_single_instrument(self, tmp_path):
        path = _write(
            tmp_path,
            "u.csv",
            "instrument,date,price\nACME,2001-01-02,1\nACME,2001-01-03,2\nACME,2001-01-04,4\n",
        )
        (series,) = ingest_csv(path)
        assert series.instrument_id == "ACME"
        assert series.dates.tolist() == [0, 1, 2]
        assert series.prices.tolist() == [1.0, 2.0, 4.0]

    def test_negative_price_reports_file_line(self, tmp_path):
        rows = ["instrument,date,price"]
        for i in range(5):
            rows.append(f"ACME,2001-01-{2 + i:02d},10")
        rows.append("ACME,2001-01-07,-5")  # file line 7
        path = _write(tmp_path, "u.csv", "\n".join(rows) + "\n")
        with pytest.raises(NonPositivePrice) as err:
            ingest_csv(path)
        assert err.value.line == 7

    def test_interleaved_instruments_sorted_and_grouped(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(8))
        rows = []
        for i in range(100):
            day = f"2001-{1 + i // 28:02d}-{1 + i % 28:02d}"
            rows.append(("AAA", day, 100.0 + i))
            rows.append(("BBB", day, 200.0 + i))
        order = rng.permutation(len(rows))
        text = "instrument,date,price\n" + "".join(
            f"{rows[j][0]},{rows[j][1]},{rows[j][2]}\n" for j in order
        )
        path = _write(tmp_path, "u.csv", text)
        universe = ingest_csv(path)
        assert [s.instrument_id for s in universe] == ["AAA", "BBB"]
        # sort-then-group oracle: prices must come back date-ordered
        assert universe[0].prices.tolist() == [100.0 + i for i in range(100)]
        assert universe[1].prices.tolist() == [200.0 + i for i in range(100)]
        assert universe[0].dates.tolist() == list(range(100))

    def test_duplicate_date_rejected(self, tmp_path):
        path = _write(
            tmp_path,
            "u.csv",
            "instrument,date,price\nACME,2001-01-02,1\nACME,2001-01-02,2\n",
        )
        with pytest.raises(DuplicateDate) as err:
            ingest_csv(path)
        assert err.value.instrument_id == "ACME"

    def test_malformed_rows(self):
        with pytest.raises(MalformedRow):
            ingest_rows([["bad", "header"]])
        with pytest.raises(MalformedRow) as err:
            ingest_rows([["instrument", "date", "price"], ["A", "not-a-date", "1"]])
        assert err.value.line == 2
        with pytest.raises(MalformedRow):
            ingest_rows([["instrument", "date", "price"], ["A", "2001-01-02", "cheap"]])
        with pytest.raises(MalformedRow):
            ingest_rows([["instrument", "date", "price"], ["A", "2001-01-02"]])
        with pytest.raises(MalformedRow):
            ingest_rows([["instrument", "date", "price"], ["A", "2001-01-02", "inf"]])
        with pytest.raises(MalformedRow):
            ingest_rows(iter([]))

    def test_round_trip_reproduces_universe_exactly(self, tmp_path):
        cohort = generate_drifted_cohort(3, 16, [0.3, 0.7], {0.3: 0.0, 0.7: 1e-4}, seed=13)
        path = _write(tmp_path, "u.csv", emit_csv(cohort))
        back = ingest_csv(path)
        assert len(back) == len(cohort)
        for a, b in zip(cohort, back):
            assert a.instrument_id == b.instrument_id
            assert np.array_equal(a.dates, b.dates)
            assert np.array_equal(a.prices, b.prices)


class TestIngestDir:
    def test_merges_files(self, tmp_path):
        _write(tmp_path, "a.csv", "instrument,date,price\nAAA,2001-01-02,1\nAAA,2001-01-03,2\n")
        _write(tmp_path, "b.csv", "instrument,date,price\nBBB,2001-01-02,3\nBBB,2001-01-03,4\n")
        universe = ingest_dir(tmp_path)
        assert [s.instrument_id for s in universe] == ["AAA", "BBB"]

    def test_duplicate_instrument_across_files_rejected(self, tmp_path):
        _write(tmp_path, "a.csv", "instrument,date,price\nAAA,2001-01-02,1\nAAA,2001-01-03,2\n")
        _write(tmp_path, "b.csv", "instrument,date,price\nAAA,2001-01-04,3\nAAA,2001-01-05,4\n")
        with pytest.raises(DuplicateInstrument) as err:
            ingest_dir(tmp_path)
        assert err.value.instrument_id == "AAA"

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(MalformedRow):
            ingest_dir(tmp_path)
