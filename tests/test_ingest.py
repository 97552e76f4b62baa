import csv
import datetime as dt
import io
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurstlab import (
    DuplicateDate,
    DuplicateInstrument,
    InvalidSetting,
    MalformedRow,
    NonPositivePrice,
    generate_drifted_cohort,
    ingest_csv,
    ingest_dir,
    write_csv,
)
from hurstlab import ingest as ingest_module
from hurstlab.ingest import ingest_rows
from hurstlab.series import PriceSeries


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def reference_ingest_rows(rows, source="<input>"):
    """The per-record loop ingest_rows replaced, kept as the oracle for it."""
    it = iter(rows)
    try:
        header = next(it)
    except StopIteration:
        raise MalformedRow(f"{source}: empty file, expected header instrument,date,price", 1)
    if tuple(h.strip().lower() for h in header) != ("instrument", "date", "price"):
        raise MalformedRow(f"{source}: expected header instrument,date,price, got {','.join(header)}", 1)
    per_instrument = {}
    for line, row in enumerate(it, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # blank line
        if len(row) != 3:
            raise MalformedRow(f"{source}:{line}: expected 3 fields, got {len(row)}", line)
        instrument, date_text, price_text = (f.strip() for f in row)
        if not instrument:
            raise MalformedRow(f"{source}:{line}: empty instrument id", line)
        try:
            if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", date_text):
                raise ValueError(date_text)  # write_csv's one form, on every Python version
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


def _outcome(ingest, text):
    """What ``ingest`` makes of CSV ``text``: the universe, or the error's class and fields."""
    return _result(lambda: ingest(csv.reader(io.StringIO(text, newline=""))))


def _result(read):
    """What ``read()`` returns: the universe, or the error's class and fields."""
    try:
        universe = read()
    except (MalformedRow, NonPositivePrice) as exc:
        return type(exc), str(exc), exc.line
    except DuplicateDate as exc:
        return type(exc), str(exc), exc.instrument_id, exc.date
    return [(s.instrument_id, s.dates.tolist(), s.prices.tolist()) for s in universe]


def _through_csv_reader(path):
    """``ingest_csv`` with ``csv.reader`` reading every record, and its errors named after the file."""
    with path.open(newline="", encoding="utf-8-sig") as f:
        try:
            return ingest_rows(csv.reader(f), source=path.name)
        except csv.Error as exc:
            raise MalformedRow(f"{path.name}: {exc}") from exc


def _field(text, quoted):
    return '"' + text.replace('"', '""') + '"' if quoted else text


MUTATIONS = ("fields", "empty id", "bad date", "bad price", "inf", "non-positive", "duplicate date")


def _records(draw, ids):
    """Interleaved records of up to four of ``ids``, with up to two bad ones."""
    ids = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4, unique=True))
    records = []
    for instrument in ids:
        days = draw(st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True))
        for day in days:
            price = draw(st.floats(1e-3, 1e4))
            records.append([instrument, (dt.date(2001, 1, 1) + dt.timedelta(days=day)).isoformat(), repr(price)])
    records = draw(st.permutations(records))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(records) - 1))
        kind = draw(st.sampled_from(MUTATIONS))
        record = list(records[at])
        if len(record) != 3:
            continue  # already mutated
        if kind == "fields":
            record = record[:2] if draw(st.booleans()) else [*record, "x"]
        elif kind == "empty id":
            record[0] = draw(st.sampled_from([" ", ""]))
        elif kind == "bad date":
            record[1] = draw(st.sampled_from(["2001-13-01", "01/02/2001", ""]))
        elif kind == "bad price":
            record[2] = draw(st.sampled_from(["cheap", "", "1,5"]))
        elif kind == "inf":
            record[2] = draw(st.sampled_from(["inf", "-inf", "nan", "1e999"]))
        elif kind == "non-positive":
            record[2] = draw(st.sampled_from(["0", "-0.0", "-2.5"]))
        else:  # a second record on the same (instrument, date)
            records.insert(draw(st.integers(0, len(records))), [record[0], record[1], "7.0"])
            continue
        records[at] = record
    return records


@st.composite
def csv_files(draw):
    """Interleaved instruments with blank lines, padding, quoting and up to two bad records."""
    records = _records(draw, ["AAA", "BB,B", 'C"C', "DDD", "EEE"])
    lines = ["instrument,date,price"]
    for record in records:
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", " \t"])))
        pad = draw(st.sampled_from(["", " "]))
        lines.append(",".join(
            _field(pad + f + pad, quoted=draw(st.booleans()) or any(c in f for c in ',"'))
            for f in record
        ))
    return "\n".join(lines) + "\n"


@st.composite
def mostly_plain_csv_files(draw):
    """Records as write_csv writes them, a few lines disturbed, and varied line and file ends."""
    records = _records(draw, ["AAA", "DDD", "EEE"])
    ends = draw(st.sampled_from(["plain"] * 7 + ["header", "crlf", "bom"]))  # the last three skip the split
    lines = ["Instrument,Date,Price " if ends == "header" else "instrument,date,price"]
    for record in records:
        line = ",".join(_field(f, quoted=any(c in f for c in ',"')) for f in record)
        rest = line.partition(",")[2]
        lines.append(draw(st.sampled_from([line] * 16 + [  # mostly as written, then each csv.reader case
            "", " ", f" {line}", f"{line}\t", f"{line}\r", f'"{record[0]}",{rest}', f'"BB,B",{rest}',
            f"\u00c9T\u00c9,{rest}",
        ])))
    newline = "\r\n" if ends == "crlf" else "\n"
    bom = "\ufeff" if ends == "bom" else ""
    return bom + newline.join(lines) + draw(st.sampled_from([newline, ""]))


class _CountingReader(io.BytesIO):
    """An in-memory binary file that counts its ``read`` calls."""

    reads = 0

    def read(self, size=-1):
        self.reads += 1
        return super().read(size)


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

    @settings(max_examples=200, deadline=None)
    @given(text=csv_files(), chunk_rows=st.integers(1, 9))
    def test_matches_per_record_reference(self, text, chunk_rows):
        with mock.patch.object(ingest_module, "_CHUNK_ROWS", chunk_rows):
            assert _outcome(ingest_rows, text) == _outcome(reference_ingest_rows, text)

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(csv_files(), mostly_plain_csv_files()), block_bytes=st.integers(1, 64))
    def test_csv_file_matches_csv_reader(self, text, block_bytes):
        # small blocks interleave plain and csv.reader blocks and put faults on block edges
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "u.csv"
            path.write_bytes(text.encode("utf-8"))
            with mock.patch.object(ingest_module, "_BLOCK_BYTES", block_bytes):
                assert _result(lambda: ingest_csv(path)) == _result(lambda: _through_csv_reader(path))

    @pytest.mark.parametrize("length", [131072, 131073])
    def test_plain_fields_keep_the_csv_size_limit(self, tmp_path, length):
        # csv.reader rejects a field longer than csv.field_size_limit(), 131072 by default
        path = _write(tmp_path, "u.csv", f"instrument,date,price\n{'A' * length},2001-01-02,1\n")
        outcome = _result(lambda: ingest_csv(path))
        assert outcome == _result(lambda: _through_csv_reader(path))
        too_long = (MalformedRow, "u.csv: field larger than field limit (131072)", None)
        assert (outcome == too_long) == (length > 131072)

    def test_record_longer_than_a_read_leaves_the_split_after_one_read(self, tmp_path):
        # growing the unsplit tail read by read would make such a file quadratic to reject
        header, body = b"instrument,date,price\n", b"A" * (3 * ingest_module._BLOCK_BYTES)
        f = _CountingReader(header + body)
        f.seek(len(header))
        assert ingest_module._add_plain_blocks(ingest_module._Columns("u.csv"), f) == 2
        assert (f.reads, f.tell()) == (1, len(header))
        path = tmp_path / "u.csv"
        path.write_bytes(header + body)
        with pytest.raises(MalformedRow, match=r"^u\.csv: field larger than field limit \(131072\)$"):
            ingest_csv(path)

    def test_field_over_the_size_limit_that_ends_in_a_later_read_leaves_the_split(self, tmp_path):
        # the first read ends inside the long id, the second holds its end: that block is whole
        # records, plain, but holds a field csv.reader rejects, so the split stops before it
        header, short = b"instrument,date,price\n", b"B,2001-01-02,1\n"
        data = header + short + b"A" * 140_000 + b",2001-01-02,1\n"
        f = _CountingReader(data)
        f.seek(len(header))
        columns = ingest_module._Columns("u.csv")
        assert ingest_module._add_plain_blocks(columns, f) == 3
        assert (f.reads, f.tell()) == (2, len(header + short))
        path = tmp_path / "u.csv"
        path.write_bytes(data)
        with pytest.raises(MalformedRow, match=r"^u\.csv: field larger than field limit \(131072\)$"):
            ingest_csv(path)

    @pytest.mark.parametrize("header", ["instrument,date,price\n", "\ufeffinstrument,date,price\r\n"],
                             ids=["plain", "csv-reader-from-byte-0"])
    def test_byte_that_is_not_utf8_is_located_in_the_file(self, tmp_path, header):
        # 64-byte blocks: the plain split hands the file to csv.reader well before the bad byte
        lines = [f"ACME,{dt.date(2001, 1, 1) + dt.timedelta(days=i)},10\n".encode() for i in range(61)]
        lines[30] = lines[30][:-3] + b"1\xff\n"  # physical line 32
        data = header.encode("utf-8") + b"".join(lines)
        offset = data.index(b"\xff")
        path = tmp_path / "u.csv"
        path.write_bytes(data)
        with mock.patch.object(ingest_module, "_BLOCK_BYTES", 64), pytest.raises(MalformedRow) as err:
            ingest_csv(path)
        assert str(err.value) == f"u.csv: line 32, byte {offset}: not UTF-8 (invalid start byte)"

    def test_bad_record_beyond_two_chunks_reports_its_line(self, tmp_path):
        lines = ["instrument,date,price"]
        lines += [f"ACME,{dt.date(2001, 1, 1) + dt.timedelta(days=i)},10" for i in range(2 * 4096 + 100)]
        lines += ["", "  ", ""]
        lines.append("ACME,1999-01-01,cheap")  # file line 1 + 8292 + 3 + 1 = 8297, in the third chunk
        lines += [f"ZED,2001-01-0{i},-1" for i in range(1, 4)]
        path = _write(tmp_path, "u.csv", "\n".join(lines) + "\n")
        with pytest.raises(MalformedRow) as err:
            ingest_csv(path)
        assert err.value.line == 8297
        assert str(err.value) == "u.csv:8297: bad price 'cheap'"

    def test_first_bad_record_wins_across_fault_kinds(self, tmp_path):
        lines = ["instrument,date,price"]
        lines += [f"ACME,{dt.date(2001, 1, 1) + dt.timedelta(days=i)},10" for i in range(5000)]
        lines[10] = "ACME,2001-02-30,10"  # file line 11: bad date
        lines[4500] = "ACME,2014-01-01,0"  # file line 4501: non-positive price, next chunk
        lines[20] = "ACME,2002-01-01,nope"  # file line 21: bad price, same chunk as the date
        path = _write(tmp_path, "u.csv", "\n".join(lines) + "\n")
        with pytest.raises(MalformedRow) as err:
            ingest_csv(path)
        assert (err.value.line, str(err.value)) == (11, "u.csv:11: bad ISO date '2001-02-30'")

    @pytest.mark.parametrize("earlier", ["inf", "nan", "0", "-1"])
    def test_price_fault_before_an_unparsable_price_wins(self, earlier):
        text = f"instrument,date,price\nAAA,2001-01-01,1\nAAA,2001-01-02,{earlier}\nAAA,2001-01-03,cheap\n"
        outcome = _outcome(ingest_rows, text)
        assert outcome[2] == 3
        assert outcome == _outcome(reference_ingest_rows, text)

    def test_first_duplicate_in_id_then_date_order_is_reported(self):
        text = "instrument,date,price\n" + "".join(
            f"{name},2001-01-{day:02d},{price}\n"
            for name, day, price in [("BBB", 2, 1), ("AAA", 5, 1), ("AAA", 3, 1), ("BBB", 2, 2),
                                     ("AAA", 5, 2), ("AAA", 3, 2), ("AAA", 4, 1)]
        )
        outcome = _outcome(ingest_rows, text)
        assert outcome == (DuplicateDate, "<input>: duplicate date 2001-01-03 for AAA", "AAA", dt.date(2001, 1, 3))
        assert outcome == _outcome(reference_ingest_rows, text)

    @pytest.mark.parametrize("text", ["20000103", "2000-W01-1", "2000-1-3"])
    def test_only_year_month_day_dates_are_accepted(self, text):
        # date.fromisoformat takes the first two from Python 3.11 on, and 3.10 rejects them
        csv_text = f"instrument,date,price\nAAA,2000-01-04,1\nAAA,{text},2\n"
        outcome = _outcome(ingest_rows, csv_text)
        assert outcome == (MalformedRow, f"<input>:3: bad ISO date {text!r}", 3)
        assert outcome == _outcome(reference_ingest_rows, csv_text)

    @pytest.mark.parametrize("records, duplicate", [
        # both ends of the date half of the packed key, for an id whose code is not its rank
        ([("ZED", "9999-12-31", 1), ("ZED", "0001-01-01", 2), ("AAA", "9999-12-31", 3),
          ("AAA", "0001-01-01", 4), ("ZED", "5000-06-15", 5)], False),
        # the id that sorts first appears only after two chunks of other ids
        ([("MMM", "2001-01-03", 1), ("ZZZ", "2001-01-02", 2), ("MMM", "2001-01-02", 3),
          ("ZZZ", "2001-01-01", 4), ("MMM", "2001-01-01", 5), ("ZZZ", "2001-01-03", 6),
          ("AAA", "2001-01-02", 7), ("AAA", "2001-01-01", 8)], False),
        # duplicates whose two records are in different chunks; BBB's comes first in the file
        # and in code order, AAA's on 2001-01-03 first in (id, date) order
        ([("BBB", "2001-01-05", 1), ("AAA", "2001-01-04", 2), ("BBB", "2001-01-02", 3),
          ("AAA", "2001-01-03", 4), ("BBB", "2001-01-05", 5), ("AAA", "2001-01-04", 6),
          ("AAA", "2001-01-03", 7)], True),
    ], ids=["date-range-ends", "first-id-appears-late", "duplicate-across-chunks"])
    def test_grouping_edge_cases_match_reference(self, records, duplicate):
        text = "instrument,date,price\n" + "".join(f"{i},{d},{p}\n" for i, d, p in records)
        with mock.patch.object(ingest_module, "_CHUNK_ROWS", 3):
            outcome = _outcome(ingest_rows, text)
        assert outcome == _outcome(reference_ingest_rows, text)
        assert isinstance(outcome, tuple) == duplicate

    def test_peak_memory_stays_near_the_returned_arrays(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(10))
        universe = [
            PriceSeries(f"S{i:03d}", np.arange(2500), np.exp(np.cumsum(rng.normal(0, 0.01, 2500))))
            for i in range(80)
        ]
        write_csv(universe, tmp_path / "u.csv")
        with (tmp_path / "u.csv").open(newline="") as f:
            rows = list(csv.reader(f))  # 200,001 rows, read before tracing
        tracemalloc.start()
        try:
            back = ingest_rows(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(s.prices.nbytes + s.dates.nbytes for s in back)
        assert returned == 80 * 2500 * 16
        assert peak <= 3 * returned, f"peak {peak / returned:.2f}x the returned arrays"

    def test_csv_file_peak_memory_stays_near_the_returned_arrays(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(10))
        universe = [
            PriceSeries(f"S{i:03d}", np.arange(2500), np.exp(np.cumsum(rng.normal(0, 0.01, 2500))))
            for i in range(80)
        ]
        path = tmp_path / "u.csv"
        write_csv(universe, path)  # 200,001 plain records
        tracemalloc.start()
        try:
            back = ingest_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(s.prices.nbytes + s.dates.nbytes for s in back)
        assert returned == 80 * 2500 * 16
        assert peak <= 3 * returned, f"peak {peak / returned:.2f}x the returned arrays"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_bytes("\ufeffinstrument,date,price\nACME,2001-01-02,1\n".encode("utf-8"))
        (series,) = ingest_csv(path)
        assert series.instrument_id == "ACME"

    def test_ids_that_need_quoting_round_trip(self, tmp_path):
        # each id as written: quoted where csv quotes it, and "%" verbatim, though rows go through a % template
        fields = {"BRK,A": '"BRK,A"', 'X"Y': '"X""Y"', "Z": "Z", "50%": "50%", "A%sB": "A%sB", "%%": "%%",
                  '%,"x': '"%,""x"'}
        universe = [PriceSeries(name, np.arange(3), [1.0, 2.5, 3.0]) for name in fields]
        path = tmp_path / "u.csv"
        write_csv(universe, path)
        text = path.read_text()
        for field in fields.values():
            assert f"{field},2000-01-03,1.0\n{field},2000-01-04,2.5\n{field},2000-01-05,3.0\n" in text
        back = ingest_csv(path)
        assert [s.instrument_id for s in back] == sorted(fields)
        assert all(np.array_equal(s.prices, [1.0, 2.5, 3.0]) for s in back)

    def test_edge_prices_print_as_the_per_row_form(self, tmp_path):
        prices = [5e-324, 1e-5, 0.1, 1e16, 123456789.5, 1.7976931348623157e308]
        series = PriceSeries("E", np.arange(len(prices)), prices)
        path = tmp_path / "u.csv"
        write_csv([series], path)
        # the per-row f-string form, as the oracle for the bytes
        dates = [dt.date(2000, 1, 3) + dt.timedelta(days=d) for d in range(len(prices))]
        rows = "".join([f"E,{date.isoformat()},{price!r}\n" for date, price in zip(dates, prices)])
        assert path.read_text() == "instrument,date,price\n" + rows
        (back,) = ingest_csv(path)
        assert back.prices.tolist() == prices

    @pytest.mark.parametrize("lost", [" A", "A ", "\tA", "A\n", ""])
    def test_ids_that_would_not_read_back_are_rejected(self, tmp_path, lost):
        # ingest strips the whitespace around fields: " A" would come back as "A"
        universe = [PriceSeries(name, np.arange(3), [1.0, 2.5, 3.0]) for name in ("A", lost, "BRK,A")]
        path = tmp_path / "u.csv"
        with pytest.raises(ValueError, match=re.escape(repr(lost))):
            write_csv(universe, path)
        assert not path.exists()

    def test_repeated_ids_are_rejected(self, tmp_path):
        # ingest would join their rows and fail on the first date they share
        universe = [PriceSeries(name, np.arange(3), [1.0, 2.5, 3.0]) for name in ("A", "B", "A", "A")]
        path = tmp_path / "u.csv"
        with pytest.raises(ValueError, match=r"^instrument ids 'A' would not read back from CSV$"):
            write_csv(universe, path)
        assert not path.exists()

    @pytest.mark.parametrize("days", [[0, 4_000_000], [-800_000, 0], [0, 2**62]])
    def test_a_day_outside_the_calendar_fails_before_the_file_is_opened(self, tmp_path, days):
        # the bad series sorts after a good one, and an existing file keeps its bytes
        universe = [PriceSeries("A", [0, 1], [1.0, 2.0]), PriceSeries("B", days, [1.0, 2.0])]
        path = tmp_path / "u.csv"
        path.write_bytes(b"earlier bytes\n")
        message = r"^B: a day outside -730121\.\.2921937 \(years 1-9999\) has no date$"
        with pytest.raises(InvalidSetting, match=message):
            write_csv(universe, path)
        assert path.read_bytes() == b"earlier bytes\n"
        # the first and last days of the calendar are written
        write_csv([PriceSeries("B", [-730121, 2921937], [1.0, 2.0])], path)
        assert path.read_text().splitlines()[1:] == ["B,0001-01-01,1.0", "B,9999-12-31,2.0"]

    def test_round_trip_reproduces_universe_exactly(self, tmp_path):
        cohort = generate_drifted_cohort(3, 16, [0.3, 0.7], {0.3: 0.0, 0.7: 1e-4}, seed=13)
        path = tmp_path / "u.csv"
        write_csv(cohort, path)
        back = ingest_csv(path)
        assert len(back) == len(cohort)
        for a, b in zip(cohort, back):
            assert a.instrument_id == b.instrument_id
            assert np.array_equal(a.dates, b.dates)
            assert np.array_equal(a.prices, b.prices)

    def test_empty_universe_writes_the_header_alone(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text() == "instrument,date,price\n"
        assert ingest_csv(path) == []


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
