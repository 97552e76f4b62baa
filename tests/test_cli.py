import csv
import datetime as dt
import math
from pathlib import Path

import numpy as np
import pytest

import hurstlab.pipeline
from hurstlab import (
    EstimatorConfig,
    FbmSpec,
    InvalidSetting,
    Method,
    ObservationPool,
    PriceSeries,
    ScanSpec,
    annualize,
    bucketize,
    generate_drifted_cohort,
    ingest_csv,
    render_method_table,
    write_csv,
)
from hurstlab.cli import main
from hurstlab.estimators import estimate_rows


def _tree(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def _run(args) -> int:
    return main([str(a) for a in args])


def _kept_out(tmp_path: Path) -> Path:
    """An output directory holding one earlier file, which a failed run must leave alone."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("earlier file")
    return out


COHORT_ARGS = ["--synthetic-cohort", "--n", "18", "--len", "512", "--seed", "3"]


class TestRun:
    def test_counting_contract(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = _run(["run", *COHORT_ARGS, "--windows", "32,64", "--methods", "ghe,gm2", "--out", out])
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert len(names) == 12  # 4 observation CSVs + 4 quintile + 4 tail
        for method in ("ghe", "gm2"):
            for window in (32, 64):
                tag = f"{method}_w{window}"
                assert f"observations_{tag}.csv" in names
                assert f"quintile_{tag}.txt" in names
                assert f"tail_{tag}.txt" in names
        summary = capsys.readouterr().out
        assert "Annualized return for GHE" in summary

    def test_byte_identical_reruns(self, tmp_path):
        args = ["run", *COHORT_ARGS, "--windows", "32,64", "--methods", "ghe,dfa,gm2"]
        assert _run([*args, "--out", tmp_path / "a"]) == 0
        assert _run([*args, "--out", tmp_path / "b"]) == 0
        assert _tree(tmp_path / "a") == _tree(tmp_path / "b")

    def test_csv_format(self, tmp_path):
        out = tmp_path / "out"
        code = _run(
            ["run", *COHORT_ARGS, "--windows", "32", "--methods", "ghe", "--format", "csv", "--out", out]
        )
        assert code == 0
        text = (out / "quintile_ghe_w32.csv").read_text()
        assert text.startswith("bucket,count,annualized_return_pct\n")

    def test_run_on_ingested_file(self, tmp_path):
        csv_path = tmp_path / "u.csv"
        assert _run(["synth", "--n", "10", "--len", "300", "--seed", "5", "--out", csv_path]) == 0
        out = tmp_path / "out"
        code = _run(["run", "--input", csv_path, "--windows", "32", "--methods", "gm2", "--out", out])
        assert code == 0
        obs_lines = (out / "observations_gm2_w32.csv").read_text().splitlines()
        assert len(obs_lines) == 1 + 10 * ((300 - 64) // 20 + 1)

    def test_ingested_cohort_writes_the_synthetic_run_tree(self, tmp_path):
        csv_path = tmp_path / "u.csv"
        assert _run(["synth", "--n", "6", "--len", "400", "--out", csv_path]) == 0
        windows = ["--windows", "32,64"]
        assert _run(["run", "--input", csv_path, *windows, "--out", tmp_path / "ingested"]) == 0
        assert _run(["run", "--synthetic-cohort", "--n", "6", "--len", "400", *windows,
                     "--out", tmp_path / "synthetic"]) == 0
        ingested = _tree(tmp_path / "ingested")
        assert len(ingested) == 18
        assert ingested == _tree(tmp_path / "synthetic")

    def test_non_overlapping_rolls_one_window(self, tmp_path):
        out = tmp_path / "out"
        code = _run(
            ["run", *COHORT_ARGS, "--windows", "32", "--methods", "ghe", "--non-overlapping", "--out", out]
        )
        assert code == 0
        lines = (out / "observations_ghe_w32.csv").read_text().splitlines()
        assert len(lines) == 1 + 18 * ((512 - 64) // 32 + 1)

    def test_exclude_suspect_filters_rows(self, tmp_path):
        base, filtered = tmp_path / "a", tmp_path / "b"
        args = ["run", *COHORT_ARGS, "--windows", "32", "--methods", "ghe"]
        assert _run([*args, "--out", base]) == 0
        assert _run([*args, "--exclude-suspect", "--out", filtered]) == 0
        kept = (filtered / "observations_ghe_w32.csv").read_text()
        assert ",true," not in kept
        assert len(kept.splitlines()) <= len((base / "observations_ghe_w32.csv").read_text().splitlines())

    def test_missing_input_file_fails_cleanly(self, tmp_path, capsys):
        code = _run(["run", "--input", tmp_path / "nope.csv", "--windows", "32", "--out", tmp_path / "o"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_estimator_overrides_accepted(self, tmp_path):
        out = tmp_path / "out"
        code = _run(
            ["run", *COHORT_ARGS, "--windows", "64", "--methods", "ghe", "--tau-max", "9", "--out", out]
        )
        assert code == 0

    def test_dfa_raw_mode(self, tmp_path):
        out_raw, out_prof = tmp_path / "raw", tmp_path / "prof"
        args = ["run", *COHORT_ARGS, "--windows", "64", "--methods", "dfa"]
        assert _run([*args, "--dfa-profile", "raw", "--out", out_raw]) == 0
        assert _run([*args, "--out", out_prof]) == 0
        raw = (out_raw / "observations_dfa_w64.csv").read_bytes()
        prof = (out_prof / "observations_dfa_w64.csv").read_bytes()
        assert raw != prof  # the switch changes the detrended signal

    def test_unknown_method_rejected(self, tmp_path, capsys):
        for methods in ("rs", ","):
            with pytest.raises(SystemExit) as exit_info:
                _run(["run", "--synthetic-cohort", "--methods", methods, "--out", tmp_path / "o"])
            assert exit_info.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_invalid_window_fails_cleanly(self, tmp_path, capsys):
        # GHE's defaults fit from 3 points
        for windows in ("2", ","):
            args = ["run", *COHORT_ARGS, "--windows", windows, "--methods", "ghe", "--out", tmp_path / "o"]
            assert _run(args) == 1
            assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_short_window_is_judged_by_each_method(self, tmp_path, capsys):
        args = ["run", *COHORT_ARGS, "--windows", "16", "--out", tmp_path / "o"]
        assert _run(args) == 1
        assert capsys.readouterr().err == "error: dfa: largest block 2**4 does not fit in 15 points\n"
        assert list(tmp_path.iterdir()) == []
        assert _run([*args[:-2], "--methods", "ghe", "--out", tmp_path / "o"]) == 0
        assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
            "observations_ghe_w16.csv", "quintile_ghe_w16.txt", "tail_ghe_w16.txt"
        ]

    def test_settings_fail_before_the_input_is_read(self, tmp_path, capsys):
        # the missing file is never opened: the window is judged first
        args = ["run", "--input", tmp_path / "missing.csv", "--windows", "16", "--out", tmp_path / "o"]
        assert _run(args) == 1
        assert capsys.readouterr().err == "error: dfa: largest block 2**4 does not fit in 15 points\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option, value", [
        ("--n", "99"), ("--len", "600"), ("--h-values", "0.9"), ("--drifts", "0"), ("--fbm-scale", "0.01"),
        ("--seed", "0"),  # a cohort default given explicitly is refused too
    ])
    def test_input_refuses_cohort_options(self, tmp_path, capsys, option, value):
        # the missing file is never opened: the option is judged first
        args = ["run", "--input", tmp_path / "missing.csv", "--windows", "32", option, value, "--out", tmp_path / "o"]
        assert _run(args) == 1
        assert capsys.readouterr().err == f"error: {option} applies only to --synthetic-cohort, not to --input\n"
        assert list(tmp_path.iterdir()) == []

    def test_failed_group_leaves_out_dir_untouched(self, tmp_path, capsys):
        # 600 days give window 32 its groups but leave w512 without observations
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("earlier file")
        code = _run(["run", "--synthetic-cohort", "--n", "6", "--len", "600", "--windows", "32,512",
                     "--out", out])
        assert code == 1
        assert "w512" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    @pytest.mark.parametrize("override, error", [
        (["--methods", "ghe", "--tau-max", "40"], "ghe: need more than tau_max=40 points, got 32"),
        (["--methods", "gm2", "--k-max", "9"], "gm2: largest block 2**9 does not fit in 32 points"),
        (["--q", "nan"], "q must be positive and finite, got nan"),
        (["--q", "inf"], "q must be positive and finite, got inf"),
        (["--roll", "0"], "roll_step must be >= 1, got 0"),
        (["--k-min", "1"], "smallest block 2**k_min must be >= 4, got k_min=1"),
    ], ids=["ghe-tau-max", "gm2-k-max", "q-nan", "q-inf", "roll-zero", "k-min-one"])
    def test_unsatisfiable_override_names_its_cause(self, tmp_path, capsys, override, error):
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("earlier file")
        code = _run(["run", "--synthetic-cohort", "--n", "6", "--len", "400", "--windows", "32", *override,
                     "--out", out])
        assert code == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]

    def test_empty_input_file_fails_cleanly(self, tmp_path, capsys):
        write_csv([], tmp_path / "empty.csv")
        out = tmp_path / "out"
        code = _run(["run", "--input", tmp_path / "empty.csv", "--windows", "32", "--out", out])
        assert code == 1
        assert capsys.readouterr().err == "error: scan requires at least one price series\n"
        assert not out.exists()

    def test_overflowing_annualized_return_fails_cleanly(self, tmp_path, capsys):
        # 25 of 40 instruments jump by a factor of 1e300 on day 100: a window's
        # forward log return of ~691 annualizes past the largest float
        rng = np.random.Generator(np.random.PCG64(5))
        universe = []
        for i in range(40):
            prices = np.exp(2.0 + np.cumsum(rng.normal(0.0, 0.01, 200)))
            if i < 25:
                prices[100:] *= 1e300
            universe.append(PriceSeries(f"S{i:02d}", np.arange(200), prices))
        write_csv(universe, tmp_path / "jump.csv")
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("earlier file")
        code = _run(["run", "--input", tmp_path / "jump.csv", "--windows", "32", "--out", out])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ghe_w32: annualizing mean log return ")
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["jump.csv", "out"]

    @pytest.mark.parametrize("out", ["new", "a/b/new"], ids=["flat", "nested"])
    def test_failed_run_creates_no_out_dir(self, tmp_path, out):
        code = _run(["run", "--synthetic-cohort", "--n", "6", "--len", "600", "--windows", "512",
                     "--out", tmp_path / out])
        assert code == 1
        assert list(tmp_path.iterdir()) == []

    def test_input_dir(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        assert _run(["synth", "--n", "4", "--len", "300", "--seed", "5", "--out", data / "a.csv"]) == 0
        universe = (data / "a.csv").read_text().splitlines()
        # split the second half of instruments into another file
        with open(data / "b.csv", "w") as f:
            f.write(universe[0] + "\n")
            f.write("\n".join(ln for ln in universe[1:] if ln.startswith("SYN002")) + "\n")
        with open(data / "a.csv", "w") as f:
            f.write(universe[0] + "\n")
            f.write("\n".join(ln for ln in universe[1:] if not ln.startswith("SYN002")) + "\n")
        out = tmp_path / "out"
        code = _run(["run", "--input", data, "--windows", "32", "--methods", "gm2", "--out", out])
        assert code == 0
        lines = (out / "observations_gm2_w32.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * ((300 - 64) // 20 + 1)

    def test_input_directory_gives_the_tree_of_its_file(self, tmp_path):
        data = tmp_path / "data"
        data.mkdir()
        assert _run(["synth", "--n", "6", "--len", "400", "--out", data / "u.csv"]) == 0
        (data / "sub.csv").mkdir()  # a directory is not an input file, whatever its name
        windows = ["--windows", "32,64"]
        assert _run(["run", "--input", data / "u.csv", *windows, "--out", tmp_path / "file"]) == 0
        assert _run(["run", "--input", data, *windows, "--out", tmp_path / "dir"]) == 0
        tree = _tree(tmp_path / "file")
        assert len(tree) == 18
        assert tree == _tree(tmp_path / "dir")

    def test_instrument_in_two_files_of_an_input_directory_fails(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        assert _run(["synth", "--n", "3", "--len", "300", "--out", data / "a.csv"]) == 0
        lines = (data / "a.csv").read_text().splitlines(keepends=True)
        (data / "b.csv").write_text(lines[0] + "".join(ln for ln in lines if ln.startswith("SYN001")))
        out = _kept_out(tmp_path)
        assert _run(["run", "--input", data, "--windows", "32", "--out", out]) == 1
        assert capsys.readouterr().err == "error: b.csv: instrument SYN001 appears in multiple files\n"
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]

    @pytest.mark.parametrize("quoted", [False, True], ids=["bare", "quoted"])
    def test_field_over_the_csv_size_limit_fails_with_an_error_line(self, tmp_path, capsys, quoted):
        name = "A" * 140_000
        field = f'"{name}"' if quoted else name
        (tmp_path / "long.csv").write_text(f"instrument,date,price\n{field},2001-01-02,1\n")
        out = _kept_out(tmp_path)
        assert _run(["run", "--input", tmp_path / "long.csv", "--windows", "32", "--out", out]) == 1
        assert capsys.readouterr().err == "error: long.csv: field larger than field limit (131072)\n"
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]

    def test_byte_that_is_not_utf8_fails_with_its_line_and_offset(self, tmp_path, capsys):
        # 62 lines of 19 bytes after the 22-byte header; line 32's price starts at byte 22 + 30 * 19 + 16
        lines = [f"ACME,{dt.date(2001, 1, 1) + dt.timedelta(days=i)},10\n".encode() for i in range(61)]
        lines[30] = lines[30][:-3] + b"\xff0\n"
        (tmp_path / "u.csv").write_bytes(b"instrument,date,price\n" + b"".join(lines))
        out = _kept_out(tmp_path)
        assert _run(["run", "--input", tmp_path / "u.csv", "--windows", "32", "--out", out]) == 1
        assert capsys.readouterr().err == "error: u.csv: line 32, byte 608: not UTF-8 (invalid start byte)\n"
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]

    def test_ids_that_need_quoting_round_trip_through_observation_files(self, tmp_path):
        # each id as the file writes it: csv-quoted where needed, "%" verbatim
        fields = {"BRK,A": '"BRK,A"', 'X"Y': '"X""Y"', "ZED": "ZED", "50%": "50%", "A%sB": "A%sB", "%%": "%%",
                  '%,"x': '"%,""x"'}
        ids = tuple(fields)
        cohort = generate_drifted_cohort(len(ids), 400, (0.5,), {0.5: 0.0}, seed=4)
        csv_path = tmp_path / "u.csv"
        write_csv([PriceSeries(i, s.dates, s.prices) for i, s in zip(ids, cohort)], csv_path)
        out = tmp_path / "out"
        assert _run(["run", "--input", csv_path, "--windows", "32", "--out", out]) == 0
        for path in sorted(out.glob("observations_*.csv")):
            with path.open(newline="", encoding="utf-8") as f:
                rows = list(csv.reader(f))[1:]
            assert rows and all(len(row) == 6 for row in rows), path.name
            assert sorted({row[0] for row in rows}) == sorted(ids)
        plain = (out / "observations_ghe_w32.csv").read_text(encoding="utf-8").splitlines()
        for field in fields.values():
            assert any(line.startswith(field + ",") for line in plain), field

    def test_drifted_cohort_orders_extreme_buckets_everywhere(self, tmp_path):
        # end-to-end: the seeded 60-stock drift-ordered cohort must put the
        # "very high" bucket above "very low" in every GHE/GM2 report
        out = tmp_path / "out"
        code = _run(
            ["run", "--synthetic-cohort", "--seed", "7", "--windows", "32,64,128,256,512",
             "--methods", "ghe,gm2", "--format", "csv", "--out", out]
        )
        assert code == 0
        for method in ("ghe", "gm2"):
            for window in (32, 64, 128, 256, 512):
                rows = (out / f"quintile_{method}_w{window}.csv").read_text().splitlines()[1:]
                pct = {ln.split(",")[0]: float(ln.split(",")[2]) for ln in rows}
                assert pct["very high"] > pct["very low"], (method, window, pct)


    def test_repeated_h_value_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = _run(["run", "--synthetic-cohort", "--n", "4", "--len", "64", "--h-values", "0.5,0.5",
                     "--drifts", "0,0.01", "--windows", "32", "--out", out])
        assert code == 1
        assert "error: each --h-values entry may appear only once" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", [["run", "--synthetic-cohort", "--windows", "32"], ["synth"]],
                         ids=["run", "synth"])
@pytest.mark.parametrize("setting, error", [
    (["--h-values", "0.5", "--drifts", "inf"], "drift for h=0.5 must be given and finite, got inf"),
    (["--fbm-scale", "100"], "SYN000: non-finite price"),
    (["--drifts", "10,0,0"], "SYN000: non-finite price"),
    (["--fbm-scale", "1e155"], "scale 1e+155 overflows the spectrum of 400 points"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    (["--n", "0"], "n_series must be >= 1, got 0"),
    (["--len", "5"], "length must be >= 8, got 5"),
    (["--h-values", "1.5", "--drifts", "0"], "h must lie in (0, 1), got 1.5"),
], ids=["infinite-drift", "wide-steps", "steep-drift", "huge-scale", "negative-seed", "no-series", "too-short",
        "h-outside-0-1"])
def test_cohort_that_cannot_be_synthesized_fails_with_an_error_line(tmp_path, capsys, command, setting, error):
    assert _run([*command, "--n", "6", "--len", "400", *setting, "--out", tmp_path / "out"]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert list(tmp_path.iterdir()) == []


def test_fault_inside_the_scan_keeps_its_traceback(tmp_path, monkeypatch):
    # only a HurstLabError or an OSError becomes an error line; anything else is a bug and is re-raised
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together with shapes (3,) (4,)")

    monkeypatch.setattr(hurstlab.pipeline, "statistic", broken)
    with pytest.raises(ValueError, match="^operands could not be broadcast"):
        _run(["run", *COHORT_ARGS, "--windows", "32", "--out", tmp_path / "out"])
    assert list(tmp_path.iterdir()) == []


def _one_row_pool() -> ObservationPool:
    return ObservationPool(32, Method.GHE, np.array(["A"], dtype=object), np.array([31]), np.array([0.5]),
                           np.array([0.0]))


@pytest.mark.parametrize("make", [
    lambda tmp_path: EstimatorConfig(q=math.nan),
    lambda tmp_path: ScanSpec(window=32, roll_step=0),
    lambda tmp_path: FbmSpec(h=0.5, length=4, seed=0),
    lambda tmp_path: bucketize(_one_row_pool(), "deciles"),
    lambda tmp_path: annualize(0.0, 0),
    lambda tmp_path: write_csv([PriceSeries("A", [0], [1.0]), PriceSeries("A", [1], [2.0])], tmp_path / "a.csv"),
    lambda tmp_path: render_method_table([]),
    lambda tmp_path: PriceSeries("A", np.arange(4).reshape(2, 2), np.ones((2, 2))),
    lambda tmp_path: estimate_rows(Method.GHE, np.ones(64)),
    lambda tmp_path: FbmSpec(h=1.5, length=64, seed=0),
    lambda tmp_path: write_csv([PriceSeries("A", [0, 4_000_000], [1.0, 2.0])], tmp_path / "a.csv"),
], ids=["config-q", "scan-roll", "fbm-length", "bucket-scheme", "annualize-window", "csv-repeated-id",
        "table-empty", "series-2d", "rows-1d", "fbm-h", "csv-day-outside-calendar"])
def test_bad_setting_or_input_raises_invalid_setting(tmp_path, make):
    with pytest.raises(InvalidSetting):
        make(tmp_path)
    assert list(tmp_path.iterdir()) == []


class TestSynth:
    def test_writes_ingestible_cohort(self, tmp_path):
        path = tmp_path / "cohort.csv"
        code = _run(
            ["synth", "--n", "6", "--len", "64", "--h-values", "0.3,0.5,0.7",
             "--drifts", "0,0.0002,0.0004", "--seed", "7", "--out", path]
        )
        assert code == 0
        universe = ingest_csv(path)
        assert len(universe) == 6
        assert all(len(s) == 64 for s in universe)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--n", "3", "--len", "32", "--seed", "9"]
        assert _run([*args, "--out", a]) == 0
        assert _run([*args, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_mismatched_drifts_fail(self, tmp_path, capsys):
        code = _run(
            ["synth", "--n", "2", "--len", "32", "--h-values", "0.3,0.5", "--drifts", "0", "--seed",
             "1", "--out", tmp_path / "c.csv"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_repeated_h_value_rejected(self, tmp_path, capsys):
        # a repeated H would silently give every series of that H the last drift
        path = tmp_path / "c.csv"
        code = _run(["synth", "--n", "4", "--len", "16", "--h-values", "0.5,0.5", "--drifts", "0,0.01",
                     "--out", path])
        assert code == 1
        assert "error: each --h-values entry may appear only once" in capsys.readouterr().err
        assert not path.exists()
