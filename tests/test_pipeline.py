import copy
import math
import pickle
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hurstlab import (
    ANY_LABEL,
    DFA_MODE_RAW,
    DuplicateInstrument,
    EmptyUniverse,
    EstimatorConfig,
    FbmSpec,
    HurstLabError,
    LogSeries,
    Method,
    ObservationPool,
    PriceSeries,
    QUINTILE_LABELS,
    ScanSpec,
    SeriesTooShort,
    TAIL_LABELS,
    Diagnostic,
    TooFewObservations,
    annualize,
    bucketize,
    default_config,
    dfa,
    estimate,
    generate_fbm,
    ghe,
    gm2,
    report,
    scan,
)
from hurstlab import pipeline
from hurstlab.estimators import fit_statistic, is_suspect, statistic
from hurstlab.pipeline import window_end_positions
from hurstlab.reporting import observations_csv, render_method_table, report_csv


def _walk_universe(n_series, length, seed, scale=0.01):
    universe = []
    for i in range(n_series):
        path = generate_fbm(FbmSpec(h=0.5, length=length, seed=seed + i, scale=scale))
        universe.append(PriceSeries(f"W{i:02d}", np.arange(length), np.exp(path.values)))
    return universe


def _pool(hs, fwds=None, method=Method.GHE, window=128):
    """One row per exponent, on instruments I0000, I0001, ... with ascending window ends."""
    n = len(hs)
    return ObservationPool(
        window,
        method,
        np.array([f"I{i:04d}" for i in range(n)], dtype=object),
        window - 1 + 20 * np.arange(n),
        np.array(hs, dtype=np.float64),
        np.zeros(n) if fwds is None else np.array(fwds, dtype=np.float64),
    )


def _grid_pool(n=100, fwd_by_bucket=None):
    fwds = None if fwd_by_bucket is None else [fwd_by_bucket[i * 5 // n] for i in range(n)]
    return _pool([i / n for i in range(n)], fwds)


def _halted_walk():
    """A random walk with a halted (flat) stretch on days 121-220, a stretch whose
    log prices alternate between two values, and a 5% jump into a second halt
    on the second day of the last 32-day window."""
    rng = np.random.Generator(np.random.PCG64(7))
    prices = np.exp(3.0 + np.cumsum(rng.normal(0.0, 0.01, 400)))
    prices[120:220] = prices[120]
    prices[260:336] = np.where(np.arange(76) % 2 == 0, 7.0, 8.0)
    prices[337:] = 1.05 * prices[336]
    return PriceSeries("X", np.arange(400), prices)


class TestScanGeometry:
    def test_positions_brute_force_oracle(self):
        for length, window, roll in ((2048, 128, 20), (256, 32, 20), (333, 64, 7), (4096, 512, 512)):
            brute = [
                t
                for t in range(length)
                if t >= window - 1 and (t - (window - 1)) % roll == 0 and t + window <= length - 1
            ]
            assert window_end_positions(length, window, roll) == brute

    def test_spec_count_example(self):
        assert len(window_end_positions(2048, 128, 20)) == (2048 - 256) // 20 + 1 == 90

    def test_consecutive_windows_overlap_108_points(self):
        positions = window_end_positions(2048, 128, 20)
        first = set(range(positions[0] - 127, positions[0] + 1))
        second = set(range(positions[1] - 127, positions[1] + 1))
        assert len(first & second) == 128 - 20 == 108

    def test_exactly_one_observation_at_double_window_length(self):
        universe = _walk_universe(1, 64, seed=500)
        result = scan(universe, ScanSpec(window=32, methods=(Method.GHE, Method.GM2, Method.DFA)))
        assert all(len(result.pools[m]) == 1 for m in Method)
        assert all(pool.window == 32 for pool in result.pools.values())

    def test_ninety_observations_per_method(self):
        universe = _walk_universe(1, 2048, seed=501)
        result = scan(universe, ScanSpec(window=128, roll_step=20, methods=(Method.GHE,)))
        assert len(result.pools[Method.GHE]) == 90

    def test_short_series_yields_zero_observations_one_diagnostic(self):
        universe = _walk_universe(1, 63, seed=502)
        result = scan(universe, ScanSpec(window=32))
        assert all(len(pool) == 0 for pool in result.pools.values())
        assert len(result.diagnostics) == 1
        assert result.diagnostics[0].instrument_id == "W00"

    def test_estimator_failure_is_diagnostic_not_error(self):
        flat = PriceSeries("FLAT", np.arange(64), np.full(64, 5.0))
        result = scan([flat], ScanSpec(window=32, methods=(Method.GHE, Method.DFA, Method.GM2)))
        assert all(len(pool) == 0 for pool in result.pools.values())
        assert len(result.diagnostics) == 3  # one per method at the single position

    def test_empty_universe(self):
        with pytest.raises(EmptyUniverse):
            scan([], ScanSpec(window=32))

    def test_duplicate_instrument_rejected(self):
        universe = _walk_universe(1, 96, seed=504)
        with pytest.raises(DuplicateInstrument) as err:
            scan(universe * 2, ScanSpec(window=32))
        assert err.value.instrument_id == "W00"

    def test_degenerate_rows_inside_a_batch_match_the_one_row_path(self):
        series = _halted_walk()
        values = np.log(series.prices)
        spec = ScanSpec(window=32, roll_step=4)
        result = scan([series], spec)
        observed = {
            (end, method): (h, suspect)
            for method, pool in result.pools.items()
            for end, h, suspect in zip(pool.window_end.tolist(), pool.h.tolist(), pool.suspect.tolist())
        }
        skipped = {(d.window_end, d.method): d.reason for d in result.diagnostics}
        assert len(observed) == sum(map(len, result.pools.values()))
        assert len(skipped) == len(result.diagnostics)
        flat = period_two = 0
        for t in window_end_positions(400, 32, 4):
            window = LogSeries("X", np.arange(t - 31, t + 1), values[t - 31 : t + 1])
            is_flat = t - 31 >= 120 and t < 220
            # linear after its first point: only DFA's detrended profile vanishes
            is_flat_from_day_2 = t - 31 == 336
            is_period_two = t - 31 >= 260 and t < 336
            # DFA detrends window[1:] block by block: at a scale where every
            # block is constant the fluctuation is zero
            signal = window.values[1:]
            dfa_zero = any(
                np.all(blocks == blocks[:, :1])
                for m in default_config(Method.DFA, 32).scales()
                for blocks in [signal[: len(signal) // m * m].reshape(-1, m)]
            )
            flat += is_flat
            period_two += is_period_two
            for method in spec.methods:
                predicted = is_flat or (method is Method.DFA and dfa_zero)
                try:
                    alone = estimate(method, window, spec.configs.get(method))
                except HurstLabError as exc:
                    assert predicted
                    assert skipped[(t, method)] == str(exc)
                    assert (t, method) not in observed
                    continue
                assert not predicted
                assert (t, method) not in skipped
                assert observed[(t, method)] == (alone.h, alone.suspect)
                if is_period_two and method is Method.GHE:
                    assert alone.fit.n_points == 10  # only the odd lags 1..19 survive
            if is_flat:
                assert all((t, method) in skipped for method in spec.methods)
            if is_flat_from_day_2:
                assert (t, Method.DFA) in skipped and (t, Method.GHE) in observed
        assert flat > 0 and period_two > 0

    def test_dfa_window_with_a_halted_coarsest_block_is_skipped(self):
        # in the windows starting on days 192, 196 and 200 (0-based) the halt
        # (days 120-219) covers the one 16-day block of window[1:] but not its
        # last 4-day block; that 16-day block must detrend to exactly 0, not to
        # ~1e-17 and an exponent near -23
        result = scan([_halted_walk()], ScanSpec(window=32, roll_step=4, methods=(Method.DFA,)))
        ends = {d.window_end: d.reason for d in result.diagnostics}
        for start in (192, 196, 200):
            assert ends[start + 31] == "dfa: zero fluctuation at some scale (block-wise linear input)"
        assert len(ends) == 22
        assert result.pools[Method.DFA].h.min() > -2.0

    def test_spec_validation(self):
        # no window floor of its own: GHE fits 16 points, DFA's four dyadic scales do not
        ScanSpec(window=16, methods=(Method.GHE,))
        with pytest.raises(SeriesTooShort, match=r"^dfa: largest block 2\*\*4 does not fit in 15 points$"):
            ScanSpec(window=16)
        with pytest.raises(ValueError):
            ScanSpec(window=32, roll_step=0)
        with pytest.raises(ValueError):
            ScanSpec(window=32, methods=())
        # a method name, or a config no estimator can use, fails here rather than inside scan
        with pytest.raises(ValueError, match="^unknown method 'ghe'$"):
            ScanSpec(window=32, methods=("ghe",))
        with pytest.raises(TypeError, match="^k_min must be an integer, got 2.5$"):
            ScanSpec(window=32, configs={Method.DFA: EstimatorConfig(k_min=2.5, k_max=6)})

    def test_window_and_roll_must_be_integers(self):
        with pytest.raises(TypeError, match="^window must be an integer, got 64.0$"):
            ScanSpec(window=64.0)
        with pytest.raises(TypeError, match="^roll_step must be an integer, got 2.5$"):
            ScanSpec(window=32, roll_step=2.5)
        # numpy integers pass, and are kept as ints, so the spec equals and hashes as its int twin
        spec = ScanSpec(window=np.int64(32), roll_step=np.int32(5))
        assert (type(spec.window), type(spec.roll_step)) == (int, int)
        assert spec == ScanSpec(window=32, roll_step=5) and hash(spec) == hash(ScanSpec(window=32, roll_step=5))

    def test_spec_keeps_the_configs_it_is_given(self):
        tight = EstimatorConfig(tau_max=9)
        # a config for a method the spec does not run is kept but not checked (DFA's k_max=8 needs 258 points)
        configs = {Method.GHE: tight, Method.DFA: tight}
        spec = ScanSpec(window=64, methods=(Method.GM2, Method.GHE), configs=configs)
        configs.clear()
        assert spec.configs == {Method.GHE: tight, Method.DFA: tight}
        assert ScanSpec(window=64).configs == {}
        # a method without a config scans with its default
        universe = _walk_universe(3, 300, seed=5)
        resolved = {Method.GM2: default_config(Method.GM2, 64), Method.GHE: tight}
        assert scan(universe, spec) == scan(universe, replace(spec, configs=resolved))

    def test_equal_specs_hash_equal_and_their_configs_are_read_only(self):
        tight = {Method.GHE: EstimatorConfig(tau_max=9)}
        a = ScanSpec(window=64, methods=(Method.GHE,), configs=tight)
        b = ScanSpec(window=64, methods=[Method.GHE], configs=dict(tight))
        assert a == b and hash(a) == hash(b)
        assert hash(ScanSpec(window=32)) == hash(ScanSpec(window=32)) and hash(replace(a)) == hash(a)
        keyed = {a: "tight", ScanSpec(window=64): "default"}
        assert keyed[b] == "tight" and keyed[ScanSpec(window=64)] == "default" and len({a, b}) == 1
        with pytest.raises(TypeError):
            a.configs[Method.GHE] = EstimatorConfig(tau_max=40)
        assert a.configs[Method.GHE] == tight[Method.GHE] and a.configs.get(Method.DFA) is None
        # read-only, yet a spec still pickles and copies (worker processes receive specs by pickle)
        assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a
        assert hash(pickle.loads(pickle.dumps(a))) == hash(a)

    def test_replaced_window_derives_its_own_defaults(self):
        universe = _walk_universe(4, 1200, seed=9)
        resized = replace(ScanSpec(window=32), window=512)
        assert resized.configs == {}
        ours, theirs = scan(universe, resized), scan(universe, ScanSpec(window=512))
        assert ours == theirs and len(ours.pools[Method.DFA]) == 36
        assert all(ours.pools[m].h.tobytes() == theirs.pools[m].h.tobytes() for m in Method)
        # a given config survives replace and is checked against the new window
        wide = {Method.GHE: EstimatorConfig(tau_max=40)}
        spec = replace(ScanSpec(window=64, methods=(Method.GHE,), configs=wide), window=512)
        assert spec.configs == wide
        assert scan(universe, spec) == scan(universe, ScanSpec(window=512, methods=(Method.GHE,), configs=wide))
        with pytest.raises(SeriesTooShort, match=r"^ghe: need more than tau_max=40 points, got 32$"):
            replace(spec, window=32)

    @pytest.mark.parametrize("method, cfg, error", [
        (Method.GHE, EstimatorConfig(tau_max=40), "ghe: need more than tau_max=40 points, got 32"),
        (Method.GM2, EstimatorConfig(k_min=4, k_max=9), "gm2: largest block 2**9 does not fit in 32 points"),
        (Method.DFA, EstimatorConfig(q=2.0, k_max=5), "dfa: largest block 2**5 does not fit in 31 points"),
    ], ids=["ghe", "gm2", "dfa"])
    def test_spec_that_cannot_fit_its_window_raises_when_built(self, method, cfg, error):
        with pytest.raises(SeriesTooShort) as err:
            ScanSpec(window=32, methods=(method,), configs={method: cfg})
        assert str(err.value) == error

    def test_repeated_method_rejected(self):
        # each method fills one pool, so a repeat has nowhere to go
        with pytest.raises(ValueError):
            ScanSpec(window=32, methods=(Method.GHE, Method.GM2, Method.GHE))

    def test_forward_return_matches_log_price_change(self):
        universe = _walk_universe(1, 96, seed=503)
        values = np.log(universe[0].prices)
        result = scan(universe, ScanSpec(window=32, roll_step=20, methods=(Method.GM2,)))
        pool = result.pools[Method.GM2]
        for t, forward in zip(pool.window_end.tolist(), pool.forward_log_return.tolist()):
            assert forward == pytest.approx(values[t + 32] - values[t], abs=1e-15)


class TestBucketize:
    def test_quintiles_split_uniform_grid_evenly(self):
        indices = bucketize(_grid_pool(100), "quintile")
        counts = {lbl: int((indices == i).sum()) for i, lbl in enumerate(QUINTILE_LABELS)}
        assert counts == {lbl: 20 for lbl in QUINTILE_LABELS}

    def test_quintile_membership_respects_order(self):
        pool = _grid_pool(100)
        indices = bucketize(pool, "quintile")
        ranks = indices[np.argsort(pool.h, kind="stable")].tolist()
        assert ranks == sorted(ranks)

    def test_tail_scheme_isolates_top_five_percent(self):
        pool = _grid_pool(100)
        indices = bucketize(pool, "tail")
        top = sorted(pool.h[indices == TAIL_LABELS.index("p>95")].tolist())
        mid = sorted(pool.h[indices == TAIL_LABELS.index("p90–95")].tolist())
        assert top == [0.95, 0.96, 0.97, 0.98, 0.99]
        assert mid == [0.90, 0.91, 0.92, 0.93, 0.94]
        assert (indices >= 0).sum() == 10  # observations below p90 stay unbucketed (-1)
        assert set(indices.tolist()) == {-1, 0, 1}

    def test_identical_h_all_land_in_top_bucket(self):
        pool = _pool([0.5] * 25)
        assert set(bucketize(pool, "quintile").tolist()) == {QUINTILE_LABELS.index("very high")}
        rep = report(pool)
        assert [row.count for row in rep.rows] == [0, 0, 0, 0, 25]

    def test_too_few_observations(self):
        with pytest.raises(TooFewObservations):
            bucketize(_pool([0.5] * 19), "quintile")
        with pytest.raises(TooFewObservations):
            bucketize(_pool([0.5] * 39), "tail")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            bucketize(_pool([0.5]), "decile")


class TestAnnualize:
    def test_zero_is_exactly_zero(self):
        assert annualize(0.0, 128) == 0.0

    def test_direct_evaluation(self):
        assert annualize(0.01, 32) == pytest.approx(8.1934, abs=5e-4)

    def test_round_trip_thirteen_percent(self):
        mean = math.log(1.13) * 128.0 / 252.0
        assert abs(annualize(mean, 128) - 13.0) <= 1e-9

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            annualize(0.01, 0)

    def test_overflow_is_a_hurstlab_error(self):
        with pytest.raises(HurstLabError, match="annualizing mean log return 111 per 32 days overflows"):
            annualize(111.0, 32)


class TestReport:
    def test_zero_returns_give_zero_rows(self):
        rep = report(_grid_pool(100))
        assert all(row.annualized_return == 0.0 for row in rep.rows)
        assert rep.benchmark_row.annualized_return == 0.0
        assert rep.benchmark_row.label == ANY_LABEL

    def test_counts_partition_into_any(self):
        rep = report(_grid_pool(100))
        assert sum(row.count for row in rep.rows) == rep.benchmark_row.count == 100
        assert [row.count for row in rep.rows] == [20] * 5

    def test_benchmark_matches_weighted_bucket_means(self):
        fwd_by_bucket = [0.00, 0.01, 0.02, 0.03, 0.05]
        rep = report(_grid_pool(100, fwd_by_bucket))
        # invert annualization back to mean log returns, then weight by counts
        inverted = [
            math.log(1.0 + row.annualized_return / 100.0) * 128.0 / 252.0 for row in rep.rows
        ]
        weighted = sum(m * row.count for m, row in zip(inverted, rep.rows)) / 100.0
        any_mean = math.log(1.0 + rep.benchmark_row.annualized_return / 100.0) * 128.0 / 252.0
        assert weighted == pytest.approx(any_mean, rel=1e-12)

    def test_rows_follow_bucket_means(self):
        fwd_by_bucket = [0.00, 0.01, 0.02, 0.03, 0.05]
        rep = report(_grid_pool(100, fwd_by_bucket))
        expected = [annualize(f, 128) for f in fwd_by_bucket]
        assert [row.annualized_return for row in rep.rows] == pytest.approx(expected, rel=1e-12)

    def test_tail_report_shape(self):
        rep = report(_grid_pool(100), scheme="tail")
        assert [row.label for row in rep.rows] == list(TAIL_LABELS)
        assert [row.count for row in rep.rows] == [5, 5]
        assert rep.benchmark_row.count == 100


class TestDeterminismAndInvariance:
    def test_permuted_universe_gives_bit_identical_results(self):
        universe = _walk_universe(6, 224, seed=600)
        spec = ScanSpec(window=64, roll_step=20, methods=(Method.GHE, Method.GM2))
        forward = scan(universe, spec)
        backward = scan(list(reversed(universe)), spec)
        assert forward.pools == backward.pools
        for method in spec.methods:
            assert report(forward.pools[method]) == report(backward.pools[method])

    def test_rescaled_prices_leave_reports_stable(self):
        universe = _walk_universe(6, 224, seed=601)
        doubled = [
            PriceSeries(s.instrument_id, s.dates, s.prices * 2.0) for s in universe
        ]
        spec = ScanSpec(window=64, roll_step=20, methods=(Method.GHE, Method.DFA, Method.GM2))
        base = scan(universe, spec)
        scaled = scan(doubled, spec)
        for method in spec.methods:
            a, b = base.pools[method], scaled.pools[method]
            assert np.array_equal(a.window_end, b.window_end)
            assert b.forward_log_return == pytest.approx(a.forward_log_return, abs=1e-12)
            tol = 1e-9 if method is Method.GHE else 1e-12
            assert b.h == pytest.approx(a.h, abs=tol)
        for method in (Method.DFA, Method.GM2):
            assert render_method_table([report(base.pools[method])]) == render_method_table(
                [report(scaled.pools[method])]
            )

    def test_scan_is_deterministic(self):
        universe = _walk_universe(3, 224, seed=602)
        spec = ScanSpec(window=64, roll_step=20)
        assert scan(universe, spec) == scan(universe, spec)


class TestColumnarScanOracle:
    # rolls below the window overlap the rows; 64 makes them abut and 77 leaves gaps
    @pytest.mark.parametrize("roll_step", [1, 7, 64, 77])
    def test_every_window_end_matches_the_one_row_estimate(self, roll_step):
        result = self._check(self._universe(), ScanSpec(window=64, roll_step=roll_step))
        # MIKE's halt (days 40-149) holds a whole window at every roll but 77, whose one MIKE window ends on day 63
        assert any(d.method is not None for d in result.diagnostics) == (roll_step != 77)

    @pytest.mark.parametrize("roll_step", [1, 7, 64, 77])
    def test_raw_mode_dfa_matches_the_one_row_dfa(self, roll_step):
        universe, raw = self._universe(), default_config(Method.DFA, 64, DFA_MODE_RAW)
        result = self._check(universe, ScanSpec(window=64, roll_step=roll_step, configs={Method.DFA: raw}))
        assert any(d.method is not None for d in result.diagnostics) == (roll_step != 77)
        profile = scan(universe, ScanSpec(window=64, roll_step=roll_step))
        assert result.pools[Method.DFA].h.tolist() != profile.pools[Method.DFA].h.tolist()

    # a budget that flushes every two or three instruments, and the real one, which flushes
    # once the 3,200-day members fill it; roll 63 overlaps the windows, 64 abuts them and 80 leaves gaps
    @pytest.mark.parametrize("budget", [7000, pipeline._BATCH_POINTS], ids=["small", "real"])
    @pytest.mark.parametrize("window, roll_step", [(64, 63), (64, 64), (64, 80)])
    def test_batches_of_instruments_match_the_one_row_estimates(self, monkeypatch, budget, window, roll_step):
        universe = self._batch_universe()
        monkeypatch.setattr(pipeline, "_BATCH_POINTS", budget)
        calls, fits = self._record_calls(monkeypatch)
        spec = ScanSpec(window=window, roll_step=roll_step)
        result = self._check(universe, spec)
        views = []  # each scanned series' windows, in id order
        for series in sorted(universe, key=lambda s: s.instrument_id):
            if len(series) >= 2 * window:
                count = len(window_end_positions(len(series), window, roll_step))
                views.append(sliding_window_view(np.log(series.prices), window)[::roll_step][:count])
        rows = [len(view) for view in views]
        bounds, next_rows = set(np.cumsum(rows).tolist()), dict(zip(np.cumsum(rows).tolist(), rows[1:]))
        # DFA and GM2 each read whole instruments, in id order, within the budget unless a call holds one
        for method in (Method.DFA, Method.GM2):
            read = [w for m, w in calls if m is method]
            calls_rows = [len(w) for w in read]
            assert np.array_equal(np.concatenate(read), np.concatenate(views))
            assert set(np.cumsum(calls_rows).tolist()) <= bounds
            assert all(n * window <= budget or n in rows for n in calls_rows)
            # a batch ends only where the next instrument would take it past the budget
            ends = np.cumsum(calls_rows)[:-1]
            assert all((n + next_rows[end]) * window > budget for n, end in zip(calls_rows, ends))
            assert 1 < len(calls_rows) < len(rows)  # flushed in the middle of the universe
        # each batch is fitted where its statistics are made: once per method, in spec order
        batch_rows = [len(w) for m, w in calls if m is Method.DFA]
        assert fits == [(method, n) for n in batch_rows for method in spec.methods]
        ghe_read = [w for m, w in calls if m is Method.GHE]
        if roll_step < window:  # one view per series, which GHE reads in place
            assert [len(w) for w in ghe_read] == rows and not any(w.flags.owndata for w in ghe_read)
        else:  # the same joined matrices as DFA and GM2
            assert [len(w) for w in ghe_read] == [len(w) for m, w in calls if m is Method.DFA]
        assert sum(d.window_end is None for d in result.diagnostics) == 8
        assert sum(d.method is not None for d in result.diagnostics) > 0

    def test_overlapping_windows_keep_one_call_per_instrument(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_BATCH_POINTS", 10**9)
        calls, _ = self._record_calls(monkeypatch)
        scan(self._universe(), ScanSpec(window=64, roll_step=63))
        # ALPHA, MIKE and ZULU (SHORT is too short), each as a view of its own series, which GHE reads in place;
        # DFA and GM2 read all eight windows joined into one matrix
        assert [len(w) for m, w in calls if m is Method.GHE] == [3, 2, 3]
        assert not any(w.flags.owndata for m, w in calls if m is Method.GHE)
        for method in (Method.DFA, Method.GM2):
            assert [(len(w), w.flags.c_contiguous) for m, w in calls if m is method] == [(8, True)]

    @staticmethod
    def _record_calls(monkeypatch):
        """Record the (method, windows) of every ``statistic`` call ``scan`` makes, and the (method, rows)
        of every ``fit_statistic`` call."""
        calls, fits = [], []

        def recording(method, windows, cfg):
            calls.append((method, windows))
            return statistic(method, windows, cfg)

        def fitting(method, stat, cfg):
            fits.append((method, len(stat)))
            return fit_statistic(method, stat, cfg)

        monkeypatch.setattr(pipeline, "statistic", recording)
        monkeypatch.setattr(pipeline, "fit_statistic", fitting)
        return calls, fits

    @staticmethod
    def _batch_universe():
        """40 instruments, given out of order: short series at the ends and in runs of one and
        two, and halts that cover an instrument's first, middle or last windows."""
        rng = np.random.Generator(np.random.PCG64(23))
        universe = []
        for i in range(40):
            length = 90 if i in (0, 5, 11, 12, 20, 21, 29, 39) else 3200 - 13 * (i % 6)
            prices = np.exp(2.0 + np.cumsum(rng.normal(0.0, 0.01, length)))
            halt = {1: slice(0, 300), 2: slice(1200, 1500), 3: slice(length - 300, length)}.get(i % 4)
            if halt is not None and length > 90:
                prices[halt] = prices[halt][0]
            universe.append(PriceSeries(f"I{i:02d}", 1000 + 3 * np.arange(length), prices))
        return universe[::-1]

    @staticmethod
    def _universe():
        # ids given out of order; one series too short for the window; a
        # halted stretch; trading-day dates that start at 1000 and step by 3
        rng = np.random.Generator(np.random.PCG64(11))
        universe = []
        for name, length in (("ZULU", 260), ("ALPHA", 300), ("SHORT", 120), ("MIKE", 200)):
            prices = np.exp(2.0 + np.cumsum(rng.normal(0.0, 0.01, length)))
            if name == "MIKE":
                prices[40:150] = prices[40]
            universe.append(PriceSeries(name, 1000 + 3 * np.arange(length), prices))
        return universe

    @staticmethod
    def _check(universe, spec):
        """Scan with ``spec`` and compare every row with its one-row ``ghe``, ``dfa`` or ``gm2``."""
        result = scan(universe, spec)
        window, roll_step = spec.window, spec.roll_step
        one_row = {Method.GHE: ghe, Method.DFA: dfa, Method.GM2: gm2}

        expected = {method: [] for method in spec.methods}
        diagnostics = []
        for series in sorted(universe, key=lambda s: s.instrument_id):
            values = np.log(series.prices)
            if len(values) < 2 * window:
                reason = f"series of {len(values)} points is shorter than 2*window={2 * window}"
                diagnostics.append(Diagnostic(series.instrument_id, None, None, reason))
                continue
            for t in window_end_positions(len(values), window, roll_step):
                span = slice(t - window + 1, t + 1)
                trailing = LogSeries(series.instrument_id, series.dates[span], values[span])
                for method in spec.methods:
                    end = int(series.dates[t])
                    try:
                        alone = one_row[method](trailing, spec.configs.get(method))
                    except HurstLabError as exc:
                        diagnostics.append(Diagnostic(series.instrument_id, end, method, str(exc)))
                        continue
                    forward = values[t + window] - values[t]
                    expected[method].append((series.instrument_id, end, alone.h, alone.suspect, forward))

        assert list(result.diagnostics) == diagnostics
        for method, rows in expected.items():
            pool = result.pools[method]
            assert (pool.window, pool.method) == (window, method)
            found = list(zip(
                pool.instrument_id.tolist(), pool.window_end.tolist(), pool.h.tolist(), pool.suspect.tolist(),
                pool.forward_log_return.tolist(),
            ))
            assert found == rows  # exact: h bit for bit, in canonical order
            assert all(isinstance(end, int) and (end - 1000) % 3 == 0 for _, end, *_ in found)
        return result


def _random_walks(seed, n_series, length):
    rng = np.random.Generator(np.random.PCG64(seed))
    return [
        PriceSeries(f"P{i}", np.arange(length), np.exp(3.0 + np.cumsum(rng.normal(0.0, 0.01, length))))
        for i in range(n_series)
    ]


def _pool_texts(result):
    texts = {}
    for method, pool in result.pools.items():
        texts[method] = [observations_csv(pool)]
        for scheme in ("quintile", "tail"):
            try:
                rep = report(pool, scheme=scheme)
            except TooFewObservations as exc:
                texts[method].append(str(exc))
                continue
            texts[method] += [render_method_table([rep]), report_csv(rep)]
    return texts


class TestPoolProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_series=st.integers(1, 6),
        length=st.integers(64, 320),
        roll=st.integers(1, 25),
        data=st.data(),
    )
    def test_permuted_universe_writes_identical_bytes(self, seed, n_series, length, roll, data):
        universe = _random_walks(seed, n_series, length)
        permuted = data.draw(st.permutations(universe))
        spec = ScanSpec(window=32, roll_step=roll)
        assert _pool_texts(scan(universe, spec)) == _pool_texts(scan(permuted, spec))

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_series=st.integers(1, 4),
        length=st.integers(128, 320),
        factor=st.floats(1e-3, 1e3),
    )
    def test_rescaled_prices_move_each_h_by_at_most_1e_9(self, seed, n_series, length, factor):
        universe = _random_walks(seed, n_series, length)
        rescaled = [PriceSeries(s.instrument_id, s.dates, s.prices * factor) for s in universe]
        spec = ScanSpec(window=64, roll_step=10)
        base, scaled = scan(universe, spec), scan(rescaled, spec)
        for method in spec.methods:
            a, b = base.pools[method], scaled.pools[method]
            assert np.array_equal(a.instrument_id, b.instrument_id) and np.array_equal(a.window_end, b.window_end)
            assert np.max(np.abs(a.h - b.h), initial=0.0) <= 1e-9

    @settings(max_examples=30, deadline=None)
    # a budget under two instruments' rows: three batches of one 161-row instrument each, each fitted alone
    @example(seed=5, lengths=[200, 200, 200], window=20, roll_step=1, budget=4000)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.integers(30, 400), min_size=1, max_size=8),
        window=st.sampled_from([20, 32, 48]),
        roll_step=st.integers(1, 88),
        budget=st.integers(1, 4000),
    )
    def test_merged_scan_joins_the_per_instrument_scans(self, seed, lengths, window, roll_step, budget):
        # short series, halts, overlapping or disjoint windows, and batches of any size, each fitted as
        # one statistic matrix: merging changes no row and no skip
        rng = np.random.Generator(np.random.PCG64(seed))
        universe = []
        for i, length in enumerate(lengths):
            prices = np.exp(3.0 + np.cumsum(rng.normal(0.0, 0.01, length)))
            if rng.random() < 0.4:
                start = int(rng.integers(0, length))
                prices[start : start + int(rng.integers(1, 2 * window))] = prices[start]
            universe.append(PriceSeries(f"S{i}", np.arange(length), prices))
        spec = ScanSpec(window=window, roll_step=roll_step)
        with mock.patch.object(pipeline, "_BATCH_POINTS", budget):
            merged = scan(universe, spec)
        alone = [scan([series], spec) for series in universe]
        assert merged.diagnostics == sum((result.diagnostics for result in alone), ())
        columns = ("instrument_id", "window_end", "h", "forward_log_return")
        for method in spec.methods:
            parts = [result.pools[method] for result in alone]
            joined = [np.concatenate([getattr(part, column) for part in parts]) for column in columns]
            assert merged.pools[method] == ObservationPool(window, method, *joined)
            assert merged.pools[method].h.tobytes() == joined[2].tobytes()

    # is_suspect's band edges and the values either side of them
    H_EDGES = [
        0.0, -0.0, 2.0, float(np.nextafter(0.0, 1.0)), float(np.nextafter(2.0, 0.0)), -0.3, -23.7, 2.5, 1e300,
    ]

    @settings(max_examples=50, deadline=None)
    @example(hs=H_EDGES)
    @given(hs=st.lists(st.one_of(st.sampled_from(H_EDGES), st.floats()), max_size=20))
    def test_suspect_is_is_suspect_row_by_row(self, hs):
        assert _pool(hs).suspect.tolist() == [is_suspect(h) for h in hs]

    def test_pools_compare_column_by_column(self):
        pool = _pool(self.H_EDGES, fwds=np.linspace(-0.1, 0.1, len(self.H_EDGES)))
        assert pool == _pool(self.H_EDGES, fwds=np.linspace(-0.1, 0.1, len(self.H_EDGES)))
        for i in range(len(pool)):
            h = pool.h.copy()
            h[i] = np.nextafter(h[i], np.inf)
            assert replace(pool, h=h) != pool
        forward = pool.forward_log_return.copy()
        forward[3] = np.nextafter(forward[3], np.inf)
        assert replace(pool, forward_log_return=forward) != pool
        assert replace(pool, window=64) != pool and replace(pool, method=Method.DFA) != pool
        assert pool.select(np.arange(len(pool)) != 4) != pool
