import math

import numpy as np
import pytest

from hurstlab import (
    ANY_LABEL,
    DuplicateInstrument,
    EmptyUniverse,
    FbmSpec,
    HurstLabError,
    LogSeries,
    Method,
    Observation,
    PriceSeries,
    QUINTILE_LABELS,
    ScanSpec,
    TAIL_LABELS,
    TooFewObservations,
    annualize,
    bucketize,
    estimate,
    generate_fbm,
    report,
    scan,
)
from hurstlab.pipeline import window_end_positions
from hurstlab.reporting import render_report_table


def _walk_universe(n_series, length, seed, scale=0.01):
    universe = []
    for i in range(n_series):
        path = generate_fbm(FbmSpec(h=0.5, length=length, seed=seed + i, scale=scale))
        universe.append(PriceSeries(f"W{i:02d}", np.arange(length), np.exp(path.values)))
    return universe


def _obs(h, fwd=0.0, i=0, method=Method.GHE, window=128):
    return Observation(
        instrument_id=f"I{i:04d}",
        window_end=window - 1 + 20 * i,
        method=method,
        h=float(h),
        suspect=not (0.0 < h < 2.0),
        forward_log_return=float(fwd),
        forward_days=window,
    )


def _grid_observations(n=100, fwd_by_bucket=None, method=Method.GHE, window=128):
    out = []
    for i in range(n):
        bucket = i * 5 // n
        fwd = 0.0 if fwd_by_bucket is None else fwd_by_bucket[bucket]
        out.append(_obs(h=i / n, fwd=fwd, i=i, method=method, window=window))
    return out


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
        per_method = {m: [o for o in result.observations if o.method is m] for m in Method}
        assert all(len(v) == 1 for v in per_method.values())
        assert all(o.forward_days == 32 for o in result.observations)

    def test_ninety_observations_per_method(self):
        universe = _walk_universe(1, 2048, seed=501)
        result = scan(universe, ScanSpec(window=128, roll_step=20, methods=(Method.GHE,)))
        assert len(result.observations) == 90

    def test_short_series_yields_zero_observations_one_diagnostic(self):
        universe = _walk_universe(1, 63, seed=502)
        result = scan(universe, ScanSpec(window=32))
        assert result.observations == ()
        assert len(result.diagnostics) == 1
        assert result.diagnostics[0].instrument_id == "W00"

    def test_estimator_failure_is_diagnostic_not_error(self):
        flat = PriceSeries("FLAT", np.arange(64), np.full(64, 5.0))
        result = scan([flat], ScanSpec(window=32, methods=(Method.GHE, Method.DFA, Method.GM2)))
        assert result.observations == ()
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
        # a random walk with a halted (flat) stretch and a stretch whose log
        # prices alternate between two values
        rng = np.random.Generator(np.random.PCG64(7))
        prices = np.exp(3.0 + np.cumsum(rng.normal(0.0, 0.01, 400)))
        prices[120:220] = prices[120]
        prices[260:360] = np.where(np.arange(100) % 2 == 0, 7.0, 8.0)
        values = np.log(prices)
        spec = ScanSpec(window=32, roll_step=4)
        result = scan([PriceSeries("X", np.arange(400), prices)], spec)
        observed = {(o.window_end, o.method): o for o in result.observations}
        skipped = {(d.window_end, d.method): d.reason for d in result.diagnostics}
        assert len(observed) == len(result.observations) and len(skipped) == len(result.diagnostics)
        flat = period_two = 0
        for t in window_end_positions(400, 32, 4):
            window = LogSeries("X", np.arange(t - 31, t + 1), values[t - 31 : t + 1])
            is_flat = t - 31 >= 120 and t < 220
            is_period_two = t - 31 >= 260 and t < 360
            flat += is_flat
            period_two += is_period_two
            for method in spec.methods:
                try:
                    alone = estimate(method, window, spec.config_for(method))
                except HurstLabError as exc:
                    assert is_flat
                    assert skipped[(t, method)] == str(exc)
                    assert (t, method) not in observed
                    continue
                assert (t, method) not in skipped
                assert observed[(t, method)].h == alone.h
                assert observed[(t, method)].suspect == alone.suspect
                if is_period_two and method is Method.GHE:
                    assert alone.fit.n_points == 10  # only the odd lags 1..19 survive
            if is_flat:
                assert all((t, method) in skipped for method in spec.methods)
        assert flat > 0 and period_two > 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ScanSpec(window=16)
        with pytest.raises(ValueError):
            ScanSpec(window=32, roll_step=0)
        with pytest.raises(ValueError):
            ScanSpec(window=32, methods=())

    def test_forward_return_matches_log_price_change(self):
        universe = _walk_universe(1, 96, seed=503)
        values = np.log(universe[0].prices)
        result = scan(universe, ScanSpec(window=32, roll_step=20, methods=(Method.GM2,)))
        for obs in result.observations:
            t = obs.window_end
            assert obs.forward_log_return == pytest.approx(values[t + 32] - values[t], abs=1e-15)


class TestBucketize:
    def test_quintiles_split_uniform_grid_evenly(self):
        obs = _grid_observations(100)
        labels = bucketize(obs, "quintile")
        counts = {lbl: 0 for lbl in QUINTILE_LABELS}
        for o in obs:
            counts[labels[o]] += 1
        assert counts == {lbl: 20 for lbl in QUINTILE_LABELS}

    def test_quintile_membership_respects_order(self):
        obs = _grid_observations(100)
        labels = bucketize(obs, "quintile")
        rank = {lbl: i for i, lbl in enumerate(QUINTILE_LABELS)}
        ordered = sorted(obs, key=lambda o: o.h)
        ranks = [rank[labels[o]] for o in ordered]
        assert ranks == sorted(ranks)

    def test_tail_scheme_isolates_top_five_percent(self):
        obs = _grid_observations(100)
        labels = bucketize(obs, "tail")
        top = sorted(o.h for o, lbl in labels.items() if lbl == TAIL_LABELS[1])
        mid = sorted(o.h for o, lbl in labels.items() if lbl == TAIL_LABELS[0])
        assert top == [0.95, 0.96, 0.97, 0.98, 0.99]
        assert mid == [0.90, 0.91, 0.92, 0.93, 0.94]
        assert len(labels) == 10  # observations below p90 stay unlabeled

    def test_identical_h_all_land_in_top_bucket(self):
        obs = [_obs(h=0.5, i=i) for i in range(25)]
        labels = bucketize(obs, "quintile")
        assert set(labels.values()) == {QUINTILE_LABELS[-1]}
        rep = report(obs, 128, Method.GHE)
        assert rep.degenerate
        assert rep.rows[-1].count == 25

    def test_too_few_observations(self):
        with pytest.raises(TooFewObservations):
            bucketize([_obs(0.5, i=i) for i in range(19)], "quintile")
        with pytest.raises(TooFewObservations):
            bucketize([_obs(0.5, i=i) for i in range(39)], "tail")

    def test_mixed_pool_rejected(self):
        obs = [_obs(0.5, i=0, method=Method.GHE), _obs(0.5, i=1, method=Method.GM2)]
        with pytest.raises(ValueError):
            bucketize(obs * 15, "quintile")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            bucketize([_obs(0.5)], "decile")


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


class TestReport:
    def test_zero_returns_give_zero_rows(self):
        rep = report(_grid_observations(100), 128, Method.GHE)
        assert all(row.annualized_return == 0.0 for row in rep.rows)
        assert rep.benchmark_row.annualized_return == 0.0
        assert rep.benchmark_row.label == ANY_LABEL

    def test_counts_partition_into_any(self):
        rep = report(_grid_observations(100), 128, Method.GHE)
        assert sum(row.count for row in rep.rows) == rep.benchmark_row.count == 100
        assert not rep.degenerate

    def test_benchmark_matches_weighted_bucket_means(self):
        fwd_by_bucket = [0.00, 0.01, 0.02, 0.03, 0.05]
        obs = _grid_observations(100, fwd_by_bucket)
        rep = report(obs, 128, Method.GHE)
        # invert annualization back to mean log returns, then weight by counts
        inverted = [
            math.log(1.0 + row.annualized_return / 100.0) * 128.0 / 252.0 for row in rep.rows
        ]
        weighted = sum(m * row.count for m, row in zip(inverted, rep.rows)) / 100.0
        any_mean = math.log(1.0 + rep.benchmark_row.annualized_return / 100.0) * 128.0 / 252.0
        assert weighted == pytest.approx(any_mean, rel=1e-12)

    def test_rows_follow_bucket_means(self):
        fwd_by_bucket = [0.00, 0.01, 0.02, 0.03, 0.05]
        rep = report(_grid_observations(100, fwd_by_bucket), 128, Method.GHE)
        expected = [annualize(f, 128) for f in fwd_by_bucket]
        assert [row.annualized_return for row in rep.rows] == pytest.approx(expected, rel=1e-12)

    def test_tail_report_shape(self):
        rep = report(_grid_observations(100), 128, Method.GHE, scheme="tail")
        assert [row.label for row in rep.rows] == list(TAIL_LABELS)
        assert [row.count for row in rep.rows] == [5, 5]
        assert rep.benchmark_row.count == 100

    def test_group_mismatch_rejected(self):
        with pytest.raises(ValueError):
            report(_grid_observations(25), 64, Method.GHE)
        with pytest.raises(ValueError):
            report(_grid_observations(25), 128, Method.DFA)


class TestDeterminismAndInvariance:
    def test_permuted_universe_gives_bit_identical_results(self):
        universe = _walk_universe(6, 224, seed=600)
        spec = ScanSpec(window=64, roll_step=20, methods=(Method.GHE, Method.GM2))
        forward = scan(universe, spec)
        backward = scan(list(reversed(universe)), spec)
        assert forward.observations == backward.observations
        for method in spec.methods:
            a = report(forward.for_group(64, method), 64, method)
            b = report(backward.for_group(64, method), 64, method)
            assert a == b

    def test_rescaled_prices_leave_reports_stable(self):
        universe = _walk_universe(6, 224, seed=601)
        doubled = [
            PriceSeries(s.instrument_id, s.dates, s.prices * 2.0) for s in universe
        ]
        spec = ScanSpec(window=64, roll_step=20, methods=(Method.GHE, Method.DFA, Method.GM2))
        base = scan(universe, spec)
        scaled = scan(doubled, spec)
        for a, b in zip(base.observations, scaled.observations):
            assert b.forward_log_return == pytest.approx(a.forward_log_return, abs=1e-12)
            tol = 1e-9 if a.method is Method.GHE else 1e-12
            assert b.h == pytest.approx(a.h, abs=tol)
        for method in (Method.DFA, Method.GM2):
            a = render_report_table(report(base.for_group(64, method), 64, method))
            b = render_report_table(report(scaled.for_group(64, method), 64, method))
            assert a == b

    def test_scan_is_deterministic(self):
        universe = _walk_universe(3, 224, seed=602)
        spec = ScanSpec(window=64, roll_step=20)
        assert scan(universe, spec) == scan(universe, spec)
