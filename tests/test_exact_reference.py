"""Estimated exponents agree with the definitions in ``exact_reference`` to 1e-12, and reports bit for bit."""

from dataclasses import replace

import numpy as np
import pytest

import exact_reference as ref
from hurstlab import (
    DFA_MODE_PROFILE,
    DFA_MODE_RAW,
    DegenerateRegression,
    FbmSpec,
    LogSeries,
    Method,
    ObservationPool,
    ScanSpec,
    bucketize,
    default_config,
    dfa,
    generate_drifted_cohort,
    generate_fbm,
    ghe,
    gm2,
    report,
    scan,
)
from hurstlab import cli
from test_estimators import PERIODIC, _periodic_log_prices
from test_trees import make_trees
from test_pipeline import _halted_walk

TOLERANCE = 1e-12


def _series(values):
    values = np.asarray(values, dtype=float)
    return LogSeries("X", np.arange(len(values)), values)


def _pool_rows(method, windows, seed, dfa_mode=DFA_MODE_PROFILE):
    """20 seeded rows of each ``method`` pool of a 6 x 400 scan, as (window, h, the window's log prices)."""
    drift = {0.3: 0.0, 0.5: 0.0002, 0.7: 0.0004}
    universe = generate_drifted_cohort(6, 400, tuple(drift), drift, seed=0, scale=0.005)
    log_prices = {series.instrument_id: np.log(series.prices) for series in universe}
    rng = np.random.Generator(np.random.PCG64(seed))
    for window in windows:
        cfg = default_config(method, window, dfa_mode=dfa_mode)
        pool = scan(universe, ScanSpec(window=window, methods=(method,), configs={method: cfg})).pools[method]
        for i in rng.choice(len(pool), size=20, replace=False).tolist():
            end = int(pool.window_end[i])
            yield window, pool.h[i], log_prices[pool.instrument_id[i]][end - window + 1 : end + 1]


@pytest.mark.parametrize("length", [17, 64, 100, 512, 8192])
def test_reference_block_sizes_are_the_estimator_defaults(length):
    assert ref.gm2_block_sizes(length) == list(default_config(Method.GM2, length).scales())


@pytest.mark.parametrize("length", [64, 512, 8192])
@pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
def test_gm2_agrees_with_the_exact_reference_on_fbm(h, length):
    for seed in range(4):
        values = generate_fbm(FbmSpec(h=h, length=length, seed=31_000 + seed)).values
        assert abs(gm2(_series(values)).h - ref.gm2(values)) <= TOLERANCE, seed


def test_gm2_agrees_with_the_exact_reference_on_halted_rows():
    walk = np.cumsum(np.random.Generator(np.random.PCG64(7)).standard_normal(64))
    halted = np.r_[walk[:16], np.full(48, walk[15])]  # constant blocks, but every scale has a range
    assert abs(gm2(_series(halted)).h - ref.gm2(halted)) <= TOLERANCE
    # a constant row, and a step row constant within every smallest (4-point) block
    for degenerate in (np.full(64, 2.0), np.repeat(walk[:16], 4)):
        with pytest.raises(DegenerateRegression):
            gm2(_series(degenerate))
        with pytest.raises(DegenerateRegression):
            ref.gm2(degenerate)


def test_gm2_pools_of_a_scan_agree_with_the_exact_reference():
    # the batched path meets the reference too
    for window, h, values in _pool_rows(Method.GM2, (32, 64, 128), seed=21):
        assert abs(h - ref.gm2(values)) <= TOLERANCE, (window, h)


def _fbm_prefix(h, length, seed):
    """The first ``length`` points of a seeded fBm path (paths are made at 8 points or more)."""
    return generate_fbm(FbmSpec(h=h, length=max(length, 8), seed=seed)).values[:length]


@pytest.mark.parametrize("length", [3, 5, 17, 20, 21, 64, 512])
def test_reference_lags_are_the_estimator_defaults(length):
    assert ref.ghe_tau_max(length) == default_config(Method.GHE, length).tau_max


@pytest.mark.parametrize("length", [5, 17, 32, 64, 512])
@pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
def test_ghe_agrees_with_the_exact_reference_on_fbm(h, length):
    for seed in range(2):
        values = _fbm_prefix(h, length, 32_000 + seed)
        assert abs(ghe(_series(values)).h - ref.ghe(values)) <= TOLERANCE, seed


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("length", [17, 64, 512])
def test_ghe_agrees_with_the_exact_reference_at_every_moment_order(q, length):
    cfg = replace(default_config(Method.GHE, length), q=q)
    for h in (0.3, 0.7):
        values = _fbm_prefix(h, length, 33_000)
        assert abs(ghe(_series(values), cfg).h - ref.ghe(values, q)) <= TOLERANCE, h


def test_ghe_agrees_with_the_exact_reference_on_degenerate_rows():
    # a period-2 row: every even lag's moment is zero and is dropped, the odd lags fit a flat line
    period2 = np.tile([1.0, 1.5], 32)
    assert abs(ghe(_series(period2)).h - ref.ghe(period2)) <= TOLERANCE
    constant = np.full(64, 2.0)
    with pytest.raises(DegenerateRegression):
        ghe(_series(constant))
    with pytest.raises(DegenerateRegression):
        ref.ghe(constant)


@pytest.mark.parametrize("period, length", PERIODIC)
def test_ghe_agrees_with_the_exact_reference_on_periodic_rows(period, length):
    # every lag that is a multiple of the period has a zero moment and is dropped
    values = _periodic_log_prices(period, length)
    assert abs(ghe(_series(values)).h - ref.ghe(values)) <= TOLERANCE


def test_ghe_pools_of_a_scan_agree_with_the_exact_reference():
    # the batched path meets the reference too
    for window, h, values in _pool_rows(Method.GHE, (32, 64, 128), seed=22):
        assert abs(h - ref.ghe(values)) <= TOLERANCE, (window, h)


@pytest.mark.parametrize("length", [32, 33, 64, 100, 512, 8192])
def test_reference_dfa_scales_are_the_estimator_defaults(length):
    for mode in (DFA_MODE_PROFILE, DFA_MODE_RAW):
        assert ref.dfa_scales(length) == list(default_config(Method.DFA, length, dfa_mode=mode).scales())


@pytest.mark.parametrize("length", [64, 512])
@pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
def test_dfa_agrees_with_the_exact_reference_on_fbm(h, length):
    values = generate_fbm(FbmSpec(h=h, length=length, seed=34_000)).values
    for mode in (DFA_MODE_PROFILE, DFA_MODE_RAW):
        residuals = ref.dfa_block_residuals(values, mode)  # exact and slow, so shared by every q
        for q in (0.5, 1.0, 2.0, 3.0):
            cfg = replace(default_config(Method.DFA, length, dfa_mode=mode), q=q)
            assert abs(dfa(_series(values), cfg).h - ref.dfa_from_residuals(residuals, q)) <= TOLERANCE, (mode, q)


def test_dfa_agrees_with_the_exact_reference_on_degenerate_rows():
    values = np.log(_halted_walk().prices)
    # the halt (days 120-219) covers the one 16-point profile block of the windows starting on
    # days 192, 196 and 200, which is then exactly linear; from day 204 on that block leaves the halt
    for start in (192, 196, 200):
        window = values[start : start + 32]
        with pytest.raises(DegenerateRegression):
            dfa(_series(window))
        with pytest.raises(DegenerateRegression):
            ref.dfa(window)
    partly_halted = values[204 : 204 + 32]  # its first 4- and 8-point profile blocks are still exactly linear
    assert abs(dfa(_series(partly_halted)).h - ref.dfa(partly_halted)) <= TOLERANCE
    constant = np.full(64, 2.0)
    for mode in (DFA_MODE_PROFILE, DFA_MODE_RAW):
        with pytest.raises(DegenerateRegression):
            dfa(_series(constant), default_config(Method.DFA, 64, dfa_mode=mode))
        with pytest.raises(DegenerateRegression):
            ref.dfa(constant, mode=mode)


def test_dfa_pools_of_a_scan_agree_with_the_exact_reference():
    # the batched path meets the reference too, in both modes
    for windows, seed, mode in (((32, 64, 128), 23, DFA_MODE_PROFILE), ((64,), 24, DFA_MODE_RAW)):
        for window, h, values in _pool_rows(Method.DFA, windows, seed, mode):
            assert abs(h - ref.dfa(values, mode=mode)) <= TOLERANCE, (mode, window, h)


def _run_reports(name, scratch):
    """Every (pool, scheme, report) of the pinned run ``name``, as the CLI computed them."""
    made = []

    def recording(pool, scheme="quintile"):
        made.append((pool, scheme, report(pool, scheme)))
        return made[-1][2]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "report", recording)
        make_trees.run_tree(name, scratch)
    return made


@pytest.fixture(scope="module")
def default_run_reports(tmp_path_factory):
    return _run_reports("default", tmp_path_factory.mktemp("run"))


def _report_rows(rep):
    """(count, repr of the annualized return) of each bucket row, then of the "any" row."""
    return [(row.count, repr(row.annualized_return)) for row in rep.rows]


def _assert_report_is_exact(pool, scheme, rep):
    h = pool.h.tolist()
    thresholds, expected = ref.buckets(h, scheme)
    index = bucketize(pool, scheme).tolist()
    # a row between numpy's float threshold and the exact one is reported with both
    moved = [(h[i], index[i], expected[i]) for i in range(len(h)) if index[i] != expected[i]]
    numpy_thresholds = np.percentile(pool.h, ref.PERCENTILES[scheme]).tolist()
    assert not moved, (pool.window, pool.method, scheme, moved[:5], numpy_thresholds, list(map(float, thresholds)))
    exact = ref.report(expected, pool.forward_log_return.tolist(), pool.window, scheme)
    assert _report_rows(rep) == [(count, repr(value)) for count, value in exact], (pool.window, pool.method, scheme)


def test_every_report_of_the_default_run_equals_the_exact_reference(default_run_reports):
    # counts, each row's bucket, and every annualized return bit for bit
    assert len(default_run_reports) == 30
    for pool, scheme, rep in default_run_reports:
        _assert_report_is_exact(pool, scheme, rep)
    assert sum(len(_report_rows(rep)) for _, _, rep in default_run_reports) == 135


@pytest.mark.parametrize("name", sorted(set(make_trees.CONFIGS) - {"default"}))
def test_every_report_of_each_pinned_run_equals_the_exact_reference(name, tmp_path):
    # the 6 x 400 runs of tests/fixtures/trees.json: every pool of each, under both schemes
    args = make_trees.CONFIGS[name]
    windows = args[args.index("--windows") + 1].split(",")
    made = _run_reports(name, tmp_path)
    assert len(made) == 3 * len(windows) * 2
    for pool, scheme, rep in made:
        _assert_report_is_exact(pool, scheme, rep)


@pytest.mark.parametrize("scheme, rows", [("quintile", 20), ("quintile", 41), ("tail", 40), ("tail", 41)])
def test_small_pools_with_ties_at_the_thresholds_equal_the_exact_reference(scheme, rows):
    # exponents on a coarse grid, so percentiles fall on repeated values and some buckets are empty
    rng = np.random.Generator(np.random.PCG64(rows))
    h = rng.integers(0, 4, rows) * 0.25
    pool = ObservationPool(64, Method.GHE, np.array(["A"] * rows, object), np.arange(rows), h,
                           rng.normal(0.0, 0.02, rows))
    _assert_report_is_exact(pool, scheme, report(pool, scheme))
