"""DFA's statistic is bit-identical to the previous within-block kernel, kept below as an oracle.

The kernel updates a C-contiguous copy of the blocks, one block position
at a time across all blocks when the blocks are short; the oracle runs
each broadcast update one block at a time.  Both feed the same layout to
the same BLAS products, so they must agree bit for bit on every input.
"""

from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from hurstlab import DFA_MODE_PROFILE, DFA_MODE_RAW, DegenerateRegression, FbmSpec, Method, ScanSpec
from hurstlab import cli, default_config, generate_fbm
from hurstlab.estimators import _block_ramp, _blocks, estimate_rows, statistic
from hurstlab.pipeline import _batches
from test_pipeline import _halted_walk

WINDOWS = (32, 64, 128, 256, 512)


def _oracle(signal: np.ndarray, scales, q: float) -> np.ndarray:
    """DFA's ``(rows, scales)`` fluctuations with every broadcast update run block by block."""
    fluct = np.empty((signal.shape[0], len(scales)))
    for i, m in enumerate(scales):
        blocks = _blocks(signal, m)
        resid = blocks - blocks[..., :1]
        dt, dt_norm, ones = _block_ramp(m)
        slopes = (resid @ dt) / dt_norm
        resid -= (resid @ ones / m)[..., None]
        resid -= slopes[..., None] * dt
        block_power = np.square(resid, out=resid) @ ones / m
        if q != 2.0:
            block_power **= q / 2.0
        fluct[:, i] = (block_power.sum(axis=-1) / block_power.shape[-1]) ** (1.0 / q)
    return fluct


def _assert_oracle(windows, cfg) -> np.ndarray:
    """``statistic`` of ``windows`` equals the oracle's on the same signal, bit for bit; returns it."""
    stat = statistic(Method.DFA, windows, cfg)
    contiguous = np.ascontiguousarray(windows)
    signal = contiguous[:, 1:] if cfg.dfa_mode == DFA_MODE_PROFILE else contiguous
    assert np.array_equal(stat, _oracle(signal, cfg.scales(), cfg.q))
    return stat


@pytest.fixture(scope="module")
def default_cohort():
    """The universe of ``hurstscan run --synthetic-cohort`` with every default, in scan order."""
    args = cli.build_parser().parse_args(["run", "--synthetic-cohort", "--out", "unused"])
    return sorted(cli._cohort_from_args(args), key=lambda s: s.instrument_id)


@pytest.mark.parametrize("mode", [DFA_MODE_PROFILE, DFA_MODE_RAW])
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("rolling", ["roll-20", "non-overlapping"])
def test_every_batch_of_the_default_run(default_cohort, window, mode, rolling):
    spec = ScanSpec(window=window, roll_step=20 if rolling == "roll-20" else window)
    cfg = default_config(Method.DFA, window, mode)
    batches = [windows for _, _, _, windows, _ in _batches(default_cohort, spec)]
    assert len(batches) > 1
    for windows in batches:
        _assert_oracle(windows, cfg)


@pytest.mark.parametrize("q", [1.0, 3.0])
def test_other_moment_orders(default_cohort, q):
    windows = next(_batches(default_cohort, ScanSpec(window=128, roll_step=20)))[3]
    for mode in (DFA_MODE_PROFILE, DFA_MODE_RAW):
        _assert_oracle(windows, replace(default_config(Method.DFA, 128, mode), q=q))


@pytest.mark.parametrize("length", [128, 512, 2048])
def test_one_row_fbm_paths(length):
    for seed in range(20):
        values = generate_fbm(FbmSpec(h=0.3 + 0.2 * (seed % 3), length=length, seed=41_000 + seed)).values
        _assert_oracle(values[None], default_config(Method.DFA, length))


def test_views_and_fortran_order():
    values = generate_fbm(FbmSpec(h=0.5, length=3000, seed=5)).values
    view = sliding_window_view(values, 256)[::7]
    cfg = default_config(Method.DFA, 256)
    stat = _assert_oracle(view, cfg)
    assert np.array_equal(_assert_oracle(np.asfortranarray(view), cfg), stat)


def test_constant_and_linear_blocks_detrend_to_exact_zeros():
    halted = sliding_window_view(np.log(_halted_walk().prices), 32)[::4]
    ramp = 0.25 * np.arange(64.0)
    windows = np.vstack([halted, np.full((1, 32), 3.0), ramp[None, :32], ramp[None, 7:39]])
    cfg = default_config(Method.DFA, 32)
    stat = _assert_oracle(windows, cfg)
    degenerate = (stat == 0.0).any(axis=1)
    # the two halts hold whole windows, and in windows 48-50 only the coarser blocks; then the constant and ramp rows
    assert np.flatnonzero(degenerate).tolist() == [*range(30, 51), *range(84, 93), 93, 94, 95]
    assert (stat[48] == 0.0).tolist() == [False, True, True]
    _, fits = estimate_rows(Method.DFA, windows, cfg)
    assert sorted(fits.errors) == np.flatnonzero(degenerate).tolist()
    assert all(isinstance(exc, DegenerateRegression) for exc in fits.errors.values())
