"""Machine speed during a timed operation, from a fixed reference computation.

On a shared machine the CPU can run at half speed for stretches of seconds
to minutes, which moves wall times by far more than the changes the
benchmark is meant to see.  ``SpeedProbe`` times a fixed reference
computation, which belongs to the benchmark and not to hurstlab, once
before the operation, every ``INTERVAL`` seconds during it (from a
SIGALRM handler in this thread, so no thread or process is started) and
once after it.  The operation's time net of those samples, divided by
their mean, is its length in units of the reference computation: it
moves when hurstlab does more or less work, and much less when the
machine slows down.  Set-up time, which must stay in seconds, is scaled
the same way to the speed at which ``reference()`` takes ``NOMINAL_S``.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL = 0.1
# About the median duration of reference() on the 2-core Xeon the baseline was recorded on.
NOMINAL_S = 0.003

_SMALL = np.arange(256, dtype=np.float64) * 0.001
_LARGE = np.sin(np.arange(4096, dtype=np.float64))


def reference() -> float:
    """A fixed mix of small numpy calls, Python dict work and string formatting and parsing (~3 ms)."""
    acc = 0.0
    for k in range(1, 20):
        acc += float(np.mean(np.abs(_SMALL[k:] - _SMALL[:-k])))
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i * i
    for m in (4, 8, 16, 32, 64, 128):
        blocks = _LARGE[: (len(_LARGE) // m) * m].reshape(-1, m)
        acc += math.fsum(blocks.max(axis=1) - blocks.min(axis=1)) + float(np.cumsum(blocks, axis=1).mean())
    rows = [f"S{i % 50:03d},2000-01-{1 + i % 28:02d},{float(_LARGE[i]) + 2.0!r}" for i in range(300)]
    parsed = sorted((row.split(",")[0], float(row.split(",")[2])) for row in rows)
    return acc + parsed[0][1] + counts[0]


def reference_seconds(count: int = 5) -> float:
    """Median duration of ``count`` back-to-back ``reference()`` calls: the machine's speed now."""
    samples = []
    for _ in range(count):
        t0 = perf_counter()
        reference()
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


class SpeedProbe:
    """Context manager that samples ``reference()`` around and during the enclosed block.

    ``inside_s`` is the time spent in samples taken during the block, to
    be subtracted from the block's wall time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.inside_s = 0.0

    def _sample(self) -> float:
        t0 = perf_counter()
        reference()
        seconds = perf_counter() - t0
        self.samples.append(seconds)
        return seconds

    def _tick(self, signum, frame) -> None:
        self.inside_s += self._sample()

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def mean_s(self) -> float:
        return statistics.fmean(self.samples)
