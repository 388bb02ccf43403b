"""Host-speed probe for timing on a shared machine.

On a shared 2-vCPU Xeon virtual machine the interpreter's speed drifted by
up to 2x within minutes (a fixed pure-Python loop took 57-115 ms per chunk
in one minute and 29-53 ms in another), so raw wall times of the same run
spread far more than a useful regression bound.
``SpeedProbe`` times a fixed, allocation-free pure-Python kernel on SIGALRM
every ``PERIOD_S`` while a phase runs, and at its start and end.  The mean
kernel time over ``REFERENCE_KERNEL_S`` is the phase's slowdown factor;
dividing the phase's wall time by it gives seconds at the reference speed.
The kernel adds about 2% to each phase, on every commit alike.
"""
from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
REFERENCE_KERNEL_S = 1.0e-3

_KEYS = [(i & 7, (i & 3, i & 5)) for i in range(2000)]
_TABLE = {k: (k[0] * 16 + k[1][0] * 4 + k[1][1]) & 0xFF for k in _KEYS}


def kernel() -> int:
    """Tuple hashing and dict lookups, the interpreter work kamkit does;
    the values stay below 256, so the loop allocates nothing."""
    acc = 0
    table = _TABLE
    for _ in range(4):
        for key in _KEYS:
            acc ^= table[key]
    return acc


class SpeedProbe:
    """Context manager recording kernel times while its block runs."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def factor(self) -> float:
        """Mean kernel time relative to the reference (> 1: slower host)."""
        return statistics.fmean(self.samples) / REFERENCE_KERNEL_S
