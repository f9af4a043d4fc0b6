"""The machine's speed, sampled while timed code runs.

The reference machine's speed drifts by tens of percent within seconds, and
the drift slows most Python code alike.  So while a sample is taken a SIGALRM
handler times a short pure-Python tick every TICK_S, and the sample is scaled
by the mean of TICK_REF_S / tick: timings read as seconds on a machine where
the tick takes TICK_REF_S.  The tick composes permutations held as tuples and
files them in a dict, the kind of work degclass does; it follows the drift in
degclass's passes more closely than an arithmetic loop does.  This module
imports only small built-in modules, so a set-up probe can load it before it
imports degclass without taking part of that import off the clock.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter

TICK_S = 0.05
TICK_COMPOSES = 128
TICK_REF_S = 0.0005
# two permutations of 64 points: i -> 37i + 11 and i -> 5i + 3 mod 64
TICK_P = tuple((i * 37 + 11) % 64 for i in range(64))
TICK_Q = tuple((i * 5 + 3) % 64 for i in range(64))


class Speedometer:
    def __init__(self) -> None:
        self.ticks: list[float] = []
        self.scales: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        start = perf_counter()
        p, seen = TICK_P, {}
        for i in range(TICK_COMPOSES):
            p = tuple([TICK_Q[j] for j in p])
            seen[p] = i
        self.ticks.append(perf_counter() - start)

    @contextmanager
    def sampling(self):
        """Tick while the block runs; then append its scale factor to ``scales``."""
        first = len(self.ticks)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if len(self.ticks) == first:
            self._tick()
        ticks = self.ticks[first:]
        self.scales.append(sum(TICK_REF_S / t for t in ticks) / len(ticks))
