"""Host-speed calibration: a fixed loop, timed throughout a run.

The machines this benchmark runs on change speed by up to half again
within a minute, under load from other tenants.  A run therefore times a
fixed calibration loop, which no change to the package can affect, and
scales each request's time by ``NOMINAL_S / m``, where ``m`` is the median
loop time from ``WINDOW_S`` before the request started to ``WINDOW_S``
after it ended: a time as it would read on a host that runs the loop in
``NOMINAL_S``.  The loop runs ``BURST`` times in each pause between two
batches of requests, where the harness already interrupts the requests,
and, from a ``SIGALRM`` timer, every ``INTERVAL_S`` seconds inside a
request that has run that long, so that long requests are sampled too.
The time the loop takes inside a request is subtracted from that
request's latency.

The loop is exact ``Fraction`` arithmetic with a dictionary, as in the
package's exact oracle.  Of the loops tried (interpreted integer
arithmetic, small NumPy linear algebra, and this one), this one slowed
most nearly as much as the table decisions did in the host's slow
phases; the chart sweeps slow by less, so for them the scaling narrows
the swings without removing them.  Each probe runs the
loop twice and times the second, warm, pass: a first pass right after a
request runs with cold caches and times the request's traces as much as
the host.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import numpy as np

INTERVAL_S = 0.05
WINDOW_S = 1.0  # longer than one batch of requests lasts
BURST = 8
QUIET_REPEATS = 20
# About the warm loop's time inside a run on a 2-vCPU x86-64 VM with
# Python 3.11 in its usual (slow) phase, so that scaled times read close
# to raw ones there.
NOMINAL_S = 2e-3


def calibration_loop() -> float:
    """The fixed work whose time measures the host's speed."""
    table = {}
    total = Fraction(0)
    for i in range(1, 480):
        total += Fraction(i % 7 + 1, i % 11 + 2)
        table[i, i % 5] = total
    return float(total) + len(table)


def time_loop() -> tuple[float, float]:
    """CPU time of a warm calibration loop, and of the whole probe."""
    start = time.thread_time()
    calibration_loop()
    warm = time.thread_time()
    calibration_loop()
    end = time.thread_time()
    return end - warm, end - start


def quiet_scale() -> float:
    """Scale factor from ``QUIET_REPEATS`` loops run back to back, outside a run."""
    return NOMINAL_S / statistics.median(time_loop()[0] for _ in range(QUIET_REPEATS))


class Calibration:
    """Times the calibration loop between batches and inside long requests."""

    def __init__(self):
        self.samples: list[float] = []
        self.taken: list[float] = []  # when each sample started
        self.spent = 0.0  # seconds spent in the loop so far
        self.request_start: float | None = None  # set while a request runs

    def probe(self) -> None:
        """Time the loop now."""
        self.taken.append(time.perf_counter())
        sample, elapsed = time_loop()
        self.samples.append(sample)
        self.spent += elapsed

    def burst(self) -> None:
        """Call in a pause between batches of requests."""
        for _ in range(BURST):
            self.probe()

    def _alarm(self, signum, frame) -> None:
        started = self.request_start
        if started is not None and time.perf_counter() - started >= INTERVAL_S:
            self.probe()

    def __enter__(self) -> Calibration:
        self._previous = signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scales(self, windows) -> list[float]:
        """Factor turning each ``(start, end)`` request's time into a nominal-host time."""
        taken = np.asarray(self.taken)
        samples = np.asarray(self.samples)
        overall = float(np.median(samples))
        factors = []
        for start, end in windows:
            low = np.searchsorted(taken, start - WINDOW_S)
            high = np.searchsorted(taken, end + WINDOW_S, side="right")
            local = float(np.median(samples[low:high])) if high > low else overall
            factors.append(NOMINAL_S / local)
        return factors
