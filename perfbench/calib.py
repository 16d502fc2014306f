"""Timing that removes the host's changes of speed.

On a shared host the same pure-Python work runs 20-60% slower for stretches
of seconds to minutes while other programs use the machine; plain wall time
of one-second operations then spreads by a third between runs. So while an
operation runs, a timer signal interrupts it every millisecond for its first
``DENSE_PROBES`` probes, so that short operations get enough of them, and
every five milliseconds after that, and runs a short probe: a fixed loop of
the benchmark's own, which does not call the package. A probe's time against ``REFERENCE_PROBE_S``, its time on an idle
host, gives the host's speed at that moment.

An operation's calibrated time is its wall time, less the time its probes
took, times the mean of ``REFERENCE_PROBE_S / probe`` over its probes and
over a few probes taken right after it. That is the time the operation
would take on an idle reference host; the program's own cost passes through
unchanged, because the probe loop is the same on every commit.
``REFERENCE_PROBE_S`` is a constant, so it cancels when two commits are
compared on one machine.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIODS_S = (0.001, 0.005)  # the first DENSE_PROBES probes, then the rest
DENSE_PROBES = 10
PROBES_AFTER = 8
REFERENCE_PROBE_S = 64e-6  # probe time on an idle 2-vCPU Xeon VM at 2.1 GHz

_ROWS = [[(31 * i + 17 * j + 5) % 257 for j in range(8)] for i in range(8)]


def _probe() -> float:
    """One ~0.07 ms run of a fixed mod-p dot-product loop."""
    start = time.perf_counter()
    acc = 0
    for _ in range(10):
        for row in _ROWS:
            acc += sum([a * b for a, b in zip(row, _ROWS[0])]) % 257
    return time.perf_counter() - start


class Timing:
    __slots__ = ("wall", "seconds")

    def __init__(self, wall: float, seconds: float):
        self.wall = wall  # wall time, probes included
        self.seconds = seconds  # calibrated time


class Clock:
    """Times operations, sampling the host's speed while they run."""

    def __init__(self):
        self._probes = None  # probe times of the operation being timed
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        probes = self._probes
        if probes is not None:
            probes.append(_probe())
            if len(probes) == DENSE_PROBES:
                signal.setitimer(signal.ITIMER_REAL, PERIODS_S[1], PERIODS_S[1])

    def time(self, fn):
        """(result of fn(), Timing)."""
        probes = self._probes = []
        signal.setitimer(signal.ITIMER_REAL, PERIODS_S[0], PERIODS_S[0])
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - start
            self._probes = None  # a signal still pending now adds no probe
            signal.setitimer(signal.ITIMER_REAL, 0)
        own = wall - sum(probes)
        probes += [_probe() for _ in range(PROBES_AFTER)]
        speed = statistics.fmean(REFERENCE_PROBE_S / p for p in probes)
        return result, Timing(wall, own * speed)
