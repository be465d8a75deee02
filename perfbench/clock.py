"""A wall clock that runs at the machine's reference speed.

The benchmark runs on shared virtual machines whose vCPUs change speed by
up to a factor of two for seconds to minutes at a time, because of load
from other tenants on the same host.  A single run cannot wait that out,
so raw wall times of identical work spread far beyond any useful
regression bound.

``ReferenceClock`` measures that speed while the work runs.  A SIGALRM
timer interrupts the main thread every few milliseconds and times a fixed
pure-Python probe there (dict reads, small-int arithmetic, a function call
per step, like the exact-arithmetic layers).  The time since the previous
probe is scaled by ``REFERENCE_PROBE_S / probe`` and summed, giving
seconds at reference speed: the wall time the same work takes when the
probe runs in ``REFERENCE_PROBE_S``.  The probe's own time is left out.
Every slice, interpreted or spent in BLAS, gets the same scale, so moving
work between Python and numpy is judged by its raw cost at that speed.
The raw wall clock is kept beside it, so every report can show both.

The probe runs twice and only the second, cache-warm run is timed, so the
workload's own cache pressure does not enter the scale; the scale uses the
median of the last three timings, which ignores one timing hit by an
interrupt.
"""

from __future__ import annotations

import signal
import statistics
import time

# Duration of the warm probe, between workload steps, in the uncontended
# state of an Intel Xeon 2.0 GHz vCPU (CPython 3.11): it sets the unit of
# the reported seconds, so that they match raw seconds on a quiet host.
REFERENCE_PROBE_S = 20e-6
INTERVAL_S = 0.004

_TABLE = {i: (i * 37) & 255 for i in range(64)}


def _step(acc: int, i: int) -> int:
    return (acc + _TABLE[i & 63]) & 0xFFF


def _probe() -> int:
    acc = 0
    for i in range(160):
        acc = _step(acc, i)
    return acc


class ReferenceClock:
    """Seconds at reference speed, advanced by a timer-driven probe.

    Only one instance may run per process: it owns SIGALRM and the real
    interval timer while started.
    """

    def __init__(self):
        self._ref = 0.0
        self._last = time.perf_counter()
        self._recent = [REFERENCE_PROBE_S] * 3
        self._scale = 1.0
        self.probes = 0
        self.probe_s = 0.0
        self._previous_handler = None

    def start(self) -> "ReferenceClock":
        self._last = time.perf_counter()
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        begin = time.perf_counter()
        _probe()
        timed = time.perf_counter()
        _probe()
        end = time.perf_counter()
        self._recent = self._recent[1:] + [end - timed]
        self._scale = REFERENCE_PROBE_S / statistics.median(self._recent)
        self._ref += (begin - self._last) * self._scale
        self._last = end
        self.probes += 1
        self.probe_s += end - begin

    def now(self) -> float:
        """Reference seconds since the clock was started."""
        return self._ref + (time.perf_counter() - self._last) * self._scale
