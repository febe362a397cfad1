"""Machine-speed calibration for timings taken on a shared host.

On a virtual machine that shares its cores with other tenants, the speed
of the same Python code drifts by up to 2x, in spells of a few seconds and
over hours.  A probe, a fixed pure-Python loop of about a millisecond that
uses nothing from baxterlab, is timed around and during each measured
interval.  The interval's time is then scaled by ``REFERENCE_S`` over the
median probe, which gives the seconds it would have taken at the reference
speed.  A change to the program moves the interval and not the probes, so
it still shows in full.

During an interval a ``SIGALRM`` timer takes one probe every ``PERIOD_S``
of wall time.  The handler runs in the main thread between bytecodes, so
it also samples while ``checks.run_suite`` waits on its thread pool.  The
probes add about 1% to every interval, on every commit alike.
"""

from __future__ import annotations

import signal
import statistics
from time import thread_time

# Seconds one probe takes at the reference speed, set from the machine in
# BASELINE.json in a quiet spell.  It only fixes the scale of the results.
REFERENCE_S = 0.0007
PERIOD_S = 0.1
_AROUND = 5  # probes taken right before and right after an interval


def probe() -> float:
    """CPU seconds one fixed pure-Python loop takes now, on this thread.

    Thread CPU time leaves out the time other threads hold the GIL, so a
    probe taken while the check pool runs reads the same as one taken
    without it.
    """
    table: dict[int, int] = {}
    x = 1
    t0 = thread_time()
    for i in range(3000):
        k = i & 511
        table[k] = table.get(k, 0) + x
        x = (x * 7 + i) % 1000003
    return thread_time() - t0


def scale_now(count: int = 2 * _AROUND) -> float:
    """Factor to reference speed from ``count`` probes taken now."""
    return REFERENCE_S / statistics.median(probe() for _ in range(count))


class Sampler:
    """Collects probes around intervals, and during them inside ``with``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._saved = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "Sampler":
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def mark(self) -> int:
        """Take the probes that separate two intervals; return their end index."""
        for _ in range(_AROUND):
            self.samples.append(probe())
        return len(self.samples)

    def scale(self, start: int, end: int) -> float:
        """Factor to reference speed for the interval between two marks.

        ``start`` and ``end`` are the values ``mark`` returned before and
        after it, so the probes of both marks and those taken during the
        interval all count.
        """
        return REFERENCE_S / statistics.median(self.samples[start - _AROUND:end])
