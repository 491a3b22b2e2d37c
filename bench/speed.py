"""Calibrated timing: times scaled to a reference machine speed.

On a shared VM the speed of one CPU drifts by about 20% over seconds to
minutes, so raw times of separate runs disagree by more than any useful
bound.  While a Speed is installed, a SIGVTALRM handler times a fixed
kernel after every CAL_EVERY_S of CPU time.  A timed section's clock
excludes the handler's time, and its calibrated time is

    raw * CAL_REF_S / (mean kernel time of the samples taken during it)

where too short a section borrows the nearest samples until it has
CAL_MIN.  CAL_REF_S is close to the kernel's mean time on the machine the
baseline was taken on, so calibrated times read as seconds at that
machine's typical speed.  The kernel runs inside the measured process, so
its time can shift with the cache and heap state rpqdet leaves behind;
run.py prints each run's kernel mean and uncalibrated pass time on a
``calibration`` line so that such a shift can be seen.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right

CAL_REF_S = 0.0032
CAL_EVERY_S = 0.1
CAL_MIN = 5


_KEYS = [(i % 97, str(i % 31), frozenset((i % 5, i % 7))) for i in range(4000)]
_TABLE = {k: len(k[1]) for k in _KEYS}


def kernel() -> int:
    """Fixed work of the kind rpqdet does, hashing tuples of strings and
    frozensets into a dict, that allocates no objects the garbage collector
    tracks, so the kernel never triggers a collection of rpqdet's heap."""
    table = _TABLE
    n = 0
    for _ in range(8):
        for k in _KEYS:
            n += table[k]
    return n


class Speed:
    """Kernel samples (start time, duration) taken while installed."""

    def __init__(self):
        self.at: list[float] = []
        self.dur: list[float] = []
        self.busy = 0.0

    def sample(self, signum=None, frame=None) -> None:
        """Time the kernel once; also the SIGVTALRM handler."""
        t = time.perf_counter()
        kernel()
        d = time.perf_counter() - t
        self.at.append(t)
        self.dur.append(d)
        self.busy += time.perf_counter() - t

    def __enter__(self) -> "Speed":
        self.sample()
        self._previous = signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)
        self.sample()

    def clock(self) -> float:
        """perf_counter minus the time spent taking samples."""
        return time.perf_counter() - self.busy

    def scale(self, start: float, end: float, raw: float) -> float:
        """Calibrated time of a section that ran from start to end
        (perf_counter stamps) and took raw seconds of its own."""
        lo = bisect_left(self.at, start)
        hi = bisect_right(self.at, end)
        n = len(self.at)
        while hi - lo < CAL_MIN and (lo > 0 or hi < n):
            if lo > 0:
                lo -= 1
            if hi - lo < CAL_MIN and hi < n:
                hi += 1
        return raw * CAL_REF_S / statistics.fmean(self.dur[lo:hi])


class Section:
    """Times one section with a Speed; read .start, .end and .raw after."""

    def __init__(self, speed: Speed):
        self.speed = speed

    def __enter__(self) -> "Section":
        self.start = time.perf_counter()
        self._c0 = self.speed.clock()
        return self

    def __exit__(self, *exc) -> None:
        self.raw = self.speed.clock() - self._c0
        self.end = time.perf_counter()
