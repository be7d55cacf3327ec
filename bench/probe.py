"""Machine-speed probe: turns wall time into reference seconds.

On a shared host the same code runs up to half again slower for
stretches of several seconds, which swamps the differences between two
versions of the program.  :class:`SpeedProbe` times four small fixed
kernels, one per resource ringlab's work depends on (interpreter, a
gather from a table in L2, a gather from a table beyond L2, and a
streaming write), and expresses them as a slowness factor: the mean of
their ratios to their reference times.  :meth:`SpeedProbe.time`
samples the factor before, during (from a ``SIGALRM`` timer) and after
a call, subtracts the probe's own time from the call's wall time, and
returns both, so that the call's length in reference seconds is
``raw_s / factor``.  The probe allocates nothing after construction,
so it leaves the allocator's state to the program.
"""

from __future__ import annotations

import signal
from collections import Counter
from time import perf_counter

#: Reference times of the four kernels: their 5th percentile over 40 s
#: on a 2-CPU Intel Xeon (2.1 GHz) VM with Python 3.11.7 and numpy 2.4.6.
REFERENCE_S = (0.0036, 0.0026, 0.0031, 0.0022)
#: Interval between samples taken during a call.
PERIOD_S = 0.2
#: Samples taken at the end of each call (and so before the next one).
BOUNDARY_SAMPLES = 3


class SpeedProbe:
    def __init__(self, locate, *, sample_inside: bool = True):
        import numpy as np

        rng = np.random.default_rng(0)
        self._small = rng.integers(0, 1 << 15, size=(512, 512), dtype=np.int16)  # 0.5 MB
        self._large = rng.integers(0, 1 << 15, size=(2048, 2048), dtype=np.int16)  # 8 MB
        self._small_at = rng.integers(0, self._small.size, size=1 << 15).astype(np.intp)
        self._large_at = rng.integers(0, self._large.size, size=1 << 15).astype(np.intp)
        self._out = np.empty(1 << 15, dtype=np.int16)
        self._stream = np.empty(1 << 19, dtype=np.int64)  # 4 MB
        self.sample_inside = sample_inside
        #: Maps the interrupted frame to an item key, so that a probe
        #: taken inside an item the program times itself can be
        #: subtracted from that item (see :attr:`intrusions`).
        self.locate = locate
        #: Probe seconds spent inside each located item during the last call.
        self.intrusions: Counter = Counter()
        self._samples: list[float] = []
        self._inside_s = 0.0
        self._boundary = self._measure_boundary()

    @property
    def last(self) -> float:
        """Slowness measured at the end of the last call."""
        return sum(self._boundary) / len(self._boundary)

    def _measure_boundary(self) -> list[float]:
        return [self.measure() for _ in range(BOUNDARY_SAMPLES)]

    def measure(self) -> float:
        """Current slowness: mean ratio of the kernels' times to reference."""
        times = []
        started = perf_counter()
        x = 0
        for i in range(60_000):
            x += i * i
        times.append(perf_counter() - started)
        started = perf_counter()
        for _ in range(64):
            self._small.take(self._small_at, out=self._out)
        times.append(perf_counter() - started)
        started = perf_counter()
        for _ in range(24):
            self._large.take(self._large_at, out=self._out)
        times.append(perf_counter() - started)
        started = perf_counter()
        for _ in range(4):
            self._stream.fill(x & 0xFF)
        times.append(perf_counter() - started)
        return sum(t / ref for t, ref in zip(times, REFERENCE_S)) / len(times)

    def _on_timer(self, signum, frame) -> None:
        started = perf_counter()
        self._samples.append(self.measure())
        spent = perf_counter() - started
        self._inside_s += spent
        key = self.locate(frame)
        if key is not None:
            self.intrusions[key] += spent

    def time(self, fn, *args):
        """Call ``fn(*args)``; return ``(result, raw_s, factor)``.

        ``raw_s`` is the call's wall time less the time the probe took
        inside it, and ``factor`` the mean of the samples taken just
        before, during and just after it.  Samples after one call count
        as samples before the next.
        """
        self._samples, self._inside_s = list(self._boundary), 0.0
        self.intrusions.clear()
        if self.sample_inside:
            previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        started = perf_counter()
        try:
            result = fn(*args)
        finally:
            if self.sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            elapsed = perf_counter() - started
        self._boundary = self._measure_boundary()
        samples = self._samples + self._boundary
        return result, elapsed - self._inside_s, sum(samples) / len(samples)
