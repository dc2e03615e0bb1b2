"""Host-speed calibration: a clock that reads seconds at reference speed.

The benchmark runs on shared machines whose CPU speed changes by up to a
factor of two within seconds, as other tenants come and go.  Such changes
cannot be averaged away inside a run, and they differ from run to run.  So
while a process measures, a timer signal interrupts it every ``PERIOD_S``
and times :func:`kernel`, a fixed piece of interpreter work of the kind the
package does (``Fraction`` arithmetic, small-integer loops, tuples, dicts,
sorting).  Between two kernel runs the host is taken to run at the speed
the kernels around them show, and :class:`ReferenceClock` converts any
interval into the seconds it would have taken on a host where the kernel
takes ``REF_KERNEL_S``, with the kernel's own time left out.

The kernel never touches the package, so a change to the package moves the
measured intervals, not the speed the kernel reads.  Python runs the signal
handler between bytecodes, so a long call into C code (a HiGHS solve, a
numpy routine) delays a kernel run until it returns.
"""

from __future__ import annotations

import signal
from bisect import bisect_right
from fractions import Fraction
from time import perf_counter

# kernel time on the reference host (2.0 GHz Xeon, Python 3.11); it only
# fixes the scale of the reported times
REF_KERNEL_S = 0.002
PERIOD_S = 0.05
# a gap's speed is read from the median of this many kernel runs around it
WINDOW = 5


def kernel() -> int:
    """About 2 ms of mixed interpreter work; the result defeats dead-code tricks."""
    acc = Fraction(0)
    for i in range(1, 240):
        acc += Fraction(i % 13 + 1, i % 11 + 2)
    table: dict[tuple[int, int], int] = {}
    for i in range(800):
        key = (i % 37, i % 23)
        table[key] = table.get(key, 0) + (i * i) % 97
    parts = sorted(((v, k) for k, v in table.items()), reverse=True)
    total = 0
    for n in range(2, 110):
        m, d = n, 2
        while d * d <= m:
            while m % d == 0:
                m //= d
                total += d
            d += 1
        total += m
    return acc.numerator % 1009 + len(parts) + total


class ReferenceClock:
    """Kernel runs between :meth:`start` and :meth:`stop`, and the map from
    ``perf_counter`` readings taken in between to reference seconds."""

    def __init__(self) -> None:
        self.runs: list[tuple[float, float]] = []
        self._busy = False
        self._previous = None
        self._ends: list[float] = []
        self._cum: list[float] = []
        self._speed: list[float] = []

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        self._build()

    def _tick(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        kernel()
        self.runs.append((t0, perf_counter()))
        self._busy = False

    def _build(self) -> None:
        durations = [end - start for start, end in self.runs]
        half = WINDOW // 2
        smooth = []
        for i in range(len(durations)):
            near = sorted(durations[max(0, i - half):i + half + 1])
            smooth.append(near[len(near) // 2])
        self._ends = [end for _, end in self.runs]
        self._cum = [0.0]
        self._speed = []
        for i in range(len(self.runs) - 1):
            speed = REF_KERNEL_S / ((smooth[i] + smooth[i + 1]) / 2)
            self._speed.append(speed)
            self._cum.append(self._cum[-1] + (self.runs[i + 1][0] - self.runs[i][1]) * speed)

    def at(self, t: float) -> float:
        """Reference seconds from the end of the first kernel run to ``t``."""
        i = bisect_right(self._ends, t) - 1
        if i < 0:
            return 0.0
        if i >= len(self._speed):
            return self._cum[-1]
        gap = self.runs[i + 1][0] - self._ends[i]
        return self._cum[i] + min(t - self._ends[i], gap) * self._speed[i]

    def interval(self, t0: float, t1: float) -> float:
        return self.at(t1) - self.at(t0)

    def mean_speed(self) -> float:
        """Reference seconds per second of host time outside the kernel."""
        host = sum(self.runs[i + 1][0] - self._ends[i] for i in range(len(self._speed)))
        return self._cum[-1] / host if host else 1.0
