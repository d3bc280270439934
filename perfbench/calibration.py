"""Machine-speed calibration: a fixed numpy kernel timed around and during operations.

The speed of a small shared host moves under the benchmark: the same call
takes up to twice as long for stretches of a tenth of a second to a few
seconds, and the typical speed drifts by a third over minutes, with the
load of other tenants.  Wall time of a single run cannot average that out.
So the benchmark times a fixed kernel (small ``eigh``, matrix products,
``kron`` and a Python loop, the same mix of work as the package) right
before and after every operation and, through a timer signal, every
``interval_s`` while an operation runs.  An operation's cost is its time
divided by the mean kernel time measured around and during it: a number in
*cal*, kernel runs, that stays put while the machine's speed moves and falls
only when the program does less work.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

KERNEL_REPS = 1  # kernel runs per sample (about 0.4 ms)


class Calibration:
    """Kernel samples as (start, end, seconds per kernel run).

    ``sample()`` takes one sample now; inside ``with calibration:`` a timer
    signal also takes one every ``interval_s`` (``None``: no timer).  Samples
    do not nest: one that would start inside another is skipped.
    """

    def __init__(self, interval_s: float | None = None):
        rng = np.random.default_rng(0)
        self._mats = []
        for _ in range(8):
            a = rng.standard_normal((6, 6))
            self._mats.append(a @ a.T)
        self.interval_s = interval_s
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: list[float] = []
        self._busy = False

    def _kernel(self) -> float:
        total = 0.0
        for h in self._mats:
            _, v = np.linalg.eigh(h)
            total += float(np.kron(v[:2, :2], (h @ v)[:2, :2]).sum())
            total += sum(i * 0.5 for i in range(50))
        return total

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = perf_counter()
            for _ in range(KERNEL_REPS):
                self._kernel()
            end = perf_counter()
            self.starts.append(start)
            self.ends.append(end)
            self.values.append((end - start) / KERNEL_REPS)
        finally:
            self._busy = False

    def __enter__(self) -> "Calibration":
        if self.interval_s:
            signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval_s:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy(self, t0: float, t1: float) -> float:
        """Seconds spent sampling inside ``[t0, t1]``, to be taken off a timing there."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return sum(min(self.ends[i], t1) - self.starts[i] for i in range(lo, hi))

    def scale(self, t0: float, t1: float) -> float:
        """Mean kernel time of the last sample before ``t0``, those inside, the first after ``t1``."""
        lo = max(bisect.bisect_left(self.starts, t0) - 1, 0)
        hi = min(bisect.bisect_right(self.starts, t1) + 1, len(self.starts))
        return float(np.mean(self.values[lo:hi]))

    def cost(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds, cal) of the operation that ran from ``t0`` to ``t1``."""
        seconds = t1 - t0 - self.busy(t0, t1)
        return seconds, seconds / self.scale(t0, t1)

    def median_s(self) -> float:
        return float(np.median(self.values))
