"""Host speed: a fixed reference computation timed all through a run.

The benchmark runs on a shared machine whose speed flips, every half
second or so, between two modes about 1.8x apart, and which mode holds
for longer drifts over minutes: a fixed arithmetic loop reads 15 ms in
one minute and 24 ms a few minutes later, and every timing of the
program moves with it.  So the harness times a fixed piece of pure
Python work (the *reference*) about every ``SAMPLE_EVERY_S`` seconds,
between calls and around each set-up, and reports times in *reference
milliseconds*: a wall time multiplied by ``REFERENCE_S`` divided by the
median reference time measured within ``WINDOW_S`` of it.  On a host
where the reference takes ``REFERENCE_S``, a reference millisecond is a
millisecond.  The program never runs the reference and the reference
never touches the program's data, so a change to the program moves the
wall time of its calls and leaves the divisor alone.

The timed window is measured on the same clock (:meth:`HostSpeed.elapsed`),
so a run makes about the same number of calls, and grows the data by the
same number of rows, whatever the host's speed.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

# Run medians between 0.45 and 1.05 ms on a 2-vCPU KVM guest of an
# Intel Xeon (model 143), depending on the load of the shared machine.
REFERENCE_S = 0.001
SAMPLE_EVERY_S = 0.025
WINDOW_S = 0.5
BURST = 8  # reference samples taken before and after each set-up

# About 30 KB: stays in cache, so the program's own data does not slow it.
_ROWS = [
    {"id": i, "group": i % 31, "price": (i * 7919) % 1000 / 10.0, "name": f"p{i}"}
    for i in range(256)
]


def reference_work() -> float:
    """Dict lookups, comparisons, float sums and a small sort."""
    total = 0.0
    for _ in range(14):
        sums: dict[int, float] = {}
        for row in _ROWS:
            if row["price"] > 20.0 and row["name"] != "":
                sums[row["group"]] = sums.get(row["group"], 0.0) + row["price"]
        total += sorted(sums.values())[len(sums) // 2]
    return total


class HostSpeed:
    """Reference timings of one run, and the scale they give a wall time."""

    def __init__(self) -> None:
        self.at: list[float] = []  # start of each sample, ascending
        self.took: list[float] = []
        self._next = 0.0
        self._elapsed = 0.0  # reference seconds from the first sample to the last

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection would time the program's heap
        try:
            started = perf_counter()
            reference_work()
            took = perf_counter() - started
        finally:
            if enabled:
                gc.enable()
        if self.at:
            self._elapsed += (started - self.at[-1]) * self._recent_scale()
        self.at.append(started)
        self.took.append(took)
        self._next = started + SAMPLE_EVERY_S

    def _recent_scale(self) -> float:
        return REFERENCE_S / statistics.median(self.took[-BURST:])

    def elapsed(self) -> float:
        """Reference seconds since the first sample, at the latest scale."""
        return self._elapsed + (perf_counter() - self.at[-1]) * self._recent_scale()

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    def tick(self) -> None:
        """Sample if ``SAMPLE_EVERY_S`` has passed since the last sample."""
        if perf_counter() >= self._next:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median reference time within
        ``WINDOW_S`` of [start, end] (the nearest sample if none)."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:
            i = min(lo, len(self.at) - 1)
            if i > 0 and start - self.at[i - 1] < self.at[i] - end:
                i -= 1
            lo, hi = i, i + 1
        return REFERENCE_S / statistics.median(self.took[lo:hi])

    @property
    def median_s(self) -> float:
        return statistics.median(self.took)
