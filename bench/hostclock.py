"""Host-speed calibration: why the benchmark's seconds are *reference* seconds.

The hosts this benchmark runs on are small shared virtual machines whose
speed swings by a factor of two over minutes: twelve back-to-back runs of
``warm_row`` read a raw median pass time of 0.72 s to 1.50 s (quartile
spread 47 %) with no change to anything, and a fixed pure-Python loop timed
beside them slowed down by the same factor.  A regression bound of 10 % means
nothing on such a clock.

So the harness runs a fixed calibration kernel between the operations it
times (never inside one), and every timing is multiplied by
``REFERENCE_S / <kernel time measured beside it>``.  The unit stays seconds:
seconds on a host where the kernel takes ``REFERENCE_S``.  A change to the
program moves a metric by its full share; a slow spell of the host cancels
(the same twelve runs normalised: quartile spread 4 %).  ``bench.host_scale``
reports the factor, so the raw time is ``value / bench.host_scale``.

The kernel mixes a cache-resident loop with a walk over a few megabytes of
row dicts, because the program is slowed by a busy neighbour more than the
first alone and less than the second alone.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

# What one kernel run takes on this benchmark's reference host (the quiet
# spells of the 2-core sandbox it was written on).  Only pins the unit.
REFERENCE_S = 0.0200

_SLICES = 3
_SLICE_ROWS = 10_000
_ROWS = [
    {"k": i * 7919 % 3000, "v": i * 0.5, "s": f"x{i * 31 % 100_000:05d}"}
    for i in range(_SLICES * _SLICE_ROWS)
]
random.Random(0).shuffle(_ROWS)  # list order is not allocation order


def _compute() -> int:
    counts: dict[int, int] = {}
    for i in range(60_000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    return counts[0]


def _walk(part: int) -> int:
    groups: dict[int, list] = {}
    for row in _ROWS[part * _SLICE_ROWS:(part + 1) * _SLICE_ROWS]:
        groups.setdefault(row["k"], []).append((row["s"], row["v"]))
    return sum(len(sorted(group)) for group in groups.values())


class HostClock:
    """Calibration samples on the ``perf_counter`` timeline, and the scale
    they imply for any interval of it."""

    MIN_GAP_S = 0.1  # tick() samples at most this often
    WINDOW_S = 1.0  # an interval is scaled by the samples this near to it

    def __init__(self) -> None:
        self._when: list[float] = []
        self._seconds: list[float] = []

    def sample(self) -> None:
        # No collection may start inside the kernel: its cost would depend
        # on how much the program holds.
        gc.disable()
        try:
            start = time.perf_counter()
            _compute()
            _walk(len(self._when) % _SLICES)
            end = time.perf_counter()
        finally:
            gc.enable()
        self._when.append((start + end) / 2)
        self._seconds.append(end - start)

    def tick(self) -> None:
        """Sample unless one was taken within the last ``MIN_GAP_S``."""
        if not self._when or time.perf_counter() - self._when[-1] >= self.MIN_GAP_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per measured second over ``[start, end]``: from
        the mean of the samples within ``WINDOW_S`` of it.  A single sample
        is as jittery as a single short operation; the mean of a dozen
        follows the host's slow swings, which is what has to cancel."""
        lo = bisect.bisect_left(self._when, start - self.WINDOW_S)
        hi = bisect.bisect_right(self._when, end + self.WINDOW_S)
        return REFERENCE_S / statistics.mean(self._seconds[lo:hi] or self._seconds)

    def median_scale(self) -> float:
        return REFERENCE_S / statistics.median(self._seconds)
