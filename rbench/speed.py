"""Host time in reference seconds.

Shared cloud hosts change speed by up to 1.7x within seconds (the vCPU's
sibling hyperthread or core is busy, or not), which swamps any change a
program makes.  ``SpeedClock`` cancels that drift: it splits a timed
region into short intervals at ``mark()`` points, runs a fixed
pure-Python reference kernel at every mark, and scales each interval by
``REFERENCE_S`` over the mean of the reference times that bracket it.
A region that takes t seconds while the kernel takes r seconds reads
``t * REFERENCE_S / r``: seconds on a host that runs the kernel in
exactly ``REFERENCE_S``.  The kernel is the benchmark's own code, so a
change to the program moves the scaled time and never the reference.

Marks are placed between units of work (rounds, simulation chunks,
grid units), a few tenths of a second apart, so each interval sees one
host speed.  Time spent in the kernel is outside every interval.
"""

from __future__ import annotations

import heapq
import random
import time

#: Nominal kernel time; scaled times are in seconds of a host that runs
#: the kernel this fast.
REFERENCE_S = 0.006


def kernel(steps: int = 6000) -> int:
    """Heap, dict and tuple traffic in the proportions of the DES hot
    path; about 6 ms on a 2020s x86-64 core."""
    rng = random.Random(1)
    heap = [(rng.random(), i, {}) for i in range(256)]
    heapq.heapify(heap)
    counts: dict = {}
    seq = 256
    for _ in range(steps):
        when, _, slots = heapq.heappop(heap)
        key = (seq % 97, "k")
        counts[key] = counts.get(key, 0) + 1
        slots[seq % 13] = when
        seq += 1
        heapq.heappush(heap, (when + rng.random(), seq, slots))
    return len(counts)


def reference_time() -> float:
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


class SpeedClock:
    """Accumulates scaled (``total``) and raw (``raw``) time over the
    intervals between ``start()`` and successive ``mark()`` calls.

    With ``scaled=False`` no kernel runs and every interval counts at
    face value (the traced run, whose spans want raw time).
    """

    def __init__(self, scaled: bool = True):
        self.scaled = scaled
        self.total = 0.0
        self.raw = 0.0
        self._ref = None
        self._since = None

    def _reference(self) -> float:
        return reference_time() if self.scaled else REFERENCE_S

    def start(self) -> None:
        self._ref = self._reference()
        self._since = time.perf_counter()

    def mark(self) -> float:
        """Close the running interval and open the next; returns the
        closed interval's scale factor."""
        elapsed = time.perf_counter() - self._since
        ref = self._reference()
        scale = REFERENCE_S / ((self._ref + ref) / 2.0)
        self.total += elapsed * scale
        self.raw += elapsed
        self._ref = ref
        self._since = time.perf_counter()
        return scale
