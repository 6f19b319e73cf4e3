"""Track the machine's speed while a pass runs, so times can be scaled to a reference speed.

On a shared machine the speed of one core drifts by up to 1.5x over tens of
seconds as neighbours come and go, and a run of 20 s cannot average that
out: raw pass times then spread by about 35% between runs.  A fixed
pure-Python kernel, run between items every few milliseconds, slows down
with the machine, so every timed interval is scaled by ``REFERENCE_S``
over the kernel's time measured on either side of it.  The kernel is this
file's own code, so no change to burgebox can move it, and its own time is
left out of every timed interval.
"""

from __future__ import annotations

import bisect
import time

clock = time.perf_counter
cpu_clock = time.process_time

# Kernel time at the reference speed: its median on the 2-core machine the
# benchmark was built on, while that machine was quiet.  Only ratios between
# runs matter; this constant just keeps the scaled figures near real seconds.
REFERENCE_S = 1.0e-4
INTERVAL_S = 2.0e-3  # work between two kernel runs
BURST = 5  # kernel runs at most per tick, after a long item; also the runs averaged per side


def _partitions(n, largest):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def kernel() -> int:
    """Tuple, list, dict, generator and small modular-arithmetic work, like burgebox's own."""
    seen = {}
    for p in _partitions(7, 7):
        f = [0] * (p[0] if p else 0)
        for x in p:
            f[x - 1] += 1
        seen[tuple(f)] = ",".join(map(str, p))
    m = [[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1], [0, 0, 1, 1]]
    for _ in range(3):
        m = [[sum(a * b for a, b in zip(row, col)) % 2 for col in zip(*m)] for row in m]
    return len(seen) + sum(map(sum, m))


class SpeedProbe:
    """Runs the kernel at most every INTERVAL_S of work and keeps when it ran and how long it took."""

    def __init__(self):
        self.starts: list = []
        self.ends: list = []
        self.cpu = 0.0  # process time spent in the kernel
        self._due = clock()

    @property
    def wall(self) -> float:
        return sum(self.ends) - sum(self.starts)

    def tick(self) -> bool:
        """Run the kernel if it is due; True when it ran.

        After a long item it runs up to BURST times, so that the speed
        around a long stretch of work is known as well as around a short one.
        """
        start = clock()
        if start < self._due:
            return False
        behind = int((start - self._due) / INTERVAL_S) + 1
        c0 = cpu_clock()
        for _ in range(min(BURST, behind)):
            kernel()
            end = clock()
            self.starts.append(start)
            self.ends.append(end)
            start = end
        self.cpu += cpu_clock() - c0
        self._due = end + INTERVAL_S
        return True

    def force(self) -> None:
        """Run the kernel BURST times now."""
        self._due = clock() - BURST * INTERVAL_S
        self.tick()

    def scaled(self, t0: float, t1: float) -> float:
        """Reference-speed seconds of the work done in [t0, t1].

        Kernel runs inside the interval are left out.  Each stretch between
        them is scaled by ``REFERENCE_S`` over the mean time of the BURST
        kernel runs on either side of it.
        """
        starts, ends = self.starts, self.ends
        i = bisect.bisect_left(starts, t0)
        total = 0.0
        a = t0
        while True:
            inside = i < len(starts) and starts[i] < t1
            b = starts[i] if inside else t1
            near = [ends[j] - starts[j] for j in range(max(0, i - BURST), min(len(starts), i + BURST))]
            total += (b - a) * REFERENCE_S * len(near) / sum(near) if near else b - a
            if not inside:
                return total
            a = ends[i]
            i += 1
