"""A fixed piece of the benchmark's own work that clocks the machine.

The benchmark's reference host (a few vCPUs of a shared machine) runs the
same code up to about 40% slower for seconds to minutes at a time, and the
slowdown shows in process CPU time as much as in wall time.  Every timed
operation is therefore bracketed by two runs of ``work``, which does the
same kinds of things the program does (integer and float arithmetic,
tuples, sorting, a heap, ``Fraction`` arithmetic, number formatting and
parsing) on a fixed input, and its time is reported as

    seconds * REF_SECONDS / mean(reference before, reference after)

that is, in seconds of a machine on which ``work`` takes ``REF_SECONDS``.
Nothing here imports the program, so a change to the program moves the
operation's time and not the reference.  The run after one operation also
serves as the run before the next, when nothing else ran in between.
"""

from __future__ import annotations

import heapq
import time
from fractions import Fraction

# Typical time of ``work`` on the reference host (nproc = 2, Python 3.11).
REF_SECONDS = 0.04
# A run that ended less than this long ago is reused by ``before``.
REUSE_WITHIN = 0.25

_last_end = float("-inf")
_last = 0.0


def work() -> int:
    total = 0
    for i in range(80000):
        total += i * i % 7
    rows = [(float(i * 7919 % 1009) * 1.5, i) for i in range(18000)]
    rows.sort()
    heap: list[tuple[float, int]] = []
    for row in rows[:9000]:
        heapq.heappush(heap, (-row[0], row[1]))
    while heap:
        total += heapq.heappop(heap)[1]
    acc = Fraction(0)
    for k in range(1, 900):
        acc += Fraction(k * k % 1013 + 1000, 1000) * Fraction(k + 1000, 1000)
    text = " ".join(repr(x) for x, _ in rows[:9000])
    total += int(sum(float(t) for t in text.split())) + acc.numerator % 7
    return total


def seconds() -> float:
    """Time of a fresh run of ``work``."""
    global _last, _last_end
    start = time.perf_counter()
    work()
    _last_end = time.perf_counter()
    _last = _last_end - start
    return _last


def before() -> float:
    """Time of a run of ``work`` just before an operation: the last run,
    if it ended under ``REUSE_WITHIN`` seconds ago, else a fresh one."""
    if time.perf_counter() - _last_end < REUSE_WITHIN:
        return _last
    return seconds()


def scale(before: float, after: float) -> float:
    """The factor that turns seconds measured between a reference run taking
    ``before`` and one taking ``after`` into reference seconds."""
    return REF_SECONDS / ((before + after) / 2)
