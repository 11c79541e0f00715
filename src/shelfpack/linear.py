"""Exact solver for instances where no disk can hide in a gap or wall gap.

In such *linear case* instances every optimal placement is a chain of
pairwise touching disks, so only the left-to-right order matters.  The
optimal order interleaves large and small disks outward from the middle
and can be written down after one sort, on integers for exact data
(:func:`~shelfpack.geometry.by_size`).
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .errors import DomainError, PreconditionError
from .geometry import Disk, Placement, SpanReport, by_size, compact, span
from .geometry import wall_fit_exceeds
from .scalars import unified_backend


def is_linear_case(disks: Iterable[Disk]) -> bool:
    """Whether the smallest disk fits in no gap and no wall gap.

    With a, b the two largest sizes and z the smallest, the instance is
    linear iff 1/z < 1/a + 1/b and z > (sqrt(2) - 1) a, both strict.
    The first comparison is evaluated as a*b < z*(a + b).  The three sizes
    are read in linear time, without sorting.
    """
    sizes = [d.size for d in disks]
    if not sizes:
        raise DomainError("the linear-case test needs at least one disk")
    unified_backend(sizes)
    if len(sizes) == 1:
        return True  # a lone disk has no gap to hide in
    a, b = heapq.nlargest(2, sizes)
    z = min(sizes)
    return a * b < z * (a + b) and wall_fit_exceeds(z, a)


def _interleave(desc: Sequence[Disk]) -> list[Disk]:
    """Even-count pattern: largest and smallest meet in the middle, the
    remaining disks alternate outward by parity of their size rank."""
    n = len(desc)
    half = n // 2
    left: list[Disk] = []
    right: list[Disk] = []
    for j in range(half):
        if j % 2 == 0:
            left.append(desc[j])
            right.append(desc[n - 1 - j])
        else:
            left.append(desc[n - 1 - j])
            right.append(desc[j])
    left.reverse()
    return left + right


def solve_linear(disks: Iterable[Disk]) -> tuple[Placement, SpanReport]:
    """Compact the span-minimal order of a linear-case instance; consecutive
    disks all touch.

    For an odd count the median disk goes to whichever end of the
    even-count pattern yields the smaller compacted span (ties keep it on
    the right).  Each candidate order is compacted exactly once.
    """
    disks = list(disks)
    if not is_linear_case(disks):
        raise PreconditionError("not a linear-case instance")
    desc = by_size(disks, "solve_linear")[0]
    n = len(desc)
    if n % 2 == 0:
        candidates = [_interleave(desc)]
    else:
        median = desc[n // 2]
        pattern = _interleave(desc[: n // 2] + desc[n // 2 + 1 :])
        candidates = [[median] + pattern, pattern + [median]]
    best = None
    for order in candidates:
        placement = compact(order)
        report = span(placement)
        if best is None or report.span <= best[1].span:  # ties: the later one
            best = (placement, report)
    return best
