"""Exact solver for instances where no disk can hide in a gap or wall gap.

In such *linear case* instances every optimal placement is a chain of
pairwise touching disks, so only the left-to-right order matters.  The
optimal order interleaves large and small disks outward from the middle
and can be written down after a single sort.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Optional, Sequence

from .errors import DomainError, PreconditionError
from .geometry import Disk, Placement, SpanReport, compact, span, wall_fit_exceeds
from .scalars import Scalar, unified_backend

LinearOrder = list[Disk]


def is_linear_case(disks: Iterable[Disk]) -> bool:
    """Whether the smallest disk fits in no gap and no wall gap.

    With a, b the two largest sizes and z the smallest, the instance is
    linear iff 1/z < 1/a + 1/b and z > (sqrt(2) - 1) a, both strict.
    The first comparison is evaluated as a*b < z*(a + b).  The three sizes
    are read in linear time, without sorting.
    """
    sizes = [d.size for d in disks]
    if len(sizes) < 2:
        raise DomainError("the linear-case test needs at least 2 disks")
    unified_backend(sizes)
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


def _best_compaction(
    disks: Iterable[Disk],
) -> tuple[LinearOrder, Placement, SpanReport]:
    """The optimal order with its compaction and span report; each
    candidate order is compacted exactly once."""
    disks = list(disks)
    if not disks:
        raise DomainError("cannot order an empty disk set")
    if len(disks) == 1:
        candidates = [disks]
    elif not is_linear_case(disks):
        raise PreconditionError("not a linear-case instance")
    else:
        desc = sorted(disks, key=lambda d: (-d.size, d.id))
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
        if best is None or report.span <= best[2].span:  # ties: the later one
            best = (order, placement, report)
    return best


def optimal_linear_order(disks: Iterable[Disk]) -> LinearOrder:
    """Span-minimal left-to-right order for a linear-case instance.

    For an odd count the median disk goes to whichever end of the
    even-count pattern yields the smaller compacted span (ties keep it on
    the right).
    """
    return _best_compaction(disks)[0]


def solve_linear(disks: Iterable[Disk]) -> tuple[Placement, SpanReport]:
    """Compact the optimal linear order; consecutive disks all touch."""
    _, placement, report = _best_compaction(disks)
    return placement, report


def reversal_improvement(
    order: Sequence[Disk], i: int, j: int
) -> Optional[tuple[Scalar, LinearOrder]]:
    """Try to shorten a touching chain by reversing ``order[i+1 .. j]``.

    ``i`` indexes a disk A whose successor is B, ``j`` indexes the disk Z
    where the reversed run ends.  On a touching chain the span change is
    closed-form and negative exactly in these cases:

    * Z is the last disk and a > b > z, or a < b < z:
      delta = (b + z - 2a) * (b - z)
    * Z is interior with successor Y, and (a > y and b > z) or
      (a < y and b < z): delta = 2 * (a - y) * (z - b)

    Returns ``(delta, reversed_order)`` when one case applies, else None.
    The deltas describe spans of fully touching chains, which is what
    compaction produces on linear-case instances.
    """
    if not (0 <= i < j < len(order)):
        raise DomainError(f"need 0 <= i < j < {len(order)}, got i={i}, j={j}")
    a = order[i].size
    b = order[i + 1].size
    z = order[j].size
    delta: Optional[Scalar] = None
    if j == len(order) - 1:
        if (a > b > z) or (a < b < z):
            delta = (b + z - 2 * a) * (b - z)
    else:
        y = order[j + 1].size
        if (a > y and b > z) or (a < y and b < z):
            delta = 2 * (a - y) * (z - b)
    if delta is None:
        return None
    reversed_order = list(order[: i + 1])
    reversed_order.extend(reversed(order[i + 1 : j + 1]))
    reversed_order.extend(order[j + 1 :])
    return delta, reversed_order
