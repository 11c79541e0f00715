"""Greedy span-minimizing placement with a 4/3 approximation certificate.

Disks are placed in decreasing size order.  Each disk goes into the widest
gap that can hold it; if no gap fits, it extends an end, preferring an end
placement that does not grow the span.  A priority queue keyed by gap fit
size keeps the whole run in O(n log n).

The input is checked, lifted and sorted once by the solvers' shared front
end, :func:`~shelfpack.geometry.by_size`.  The loop then runs on plain
lists.  Float sizes are used as they are, in the closed forms 2ab
(tangency) and g / (2(a + b)) (gap fit), so every footpoint is
bit-identical to the scalar reference greedy in the tests.  Exact sizes
arrive as integers over their common denominator, so no ``Fraction`` is
reduced inside the loop.  The output goes to :class:`Placement` in
footpoint order, by the neighbour links, as a
:class:`~shelfpack.scalars.Lift` of the loop's sizes and footpoints, and
it rejects duplicate ids, coinciding footpoints and float footpoints
that overflowed.  The certificate comes from the loop as
well: the span from the walls it tracks, the lower bound from one prefix
pass over the sorted sizes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import floordiv, truediv
from typing import Iterable

from .geometry import Disk, Placement, by_size, prefix_support_bound
from .scalars import Lift, Scalar


@dataclass(frozen=True)
class Certificate:
    """Span, a support-interval lower bound, and their ratio.

    The bound is the strongest support bound over size-decreasing
    prefixes (see :func:`best_support_lower_bound`); with it the greedy
    ratio is guaranteed to stay at or below 4/3.
    """

    span: Scalar
    lower_bound: Scalar
    ratio: Scalar


@dataclass(frozen=True)
class GreedyResult:
    placement: Placement
    certificate: Certificate
    queue_ops: int  # heap pushes plus pops: 3 per gap placement, 1 per end placement


def greedy_solve(disks: Iterable[Disk]) -> GreedyResult:
    """Place ``disks`` greedily and certify the result.

    Placement rules, applied to disks sorted by decreasing size (ties by
    id), with the first disk pinned at footpoint 0:

    1. If the widest gap fits the disk (non-strictly), place it there
       touching the smaller neighbour (size tie: touch the left one).
    2. Otherwise consider touching the leftmost-footpoint disk from the
       left and the rightmost-footpoint disk from the right.
    3. If either candidate keeps the current walls, take it (left first).
    4. Otherwise extend at the left if its end disk is strictly larger
       than the right one, else at the right.

    Gaps are ranked by (-fit, left id, left index, right index), where a
    gap between sizes a and b with footpoints g apart has fit g / (2(a+b)).
    """
    return _greedy(*by_size(disks, "greedy_solve requires at least one disk"))[0]


def _greedy(order: list[Disk], sizes: list, back) -> tuple[GreedyResult, Scalar]:
    """:func:`greedy_solve` on the output of ``by_size``; also returns the
    span in lifted units, an integer over D**2 on exact data."""
    exact = not isinstance(sizes[0], float)
    # Exact sizes are integers over their common denominator D, so
    # footpoints and walls are integers over D**2.  An exact fit g/w is
    # keyed by the integer floor(g * unit / w).  Two different fits g/w and
    # g'/w' differ by at least 1/(w w'), and every w = 2(a+b) is at most
    # 4 max(size), so with unit at least (4 max(size))**2 the keys differ
    # too: they order fits exactly as the fits themselves, and
    # floor(g * unit / w) >= d * unit exactly when g/w >= d.
    unit = 1 << 2 * (4 * max(sizes)).bit_length() if exact else 1
    ids = [d.id for d in order]
    n = len(sizes)
    foot: list = [sizes[0] * 0] * n
    right_nb = [-1] * n  # the right neighbour of each placed disk, or -1
    head = tail = 0
    left_wall = foot[0] - sizes[0] * sizes[0]
    right_wall = foot[0] + sizes[0] * sizes[0]
    # Heap entries: (-fit, left id, left index, right index); -fit is the
    # float itself or the negated exact key.  Only the top gap is ever
    # split, and it is split when it is taken, so every entry is a pair of
    # neighbours: there are no stale entries to skip.
    heap: list[tuple] = []
    push, replace = heapq.heappush, heapq.heapreplace
    div = floordiv if exact else truediv
    in_gaps = 0

    for k in range(1, n):
        d = sizes[k]
        if heap and -heap[0][0] >= d * unit:
            # the widest gap fits: its entry becomes its left half, and the
            # right half is pushed
            _, _, li, ri = heap[0]
            if sizes[li] <= sizes[ri]:
                x = foot[li] + 2 * sizes[li] * d
            else:
                x = foot[ri] - 2 * sizes[ri] * d
            foot[k] = x
            right_nb[k] = ri
            right_nb[li] = k
            gap, width = x - foot[li], 2 * (sizes[li] + d)
            replace(heap, (-div(gap * unit, width), ids[li], li, k))
            gap, width = foot[ri] - x, 2 * (d + sizes[ri])
            push(heap, (-div(gap * unit, width), ids[k], k, ri))
            in_gaps += 1
            # The disk is no larger than either neighbour and sits between
            # their footpoints, so it stays inside the walls: only end
            # placements move them.
            continue
        x_left = foot[head] - 2 * sizes[head] * d
        x_right = foot[tail] + 2 * sizes[tail] * d
        fits_left = x_left - d * d >= left_wall
        fits_right = x_right + d * d <= right_wall
        if fits_left or (not fits_right and sizes[head] > sizes[tail]):
            li, ri = k, head
            x = foot[k] = x_left
            right_nb[k] = head
            head = k
            if not fits_left:
                left_wall = x - d * d
        else:
            li, ri = tail, k
            x = foot[k] = x_right
            right_nb[tail] = k
            tail = k
            if not fits_right:
                right_wall = x + d * d
        gap, width = foot[ri] - foot[li], 2 * (sizes[li] + sizes[ri])
        push(heap, (-div(gap * unit, width), ids[li], li, ri))

    # The walls are the extents span() finds, and the bound is
    # best_support_lower_bound's prefix pass over the sorted sizes.
    lifted = right_wall - left_wall
    extent = back(lifted)
    lower_bound = back(prefix_support_bound(sizes))
    certificate = Certificate(extent, lower_bound, extent / lower_bound)
    # the links run left to right, so the columns go out in footpoint order
    # and the Placement need not sort them
    chain = []
    k = head
    while k >= 0:
        chain.append(k)
        k = right_nb[k]
    disks, sizes, foot = [list(map(column.__getitem__, chain)) for column in (order, sizes, foot)]
    placement = Placement(disks, Lift(sizes, foot, 1, back))
    # a gap placement pops one entry and pushes two, an end placement pushes one
    ops = n - 1 + 2 * in_gaps
    return GreedyResult(placement, certificate, ops), lifted

