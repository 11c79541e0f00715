"""Greedy span-minimizing placement with a 4/3 approximation certificate.

Disks are placed in decreasing size order.  Each disk goes into the widest
gap that can hold it; if no gap fits, it extends an end, preferring an end
placement that does not grow the span.  A priority queue keyed by gap fit
size keeps the whole run in O(n log n).

The input is checked, lifted and sorted once by the solvers' shared front
end, :func:`~shelfpack.geometry.by_size`.  The loop then runs on plain
lists, from the largest disk alone or, for the exact oracle's bound of a
linear-case prefix, from that prefix's chain.  Float sizes are used as they are, in the closed forms 2ab
(tangency) and g / (2(a + b)) (gap fit).  A disk placed against its right
neighbour at f takes x = f - 2ab, stepped down an ulp at a time while the
rounded x + 2ab, as :func:`~shelfpack.geometry.verify` forms it, exceeds
f; in a gap, never below where it touches its left neighbour.  Exact sizes
arrive as integers over their common denominator, so no ``Fraction`` is
reduced inside the loop and no footpoint moves.  The output goes to
:class:`Placement` in footpoint order, by the neighbour links, as a
:class:`~shelfpack.scalars.Lift` of the loop's sizes and footpoints, and
it rejects duplicate ids, coinciding footpoints and float footpoints that
overflowed.  The certificate comes from the loop as well: the span from
the walls it tracks, the lower bound from one prefix pass over the sizes.
"""

from __future__ import annotations

import heapq
from math import inf, nextafter
from operator import floordiv, truediv
from typing import Iterable, NamedTuple, Sequence

from .geometry import Disk, Placement, by_size, prefix_support_bound
from .scalars import Lift, Scalar


class Certificate(NamedTuple):
    """Span, a support-interval lower bound, and their ratio.

    The bound is the strongest support bound over size-decreasing
    prefixes (see :func:`best_support_lower_bound`); with it the greedy
    ratio is guaranteed to stay at or below 4/3.
    """

    span: Scalar
    lower_bound: Scalar
    ratio: Scalar


class GreedyResult(NamedTuple):
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
    order, sizes, back = by_size(disks, "greedy_solve requires at least one disk")
    placement, extent, in_gaps = _greedy(order, sizes, back)
    extent = back(extent)
    lower_bound = back(prefix_support_bound(sizes))
    certificate = Certificate(extent, lower_bound, extent / lower_bound)
    # a gap placement pops one entry and pushes two, an end placement pushes one
    ops = len(sizes) - 1 + 2 * in_gaps
    return GreedyResult(placement, certificate, ops)


def _greedy(order: list, sizes: list, back, chain: Sequence[int] = (0,), feet=None) -> tuple:
    """The greedy's loop on :func:`~shelfpack.geometry.by_size`'s columns,
    started from the largest disk alone at 0 or from a placed chain.

    ``chain`` holds indices 0 to m - 1 of the columns in footpoint order,
    at the increasing footpoints ``feet`` (lifted, as the loop's own), and
    every neighbour pair in it a gap; disks m to n - 1 are then placed by
    the rules of :func:`greedy_solve`.  Returns the placement, its extent
    (lifted) and the number of gap placements.
    """
    if feet is None:
        feet = [sizes[0] * 0]
    exact = not isinstance(sizes[0], float)
    # Exact sizes are integers over their common denominator D, so
    # footpoints and walls are integers over D**2.  An exact fit g/w is
    # keyed by the integer floor(g * unit / w).  Two different fits g/w and
    # g'/w' differ by at least 1/(w w'), and every w = 2(a+b) is at most
    # 4 max(size), so with unit at least (4 max(size))**2 the keys differ
    # too: they order fits exactly as the fits themselves, and
    # floor(g * unit / w) >= d * unit exactly when g/w >= d.
    unit = 1 << 2 * (4 * max(sizes)).bit_length() if exact else 1
    div = floordiv if exact else truediv
    ids = [d.id for d in order]
    n = len(sizes)
    foot: list = [feet[0]] * n
    right_nb = [-1] * n  # the right neighbour of each placed disk, or -1
    for k, x in zip(chain, feet):
        foot[k] = x
    head, tail = chain[0], chain[-1]
    left_wall = min(foot[k] - sizes[k] * sizes[k] for k in chain)
    right_wall = max(foot[k] + sizes[k] * sizes[k] for k in chain)
    # Heap entries: (-fit, left id, left index, right index); -fit is the
    # float itself or the negated exact key.  Only the top gap is ever
    # split, and it is split when it is taken, so every entry is a pair of
    # neighbours: there are no stale entries to skip.
    heap: list[tuple] = []
    for li, ri in zip(chain, chain[1:]):
        right_nb[li] = ri
        gap, width = foot[ri] - foot[li], 2 * (sizes[li] + sizes[ri])
        heap.append((-div(gap * unit, width), ids[li], li, ri))
    heapq.heapify(heap)
    push, replace = heapq.heappush, heapq.heapreplace
    in_gaps = 0

    for k in range(len(chain), n):
        d = sizes[k]
        if heap and -heap[0][0] >= d * unit:
            # the widest gap fits: its entry becomes its left half, and the
            # right half is pushed
            _, _, li, ri = heap[0]
            x = foot[li] + 2 * sizes[li] * d
            if sizes[li] > sizes[ri]:
                w = 2 * sizes[ri] * d
                y = foot[ri] - w
                while y + w > foot[ri]:
                    y = nextafter(y, -inf)
                x = max(x, y)
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
        w = 2 * sizes[head] * d
        x_left = foot[head] - w
        while x_left + w > foot[head]:
            x_left = nextafter(x_left, -inf)
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

    # the links run left to right, so the columns go out in footpoint order
    # and the Placement need not sort them
    walk = []
    k = head
    while k >= 0:
        walk.append(k)
        k = right_nb[k]
    disks, sizes, foot = [list(map(column.__getitem__, walk)) for column in (order, sizes, foot)]
    return Placement(disks, Lift(sizes, foot, 1, back)), right_wall - left_wall, in_gaps

