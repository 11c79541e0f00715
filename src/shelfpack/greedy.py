"""Greedy span-minimizing placement with a 4/3 approximation certificate.

Disks are placed in decreasing size order.  Each disk goes into the widest
gap that can hold it; if no gap fits, it extends an end, preferring an end
placement that does not grow the span.  A priority queue keyed by gap fit
size keeps the whole run in O(n log n): a heap of one number per gap,
with the left disk's id rank folded into exact keys and bit-for-bit float
ties settled by id in a small side heap.  A gap too narrow for the
smallest disk is never pushed.

The input is checked, lifted and sorted once by the solvers' shared front
end, :func:`~shelfpack.geometry.by_size`.  The loop then runs on plain
lists, from the largest disk alone or, for the exact oracle's bound of a
linear-case prefix, from that prefix's chain.  Float sizes are used as they are, in the closed forms 2ab
(tangency) and g / (2(a + b)) (gap fit).  A disk placed against its right
neighbour at f takes x = f - 2ab, stepped down an ulp at a time while the
rounded x + 2ab, as :func:`~shelfpack.geometry.verify` forms it, exceeds
f; in a gap, never below where it touches its left neighbour.  Exact sizes
arrive as integers over their common denominator, so no ``Fraction`` is
reduced inside the loop and no footpoint moves.  The id column and a
:class:`~shelfpack.scalars.Lift` of the loop's sizes and footpoints go out
in footpoint order, by the neighbour links, as one :class:`Placement`,
which rejects duplicate ids, coinciding footpoints and float footpoints
that overflowed.  The certificate comes from the loop as well: the span from
the walls it tracks, the lower bound from one prefix pass over the sizes.
"""

from __future__ import annotations

import heapq
from math import inf, nextafter
from typing import Iterable, NamedTuple, Sequence

from .geometry import Disk, Placement, _placement, by_size, prefix_support_bound
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
    # the paper's queue operations, pushes plus pops: 3 per gap placement,
    # 1 per end placement; the heap makes fewer, as it skips narrow gaps
    queue_ops: int


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

    The widest gap is the one of largest fit, ties going to the gap whose
    left disk has the smallest id, where a gap between sizes a and b with
    footpoints g apart has fit g / (2(a+b)).
    """
    order, sizes, back, ranks = by_size(disks, "greedy_solve requires at least one disk")
    placement, extent, in_gaps = _greedy(order, sizes, back, ranks)
    extent = back(extent)
    lower_bound = back(prefix_support_bound(sizes))
    certificate = Certificate(extent, lower_bound, extent / lower_bound)
    # in the paper's queue a gap placement pops one entry and pushes two,
    # and an end placement pushes one
    ops = len(sizes) - 1 + 2 * in_gaps
    return GreedyResult(placement, certificate, ops)


def _greedy(order: list, sizes: list, back, ranks, chain: Sequence[int] = (0,), feet=None) -> tuple:
    """The greedy's loop on :func:`~shelfpack.geometry.by_size`'s columns,
    started from the largest disk alone at 0 or from a placed chain.

    ``ranks`` are the disks' ranks in id order, as ``by_size`` gives them.
    ``chain`` holds indices 0 to m - 1 of the columns in footpoint order,
    at the increasing footpoints ``feet`` (lifted, as the loop's own), and
    every neighbour pair in it a gap; disks m to n - 1 are then placed by
    the rules of :func:`greedy_solve`.  Returns the placement, its extent
    (lifted) and the number of gap placements.
    """
    if feet is None:
        feet = [sizes[0] * 0]
    ids = [d.id for d in order]
    n = len(sizes)
    exact = not isinstance(sizes[0], float)
    # A gap's key orders it in the heap: the negated fit itself for floats.
    # Exact sizes are integers over their common denominator D, so
    # footpoints and walls are integers over D**2, and a gap g apart of
    # width w = 2(a+b) has fit g/w.  Two different fits g/w and g'/w'
    # differ by at least 1/(w w'), and every w is at most 4 max(size), so
    # with unit above 2n (4 max(size))**2 the floors of g * unit / w of
    # different fits lie more than n apart.  The key is the left disk's id
    # rank, below n, minus that floor: it orders gaps by fit and then by
    # left id, and no two gaps share one.  The floor is at least d * unit
    # exactly when g/w >= d, which is when the key is at most
    # bias - d * unit, with bias = n - 1.
    unit, bias = 1, 0
    if exact:
        unit = 1 << 2 * (4 * sizes[0]).bit_length() + (2 * n).bit_length()
        bias = n - 1
    # a gap whose key is above the cutoff fits no disk, the smallest
    # included, so it is never pushed
    cutoff = bias - sizes[-1] * unit
    foot: list = [feet[0]] * n
    right_nb = [-1] * n  # the right neighbour of each placed disk, or -1
    for k, x in zip(chain, feet):
        foot[k] = x
    head, tail = chain[0], chain[-1]
    left_wall = min(foot[k] - sizes[k] * sizes[k] for k in chain)
    right_wall = max(foot[k] + sizes[k] * sizes[k] for k in chain)
    # The heap holds one key per pushed gap, and ``where`` maps each key to
    # its gap's left index; the right one is right_nb[left].  Float keys
    # that tie bit for bit map to -1 instead, and their gaps wait in
    # ``tied`` as (key, left id rank, left index), so the smallest left id
    # goes first.  Only the top gap is ever split, and it is split when it
    # is taken, so every key is a gap between neighbours: none is stale.
    heap: list = []
    where: dict = {}
    tied: list[tuple] = []
    push, pop, replace = heapq.heappush, heapq.heappop, heapq.heapreplace

    def tie(key, li: int) -> None:
        # the gap at li ties with the gap or gaps ``key`` maps to
        old = where[key]
        if old >= 0:
            where[key] = -1
            push(tied, (key, ranks[old], old))
        push(tied, (key, ranks[li], li))

    for li, ri in zip(chain, chain[1:]):
        right_nb[li] = ri
        gap, width = foot[ri] - foot[li], 2 * (sizes[li] + sizes[ri])
        key = ranks[li] - gap * unit // width if exact else -gap / width
        if key <= cutoff:
            if where.setdefault(key, li) != li:
                tie(key, li)
            heap.append(key)
    heapq.heapify(heap)
    in_gaps = 0

    for k in range(len(chain), n):
        d = sizes[k]
        if heap and heap[0] <= bias - d * unit:
            # the widest gap fits: its key gives way to its left half's, and
            # its right half's is pushed, each if the smallest disk fits it
            key = heap[0]
            li = where.pop(key)
            if li < 0:
                li = pop(tied)[2]
                if tied and tied[0][0] == key:
                    where[key] = -1
            ri = right_nb[li]
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
            key = ranks[li] - gap * unit // width if exact else -gap / width
            if key <= cutoff:
                if where.setdefault(key, li) != li:
                    tie(key, li)
                replace(heap, key)
            else:
                pop(heap)
            gap, width = foot[ri] - x, 2 * (d + sizes[ri])
            key = ranks[k] - gap * unit // width if exact else -gap / width
            if key <= cutoff:
                if where.setdefault(key, k) != k:
                    tie(key, k)
                push(heap, key)
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
        key = ranks[li] - gap * unit // width if exact else -gap / width
        if key <= cutoff:
            if where.setdefault(key, li) != li:
                tie(key, li)
            push(heap, key)

    # the links run left to right, so the columns go out in footpoint order
    # and the placement need not sort them
    walk = []
    k = head
    while k >= 0:
        walk.append(k)
        k = right_nb[k]
    ids, sizes, foot = [list(map(column.__getitem__, walk)) for column in (ids, sizes, foot)]
    return _placement(ids, Lift(sizes, foot, 1, back)), right_wall - left_wall, in_gaps

