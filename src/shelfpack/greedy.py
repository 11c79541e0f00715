"""Greedy span-minimizing placement with a 4/3 approximation certificate.

Disks are placed in decreasing size order.  Each disk goes into the widest
gap that can hold it; if no gap fits, it extends an end, preferring an end
placement that does not grow the span.  A priority queue keyed by gap fit
size keeps the whole run in O(n log n).

The input is checked once, where :func:`greedy_solve` receives it: at
least one disk, and one backend for all sizes.  The loop then runs on
plain lists.  Float sizes are used as they are, with the same expressions
as the checked geometry functions, so every footpoint is bit-identical to
theirs.  Exact sizes become integers over their common denominator
(:func:`~shelfpack.scalars.integer_scale`), so no ``Fraction`` is reduced
inside the loop.  The :class:`Placement` built from the output sorts it
by footpoint and rejects duplicate ids, coinciding footpoints and float
footpoints that overflowed.  The certificate comes from the loop as well:
the span from the walls it tracks, the lower bound from one prefix pass
over the sizes it sorted.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DomainError
from .geometry import Disk, Placement, prefix_support_bound
from .scalars import Backend, Scalar, integer_scale, unified_backend


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
    queue_ops: int  # heap pushes plus non-stale pops; bounded by 3n


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
    items = list(disks)
    if not items:
        raise DomainError("greedy_solve requires at least one disk")
    sizes = [d.size for d in items]
    exact = unified_backend(sizes) is Backend.EXACT
    unit = 1
    if exact:
        # Integers over the common denominator D, so footpoints and walls
        # are integers over D**2.  An exact fit g/w is keyed by the integer
        # floor(g * unit / w).  Two different fits g/w and g'/w' differ by
        # at least 1/(w w'), and every w = 2(a+b) is at most 4 max(size),
        # so with unit at least (4 max(size))**2 the keys differ too: they
        # order fits exactly as the fits themselves, and
        # floor(g * unit / w) >= d * unit exactly when g/w >= d.
        sizes, scale = integer_scale(sizes)
        unit = 1 << 2 * (4 * max(sizes)).bit_length()
    rank = sorted(range(len(items)), key=lambda i: (-sizes[i], items[i].id))
    order = [items[i] for i in rank]
    ids = [d.id for d in order]
    sizes = [sizes[i] for i in rank]
    foot: list = [sizes[0] * 0]
    right_nb: list[int] = [-1]
    head = tail = 0
    left_wall = foot[0] - sizes[0] * sizes[0]
    right_wall = foot[0] + sizes[0] * sizes[0]
    # heap entries: (-fit, left id, left index, right index); -fit is the
    # float itself or the negated exact key
    heap: list[tuple] = []
    push, pop = heapq.heappush, heapq.heappop
    ops = 0  # heap pushes plus non-stale pops

    for k in range(1, len(sizes)):
        d = sizes[k]
        limit = d * unit
        pairs = None
        while heap:
            neg_fit, _, li, ri = heap[0]
            if right_nb[li] != ri:  # stale: the pair is no longer adjacent
                pop(heap)
                continue
            if -neg_fit < limit:
                break
            pop(heap)
            ops += 1
            if sizes[li] <= sizes[ri]:
                x = foot[li] + 2 * sizes[li] * d
            else:
                x = foot[ri] - 2 * sizes[ri] * d
            right_nb.append(ri)
            right_nb[li] = k
            pairs = ((li, k), (k, ri))
            break
        if pairs is None:
            x_left = foot[head] - 2 * sizes[head] * d
            x_right = foot[tail] + 2 * sizes[tail] * d
            fits_left = x_left - d * d >= left_wall
            fits_right = x_right + d * d <= right_wall
            if fits_left or (not fits_right and sizes[head] > sizes[tail]):
                x = x_left
                right_nb.append(head)
                pairs = ((k, head),)
                head = k
            else:
                x = x_right
                right_nb.append(-1)
                right_nb[tail] = k
                pairs = ((tail, k),)
                tail = k
        foot.append(x)
        for li, ri in pairs:
            gap = foot[ri] - foot[li]
            width = 2 * (sizes[li] + sizes[ri])
            fit = gap * unit // width if exact else gap / width
            push(heap, (-fit, ids[li], li, ri))
        ops += len(pairs)
        le = x - d * d
        re = x + d * d
        if le < left_wall:
            left_wall = le
        if re > right_wall:
            right_wall = re

    # The walls are the extents span() finds, and the bound is
    # best_support_lower_bound's prefix pass over the sizes sorted above.
    extent = right_wall - left_wall
    lower_bound = prefix_support_bound(sizes)
    if exact:
        square = scale * scale
        placement = Placement(order, [Fraction(x, square) for x in foot])
        certificate = Certificate(
            Fraction(extent, square),
            Fraction(lower_bound, square),
            Fraction(extent, lower_bound),
        )
    else:
        placement = Placement(order, foot)
        certificate = Certificate(extent, lower_bound, extent / lower_bound)
    return GreedyResult(placement, certificate, ops)

