"""Exact solver for instances where no disk can hide in a gap or wall gap.

In such *linear case* instances every optimal placement is a chain of
pairwise touching disks, so only the left-to-right order matters.  The
optimal order interleaves large and small disks outward from the middle
and can be written down after one sort, on integers for exact data
(:func:`~shelfpack.geometry.by_size`); it is compacted once.  One
predicate, :func:`_hides_nowhere`, decides the linear case.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .errors import PreconditionError
from .geometry import Disk, Placement, SpanReport, by_size, span
from .geometry import _compact_columns, _lifted_sizes, _wall_gap_overflows
from .geometry import compact  # unused here; bench/spans.py times compact through this name

_EMPTY = "the linear-case test needs at least one disk"


def is_linear_case(disks: Iterable[Disk]) -> bool:
    """Whether the smallest disk can hide in no gap and no wall gap.

    With a, b the two largest sizes and z the smallest, found in linear
    passes, the instance is linear iff 1/z <= 1/a + 1/b and
    z > (sqrt(2) - 1) a (see :func:`_hides_nowhere`).  Both are
    homogeneous of degree 2 in the sizes, so they are read from the sizes
    lifted once (see :func:`~shelfpack.geometry._lifted_sizes`): exact
    sizes as the integers S = size*D over their common denominator D,
    floats as they are.  A lone disk has no gap to hide in.
    """
    sizes = _lifted_sizes(disks, _EMPTY).sizes
    return len(sizes) == 1 or _hides_nowhere(*heapq.nlargest(2, sizes), min(sizes))


def _hides_nowhere(a, b, z) -> bool:
    """Whether a size-``z`` disk hides in no gap and no wall gap of disks
    whose two largest sizes are a >= b.  The first comparison,
    1/z <= 1/a + 1/b evaluated as a*b <= z*(a + b), admits equality, as
    the paper's radius ratio of at most four does: a disk that fits the
    gap of two touching disks exactly touches both, so it cannot hide
    there.  The second, z > (sqrt(2) - 1) a, has an irrational boundary,
    which no rational or float size attains, so it stays strict."""
    return a * b <= z * (a + b) and _wall_gap_overflows(z, a)


def _linear(sizes: Sequence) -> bool:
    """:func:`is_linear_case` on lifted sizes in decreasing order: a and b
    are the first two and z the last, read without a pass over them."""
    return len(sizes) == 1 or _hides_nowhere(sizes[0], sizes[1], sizes[-1])


def _linear_prefix(sizes: Sequence) -> int:
    """The length K of the longest linear-case prefix of lifted ``sizes``
    in decreasing order.  The prefixes of lengths 1 to K are exactly the
    linear ones: a and b stay the first two sizes, and both comparisons
    of :func:`_hides_nowhere` only get harder as z shrinks."""
    a = sizes[0]
    b = sizes[1] if len(sizes) > 1 else a
    k = 1
    for z in sizes[1:]:
        if not _hides_nowhere(a, b, z):
            break
        k += 1
    return k


def _interleave(desc: Sequence[int]) -> list[int]:
    """Even-count pattern over the size ranks ``desc``: largest and
    smallest meet in the middle, the remaining ranks alternate outward by
    parity.  Of an odd count the median ``desc[n // 2]`` is left out."""
    n = len(desc)
    half = n // 2
    left: list[int] = []
    right: list[int] = []
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

    For an odd count, :func:`_interleave` leaves out the median m, which
    goes to the end of the pattern that gives the smaller span.  In the
    linear case every compaction is a chain of touching disks whose walls
    are its end disks: otherwise some disk would sit in the gap of two
    touching disks or in a wall gap.  A disk that fits such a gap exactly
    still reaches its predecessor: the two maxima in the compaction tie,
    so it touches both disks.  So the span of an order is
    r_first + sum 2 s_i s_(i+1) + r_last, and with a, b the sizes at the
    pattern's ends, m first minus m last is
    (m**2 + 2 m a + b**2) - (a**2 + 2 b m + m**2) = (a - b)(2m - a - b).
    m goes first iff that is negative; ties keep it on the right.
    """
    order, sizes, back, _ = by_size(disks, _EMPTY)
    if not _linear(sizes):  # tested on the sizes by_size lifted
        raise PreconditionError("not a linear-case instance")
    placement, _ = _compact_columns(order, sizes, back, _linear_order(sizes))
    return placement, span(placement)


def _linear_order(sizes: Sequence) -> list[int]:
    """:func:`solve_linear`'s order of sizes sorted in decreasing order,
    as indices into them: the interleave, and the median by its rule."""
    n = len(sizes)
    ranks = _interleave(range(n))
    if n % 2:
        m = n // 2
        a, b = (sizes[ranks[0]], sizes[ranks[-1]]) if ranks else (sizes[m],) * 2
        ranks = [m] + ranks if (a - b) * (a + b - 2 * sizes[m]) > 0 else ranks + [m]
    return ranks
