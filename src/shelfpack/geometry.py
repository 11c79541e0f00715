"""Tangency geometry for disks resting on the x-axis.

A disk is described by its *size*, the square root of its radius.  Two
touching disks of sizes ``a`` and ``b`` have footpoints (axis tangency
points) exactly ``2*a*b`` apart, which makes every constraint here a
polynomial in the sizes and therefore exactly representable over the
rational backend.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import repeat
from operator import add, attrgetter, lt, mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import DomainError
from .scalars import Backend, Lift, Scalar, backend_of, coerce, lift, unified_backend


# A float size must have a radius size*size that is a normal float: an
# infinite radius has no geometry, and a subnormal or zero one has lost the
# relative precision that spans and their lower bound are divided by.
_RADIUS_MIN, _RADIUS_MAX = sys.float_info.min, sys.float_info.max


class _Frozen:
    """Immutability for the slotted records below: assigning or deleting
    any attribute raises :class:`AttributeError`.  Their own constructors
    and lazy fields set slots through the slot descriptors instead."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Disk(_Frozen):
    """A disk identified by ``id`` with positive size (radius = size**2).

    A float size must have a radius that is a normal float.  Disks are
    immutable and compare and hash by ``(id, size)``."""

    __slots__ = ("id", "size")
    __match_args__ = ("id", "size")

    def __init__(self, id: str, size: Scalar) -> None:
        # "".split() is [], so the empty id fails the token test too
        if not isinstance(id, str) or id.split() != [id]:
            raise DomainError(f"disk id must be a non-empty token, got {id!r}")
        if id[0] == "#":  # files read such a line as a comment
            raise DomainError(f"disk id must not start with '#', got {id!r}")
        size = coerce(size)
        if size <= 0:
            raise DomainError(f"disk {id!r} has non-positive size {size}")
        if isinstance(size, float) and not _RADIUS_MIN <= size * size <= _RADIUS_MAX:
            raise DomainError(
                f"disk {id!r} has size {size!r}, whose radius leaves the float range"
            )
        _SET_ID(self, id)
        _SET_SIZE(self, size)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.id, self.size) == (other.id, other.size)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.id, self.size))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(id={self.id!r}, size={self.size!r})"

    def __reduce__(self):
        return type(self), (self.id, self.size)

    @property
    def radius(self) -> Scalar:
        return self.size * self.size


# the slot setters of the frozen Disk, for its constructor and for building
# disks from proven columns
_SET_ID, _SET_SIZE = Disk.id.__set__, Disk.size.__set__


def _proven(values: Sequence) -> bool:
    """Whether ``coerce`` would return every value as it is: all exact
    ``float`` and finite, or all exact ``Fraction``.  Checked per column,
    so a float subclass, an int or a bool leaves the caller to ``coerce``."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return all(map(math.isfinite, values))
    return kinds == {Fraction}


def _disk_column(ids: Sequence[str], sizes: Sequence[Scalar]) -> list[Disk]:
    """``list(map(Disk, ids, sizes))``, with the checks run once per column.

    The ids must all be ``str`` tokens (joined and split again they come
    back unchanged) none of which starts with ``#``, and the sizes must
    pass :func:`_proven` with a positive minimum (float sizes: and radii
    that are normal floats, as ``Disk`` demands); then the disks are built
    without ``Disk.__init__``.  Any other columns go through ``Disk``
    one element at a time, which names the first offender."""
    if not isinstance(ids, list):  # the token check compares with a list
        ids = list(ids)
    try:
        joined = " ".join(ids)
        # one character search settles the usual column with no '#' at all
        tokens = joined.split() == ids and not (
            "#" in joined and (joined[0] == "#" or " #" in joined)
        )
    except TypeError:  # an id that is not a str
        tokens = False
    if tokens and len(sizes) == len(ids) and _proven(sizes):
        if type(sizes[0]) is Fraction:
            valid = min(map(attrgetter("numerator"), sizes)) > 0
        else:  # x*x is monotone for x > 0, so the extremes bound every radius
            low, high = min(sizes), max(sizes)
            valid = low > 0 and _RADIUS_MIN <= low * low and high * high <= _RADIUS_MAX
        if valid:
            disks = list(map(object.__new__, repeat(Disk, len(ids))))
            list(map(_SET_ID, disks, ids))
            list(map(_SET_SIZE, disks, sizes))
            return disks
    return list(map(Disk, ids, sizes))


class Placement(_Frozen):
    """``disks[i]`` at ``footpoints[i]``, sorted by strictly increasing
    footpoint.

    ``Placement(disks, footpoints)`` is the one way to build a placement,
    and it checks everything a placement promises: at least one disk, one
    footpoint per disk, every footpoint a scalar (ints become exact, float
    footpoints must be finite), one backend over sizes and footpoints,
    unique ids and strictly increasing footpoints.  The columns are sorted
    by footpoint first; an offender is named in footpoint order.

    A placement is its disks and one :class:`Lift` of its columns (see
    :func:`~shelfpack.scalars.lift`), kept outside equality, hash and repr:
    the order checks run on it, as integers for exact data, and
    :func:`span`, :func:`verify`, the file writer and the SVG read it
    instead of lifting again.  The footpoints are built from the lift when
    first read.  The solvers and the file reader pass a ``Lift`` of the
    disks' sizes as the footpoints.  Its types and backend are trusted,
    but float footpoints that overflowed take the checks of plain
    footpoints (see :func:`_lift_footpoints`), which name the disk.
    """

    __slots__ = ("disks", "footpoints", "_lift")
    __match_args__ = ("disks", "footpoints")

    def __init__(self, disks: Sequence[Disk], footpoints: Sequence[Scalar] | Lift) -> None:
        disks, kept = tuple(disks), footpoints
        feet = kept.feet if type(kept) is Lift else tuple(kept)
        if not disks:
            raise DomainError("a placement must contain at least one disk")
        if len(disks) != len(feet):
            raise DomainError(
                f"a placement needs one footpoint per disk, got {len(disks)} "
                f"disks and {len(feet)} footpoints"
            )
        if type(kept) is not Lift or (kept.back is float and not all(map(math.isfinite, feet))):
            kept = _lift_footpoints(disks, feet)
        points = kept.feet
        # compaction and parsed files deliver footpoints in order already
        in_order = all(map(lt, points, points[1:]))
        if not in_order:
            order = sorted(range(len(points)), key=points.__getitem__)
            disks = tuple(map(disks.__getitem__, order))
            points = list(map(points.__getitem__, order))
            kept = kept._replace(sizes=list(map(kept.sizes.__getitem__, order)), feet=points)
        ids = [d.id for d in disks]
        if len(set(ids)) < len(ids):
            seen: set[str] = set()
            for disk_id in ids:
                if disk_id in seen:
                    raise DomainError(f"duplicate disk id {disk_id!r} in placement")
                seen.add(disk_id)
        if not in_order:
            for k in range(1, len(points)):
                if points[k - 1] == points[k]:
                    raise DomainError(
                        f"footpoints of {ids[k - 1]!r} and {ids[k]!r} coincide"
                    )
        _SET_DISKS(self, disks)
        _SET_LIFT(self, kept)  # the footpoints slot stays unset until read

    def __getattr__(self, name: str):
        # called only for an unset slot: the footpoints, built from the lift
        if name != "footpoints":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        _, lifted, _, back = self._lift
        feet = tuple(map(back, lifted))
        _SET_FEET(self, feet)
        return feet

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.disks, self.footpoints) == (other.disks, other.footpoints)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.disks, self.footpoints))

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(disks={self.disks!r}, "
            f"footpoints={self.footpoints!r})"
        )

    def __reduce__(self):
        # the kept lift goes through the constructor, which trusts a Lift
        return type(self), (self.disks, self._lift)

    @property
    def backend(self) -> Backend:
        return backend_of(self.disks[0].size)

    def __len__(self) -> int:
        return len(self.disks)

    def __iter__(self) -> Iterator[tuple[Disk, Scalar]]:
        return zip(self.disks, self.footpoints)


_SET_DISKS, _SET_FEET, _SET_LIFT = (
    Placement.disks.__set__, Placement.footpoints.__set__, Placement._lift.__set__
)


def _lift_footpoints(disks: Sequence[Disk], feet: Sequence) -> Lift:
    """The checks of plain footpoints, then their lift with the disks'
    sizes: each footpoint a scalar as :func:`~shelfpack.scalars.coerce`
    makes it, its disk named on failure, and one backend over sizes and
    footpoints."""
    coerced = []
    for disk, x in zip(disks, feet):
        try:
            coerced.append(coerce(x))
        except DomainError as exc:
            raise DomainError(f"disk {disk.id!r} has footpoint {x!r}") from exc
    sizes = [d.size for d in disks]
    unified_backend(sizes + coerced)
    return lift(sizes, coerced)


class SpanReport(NamedTuple):
    left_wall: Scalar
    right_wall: Scalar
    span: Scalar
    left_disk_id: str
    right_disk_id: str


class Violation(NamedTuple):
    left_disk_id: str
    right_disk_id: str
    deficit: Scalar


class VerificationResult(NamedTuple):
    ok: bool
    report: SpanReport
    violation: Optional[Violation]


def _wall_gap_overflows(z, a) -> bool:
    """Whether a size-``z`` disk overflows the gap between a size-``a`` disk
    and the vertical wall through its extreme point: z > (sqrt(2) - 1) * a,
    compared as (z + a)**2 > 2 * a**2 so that no irrational value is ever
    formed.  The sizes are positive and of one backend, lifted or not."""
    return (z + a) * (z + a) > 2 * a * a


def _reach(sizes: Sequence, feet: Sequence, stack: list, k: int, x, pair) -> tuple:
    """``max(x, max_{j<k} feet[j] + pair*sizes[j]*sizes[k])`` and the j
    that attains it (the largest such j on a tie), or -1 if ``x`` does;
    then push k onto ``stack``.

    ``feet[:k]`` increase, and ``stack`` holds the earlier disks that can
    still attain the maximum for a later disk: a staircase of strictly
    decreasing sizes from bottom to top.  A disk j is dropped once a later
    disk k has ``sizes[j] <= sizes[k]``: for every later disk m, j's
    candidate is then at most k's, and on a tie k is the later one.  The
    scan runs down from the top and stops at the first kept j with
    feet[j] + pair*sizes[bottom]*sizes[k] <= x, x being the running
    maximum: every kept i below j has feet[i] < feet[j] and
    sizes[i] <= sizes[bottom].  Rounded float ``+`` and ``*`` are monotone,
    so both arguments hold on either backend, and the result is the full
    maximum.
    """
    s = sizes[k]
    arg = -1
    if stack:
        reach = pair * sizes[stack[0]] * s
        for j in reversed(stack):
            xj = feet[j]
            if xj + reach <= x:
                break
            c = xj + pair * sizes[j] * s
            if c > x:
                x, arg = c, j
        while stack and sizes[stack[-1]] <= s:
            stack.pop()
    stack.append(k)
    return x, arg


def _lifted_sizes(disks: Iterable[Disk], empty_message: str) -> Lift:
    """The front door of every size column: at least one disk (else a
    :class:`DomainError` with ``empty_message``) and one backend, then the
    sizes lifted once (see :func:`~shelfpack.scalars.lift`), with c = 1."""
    sizes = [d.size for d in disks]
    if not sizes:
        raise DomainError(empty_message)
    unified_backend(sizes)
    return lift(sizes)


def by_size(disks: Iterable[Disk], empty_message: str) -> tuple:
    """The solvers' front end: the disks and their sizes as
    :func:`_lifted_sizes` checks and lifts them, by decreasing size, ties
    by id, and the map ``back``.  Exact sizes sort as integers over D."""
    items = list(disks)
    sizes, _, _, back = _lifted_sizes(items, empty_message)
    # two stable sorts, by id and then by size; reverse keeps ties in order
    rank = sorted(range(len(items)), key=[d.id for d in items].__getitem__)
    rank.sort(key=sizes.__getitem__, reverse=True)
    return [items[i] for i in rank], [sizes[i] for i in rank], back


def compact(order: Sequence[Disk]) -> Placement:
    """Left-compact ``order``: give each disk the smallest feasible footpoint.

    The first wall is normalized to coordinate 0, so every footpoint is
    x_k = max(size_k**2, max_{j<k} x_j + 2 size_j size_k), found by
    :func:`_reach`.  This is the componentwise-minimal solution of the
    separation system for the given footpoint order and therefore
    span-minimal for that order.

    The sizes must share one backend; exact sizes run as integers (see
    :func:`~shelfpack.scalars.lift`), and the footpoints go to the
    :class:`Placement` as a :class:`Lift` over D**2.  The placement checks
    the output once: unique ids, and float footpoints that did not
    overflow.
    """
    lifted = _lifted_sizes(order, "cannot compact an empty order")
    return Placement(order, lifted._replace(feet=_compacted(lifted.sizes)))


def _compacted(sizes: Sequence) -> list:
    """:func:`compact`'s footpoints for sizes already lifted, in order."""
    feet: list = []
    stack: list = []
    for k, s in enumerate(sizes):
        feet.append(_reach(sizes, feet, stack, k, s * s, 2)[0])
    return feet


def _compact_columns(order: Sequence[Disk], sizes: Sequence, back, chain: Sequence[int]) -> tuple:
    """:func:`compact` of the disks ``order[k]`` for k in ``chain``, on the
    columns of :func:`by_size`, which are not lifted again, and its span,
    lifted: the largest x + r, since the first wall is 0."""
    sizes = [sizes[k] for k in chain]
    feet = _compacted(sizes)
    extent = max(map(add, feet, map(mul, sizes, sizes)))
    return Placement([order[k] for k in chain], Lift(sizes, feet, 1, back)), extent


def span(placement: Placement) -> SpanReport:
    """Measure the span on the placement's kept lift, as integers for exact
    data (see :class:`Placement`); ties at a wall go to the smallest id."""
    if not isinstance(placement, Placement):
        raise DomainError("span requires a non-empty placement")
    return _span(placement.disks, *placement._lift)


def _span(disks: Sequence[Disk], sizes, feet, c, back) -> SpanReport:
    r = c * sizes[0] * sizes[0]
    left, left_id = feet[0] - r, disks[0].id
    right, right_id = feet[0] + r, left_id
    for k in range(1, len(feet)):
        x = feet[k]
        r = c * sizes[k] * sizes[k]
        le, re = x - r, x + r
        if le < left or (le == left and disks[k].id < left_id):
            left, left_id = le, disks[k].id
        if re > right or (re == right and disks[k].id < right_id):
            right, right_id = re, disks[k].id
    return SpanReport(back(left), back(right), back(right - left), left_id, right_id)


def verify(placement: Placement, tolerance: Scalar) -> VerificationResult:
    """Check x_k - x_j >= 2 s_j s_k within ``tolerance`` for all j < k.

    The exact backend requires tolerance exactly 0.  A float placement
    takes any tolerance as a float; one beyond the float range is a
    :class:`DomainError`.  Disk k is overlapped when :func:`_reach`,
    started at x_k + tolerance, finds an earlier disk j with
    x_j + 2 s_j s_k beyond it, evaluated as :func:`compact` builds it, so
    float compactions pass at tolerance 0.  A rejection names the first
    overlapped disk in footpoint order, the earlier disk that overlaps it
    most and their deficit x_j + 2 s_j s_k - x_k; the span report comes
    either way.  The check reads the placement's kept lift, so exact data
    is checked on integers without lifting again (see :class:`Placement`).
    """
    tolerance = coerce(tolerance)
    if tolerance < 0:
        raise DomainError("tolerance must be non-negative")
    exact = placement.backend is Backend.EXACT
    if exact and tolerance != 0:
        raise DomainError("exact backend requires tolerance = 0")
    try:
        tolerance = 0 if exact else float(tolerance)
    except OverflowError:
        raise DomainError("tolerance is beyond the float range") from None
    disks = placement.disks
    sizes, feet, c, back = placement._lift
    report = _span(disks, sizes, feet, c, back)
    pair = 2 * c
    stack = [0]
    for k in range(1, len(feet)):
        x, j = _reach(sizes, feet, stack, k, feet[k] + tolerance, pair)
        if j >= 0:
            overlap = Violation(disks[j].id, disks[k].id, back(x - feet[k]))
            return VerificationResult(False, report, overlap)
    return VerificationResult(True, report, None)


def best_support_lower_bound(disks: Iterable[Disk]) -> Scalar:
    """Strongest support bound over size-decreasing prefixes of ``disks``.

    The support bound of a disk set with smallest size m is the total
    length 4*m*sum(s_i) - 2*n*m**2 of the open intervals of length
    4*s_i*m - 2*m**2 around the footpoints, which every valid placement
    keeps disjoint inside its span.

    Adding a disk smaller than all others can *weaken* that bound (the
    normalizing minimum drops), so the bound of some prefix of the disks
    sorted by decreasing size may exceed the full-set bound.
    Every prefix bound is still a valid lower bound for the whole
    instance, because a placement of all disks restricts to one of the
    prefix.  This maximum is the bound the greedy certificate is measured
    against.
    """
    # Each prefix bound depends only on the multiset of sizes in the
    # prefix, so the sizes alone are sorted; ties need no order.
    empty = "best_support_lower_bound requires at least one disk"
    sizes, _, _, back = _lifted_sizes(disks, empty)
    return back(prefix_support_bound(sorted(sizes, reverse=True)))


def prefix_support_bound(sizes: Sequence[Scalar]) -> Scalar:
    """Kernel of :func:`best_support_lower_bound` on sizes that are already
    sorted in decreasing order and share one backend.  Exact sizes may be
    passed as the integers S over D of :func:`~shelfpack.scalars.lift`;
    the bound is then an integer over D**2."""
    best = None
    running = 0 * sizes[0]
    for count, m in enumerate(sizes, start=1):
        running += m  # m is the smallest size within the prefix
        bound = 4 * m * running - 2 * count * m * m
        if best is None or bound > best:
            best = bound
    return best

