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
from .scalars import Backend, Lift, Scalar, _over, coerce, lift, unified_backend


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


def _valid_column(ids: list, sizes: Sequence, exact: type = Fraction, tokens: bool = False) -> bool:
    """Whether ``Disk`` takes each id with its size as it is, checked once
    per column: ``str`` tokens (joined and split again they come back
    unchanged) none of which starts with ``#``, and positive sizes, all of
    type ``exact`` (the file reader's int numerators have positive
    denominators) or all finite floats with radii that are normal floats.
    ``tokens`` skips the id half, for the ids a file's ``str.split()`` made."""
    if not tokens:
        try:
            joined = " ".join(ids)
            # one character search settles the usual column with no '#' at all
            if joined.split() != ids or ("#" in joined and (joined[0] == "#" or " #" in joined)):
                return False
        except TypeError:  # an id that is not a str
            return False
    kinds = set(map(type, sizes))
    if len(sizes) != len(ids) or kinds not in ({exact}, {float}):
        return False
    if kinds == {exact}:
        return min(map(attrgetter("numerator"), sizes)) > 0
    # x*x is monotone for x > 0, so the extremes bound every radius
    low, high = min(sizes), max(sizes)
    return (
        all(map(math.isfinite, sizes))
        and low > 0 and _RADIUS_MIN <= low * low and high * high <= _RADIUS_MAX
    )


def _disk_column(ids: list[str], sizes: Sequence[Scalar], checked: bool = False) -> list[Disk]:
    """``list(map(Disk, ids, sizes))``, with the checks run once per column
    when it passes :func:`_valid_column` (or was ``checked`` before), and
    no ``Disk.__init__``.  Any other columns go through ``Disk`` one
    element at a time, which names the first offender."""
    if checked or _valid_column(ids, sizes):
        disks = list(map(object.__new__, repeat(Disk, len(ids))))
        list(map(_SET_ID, disks, ids))
        list(map(_SET_SIZE, disks, sizes))
        return disks
    return list(map(Disk, ids, sizes))


class Placement(_Frozen):
    """``disks[i]`` at ``footpoints[i]``, sorted by strictly increasing
    footpoint.

    ``Placement(disks, footpoints)`` is the one public way to build a
    placement, and it checks everything a placement promises: at least one
    disk, one footpoint per disk, every footpoint a scalar (ints become
    exact, float footpoints must be finite; a :class:`Lift` is not one),
    one backend over sizes and footpoints, unique ids and strictly
    increasing footpoints.  The columns are sorted by footpoint first; an
    offender is named in footpoint order.

    A placement is its id column and one :class:`Lift` of its columns (see
    :func:`~shelfpack.scalars.lift`), on which equality, hash and repr do
    not depend: equality compares two lifts of one scale (the same c and
    Q) column by column, and any others by value.  The order checks run on
    the lift, as integers for exact data, and :func:`span`,
    :func:`verify`, the file writer, the SVG and ``decode_partition`` read
    the ids and the lift.  The solvers and the file reader hand their own
    id column and lift to :func:`_placement`, which runs the same checks
    (:func:`_placed`).  ``disks`` and ``footpoints`` are built from the ids
    and the lift when first read, so the disks read back as plain
    :class:`Disk` objects, whatever went in.
    """

    __slots__ = ("disks", "footpoints", "_lift", "_ids")
    __match_args__ = ("disks", "footpoints")

    def __init__(self, disks: Sequence[Disk], footpoints: Sequence[Scalar]) -> None:
        disks, feet = tuple(disks), tuple(footpoints)
        if not disks:
            raise DomainError("a placement must contain at least one disk")
        if len(disks) != len(feet):
            raise DomainError(
                f"a placement needs one footpoint per disk, got {len(disks)} "
                f"disks and {len(feet)} footpoints"
            )
        coerced = []
        for disk, x in zip(disks, feet):
            try:
                coerced.append(coerce(x))
            except DomainError as exc:
                raise DomainError(f"disk {disk.id!r} has footpoint {x!r}") from exc
        sizes = [d.size for d in disks]
        unified_backend(sizes + coerced)
        _placed(self, [d.id for d in disks], lift(sizes, coerced))

    def __getattr__(self, name: str):
        # called only for an unset slot: the disks or the footpoints, built
        # from the id column and the lift
        if name == "disks":
            sizes, _, c, back = self._lift
            q = _over(back)
            if q is not None:  # one Fraction S/D per distinct integer S over D
                d = math.isqrt(q // c)
                size_of = {s: Fraction(s, d) for s in set(sizes)}
                sizes = list(map(size_of.__getitem__, sizes))
            value = tuple(_disk_column(self._ids, sizes, True))  # checked on entry
        elif name == "footpoints":
            value = tuple(map(self._lift.back, self._lift.feet))
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self._lift, other._lift
        if mine.c == theirs.c and _over(mine.back) == _over(theirs.back):
            # one scale: the lifted columns compare as their values do
            return (self._ids, mine.sizes, mine.feet) == (other._ids, theirs.sizes, theirs.feet)
        return (self.disks, self.footpoints) == (other.disks, other.footpoints)

    def __hash__(self) -> int:
        return hash((self.disks, self.footpoints))

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(disks={self.disks!r}, "
            f"footpoints={self.footpoints!r})"
        )

    def __reduce__(self):
        return _placement, (self._ids, self._lift)

    @property
    def backend(self) -> Backend:
        return Backend.FLOAT if self._lift.back is float else Backend.EXACT

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[tuple[Disk, Scalar]]:
        return zip(self.disks, self.footpoints)


_SET_LIFT, _SET_IDS = Placement._lift.__set__, Placement._ids.__set__


def _placement(ids: list[str], lifted: Lift) -> Placement:
    """The placement of the id column ``ids`` and the lift of its sizes
    and footpoints, whose types and backend are trusted: how the solvers,
    the file reader and unpickling build one."""
    placement = object.__new__(Placement)
    _placed(placement, ids, lifted)
    return placement


def _placed(placement: Placement, ids: list[str], kept: Lift) -> None:
    """Set ``ids`` and ``kept`` on ``placement``, sorted by footpoint, after
    the checks of :class:`Placement` that a file also needs: finite float
    footpoints, unique ids, no coinciding footpoints."""
    sizes, points, _, back = kept
    if back is float and not all(map(math.isfinite, points)):
        x, disk_id = next((x, i) for x, i in zip(points, ids) if not math.isfinite(x))
        raise DomainError(f"disk {disk_id!r} has footpoint {x!r}")
    # compaction and parsed files deliver footpoints in order already
    ordered = all(map(lt, points, points[1:]))
    if not ordered:
        order = sorted(range(len(points)), key=points.__getitem__)
        ids = list(map(ids.__getitem__, order))
        points = list(map(points.__getitem__, order))
        kept = kept._replace(sizes=list(map(sizes.__getitem__, order)), feet=points)
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        for disk_id in ids:
            if disk_id in seen:
                raise DomainError(f"duplicate disk id {disk_id!r} in placement")
            seen.add(disk_id)
    if not ordered:
        for k in range(1, len(points)):
            if points[k - 1] == points[k]:
                raise DomainError(
                    f"footpoints of {ids[k - 1]!r} and {ids[k]!r} coincide"
                )
    _SET_IDS(placement, ids)
    _SET_LIFT(placement, kept)  # disks and footpoints stay unset until read


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


def _staircase(sizes: Sequence, feet: list, pair, tolerance=None):
    """For each disk k in order, the largest of x and every feet[j] +
    pair*sizes[j]*sizes[k], j < k, and the j attaining it (the largest on
    a tie; -1 if x does).  With ``tolerance`` None this compacts: x is
    sizes[k]**2 and the maxima fill ``feet``, which comes back.  Else x is
    feet[k] + tolerance; the first (j, k, maximum) with j >= 0 or None.

    ``feet`` increase; ``stack`` keeps the earlier disks that can still
    attain a later maximum, by strictly decreasing size: j goes once a
    later k has sizes[j] <= sizes[k], whose candidate is then at least j's
    for every later disk, and later on a tie.  The search runs down from
    the top to the first kept j with feet[j] + pair*sizes[bottom]*sizes[k]
    <= x, as every kept i below j has feet[i] < feet[j] and sizes[i] <=
    sizes[bottom].  Rounded float ``+`` and ``*`` are monotone, and c = 1
    makes pair*sizes[k] exact, so float candidates round as the greedy's.
    """
    stack: list = []
    for k, s in enumerate(sizes):
        x = s * s if tolerance is None else feet[k] + tolerance
        arg = -1
        if stack:
            ps = pair * s
            reach = ps * sizes[stack[0]]
            for j in reversed(stack):
                xj = feet[j]
                if xj + reach <= x:
                    break
                c = xj + ps * sizes[j]
                if c > x:
                    x, arg = c, j
            while stack and sizes[stack[-1]] <= s:
                stack.pop()
        if tolerance is None:
            feet.append(x)
        elif arg >= 0:
            return arg, k, x
        stack.append(k)
    return feet if tolerance is None else None


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
    by id, the map ``back``, and each disk's rank in id order, by which
    the greedy breaks ties between gaps.  Exact sizes sort as integers
    over D."""
    # two stable sorts, the disks by id and then their id ranks by size;
    # reverse keeps ties in id order
    items = sorted(disks, key=attrgetter("id"))
    sizes, _, _, back = _lifted_sizes(items, empty_message)
    ranks = sorted(range(len(items)), key=sizes.__getitem__, reverse=True)
    return list(map(items.__getitem__, ranks)), list(map(sizes.__getitem__, ranks)), back, ranks


def compact(order: Iterable[Disk]) -> Placement:
    """Left-compact ``order``: give each disk the smallest feasible footpoint.

    The first wall is normalized to coordinate 0, so every footpoint is
    x_k = max(size_k**2, max_{j<k} x_j + 2 size_j size_k), found by the
    one scan loop :func:`_staircase`, which :func:`verify` runs too.  This
    is the componentwise-minimal solution of the separation system for the
    given footpoint order and therefore span-minimal for that order.

    The sizes must share one backend; exact sizes run as integers (see
    :func:`~shelfpack.scalars.lift`), and the footpoints go to
    :func:`_placement` as a :class:`Lift` over D**2, which checks the
    output once: unique ids, and float footpoints that did not
    overflow.
    """
    order = list(order)  # read once: an iterator is empty the second time
    lifted = _lifted_sizes(order, "cannot compact an empty order")
    return _placement([d.id for d in order], lifted._replace(feet=_compacted(lifted.sizes)))


def _compacted(sizes: Sequence) -> list:
    """:func:`compact`'s footpoints for sizes already lifted, in order."""
    return _staircase(sizes, [], 2)


def _compact_columns(order: Sequence[Disk], sizes: Sequence, back, chain: Sequence[int]) -> tuple:
    """:func:`compact` of the disks ``order[k]`` for k in ``chain``, on the
    columns of :func:`by_size`, which are not lifted again, and its span,
    lifted: the largest x + r, since the first wall is 0."""
    sizes = [sizes[k] for k in chain]
    feet = _compacted(sizes)
    extent = max(map(add, feet, map(mul, sizes, sizes)))
    return _placement([order[k].id for k in chain], Lift(sizes, feet, 1, back)), extent


def span(placement: Placement) -> SpanReport:
    """Measure the span on the placement's kept lift, as integers for exact
    data (see :class:`Placement`); ties at a wall go to the smallest id."""
    if not isinstance(placement, Placement):
        raise DomainError("span requires a non-empty placement")
    return _span(placement._ids, *placement._lift)


def _span(ids: Sequence[str], sizes, feet, c, back) -> SpanReport:
    r = c * sizes[0] * sizes[0]
    left, left_id = feet[0] - r, ids[0]
    right, right_id = feet[0] + r, left_id
    for k in range(1, len(feet)):
        x = feet[k]
        r = c * sizes[k] * sizes[k]
        le, re = x - r, x + r
        if le < left or (le == left and ids[k] < left_id):
            left, left_id = le, ids[k]
        if re > right or (re == right and ids[k] < right_id):
            right, right_id = re, ids[k]
    return SpanReport(back(left), back(right), back(right - left), left_id, right_id)


def verify(placement: Placement, tolerance: Scalar) -> VerificationResult:
    """Check x_k - x_j >= 2 s_j s_k within ``tolerance`` for all j < k.

    The exact backend requires tolerance exactly 0.  A float placement
    takes any tolerance as a float; one beyond the float range is a
    :class:`DomainError`, and so is a float placement whose span leaves
    the float range, as every deficit is then within it.  Disk k is
    overlapped when compaction's scan,
    :func:`_staircase`, started at x_k + tolerance, finds an earlier disk
    j with x_j + 2 s_j s_k beyond it, so float compactions pass at
    tolerance 0; the span report, a pass of its own, comes either way.  A
    rejection names the first overlapped disk in footpoint order, the
    earlier disk that overlaps it most and their deficit
    x_j + 2 s_j s_k - x_k.  The check reads the placement's kept lift, so
    exact data is checked on integers without lifting again.
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
    ids = placement._ids
    sizes, feet, c, back = placement._lift
    report = _span(ids, sizes, feet, c, back)
    if not exact and report.span == math.inf:
        raise DomainError("the span of this placement leaves the float range")
    found = _staircase(sizes, feet, 2 * c, tolerance)
    if found is None:
        return VerificationResult(True, report, None)
    j, k, x = found
    return VerificationResult(False, report, Violation(ids[j], ids[k], back(x - feet[k])))


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

