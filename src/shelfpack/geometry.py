"""Tangency geometry for disks resting on the x-axis.

A disk is described by its *size*, the square root of its radius.  Two
touching disks of sizes ``a`` and ``b`` have footpoints (axis tangency
points) exactly ``2*a*b`` apart, which makes every constraint here a
polynomial in the sizes and therefore exactly representable over the
rational backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import lt
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DomainError
from .scalars import (
    Backend,
    Scalar,
    backend_of,
    coerce,
    integer_scale,
    unified_backend,
)


@dataclass(frozen=True)
class Disk:
    """A disk identified by ``id`` with positive size (radius = size**2)."""

    id: str
    size: Scalar

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id or self.id.split() != [self.id]:
            raise DomainError(f"disk id must be a non-empty token, got {self.id!r}")
        object.__setattr__(self, "size", coerce(self.size))
        if self.size <= 0:
            raise DomainError(f"disk {self.id!r} has non-positive size {self.size}")

    @property
    def radius(self) -> Scalar:
        return self.size * self.size


@dataclass(frozen=True)
class Placement:
    """``disks[i]`` at ``footpoints[i]``, sorted by strictly increasing
    footpoint.

    ``Placement(disks, footpoints)`` is the one way to build a placement,
    and it checks everything a placement promises: at least one disk, one
    footpoint per disk, every footpoint a scalar (ints become exact, float
    footpoints must be finite), one backend over sizes and footpoints,
    unique ids and strictly increasing footpoints.  The columns are sorted
    by footpoint first; an offender is named in footpoint order.
    """

    disks: tuple[Disk, ...]
    footpoints: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        disks, feet = tuple(self.disks), tuple(self.footpoints)
        if not disks:
            raise DomainError("a placement must contain at least one disk")
        if len(disks) != len(feet):
            raise DomainError(
                f"a placement needs one footpoint per disk, got {len(disks)} "
                f"disks and {len(feet)} footpoints"
            )
        feet = tuple(map(_coerce_footpoint, disks, feet))
        unified_backend([d.size for d in disks] + list(feet))
        order = sorted(range(len(feet)), key=feet.__getitem__)
        disks = tuple(map(disks.__getitem__, order))
        feet = tuple(map(feet.__getitem__, order))
        ids = [d.id for d in disks]
        if len(set(ids)) < len(ids):
            seen: set[str] = set()
            for disk_id in ids:
                if disk_id in seen:
                    raise DomainError(f"duplicate disk id {disk_id!r} in placement")
                seen.add(disk_id)
        if not all(map(lt, feet, feet[1:])):
            for k in range(1, len(feet)):
                if not feet[k - 1] < feet[k]:
                    raise DomainError(
                        f"footpoints of {ids[k - 1]!r} and {ids[k]!r} coincide"
                    )
        object.__setattr__(self, "disks", disks)
        object.__setattr__(self, "footpoints", feet)

    @property
    def backend(self) -> Backend:
        return backend_of(self.disks[0].size)

    def __len__(self) -> int:
        return len(self.disks)

    def __iter__(self) -> Iterator[tuple[Disk, Scalar]]:
        return zip(self.disks, self.footpoints)


def _coerce_footpoint(disk: Disk, x: Scalar | int) -> Scalar:
    try:
        return coerce(x)
    except DomainError as exc:
        raise DomainError(f"disk {disk.id!r} has footpoint {x!r}") from exc


@dataclass(frozen=True)
class SpanReport:
    left_wall: Scalar
    right_wall: Scalar
    span: Scalar
    left_disk_id: str
    right_disk_id: str


@dataclass(frozen=True)
class Violation:
    left_disk_id: str
    right_disk_id: str
    deficit: Scalar


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    report: SpanReport
    violation: Optional[Violation]


def wall_fit_exceeds(z: Scalar, a: Scalar) -> bool:
    """Whether a size-``z`` disk overflows the gap between a size-``a`` disk
    and the vertical wall through its extreme point.

    The threshold is (sqrt(2) - 1) * a; the comparison is carried out as
    (z + a)**2 > 2 * a**2 so that no irrational value is ever formed.
    """
    z, a = coerce(z), coerce(a)
    unified_backend((z, a))
    if z <= 0 or a <= 0:
        raise DomainError("sizes must be positive")
    s = z + a
    return s * s > 2 * a * a


def compact(order: Sequence[Disk]) -> Placement:
    """Left-compact ``order``: give each disk the smallest feasible footpoint.

    The first wall is normalized to coordinate 0, so every footpoint is
    x_i = max(size_i**2, max_{j<i} x_j + 2 size_j size_i).  This is the
    componentwise-minimal solution of the separation system for the given
    footpoint order and therefore span-minimal for that order.

    The earlier disks are scanned backward from i-1, and the scan stops at
    the first j with x_j + 2 max_size size_i <= x, x being the running
    maximum.  Compacted footpoints strictly increase, so every disk k < j
    has x_k < x_j and 2 size_k size_i <= 2 max_size size_i; since rounded
    float ``+`` and ``*`` are monotone too, its candidate cannot exceed x
    on either backend.  The result is the full maximum, found in time
    proportional to the disks within reach of disk i.

    The sizes must share one backend.  Exact sizes run as integers over
    their common denominator D (see
    :func:`~shelfpack.scalars.integer_scale`): every footpoint is a
    degree-2 polynomial in the sizes, so the loop yields D**2 times each
    footpoint, which becomes ``Fraction(x, D*D)`` at the end.  Floats run
    the same loop as they are.

    The :class:`Placement` built from the result checks the output once:
    unique ids, and float footpoints that did not overflow.
    """
    if not order:
        raise DomainError("cannot compact an empty order")
    sizes = [d.size for d in order]
    exact = unified_backend(sizes) is Backend.EXACT
    if exact:
        sizes, scale = integer_scale(sizes)
    twice_max = 2 * max(sizes)
    feet: list = []
    for s in sizes:
        x = s * s
        reach = twice_max * s
        for j in range(len(feet) - 1, -1, -1):
            xj = feet[j]
            if xj + reach <= x:
                break
            c = xj + 2 * sizes[j] * s
            if c > x:
                x = c
        feet.append(x)
    if exact:
        square = scale * scale
        feet = [Fraction(x, square) for x in feet]
    return Placement(order, feet)


def span(placement: Placement) -> SpanReport:
    """Measure the span; ties at either wall go to the smallest disk id."""
    if not isinstance(placement, Placement):
        raise DomainError("span requires a non-empty placement")
    disks, feet = placement.disks, placement.footpoints
    s, x, disk_id = disks[0].size, feet[0], disks[0].id
    left, left_id = x - s * s, disk_id
    right, right_id = x + s * s, disk_id
    for k in range(1, len(feet)):
        s, x, disk_id = disks[k].size, feet[k], disks[k].id
        le, re = x - s * s, x + s * s
        if le < left or (le == left and disk_id < left_id):
            left, left_id = le, disk_id
        if re > right or (re == right and disk_id < right_id):
            right, right_id = re, disk_id
    return SpanReport(left, right, right - left, left_id, right_id)


def verify(placement: Placement, tolerance: Scalar) -> VerificationResult:
    """Check pairwise separation |x_i - x_j| >= 2 s_i s_j within ``tolerance``.

    The exact backend requires tolerance exactly 0.  A float placement
    takes any tolerance as a float; one beyond the float range is a
    :class:`DomainError`.  The first violating pair in footpoint order is
    reported together with its deficit; the span report is returned
    either way.
    """
    tolerance = coerce(tolerance)
    if tolerance < 0:
        raise DomainError("tolerance must be non-negative")
    if placement.backend is Backend.EXACT:
        if tolerance != 0:
            raise DomainError("exact backend requires tolerance = 0")
        tolerance = coerce(0)
    else:
        try:
            tolerance = float(tolerance)
        except OverflowError:
            raise DomainError("tolerance is beyond the float range") from None
    disks, feet = placement.disks, placement.footpoints
    sizes = [d.size for d in disks]
    n = len(feet)
    # Sorted sweep: once a later disk clears 2*s_i*max_size, all further ones do.
    max_size = max(sizes)
    violation: Optional[Violation] = None
    for i in range(n):
        s_i, x_i = sizes[i], feet[i]
        reach = 2 * s_i * max_size
        for j in range(i + 1, n):
            distance = feet[j] - x_i
            if distance >= reach:
                break
            required = 2 * s_i * sizes[j]
            if distance < required - tolerance:
                violation = Violation(disks[i].id, disks[j].id, required - distance)
                break
        if violation is not None:
            break
    return VerificationResult(violation is None, span(placement), violation)


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
    sizes = [d.size for d in disks]
    if not sizes:
        raise DomainError("best_support_lower_bound requires at least one disk")
    if unified_backend(sizes) is Backend.EXACT:
        sizes, scale = integer_scale(sizes)
        sizes.sort(reverse=True)
        return Fraction(prefix_support_bound(sizes), scale * scale)
    sizes.sort(reverse=True)
    return prefix_support_bound(sizes)


def prefix_support_bound(sizes: Sequence[Scalar]) -> Scalar:
    """Kernel of :func:`best_support_lower_bound` on sizes that are already
    sorted in decreasing order and share one backend.  Exact sizes may be
    passed as integers over a common denominator D (see
    :func:`~shelfpack.scalars.integer_scale`); the bound is then D**2
    times the true one."""
    best = None
    running = 0 * sizes[0]
    for count, m in enumerate(sizes, start=1):
        running += m  # m is the smallest size within the prefix
        bound = 4 * m * running - 2 * count * m * m
        if best is None or bound > best:
            best = bound
    return best

