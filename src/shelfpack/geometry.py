"""Tangency geometry for disks resting on the x-axis.

A disk is described by its *size*, the square root of its radius.  Two
touching disks of sizes ``a`` and ``b`` have footpoints (axis tangency
points) exactly ``2*a*b`` apart, which makes every constraint here a
polynomial in the sizes and therefore exactly representable over the
rational backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import lt
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BackendMismatchError, DomainError
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
class PlacedDisk:
    disk: Disk
    footpoint: Scalar

    def __post_init__(self) -> None:
        object.__setattr__(self, "footpoint", coerce(self.footpoint))
        if backend_of(self.footpoint) is not backend_of(self.disk.size):
            raise BackendMismatchError(
                f"disk {self.disk.id!r}: footpoint backend differs from size backend"
            )

    @property
    def left_extent(self) -> Scalar:
        return self.footpoint - self.disk.radius

    @property
    def right_extent(self) -> Scalar:
        return self.footpoint + self.disk.radius


@dataclass(frozen=True)
class Placement:
    """Disks with footpoints, kept sorted by strictly increasing footpoint."""

    placed: tuple[PlacedDisk, ...]

    def __post_init__(self) -> None:
        if not self.placed:
            raise DomainError("a placement must contain at least one disk")
        ordered = tuple(sorted(self.placed, key=lambda p: p.footpoint))
        object.__setattr__(self, "placed", ordered)
        unified_backend(
            [p.disk.size for p in ordered] + [p.footpoint for p in ordered]
        )
        _check_ids_and_order(ordered)

    @classmethod
    def trusted(
        cls, disks: Sequence[Disk], footpoints: Sequence[Scalar]
    ) -> Placement:
        """Solver output: ``disks[i]`` at ``footpoints[i]``, built without
        checking each scalar again.

        The caller promises what the per-element checks would find: the
        sizes were checked once to share one backend, and every footpoint
        was built from them with ``+`` and ``*``, so it shares that backend
        too.  Everything else a placement promises is still checked: float
        footpoints are finite (rounding can overflow), the disks are sorted
        by footpoint, the footpoints strictly increase and the ids are
        unique.  The same errors as the checked constructor are raised.
        """
        if not disks:
            raise DomainError("a placement must contain at least one disk")
        if isinstance(footpoints[0], float) and not all(
            map(math.isfinite, footpoints)
        ):
            for disk, x in zip(disks, footpoints):
                if not math.isfinite(x):
                    raise DomainError(f"disk {disk.id!r} has footpoint {x!r}")
        order = sorted(range(len(disks)), key=footpoints.__getitem__)
        ordered = tuple(_unchecked_placed(disks[i], footpoints[i]) for i in order)
        _check_ids_and_order(ordered)
        placement = object.__new__(cls)
        object.__setattr__(placement, "placed", ordered)
        return placement

    @property
    def backend(self) -> Backend:
        return backend_of(self.placed[0].disk.size)

    def disks(self) -> tuple[Disk, ...]:
        return tuple(p.disk for p in self.placed)

    def __len__(self) -> int:
        return len(self.placed)

    def __iter__(self) -> Iterator[PlacedDisk]:
        return iter(self.placed)


def _unchecked_placed(disk: Disk, footpoint: Scalar) -> PlacedDisk:
    placed = object.__new__(PlacedDisk)
    fields = placed.__dict__
    fields["disk"] = disk
    fields["footpoint"] = footpoint
    return placed


def _check_ids_and_order(ordered: Sequence[PlacedDisk]) -> None:
    """Unique ids and strictly increasing footpoints; the first offender
    in footpoint order is named."""
    ids = [p.disk.id for p in ordered]
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        for disk_id in ids:
            if disk_id in seen:
                raise DomainError(f"duplicate disk id {disk_id!r} in placement")
            seen.add(disk_id)
    feet = [p.footpoint for p in ordered]
    if not all(map(lt, feet, feet[1:])):
        for left, right in zip(ordered, ordered[1:]):
            if not left.footpoint < right.footpoint:
                raise DomainError(
                    f"footpoints of {left.disk.id!r} and {right.disk.id!r} coincide"
                )


@dataclass(frozen=True)
class SpanReport:
    left_wall: Scalar
    right_wall: Scalar
    span: Scalar
    left_disk_id: str
    right_disk_id: str


@dataclass(frozen=True)
class Gap:
    """A consecutive pair and the largest size that fits between them."""

    left_disk_id: str
    right_disk_id: str
    fit_size: Scalar


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


def footpoint_distance(a: Scalar, b: Scalar) -> Scalar:
    """Footpoint distance of two touching disks of sizes ``a`` and ``b``: 2ab."""
    a, b = coerce(a), coerce(b)
    unified_backend((a, b))
    if a <= 0 or b <= 0:
        raise DomainError("sizes must be positive")
    return 2 * a * b


def gap_fit_size(a: Scalar, b: Scalar, footpoint_gap: Scalar) -> Scalar:
    """Largest size fitting between disks of sizes ``a``, ``b`` whose
    footpoints are ``footpoint_gap`` apart: footpoint_gap / (2 (a + b)).

    For a touching pair (gap = 2ab) this reduces to a*b/(a+b).
    """
    a, b, footpoint_gap = coerce(a), coerce(b), coerce(footpoint_gap)
    unified_backend((a, b, footpoint_gap))
    if a <= 0 or b <= 0:
        raise DomainError("sizes must be positive")
    if footpoint_gap < 0:
        raise DomainError("footpoint gap must be non-negative")
    return footpoint_gap / (2 * (a + b))


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

    The sizes are checked once to share one backend; the footpoints are
    built from them by ``+``, ``*`` and ``max`` and handed to
    :meth:`Placement.trusted`, which skips the per-element scalar checks
    but still rejects duplicate ids, coinciding footpoints and float
    footpoints that overflowed.
    """
    if not order:
        raise DomainError("cannot compact an empty order")
    sizes = [d.size for d in order]
    unified_backend(sizes)
    twice_max = 2 * max(sizes)
    feet: list[Scalar] = []
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
    return Placement.trusted(order, feet)


def span(placement: Placement) -> SpanReport:
    """Measure the span; ties at either wall go to the smallest disk id."""
    if not isinstance(placement, Placement) or not placement.placed:
        raise DomainError("span requires a non-empty placement")
    first = placement.placed[0]
    left, left_id = first.left_extent, first.disk.id
    right, right_id = first.right_extent, first.disk.id
    for p in placement.placed[1:]:
        le, re = p.left_extent, p.right_extent
        if le < left or (le == left and p.disk.id < left_id):
            left, left_id = le, p.disk.id
        if re > right or (re == right and p.disk.id < right_id):
            right, right_id = re, p.disk.id
    return SpanReport(left, right, right - left, left_id, right_id)


def verify(placement: Placement, tolerance: Scalar) -> VerificationResult:
    """Check pairwise separation |x_i - x_j| >= 2 s_i s_j within ``tolerance``.

    The exact backend requires tolerance exactly 0.  The first violating
    pair in footpoint order is reported together with its deficit; the
    span report is returned either way.
    """
    tolerance = coerce(tolerance)
    if tolerance < 0:
        raise DomainError("tolerance must be non-negative")
    if placement.backend is Backend.EXACT:
        if tolerance != 0:
            raise DomainError("exact backend requires tolerance = 0")
        tolerance = coerce(0)
    else:
        if backend_of(tolerance) is Backend.EXACT:
            if tolerance != 0:
                raise BackendMismatchError("float placement needs a float tolerance")
            tolerance = 0.0
    placed = placement.placed
    # Sorted sweep: once a later disk clears 2*s_i*max_size, all further ones do.
    max_size = max(p.disk.size for p in placed)
    violation: Optional[Violation] = None
    for i, pi in enumerate(placed):
        reach = 2 * pi.disk.size * max_size
        for j in range(i + 1, len(placed)):
            pj = placed[j]
            distance = pj.footpoint - pi.footpoint
            if distance >= reach:
                break
            required = 2 * pi.disk.size * pj.disk.size
            if distance < required - tolerance:
                violation = Violation(pi.disk.id, pj.disk.id, required - distance)
                break
        if violation is not None:
            break
    return VerificationResult(violation is None, span(placement), violation)


def support_lower_bound(disks: Iterable[Disk]) -> Scalar:
    """Lower bound on the optimal span: sum of support-interval lengths.

    With m the smallest size, every valid placement keeps the open
    intervals of length 4*s_i*m - 2*m**2 around the footpoints disjoint,
    so their total length can never exceed the span.
    """
    items = list(disks)
    if not items:
        raise DomainError("support_lower_bound requires at least one disk")
    unified_backend([d.size for d in items])
    m = min(d.size for d in items)
    total = 4 * m * sum(d.size for d in items) - 2 * len(items) * m * m
    return total


def gaps(placement: Placement) -> list[Gap]:
    """One Gap per consecutive pair: the largest size that fits between them."""
    out: list[Gap] = []
    for left, right in zip(placement.placed, placement.placed[1:]):
        fit = gap_fit_size(
            left.disk.size, right.disk.size, right.footpoint - left.footpoint
        )
        out.append(Gap(left.disk.id, right.disk.id, fit))
    return out


def best_support_lower_bound(disks: Iterable[Disk]) -> Scalar:
    """Strongest support bound over size-decreasing prefixes of ``disks``.

    Adding a disk smaller than all others can *weaken* the plain support
    bound (the normalizing minimum drops), so the bound of some prefix of
    the disks sorted by decreasing size may exceed the full-set bound.
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


def size_from_radius(radius: float) -> float:
    """Float-only convenience: size is the square root of the radius."""
    if not isinstance(radius, float) or radius <= 0:
        raise DomainError("radius must be a positive float")
    return radius ** 0.5
