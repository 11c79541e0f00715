"""3-Partition reduction: disk families whose span budget encodes the answer.

A 3-Partition instance with 3m elements becomes 12m+11 disks.  The m+1
unit-size frame disks alone force a span of at least 2(m+1); hitting that
budget exactly is possible iff the elements admit a partition into triples
of equal sum.  Every size below is an exact rational, and this module
refuses the float backend outright: the decisive inequalities have margins
as small as a few thousandths.

Frame and filler sizes (with their defining exact-fit identities):

* outer frame        1
* inner frame        f  = 33/100
* large filler       l  = f / (1 + f)   = 33/133   (fills the outer/inner corner)
* small filler       t  = l / (1 + l)   = 33/166   (fills the outer/large-filler corner)
* end disk           e  = (1 - f**2 - 2f) / (4f) = 2311/13200  (zero-slack end slot)
* element disk       (17/99) * ((3/100) * a_i/B + 99/100)
* smallest possible  p  = 2261/13200    (element disks at a_i > B/4, and e > p)
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .errors import DomainError, InconsistencyError, PreconditionError
from .geometry import Disk, Placement, _disk_column, compact, verify
from .scalars import Backend, _over, lift

SIZE_OUTER = Fraction(1)
SIZE_INNER = Fraction(33, 100)
SIZE_LARGE_FILLER = SIZE_INNER / (1 + SIZE_INNER)          # 33/133
SIZE_SMALL_FILLER = SIZE_LARGE_FILLER / (1 + SIZE_LARGE_FILLER)  # 33/166
SIZE_END = (1 - SIZE_INNER ** 2 - 2 * SIZE_INNER) / (4 * SIZE_INNER)  # 2311/13200


class DiskRole(enum.Enum):
    OUTER_FRAME = "outer_frame"
    INNER_FRAME = "inner_frame"
    LARGE_FILLER = "large_filler"
    SMALL_FILLER = "small_filler"
    END = "end"
    PARTITION = "partition"


class ThreePartitionInstance(NamedTuple):
    elements: tuple[int, ...]
    bound: int

    @property
    def m(self) -> int:
        return len(self.elements) // 3


class PartitionSolution(NamedTuple):
    """m triples of 1-based element indices, each triple summing to the bound."""

    groups: tuple[tuple[int, int, int], ...]


class HardnessInstance(NamedTuple):
    source: ThreePartitionInstance
    disks: tuple[Disk, ...]
    budget: Fraction
    roles: Mapping[str, DiskRole]
    element_index: Mapping[str, int]  # partition disk id -> 1-based

    @property
    def m(self) -> int:
        return self.source.m

    def __hash__(self) -> int:
        # the two maps are compared but not hashed
        return hash(self[:3])


def partition_disk_size(element: int, bound: int) -> Fraction:
    """Size encoding one element: (17/99) * ((3/100) * element/bound + 99/100),
    formed as the one fraction 17 * (3*element + 99*bound) / (9900*bound)."""
    if bound <= 0 or element <= 0:
        raise DomainError("element and bound must be positive")
    return Fraction(17 * (3 * element + 99 * bound), 9900 * bound)


def validate_3partition(inst: ThreePartitionInstance) -> None:
    """Check the 3-Partition invariants; raise PreconditionError naming the
    first violation."""

    def invalid(violation: str) -> PreconditionError:
        return PreconditionError(f"invalid 3-Partition instance: {violation}")

    n = len(inst.elements)
    if n == 0 or n % 3 != 0:
        raise invalid(f"element count {n} is not a positive multiple of 3")
    if inst.bound <= 0:
        raise invalid(f"bound B = {inst.bound} is not positive")
    m = n // 3
    for idx, a in enumerate(inst.elements, start=1):
        if a <= 0:
            raise invalid(f"element {idx}: a_i > 0 violated (a_{idx} = {a})")
        if 4 * a <= inst.bound:
            raise invalid(f"element {idx}: a_i > B/4 violated (a_{idx} = {a}, B = {inst.bound})")
        if 2 * a >= inst.bound:
            raise invalid(f"element {idx}: a_i < B/2 violated (a_{idx} = {a}, B = {inst.bound})")
    total = sum(inst.elements)
    if total != m * inst.bound:
        raise invalid(f"sum of elements is {total}, expected m*B = {m * inst.bound}")


def _build_family(
    elements: Sequence[int], bound: int
) -> tuple[tuple[Disk, ...], dict[str, DiskRole], dict[str, int]]:
    m = len(elements) // 3
    ids: list[str] = []
    sizes: list[Fraction] = []
    roles: dict[str, DiskRole] = {}
    for prefix, count, size, role in (
        ("outer", m + 1, SIZE_OUTER, DiskRole.OUTER_FRAME),
        ("inner", 4 * (m + 1), SIZE_INNER, DiskRole.INNER_FRAME),
        ("large", 2 * (m + 1), SIZE_LARGE_FILLER, DiskRole.LARGE_FILLER),
        ("small", 2 * (m + 1), SIZE_SMALL_FILLER, DiskRole.SMALL_FILLER),
        ("end", 2, SIZE_END, DiskRole.END),
    ):
        block = [f"{prefix}-{k}" for k in range(count)]
        ids += block
        sizes += [size] * count
        roles.update(dict.fromkeys(block, role))
    element_index = {f"part-{idx}": idx for idx in range(1, len(elements) + 1)}
    ids += element_index
    sizes += [partition_disk_size(a, bound) for a in elements]
    roles.update(dict.fromkeys(element_index, DiskRole.PARTITION))
    # the ids are distinct tokens and the sizes positive Fractions, so the
    # column is checked once rather than disk by disk
    return tuple(_disk_column(ids, sizes)), roles, element_index


def build_instance(inst: ThreePartitionInstance) -> HardnessInstance:
    """Construct the 12m+11 disk family and the span budget 2(m+1)."""
    validate_3partition(inst)
    disks, roles, element_index = _build_family(inst.elements, inst.bound)
    return HardnessInstance(
        source=inst,
        disks=disks,
        budget=Fraction(2 * (inst.m + 1)),
        roles=roles,
        element_index=element_index,
    )


def _check_solution_shape(hi: HardnessInstance, sol: PartitionSolution) -> None:
    m = hi.m
    if len(sol.groups) != m:
        raise PreconditionError(f"expected {m} groups, got {len(sol.groups)}")
    flat = [idx for group in sol.groups for idx in group]
    if sorted(flat) != list(range(1, 3 * m + 1)):
        raise PreconditionError("groups do not form a partition of {1..3m}")
    for group in sol.groups:
        total = sum(hi.source.elements[idx - 1] for idx in group)
        if total > hi.source.bound:
            raise PreconditionError(
                f"group {group} sums to {total} > B = {hi.source.bound}; "
                "its disks cannot share a gap"
            )


def build_certificate(hi: HardnessInstance, sol: PartitionSolution) -> Placement:
    """Exact placement of span 2(m+1) realizing a 3-partition.

    Lists the disks in footpoint order and left-compacts them.  Each end
    holds an inner frame, the end disk and an inner frame, with the large
    and small fillers in the corner at the outer frame.  Each gap holds
    the small and large fillers, an inner frame, then the group's element
    disks each followed by an inner frame, then a large and a small filler
    before the next outer frame.  The fillers and end disks fit their
    slots exactly, so every disk touches its left neighbour and the
    outer frames touch in a row.  A group summing below B (possible only
    in a family built without :func:`build_instance`) leaves its slack
    just before the next outer frame.  A group that overflows its gap
    pushes every later disk right, so the last footpoint shows it.
    """
    _check_solution_shape(hi, sol)
    # fields read once: a named tuple's field read costs more than a local's
    disks, role_of = hi.disks, hi.roles
    queues = {role: iter([d for d in disks if role_of[d.id] is role]) for role in DiskRole}
    disk_by_id = {d.id: d for d in disks}
    element_disk = {idx: disk_by_id[i] for i, idx in hi.element_index.items()}
    O, F, L, T, E = (
        DiskRole.OUTER_FRAME, DiskRole.INNER_FRAME, DiskRole.LARGE_FILLER,
        DiskRole.SMALL_FILLER, DiskRole.END,
    )

    def take(*roles: DiskRole) -> list[Disk]:
        return [next(queues[role]) for role in roles]

    order = take(F, E, F, L, T)  # left end, out from the wall
    for group in sol.groups:
        order += take(O, T, L, F)
        for idx in group:
            order += [element_disk[idx], *take(F)]
        order += take(L, T)
    order += take(O, T, L, F, E, F)  # last outer frame and the right end
    placement = compact(order)
    # the right wall, read on the kept lift: the last disk is an inner frame
    sizes, feet, c, back = placement._lift
    if back(feet[-1] + c * sizes[-1] * sizes[-1]) != 2 * (hi.m + 1):
        raise InconsistencyError("the certificate overflows the span budget 2(m+1)")
    return placement


def decode_partition(hi: HardnessInstance, placement: Placement) -> PartitionSolution:
    """Read a 3-partition back out of any exact placement within budget.

    Bins element disks by which frame gap contains their footpoint.  Any
    bin without exactly three element disks, or a group sum differing from
    B, contradicts the reduction and is reported as an inconsistency.
    """
    if placement.backend is not Backend.EXACT:
        raise PreconditionError("decoding requires the exact backend")
    # fields read once: a named tuple's field read costs more than a local's
    disks, role_of, element_index = hi.disks, hi.roles, hi.element_index
    m, elements, bound = hi.m, hi.source.elements, hi.source.bound
    # sizes as well as ids: shrunk element disks fit a gap in any grouping.
    # Read on the id column and the lift: integers over D, which equal
    # sizes share, or the scalars of an unlifted placement.
    ids, (sizes, _, c, back) = placement._ids, placement._lift
    q = _over(back)
    if q is None:
        want, same_d = [d.size for d in disks], True
    else:
        want, _, _, over = lift([d.size for d in disks])
        same_d = q // c == _over(over)
    if not same_d or dict(zip(ids, sizes)) != dict(zip([d.id for d in disks], want)):
        raise PreconditionError("placement does not hold exactly the instance's disks")
    result = verify(placement, 0)
    if not result.ok:
        v = result.violation
        raise PreconditionError(
            f"placement is not valid: disks {v.left_disk_id!r} and "
            f"{v.right_disk_id!r} overlap by {v.deficit}"
        )
    if result.report.span > hi.budget:
        raise PreconditionError(
            f"span {result.report.span} exceeds the budget {hi.budget}"
        )
    # bisect on the placement's kept lift: integers, in footpoint order
    footpoints = dict(zip(ids, placement._lift.feet))
    outer = sorted(
        footpoints[d.id] for d in disks if role_of[d.id] is DiskRole.OUTER_FRAME
    )
    bins: list[list[int]] = [[] for _ in range(m)]
    for disk in disks:
        if role_of[disk.id] is not DiskRole.PARTITION:
            continue
        x = footpoints[disk.id]
        g = bisect_left(outer, x) - 1  # outer[g] < x <= outer[g + 1]
        if not 0 <= g < m or x == outer[g + 1]:
            raise InconsistencyError(
                f"element disk {disk.id!r} lies in no frame gap"
            )
        bins[g].append(element_index[disk.id])
    groups = []
    for g, indices in enumerate(bins):
        if len(indices) != 3:
            raise InconsistencyError(
                f"gap {g} holds {len(indices)} element disks instead of 3"
            )
        total = sum(elements[idx - 1] for idx in indices)
        if total != bound:
            raise InconsistencyError(
                f"gap {g} group {tuple(sorted(indices))} sums to {total}, "
                f"expected {bound}"
            )
        groups.append(tuple(sorted(indices)))
    return PartitionSolution(tuple(groups))
