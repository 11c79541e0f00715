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
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import DomainError, InconsistencyError, PreconditionError
from .geometry import Disk, Placement, _disk_column, compact, verify
from .scalars import Backend

SIZE_OUTER = Fraction(1)
SIZE_INNER = Fraction(33, 100)
SIZE_LARGE_FILLER = SIZE_INNER / (1 + SIZE_INNER)          # 33/133
SIZE_SMALL_FILLER = SIZE_LARGE_FILLER / (1 + SIZE_LARGE_FILLER)  # 33/166
SIZE_END = (1 - SIZE_INNER ** 2 - 2 * SIZE_INNER) / (4 * SIZE_INNER)  # 2311/13200
SIZE_MIN_ELEMENT = Fraction(2261, 13200)

# Three element disks fit between the inner frames of one gap iff their
# sizes sum to at most this.
GAP_SIZE_BUDGET = 2 / (4 * SIZE_INNER) - 1  # 17/33


class DiskRole(enum.Enum):
    OUTER_FRAME = "outer_frame"
    INNER_FRAME = "inner_frame"
    LARGE_FILLER = "large_filler"
    SMALL_FILLER = "small_filler"
    END = "end"
    PARTITION = "partition"


@dataclass(frozen=True)
class ThreePartitionInstance:
    elements: tuple[int, ...]
    bound: int

    @property
    def m(self) -> int:
        return len(self.elements) // 3


@dataclass(frozen=True)
class PartitionSolution:
    """m triples of 1-based element indices, each triple summing to the bound."""

    groups: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class HardnessInstance:
    source: ThreePartitionInstance
    disks: tuple[Disk, ...]
    budget: Fraction
    roles: Mapping[str, DiskRole] = field(hash=False)
    element_index: Mapping[str, int] = field(hash=False)  # partition disk id -> 1-based

    @property
    def m(self) -> int:
        return self.source.m


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
    queues = {
        role: iter([d for d in hi.disks if hi.roles[d.id] is role]) for role in DiskRole
    }
    disk_by_id = {d.id: d for d in hi.disks}
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
    if {d.id for d in placement.disks} != {d.id for d in hi.disks}:
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
    footpoints = dict(zip((d.id for d in placement.disks), placement._lift.feet))
    outer = sorted(
        footpoints[d.id] for d in hi.disks if hi.roles[d.id] is DiskRole.OUTER_FRAME
    )
    bins: list[list[int]] = [[] for _ in range(hi.m)]
    for disk in hi.disks:
        if hi.roles[disk.id] is not DiskRole.PARTITION:
            continue
        x = footpoints[disk.id]
        g = bisect_left(outer, x) - 1  # outer[g] < x <= outer[g + 1]
        if not 0 <= g < hi.m or x == outer[g + 1]:
            raise InconsistencyError(
                f"element disk {disk.id!r} lies in no frame gap"
            )
        bins[g].append(hi.element_index[disk.id])
    groups = []
    for g, indices in enumerate(bins):
        if len(indices) != 3:
            raise InconsistencyError(
                f"gap {g} holds {len(indices)} element disks instead of 3"
            )
        total = sum(hi.source.elements[idx - 1] for idx in indices)
        if total != hi.source.bound:
            raise InconsistencyError(
                f"gap {g} group {tuple(sorted(indices))} sums to {total}, "
                f"expected {hi.source.bound}"
            )
        groups.append(tuple(sorted(indices)))
    return PartitionSolution(tuple(groups))


# --- machine checks for the impossibility tables -------------------------

# Letters name disk roles: O outer frame, F inner frame, L large filler,
# T small filler, P the minimum element/end size.
_ROLE_SIZES = {
    "O": SIZE_OUTER,
    "F": SIZE_INNER,
    "L": SIZE_LARGE_FILLER,
    "T": SIZE_SMALL_FILLER,
    "P": SIZE_MIN_ELEMENT,
}

# Candidate sequences that must overflow an end (capacity 1, measured from
# the outer frame footpoint to the far edge of the last disk).
_END_ROWS: list[tuple[str, Fraction]] = [
    ("O F F F", Fraction("1.2045")),
    ("O F L F", Fraction("1.0964")),
    ("O F F L", Fraction("1.1031")),
    ("O L L F F", Fraction("1.1098")),
    ("O F T F", Fraction("1.0313")),
    ("O F F T", Fraction("1.0485")),
    ("O L T F F", Fraction("1.0528")),
    ("O T T L F F", Fraction("1.0657")),
    ("O F F P", Fraction("1.0201")),
    ("O L P F F", Fraction("1.0209")),
    ("O T P L F F", Fraction("1.0411")),
    ("O F P P F", Fraction("1.0536")),
    ("O P P T L F F", Fraction("1.0584")),
    ("O P T L F P F", Fraction("1.0080")),
]

# Candidate sequences that must overflow a gap (capacity 2, measured
# between the footpoints of the two flanking outer frame disks).
_GAP_ROWS: list[tuple[str, Fraction]] = [
    ("O F F F F F O", Fraction("2.1912")),
    ("O F L F F F O", Fraction("2.0831")),
    ("O L L F F F F O", Fraction("2.0965")),
    ("O F T F F F O", Fraction("2.0180")),
    ("O L T F F F F O", Fraction("2.0395")),
    ("O T T L F F F F O", Fraction("2.0524")),
    ("O L P F F F F O", Fraction("2.0076")),
    ("O T P L F F F F O", Fraction("2.0278")),
    ("O F P P F F F O", Fraction("2.0403")),
    ("O P P T L F F F F O", Fraction("2.0451")),
    ("O P T L F P F P F F O", Fraction("2.0030")),
    ("O P T L F P F F F L T P O", Fraction("2.0078")),
]


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    value: Optional[Fraction]
    detail: str


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[IdentityCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _chain_distance(sizes: Sequence[Fraction]) -> Fraction:
    return sum(2 * a * b for a, b in zip(sizes, sizes[1:]))


def _sequence_sizes(spec: str) -> list[Fraction]:
    return [_ROLE_SIZES[letter] for letter in spec.split()]


def _truncate4(value: Fraction) -> Fraction:
    return Fraction(math.floor(value * 10_000), 10_000)


def _round4(value: Fraction) -> Fraction:
    return Fraction(math.floor(value * 10_000 + Fraction(1, 2)), 10_000)


def _capacity_check(
    kind: str, spec: str, printed: Fraction, capacity: int
) -> IdentityCheck:
    sizes = _sequence_sizes(spec)
    value = _chain_distance(sizes)
    if kind == "end":
        value += sizes[-1] * sizes[-1]
    over_capacity = value > capacity
    faithful_print = printed in (_truncate4(value), _round4(value))
    if value > printed:
        relation = "exceeds the 4-decimal bound"
    elif value == printed:
        relation = "equals the 4-decimal bound exactly"
    else:
        relation = "4-decimal bound is the rounded value (exact value is below it)"
    passed = over_capacity and faithful_print
    return IdentityCheck(
        name=f"{kind} overflow {spec}",
        passed=passed,
        value=value,
        detail=(
            f"width {value} = {float(value):.10f}; needs > {capacity}: "
            f"{over_capacity}; printed {printed}: {relation}"
        ),
    )


def reduction_identity_suite() -> IdentityReport:
    """Recompute every construction identity and impossibility bound exactly.

    Each overflow row recomputes its sequence width as an exact rational,
    asserts it exceeds the relevant capacity (1 for an end, 2 for a gap),
    and asserts the 4-decimal bound it is published with is a faithful
    truncation or rounding of the exact value.  Raises InconsistencyError
    naming every failed check; returns the full report otherwise.
    """
    f, l, t, e = SIZE_INNER, SIZE_LARGE_FILLER, SIZE_SMALL_FILLER, SIZE_END
    equalities = [
        ("large filler fills the outer/inner corner", 1 / l, 1 + 1 / f),
        ("small filler fills the outer/large-filler corner", 1 / t, 1 + 1 / l),
        ("end disk fills the end slot with zero slack", 2 * f + 4 * f * e + f * f, Fraction(1)),
        ("gap size budget for three element disks", GAP_SIZE_BUDGET, Fraction(17, 33)),
        ("three average element disks exactly meet the budget",
         3 * partition_disk_size(1, 3), Fraction(17, 33)),
        ("minimum element size at a_i > B/4",
         Fraction(17, 99) * Fraction(399, 400), Fraction(2261, 13200)),
        ("five inner frames overflow a gap by 0.1912",
         _chain_distance(_sequence_sizes("O F F F F F O")), Fraction("2.1912")),
        ("three inner frames overflow an end by 0.2045",
         _chain_distance(_sequence_sizes("O F F F")) + f * f, Fraction("1.2045")),
    ]
    checks: list[IdentityCheck] = [
        IdentityCheck(name, value == expected, value, f"{value} == {expected}")
        for name, value, expected in equalities
    ]
    checks += [
        IdentityCheck(
            "end disk is above the minimum element size",
            SIZE_END > SIZE_MIN_ELEMENT,
            SIZE_END - SIZE_MIN_ELEMENT,
            f"{SIZE_END} > {SIZE_MIN_ELEMENT}",
        ),
        IdentityCheck(
            "element disks overflow the space between touching inner frames",
            SIZE_MIN_ELEMENT > f / 2,
            SIZE_MIN_ELEMENT - f / 2,
            f"{SIZE_MIN_ELEMENT} > {f / 2}",
        ),
        IdentityCheck(
            "size ratio of the family is below six",
            1 / SIZE_MIN_ELEMENT < 6,
            1 / SIZE_MIN_ELEMENT,
            f"largest/smallest = {1 / SIZE_MIN_ELEMENT} = "
            f"{float(1 / SIZE_MIN_ELEMENT):.6f} < 6",
        ),
    ]
    for spec, printed in _END_ROWS:
        checks.append(_capacity_check("end", spec, printed, 1))
    for spec, printed in _GAP_ROWS:
        checks.append(_capacity_check("gap", spec, printed, 2))

    report = IdentityReport(tuple(checks))
    if not report.ok:
        names = ", ".join(c.name for c in report.failed())
        raise InconsistencyError(f"identity checks failed: {names}")
    return report
