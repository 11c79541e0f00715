import random
import time
from fractions import Fraction as F

import pytest

from helpers import footpoint_distance, fresh_lift, unlifted, with_lift
from identities import GAP_SIZE_BUDGET, SIZE_MIN_ELEMENT, check_identities
from shelfpack.errors import (
    DomainError,
    InconsistencyError,
    PreconditionError,
    ShelfPackError,
)
from shelfpack.geometry import Disk, Placement, span, verify
from shelfpack.hardness import (
    SIZE_END,
    SIZE_INNER,
    SIZE_LARGE_FILLER,
    SIZE_OUTER,
    SIZE_SMALL_FILLER,
    DiskRole,
    HardnessInstance,
    PartitionSolution,
    ThreePartitionInstance,
    _build_family,
    build_certificate,
    build_instance,
    decode_partition,
    partition_disk_size,
    validate_3partition,
)

M2_INSTANCE = ThreePartitionInstance((30, 33, 37, 26, 35, 39), 100)
M2_SOLUTION = PartitionSolution(((1, 2, 3), (4, 5, 6)))


class TestConstants:
    def test_exact_values(self):
        assert SIZE_INNER == F(33, 100)
        assert SIZE_LARGE_FILLER == F(33, 133)
        assert SIZE_SMALL_FILLER == F(33, 166)
        assert SIZE_END == F(2311, 13200)
        assert SIZE_MIN_ELEMENT == F(2261, 13200)
        assert GAP_SIZE_BUDGET == F(17, 33)

    def test_element_disk_size_formula(self):
        # an element worth exactly B/3 maps to size 17/99
        assert partition_disk_size(1, 3) == F(17, 99)
        assert partition_disk_size(33, 99) == F(17, 99)
        assert 3 * partition_disk_size(33, 99) == GAP_SIZE_BUDGET

    @pytest.mark.parametrize("bound", [10_000, 997])
    def test_element_disk_size_closed_form(self, bound):
        # one Fraction equals the product the module docstring states, for
        # every element the reduction allows
        for a in range(bound // 4 + 1, (bound + 1) // 2):
            product = F(17, 99) * (F(3, 100) * F(a, bound) + F(99, 100))
            assert partition_disk_size(a, bound) == product


class TestValidate3Partition:
    def test_accepts_the_m2_example(self):
        assert validate_3partition(M2_INSTANCE) is None

    def test_rejects_boundary_value(self):
        with pytest.raises(
            PreconditionError, match=r"invalid 3-Partition instance: element 1: a_i > B/4"
        ):
            validate_3partition(ThreePartitionInstance((25, 36, 39, 26, 35, 39), 100))

    def test_rejects_upper_boundary(self):
        with pytest.raises(PreconditionError, match="a_i < B/2 violated"):
            validate_3partition(ThreePartitionInstance((50, 33, 37, 26, 35, 39), 100))

    def test_rejects_sum_mismatch(self):
        with pytest.raises(PreconditionError, match="sum"):
            validate_3partition(ThreePartitionInstance((30, 33, 37, 26, 35, 40), 100))

    def test_rejects_wrong_count(self):
        with pytest.raises(
            PreconditionError, match="invalid 3-Partition instance: element count 2"
        ):
            validate_3partition(ThreePartitionInstance((30, 33), 100))

    @pytest.mark.parametrize("bound", [0, -100])
    def test_rejects_non_positive_bound(self, bound):
        with pytest.raises(
            PreconditionError, match=rf"invalid 3-Partition instance: bound B = {bound} is not positive"
        ):
            validate_3partition(ThreePartitionInstance((30, 33, 37), bound))

    @pytest.mark.parametrize("element", [0, -30])
    def test_rejects_non_positive_element(self, element):
        with pytest.raises(
            PreconditionError,
            match=rf"element 2: a_i > 0 violated \(a_2 = {element}\)",
        ):
            validate_3partition(ThreePartitionInstance((30, element, 37), 100))

    def test_element_disk_size_refuses_non_positive_input(self):
        for element, bound in ((0, 3), (1, 0), (-1, 3)):
            with pytest.raises(DomainError, match="element and bound must be positive"):
                partition_disk_size(element, bound)


class TestBuildInstance:
    def test_counts_and_budget(self):
        hi = build_instance(M2_INSTANCE)
        assert len(hi.disks) == 12 * 2 + 11 == 35
        assert hi.budget == 6
        by_role = {}
        for disk in hi.disks:
            by_role.setdefault(hi.roles[disk.id], []).append(disk)
        assert len(by_role[DiskRole.OUTER_FRAME]) == 3
        assert len(by_role[DiskRole.INNER_FRAME]) == 12
        assert len(by_role[DiskRole.LARGE_FILLER]) == 6
        assert len(by_role[DiskRole.SMALL_FILLER]) == 6
        assert len(by_role[DiskRole.END]) == 2
        assert len(by_role[DiskRole.PARTITION]) == 6

    def test_m3_counts(self):
        inst = ThreePartitionInstance(
            (30, 33, 37, 26, 35, 39, 31, 32, 37), 100
        )
        hi = build_instance(inst)
        assert len(hi.disks) == 47
        assert hi.budget == 8

    def test_all_sizes_within_ratio_six(self):
        hi = build_instance(M2_INSTANCE)
        smallest = min(d.size for d in hi.disks)
        largest = max(d.size for d in hi.disks)
        assert smallest >= SIZE_MIN_ELEMENT
        assert largest == SIZE_OUTER
        assert largest / smallest <= 1 / SIZE_MIN_ELEMENT < 6

    def test_element_sizes_linked_to_indices(self):
        hi = build_instance(M2_INSTANCE)
        for disk in hi.disks:
            if hi.roles[disk.id] is DiskRole.PARTITION:
                idx = hi.element_index[disk.id]
                expected = partition_disk_size(M2_INSTANCE.elements[idx - 1], 100)
                assert disk.size == expected

    def test_disks_are_the_disks_disk_builds(self):
        hi = build_instance(M2_INSTANCE)
        assert hi.disks == tuple(Disk(d.id, d.size) for d in hi.disks)
        assert [hi.roles[d.id] for d in hi.disks[:3]] == [DiskRole.OUTER_FRAME] * 3
        assert [d.id for d in hi.disks[-6:]] == [f"part-{k}" for k in range(1, 7)]
        assert list(hi.roles) == [d.id for d in hi.disks]
        assert list(hi.element_index.items()) == [(f"part-{k}", k) for k in range(1, 7)]

    def test_rejects_invalid_source(self):
        with pytest.raises(PreconditionError, match="a_i < B/2"):
            build_instance(ThreePartitionInstance((50, 33, 37, 26, 35, 39), 100))


class TestCertificate:
    def test_m2_round_trip(self):
        hi = build_instance(M2_INSTANCE)
        cert = build_certificate(hi, M2_SOLUTION)
        result = verify(cert, 0)
        assert result.ok
        assert result.report.span == 6  # exact rational equality
        decoded = decode_partition(hi, cert)
        assert decoded.groups == ((1, 2, 3), (4, 5, 6))

    def test_outer_frames_touch(self):
        hi = build_instance(M2_INSTANCE)
        cert = build_certificate(hi, M2_SOLUTION)
        outer = sorted(
            x for disk, x in cert if hi.roles[disk.id] is DiskRole.OUTER_FRAME
        )
        for left, right in zip(outer, outer[1:]):
            assert right - left == 2

    def test_gap_and_end_patterns(self):
        hi = build_instance(M2_INSTANCE)
        cert = build_certificate(hi, M2_SOLUTION)
        role_of = hi.roles
        outer = sorted(
            x for disk, x in cert if role_of[disk.id] is DiskRole.OUTER_FRAME
        )
        frame_filler = {
            DiskRole.INNER_FRAME: "F",
            DiskRole.LARGE_FILLER: "L",
            DiskRole.SMALL_FILLER: "T",
        }
        for left, right in zip(outer, outer[1:]):
            letters = [
                frame_filler[role_of[disk.id]]
                for disk, x in cert
                if left < x < right and role_of[disk.id] in frame_filler
            ]
            assert letters == ["T", "L", "F", "F", "F", "F", "L", "T"]
        for lo, hi_ in ((None, outer[0]), (outer[-1], None)):
            segment = [
                (disk, x)
                for disk, x in cert
                if (lo is None or x > lo) and (hi_ is None or x < hi_)
            ]
            letters = [
                frame_filler[role_of[disk.id]]
                for disk, _ in segment
                if role_of[disk.id] in frame_filler
            ]
            assert letters in (["F", "F", "L", "T"], ["T", "L", "F", "F"])
            end_feet = [x for disk, x in segment if role_of[disk.id] is DiskRole.END]
            assert len(end_feet) == 1
            inners = [
                x for disk, x in segment if role_of[disk.id] is DiskRole.INNER_FRAME
            ]
            assert min(inners) < end_feet[0] < max(inners)

    def test_end_slot_has_zero_slack(self):
        f, e = SIZE_INNER, SIZE_END
        assert 2 * f + 4 * f * e + f * f == 1
        # the end disk touches both neighbouring inner frames in the output
        hi = build_instance(M2_INSTANCE)
        cert = build_certificate(hi, M2_SOLUTION)
        left_end = [(disk, x) for disk, x in cert if x < 1]
        end, end_x = next(
            (disk, x) for disk, x in left_end if hi.roles[disk.id] is DiskRole.END
        )
        inners = [
            (disk, x) for disk, x in left_end
            if hi.roles[disk.id] is DiskRole.INNER_FRAME
        ]
        for inner, inner_x in inners:
            assert abs(inner_x - end_x) == footpoint_distance(inner.size, end.size)

    def test_group_order_and_membership_flexibility(self):
        # equal elements swapped across groups still decode to a valid answer
        inst = ThreePartitionInstance((30, 33, 37, 30, 33, 37), 100)
        hi = build_instance(inst)
        swapped = PartitionSolution(((4, 2, 3), (1, 5, 6)))
        cert = build_certificate(hi, swapped)
        assert verify(cert, 0).ok
        assert span(cert).span == 6
        decoded = decode_partition(hi, cert)
        assert decoded.groups == ((2, 3, 4), (1, 5, 6))

    def test_rejects_malformed_solutions(self):
        hi = build_instance(M2_INSTANCE)
        with pytest.raises(PreconditionError):
            build_certificate(hi, PartitionSolution(((1, 2, 3),)))
        with pytest.raises(PreconditionError):
            build_certificate(hi, PartitionSolution(((1, 2, 3), (4, 5, 5))))
        with pytest.raises(PreconditionError, match="cannot share a gap"):
            build_certificate(hi, PartitionSolution(((1, 2, 6), (4, 5, 3))))

    def test_overflowing_gap_is_inconsistent(self):
        # an element disk enlarged behind the source's back: the group sums
        # still pass the shape check, but its disks overflow their gap
        hi = build_instance(M2_INSTANCE)
        enlarged = hi._replace(
            disks=tuple(
                Disk(d.id, F(1, 3)) if d.id == "part-1" else d for d in hi.disks
            ),
        )
        with pytest.raises(InconsistencyError):
            build_certificate(enlarged, M2_SOLUTION)

    def test_slack_group_still_meets_budget(self):
        # a deficient family (element sum below m*B) leaves slack inside the
        # gap; the frame pattern still closes at exactly the budget
        elements = (26, 30, 33)
        disks, roles, element_index = _build_family(elements, 100)
        hi = HardnessInstance(
            source=ThreePartitionInstance(elements, 100),
            disks=disks,
            budget=F(4),
            roles=roles,
            element_index=element_index,
        )
        cert = build_certificate(hi, PartitionSolution(((1, 2, 3),)))
        result = verify(cert, 0)
        assert result.ok
        assert result.report.span == 4
        # the decoder refuses: group sums must equal B exactly
        with pytest.raises(InconsistencyError, match="sums to 89"):
            decode_partition(hi, cert)


class TestDecodePreconditions:
    def test_rejects_float_placement(self):
        hi = build_instance(M2_INSTANCE)
        cert = build_certificate(hi, M2_SOLUTION)
        float_cert = Placement(
            [Disk(disk.id, float(disk.size)) for disk in cert.disks],
            [float(x) for x in cert.footpoints],
        )
        with pytest.raises(PreconditionError, match="exact"):
            decode_partition(hi, float_cert)

    def test_rejects_over_budget_placement(self):
        hi = build_instance(M2_INSTANCE)
        cert = build_certificate(hi, M2_SOLUTION)
        # slide the last frame disk and its end content out by one unit
        widened = Placement(
            cert.disks, [x + 1 if x >= 5 else x for x in cert.footpoints]
        )
        assert verify(widened, 0).ok
        with pytest.raises(PreconditionError, match="budget"):
            decode_partition(hi, widened)

    def test_element_outside_every_frame_gap(self):
        # relabel an end disk as an element: its footpoint lies beyond the
        # outer frames, left of the first or right of the last
        hi = build_instance(M2_INSTANCE)
        cert = build_certificate(hi, M2_SOLUTION)
        # disks come sorted by footpoint
        ends = [disk for disk in cert.disks if hi.roles[disk.id] is DiskRole.END]
        for end in (ends[0], ends[-1]):
            relabelled = hi._replace(
                roles={**hi.roles, end.id: DiskRole.PARTITION},
                element_index={**hi.element_index, end.id: 1},
            )
            with pytest.raises(InconsistencyError, match="lies in no frame gap"):
                decode_partition(relabelled, cert)

    def test_rejects_a_placement_missing_a_disk(self):
        hi = build_instance(M2_INSTANCE)
        cert = build_certificate(hi, M2_SOLUTION)
        short = Placement(cert.disks[:-1], cert.footpoints[:-1])
        assert verify(short, 0).ok
        with pytest.raises(
            PreconditionError, match="placement does not hold exactly the instance's disks"
        ):
            decode_partition(hi, short)

    def test_rejects_a_placement_with_other_sizes(self):
        # halved element disks under the instance's ids, two ids swapped
        # across gaps: valid within budget, but grouped as no partition
        hi = build_instance(M2_INSTANCE)
        cert = build_certificate(hi, M2_SOLUTION)
        swap = {"part-3": "part-6", "part-6": "part-3"}
        shrunk = Placement(
            [Disk(swap.get(d.id, d.id), d.size / 2) if hi.roles[d.id] is DiskRole.PARTITION else d
             for d in cert.disks],
            cert.footpoints,
        )
        assert verify(shrunk, 0).ok and span(shrunk).span == hi.budget
        with pytest.raises(
            PreconditionError, match="placement does not hold exactly the instance's disks"
        ):
            decode_partition(hi, shrunk)

    def test_rejects_an_overlapping_placement(self):
        # every certificate disk touches its left neighbour, so moving the
        # second one left by 1/1000 overlaps the first
        hi = build_instance(M2_INSTANCE)
        cert = build_certificate(hi, M2_SOLUTION)
        feet = list(cert.footpoints)
        feet[1] -= F(1, 1000)
        first, second = (d.id for d in cert.disks[:2])
        with pytest.raises(
            PreconditionError,
            match=rf"placement is not valid: disks '{first}' and '{second}' overlap by ",
        ):
            decode_partition(hi, Placement(cert.disks, feet))

    def test_inner_frame_counted_as_a_fourth_element(self):
        # relabel the first inner frame disk inside each frame gap as an
        # element: that gap then holds four
        hi = build_instance(M2_INSTANCE)
        cert = build_certificate(hi, M2_SOLUTION)
        roles = [hi.roles[disk.id] for disk in cert.disks]
        outer = [k for k, role in enumerate(roles) if role is DiskRole.OUTER_FRAME]
        for g, (left, right) in enumerate(zip(outer, outer[1:])):
            inner = next(
                cert.disks[k] for k in range(left + 1, right)
                if roles[k] is DiskRole.INNER_FRAME
            )
            relabelled = hi._replace(
                roles={**hi.roles, inner.id: DiskRole.PARTITION},
                element_index={**hi.element_index, inner.id: 1},
            )
            with pytest.raises(
                InconsistencyError, match=f"gap {g} holds 4 element disks instead of 3"
            ):
                decode_partition(relabelled, cert)


def random_3partition(rng, m, bound=100):
    """A valid instance with m groups of elements in (B/4, B/2), shuffled,
    and its partition."""
    triples = []
    while len(triples) < m:
        a, b = rng.randint(bound // 4 + 1, bound // 2 - 1), rng.randint(bound // 4 + 1, bound // 2 - 1)
        if bound // 4 < bound - a - b < bound / 2:
            triples.append((a, b, bound - a - b))
    flat = [x for t in triples for x in t]
    order = rng.sample(range(3 * m), 3 * m)
    elements = tuple(flat[i] for i in order)
    where = {i: k + 1 for k, i in enumerate(order)}
    groups = tuple(tuple(where[3 * g + j] for j in range(3)) for g in range(m))
    return ThreePartitionInstance(elements, bound), PartitionSolution(groups)


class TestDecodeOnTheKeptLift:
    def _decoded(self, hi, placement):
        try:
            return "ok", decode_partition(hi, placement)
        except ShelfPackError as exc:
            return "error", type(exc).__name__, str(exc)

    def test_same_groups_and_errors_as_fresh_and_unlifted_columns(self):
        rng = random.Random(113)
        cases = []
        for m in (2, 5, 12):
            inst, sol = random_3partition(rng, m)
            hi = build_instance(inst)
            cert = build_certificate(hi, sol)
            cases.append((hi, cert))
            # over budget, and an end disk relabelled into no frame gap
            cases.append((hi, Placement(cert.disks, [x + 1 if x >= 5 else x for x in cert.footpoints])))
            end = next(d for d in cert.disks if hi.roles[d.id] is DiskRole.END)
            cases.append((hi._replace(roles={**hi.roles, end.id: DiskRole.PARTITION},
                                      element_index={**hi.element_index, end.id: 1}), cert))
            # groups decoded from a certificate whose gaps are in another order
            cases.append((hi, build_certificate(hi, PartitionSolution(sol.groups[::-1]))))
        for hi, placement in cases:
            want = self._decoded(hi, placement)
            assert self._decoded(hi, with_lift(placement, fresh_lift(placement))) == want
            assert self._decoded(hi, with_lift(placement, unlifted(placement))) == want
        assert [self._decoded(hi, p)[0] for hi, p in cases] == ["ok", "error", "error", "ok"] * 3


class TestIdentitySuite:
    def test_all_checks_pass_quickly(self):
        start = time.perf_counter()
        values, _ = check_identities()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert len(values) == 37

    def test_specific_exact_values(self):
        values, _ = check_identities()
        assert values["five inner frames overflow a gap by 0.1912"] == F(21912, 10000)
        assert values["three inner frames overflow an end by 0.2045"] == F(12045, 10000)
        assert values["end overflow O F L F"] > F(10964, 10000)
        assert values["gap overflow O L P F F F F O"] > F(20076, 10000)
        assert values["gap overflow O P T L F P F F F L T P O"] > F(20078, 10000)

    def test_two_rows_are_rounded_prints(self):
        # these two published 4-decimal bounds are round-ups of the exact
        # values, so "exceeds" is replaced by "rounds to" for them
        values, rounded = check_identities()
        assert rounded == {"end overflow O L T F F", "gap overflow O L T F F F F O"}
        assert values["end overflow O L T F F"] < F(10528, 10000)
        assert values["end overflow O L T F F"] > 1
        assert values["gap overflow O L T F F F F O"] < F(20395, 10000)
        assert values["gap overflow O L T F F F F O"] > 2
