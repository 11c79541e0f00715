import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

from shelfpack.errors import InconsistencyError, PreconditionError
from shelfpack.geometry import Disk, Placement, footpoint_distance, span, verify
from shelfpack.hardness import (
    GAP_SIZE_BUDGET,
    SIZE_END,
    SIZE_INNER,
    SIZE_LARGE_FILLER,
    SIZE_MIN_ELEMENT,
    SIZE_OUTER,
    SIZE_SMALL_FILLER,
    DiskRole,
    HardnessInstance,
    PartitionSolution,
    ThreePartitionInstance,
    _build_family,
    reduction_identity_suite,
    build_certificate,
    build_instance,
    decode_partition,
    partition_disk_size,
    scale_to_integer_radii,
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


class TestValidate3Partition:
    def test_accepts_the_m2_example(self):
        assert validate_3partition(M2_INSTANCE).ok

    def test_rejects_boundary_value(self):
        check = validate_3partition(
            ThreePartitionInstance((25, 36, 39, 26, 35, 39), 100)
        )
        assert not check.ok
        assert "a_i > B/4" in check.violation and check.index == 1

    def test_rejects_upper_boundary(self):
        check = validate_3partition(
            ThreePartitionInstance((50, 33, 37, 26, 35, 39), 100)
        )
        assert not check.ok
        assert "a_i < B/2 violated" in check.violation

    def test_rejects_sum_mismatch(self):
        check = validate_3partition(
            ThreePartitionInstance((30, 33, 37, 26, 35, 40), 100)
        )
        assert not check.ok
        assert "sum" in check.violation

    def test_rejects_wrong_count(self):
        check = validate_3partition(ThreePartitionInstance((30, 33), 100))
        assert not check.ok


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
            relabelled = replace(
                hi,
                roles={**hi.roles, end.id: DiskRole.PARTITION},
                element_index={**hi.element_index, end.id: 1},
            )
            with pytest.raises(InconsistencyError, match="lies in no frame gap"):
                decode_partition(relabelled, cert)


class TestIntegerRadii:
    def test_all_radii_become_integers(self):
        hi = build_instance(M2_INSTANCE)
        scaled, factor = scale_to_integer_radii(hi.disks)
        assert factor > 0
        for disk in scaled:
            assert disk.radius.denominator == 1
        original = {d.id: d.size for d in hi.disks}
        for disk in scaled:
            assert disk.size == original[disk.id] * factor

    def test_needs_exact_sizes(self):
        with pytest.raises(PreconditionError):
            scale_to_integer_radii([Disk("a", 0.5)])


class TestIdentitySuite:
    def test_all_checks_pass_quickly(self):
        start = time.perf_counter()
        report = reduction_identity_suite()
        elapsed = time.perf_counter() - start
        assert report.ok
        assert elapsed < 1.0
        assert len(report.checks) == 37

    def test_specific_exact_values(self):
        report = reduction_identity_suite()
        values = {c.name: c.value for c in report.checks}
        assert values["five inner frames overflow a gap by 0.1912"] == F(21912, 10000)
        assert values["three inner frames overflow an end by 0.2045"] == F(12045, 10000)
        assert values["end overflow O F L F"] > F(10964, 10000)
        assert values["gap overflow O L P F F F F O"] > F(20076, 10000)
        assert values["gap overflow O P T L F P F F F L T P O"] > F(20078, 10000)

    def test_two_rows_are_rounded_prints(self):
        # these two published 4-decimal bounds are round-ups of the exact
        # values, so "exceeds" is replaced by "rounds to" for them
        report = reduction_identity_suite()
        rounded = {c.name for c in report.checks if "rounded" in c.detail}
        assert rounded == {"end overflow O L T F F", "gap overflow O L T F F F F O"}
        values = {c.name: c.value for c in report.checks}
        assert values["end overflow O L T F F"] < F(10528, 10000)
        assert values["end overflow O L T F F"] > 1
        assert values["gap overflow O L T F F F F O"] < F(20395, 10000)
        assert values["gap overflow O L T F F F F O"] > 2
