import random
from fractions import Fraction as F

import pytest

from helpers import brute_min_span, make_disks, naive_compact
from shelfpack.errors import BackendMismatchError, DomainError
from shelfpack.scalars import Backend
from shelfpack.geometry import (
    Disk,
    Placement,
    best_support_lower_bound,
    compact,
    footpoint_distance,
    gap_fit_size,
    size_from_radius,
    span,
    support_lower_bound,
    verify,
    wall_fit_exceeds,
)


class TestDiskTypes:
    def test_disk_normalizes_ints_to_exact(self):
        d = Disk("a", 2)
        assert d.size == F(2) and isinstance(d.size, F)
        assert d.radius == F(4)

    def test_disk_rejects_bad_values(self):
        with pytest.raises(DomainError):
            Disk("a", 0)
        with pytest.raises(DomainError):
            Disk("a", -1.5)
        with pytest.raises(DomainError):
            Disk("", 1)
        with pytest.raises(DomainError):
            Disk("has space", 1)

    def test_placed_disk_backend_must_match(self):
        with pytest.raises(BackendMismatchError):
            Placement([Disk("a", 0.5)], [F(1)])

    def test_placement_sorts_and_validates(self):
        p = Placement([Disk("b", F(1)), Disk("a", F(1))], [F(3), F(1)])
        assert [d.id for d in p.disks] == ["a", "b"]
        with pytest.raises(DomainError):
            Placement([], [])
        with pytest.raises(DomainError):
            Placement([Disk("a", F(1)), Disk("a", F(1))], [F(1), F(3)])
        with pytest.raises(DomainError):
            Placement([Disk("a", F(1)), Disk("b", F(2))], [F(1), F(1)])


class TestPlacementConstructor:
    def test_sorts_by_footpoint(self):
        disks = make_disks([F(1), F(1), F(2)])
        p = Placement(disks, [4, F(-1), F(1)])
        assert list(p) == [(disks[1], -1), (disks[2], 1), (disks[0], 4)]
        assert p.disks == (disks[1], disks[2], disks[0])
        assert [type(x) for x in p.footpoints] == [F, F, F]  # ints become exact
        assert len(p) == 3 and p.backend is Backend.EXACT
        assert p == Placement(p.disks, p.footpoints)

    def test_keeps_placement_promises(self):
        disks = make_disks([1.0, 1.0])
        with pytest.raises(DomainError, match="a placement must contain"):
            Placement([], [])
        with pytest.raises(DomainError, match="duplicate disk id 'd0'"):
            Placement([disks[0], disks[0]], [0.0, 2.0])
        with pytest.raises(DomainError, match="footpoints of 'd0' and 'd1' coincide"):
            Placement(disks, [1.0, 1.0])
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(DomainError, match="disk 'd1' has footpoint"):
                Placement(disks, [0.0, bad])
        with pytest.raises(BackendMismatchError):
            Placement(disks, [0.0, F(2)])
        with pytest.raises(BackendMismatchError):
            Placement(make_disks([F(1), F(1)]), [F(0), 2.0])

    def test_one_footpoint_per_disk(self):
        disks = make_disks([F(1), F(1)])
        for feet in ([F(0)], [F(0), F(2), F(4)]):
            with pytest.raises(DomainError, match="one footpoint per disk"):
                Placement(disks, feet)


class TestFootpointDistance:
    def test_unit_pair(self):
        assert footpoint_distance(F(1), F(1)) == 2

    def test_direct_product(self):
        assert footpoint_distance(F(1), F(33, 100)) == F(33, 50)

    def test_frame_chain_total(self):
        # 1, f, f, f, f, f, 1 with f = 33/100 sums to exactly 2.1912
        sizes = [F(1)] + [F(33, 100)] * 5 + [F(1)]
        total = sum(footpoint_distance(a, b) for a, b in zip(sizes, sizes[1:]))
        assert total == F(21912, 10000)

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            footpoint_distance(F(0), F(1))
        with pytest.raises(DomainError):
            footpoint_distance(1.0, -2.0)

    def test_rejects_mixed_backends(self):
        with pytest.raises(BackendMismatchError):
            footpoint_distance(F(1), 1.0)


class TestGapFitSize:
    def test_symmetric_touching_pair(self):
        a = F(7, 3)
        assert gap_fit_size(a, a, 2 * a * a) == a / 2

    def test_outer_inner_corner_fits_large_filler(self):
        f = F(33, 100)
        assert gap_fit_size(F(1), f, 2 * f) == F(33, 133)

    def test_outer_large_filler_corner_fits_small_filler(self):
        l = F(33, 133)
        assert gap_fit_size(l, F(1), 2 * l) == F(33, 166)

    def test_general_form(self):
        assert gap_fit_size(2.0, 3.0, 40.0) == 4.0

    def test_rejects_negative_gap(self):
        with pytest.raises(DomainError):
            gap_fit_size(F(1), F(1), F(-1))


class TestWallFit:
    def test_equal_sizes_exceed(self):
        assert wall_fit_exceeds(F(5), F(5)) is True

    def test_straddles_threshold(self):
        assert wall_fit_exceeds(0.41, 1.0) is False  # 1.41**2 = 1.9881 < 2
        assert wall_fit_exceeds(0.42, 1.0) is True  # 1.42**2 = 2.0164 > 2
        assert wall_fit_exceeds(F(41, 100), F(1)) is False
        assert wall_fit_exceeds(F(42, 100), F(1)) is True

    def test_agrees_with_float_threshold(self):
        rng = random.Random(4)
        for _ in range(300):
            a = rng.uniform(0.1, 10.0)
            z = rng.uniform(0.01, 10.0)
            expected = z - (2 ** 0.5 - 1) * a
            if abs(expected) < 1e-9 * a:
                continue  # too close to the threshold for float comparison
            assert wall_fit_exceeds(z, a) == (expected > 0)


class TestCompact:
    def test_two_unit_disks(self):
        p = compact(make_disks([F(1), F(1)]))
        assert p.footpoints == (F(1), F(3))
        assert span(p).span == 4

    def test_small_disk_hides_in_wall_gap(self):
        p = compact(make_disks([F(4, 5), F(2)]))
        assert p.footpoints == (F(16, 25), F(4))
        report = span(p)
        assert report.span == 8
        assert report.left_wall == 0

    def test_small_disk_hides_in_wall_gap_float(self):
        p = compact(make_disks([0.8, 2.0]))
        feet = p.footpoints
        assert feet[0] == 0.8 * 0.8 and feet[1] == 4.0
        assert span(p).span == 8.0

    def test_interleaved_chain_span(self):
        p = compact(make_disks([8, 10, 7, 9]))
        assert p.footpoints == (64, 224, 364, 490)
        assert span(p).span == 571

    def test_brute_force_confirms_571_optimal(self):
        disks = make_disks([F(10), F(9), F(8), F(7)])
        assert brute_min_span(disks) == 571

    def test_empty_order_rejected(self):
        with pytest.raises(DomainError):
            compact([])

    def test_footpoints_attain_lower_bounds(self):
        order = make_disks([F(3), F(1, 2), F(2), F(5, 2), F(1)])
        p = compact(order)
        feet = {disk.id: x for disk, x in p}
        for k, disk in enumerate(order):
            x = feet[disk.id]
            bounds = [disk.radius]
            bounds.extend(
                feet[other.id] + 2 * other.size * disk.size for other in order[:k]
            )
            assert x == max(bounds)

    @pytest.mark.parametrize("exact", [True, False])
    def test_matches_naive_compaction(self, exact):
        rng = random.Random(17)
        for ratio in (F(3, 2), F(2), F(4), F(50), F(500)):
            for _ in range(40):
                n = rng.randint(1, 60)
                sizes = [1 + (ratio - 1) * F(rng.randint(0, 1000), 1000)
                         for _ in range(n)]
                at = rng.randint(0, n)  # insert a run of equal sizes
                sizes[at:at] = [sizes[0]] * rng.choice((0, 0, 2, 12))
                if not exact:
                    sizes = [float(s) for s in sizes]
                order = make_disks(sizes)
                got = list(map(repr, compact(order).footpoints))
                want = list(map(repr, naive_compact(order).footpoints))
                assert got == want


class TestSpan:
    def test_single_disk(self):
        a = F(3)
        p = Placement([Disk("a", a)], [a * a])
        r = span(p)
        assert r.span == 2 * a * a
        assert r.left_disk_id == r.right_disk_id == "a"

    def test_unit_chain(self):
        n = 6
        r = span(compact(make_disks([F(1)] * n)))
        assert r.span == 2 * n

    def test_tie_goes_to_smallest_id(self):
        p = Placement([Disk("b", F(1)), Disk("a", F(1))], [F(1), F(3)])
        r = span(p)
        # both walls are hit by exactly one disk here
        assert r.left_disk_id == "b" and r.right_disk_id == "a"
        q = Placement(
            [Disk("b", F(2)), Disk("a", F(2)), Disk("c", F(2))], [F(4), F(8), F(12)]
        )
        # left extents: b at 0; right extents: c at 16; no ties
        rq = span(q)
        assert rq.left_disk_id == "b" and rq.right_disk_id == "c"
        # a genuine tie: two unit disks sharing each wall via a hidden twin
        t = Placement(
            [Disk("z", F(2)), Disk("y", F(4, 5))], [F(4), F(4, 5) * F(4, 5)]
        )
        rt = span(t)
        assert rt.left_wall == 0
        assert rt.left_disk_id == "y"  # ties broken by id: y < z


class TestVerify:
    def test_compact_outputs_accepted_exactly(self):
        rng = random.Random(11)
        for _ in range(25):
            sizes = [F(rng.randint(1, 40), rng.randint(1, 8)) for _ in range(6)]
            assert verify(compact(make_disks(sizes)), 0).ok

    def test_overlap_reported_with_deficit(self):
        p = Placement([Disk("u1", F(1)), Disk("u2", F(1))], [F(0), F(19, 10)])
        result = verify(p, 0)
        assert not result.ok
        assert result.violation.left_disk_id == "u1"
        assert result.violation.right_disk_id == "u2"
        assert result.violation.deficit == F(1, 10)
        assert result.report.span == F(19, 10) + 2

    def test_tolerance_permits_slack(self):
        p = Placement([Disk("u1", 1.0), Disk("u2", 1.0)], [0.0, 1.9])
        assert not verify(p, 0.0).ok
        assert verify(p, 0.2).ok

    def test_exact_backend_requires_zero_tolerance(self):
        p = compact(make_disks([F(1), F(1)]))
        with pytest.raises(DomainError):
            verify(p, F(1, 10))
        with pytest.raises(DomainError):
            verify(p, 0.1)
        assert verify(p, 0.0).ok  # a float zero is accepted as zero

    def test_negative_tolerance_rejected(self):
        p = compact(make_disks([1.0, 1.0]))
        with pytest.raises(DomainError):
            verify(p, -0.1)

    def test_sweep_matches_naive_pairwise(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(2, 7)
            disks = [
                Disk(f"d{i}", F(rng.randint(1, 20), rng.randint(1, 5)))
                for i in range(n)
            ]
            feet = [F(rng.randint(0, 120), rng.randint(1, 3)) for _ in range(n)]
            try:
                p = Placement(disks, feet)
            except DomainError:
                continue  # coincident footpoints
            placed = list(p)
            naive_ok = all(
                abs(x - y) >= 2 * a.size * b.size
                for i, (a, x) in enumerate(placed)
                for b, y in placed[i + 1 :]
            )
            assert verify(p, 0).ok == naive_ok


class TestSupportLowerBound:
    def test_unit_disks_tight(self):
        disks = make_disks([F(1)] * 7)
        assert support_lower_bound(disks) == 14
        assert span(compact(disks)).span == 14

    def test_single_disk_tight(self):
        a = F(5, 2)
        assert support_lower_bound([Disk("a", a)]) == 2 * a * a

    def test_two_two_one(self):
        assert support_lower_bound(make_disks([F(2), F(2), F(1)])) == 14

    def test_never_exceeds_any_compaction(self):
        rng = random.Random(23)
        for _ in range(30):
            sizes = [F(rng.randint(1, 30), rng.randint(1, 6)) for _ in range(5)]
            disks = make_disks(sizes)
            bound = support_lower_bound(disks)
            rng.shuffle(disks)
            assert bound <= span(compact(disks)).span

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            support_lower_bound([])


class TestBestSupportLowerBound:
    def test_prefix_beats_full_set_when_minimum_drops(self):
        # the size-1 disk hides entirely, so the two-disk bound of 24 is
        # far below the single-disk bound of 72
        disks = make_disks([F(6), F(1)])
        assert support_lower_bound(disks) == 24
        assert best_support_lower_bound(disks) == 72
        assert brute_min_span(disks) == 72

    def test_matches_full_set_on_units(self):
        disks = make_disks([F(1)] * 5)
        assert best_support_lower_bound(disks) == support_lower_bound(disks) == 10

    def test_two_two_one(self):
        assert best_support_lower_bound(make_disks([F(2), F(2), F(1)])) == 16

    def test_is_a_valid_lower_bound(self):
        rng = random.Random(31)
        for _ in range(25):
            sizes = [F(rng.randint(1, 24), rng.randint(1, 4)) for _ in range(5)]
            disks = make_disks(sizes)
            assert best_support_lower_bound(disks) <= brute_min_span(disks)

    @pytest.mark.parametrize("exact", [True, False])
    def test_runs_of_equal_sizes(self, exact):
        # reference: running sums over the disks ranked by (-size, id)
        rng = random.Random(37)
        for _ in range(60):
            values = [F(rng.randint(100, 5000), rng.choice((7, 13, 100, 990)))
                      for _ in range(4)]
            sizes = [rng.choice(values) for _ in range(rng.randint(1, 40))]
            if not exact:
                sizes = [float(s) for s in sizes]
            disks = make_disks(sizes)
            rng.shuffle(disks)
            ranked = sorted(disks, key=lambda d: (-d.size, d.id))
            running, bounds = 0 * sizes[0], []
            for count, disk in enumerate(ranked, start=1):
                m = disk.size
                running += m
                bounds.append(4 * m * running - 2 * count * m * m)
            assert repr(best_support_lower_bound(disks)) == repr(max(bounds))


def test_size_from_radius():
    assert size_from_radius(4.0) == 2.0
    with pytest.raises(DomainError):
        size_from_radius(-1.0)
    with pytest.raises(DomainError):
        size_from_radius(F(4))
