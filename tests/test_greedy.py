import random
from fractions import Fraction as F

import pytest

from helpers import brute_min_span, make_disks, naive_greedy
from shelfpack.errors import BackendMismatchError, DomainError
from shelfpack.files import format_placement
from shelfpack.geometry import Disk, compact, span, verify
from shelfpack.greedy import greedy_solve
from shelfpack.hardness import ThreePartitionInstance, build_instance


class TestPlacementRules:
    def test_unit_disk_fills_gap_between_twos(self):
        result = greedy_solve([Disk("a", F(2)), Disk("b", F(2)), Disk("c", F(1))])
        feet = {disk.id: x for disk, x in result.placement}
        assert feet == {"a": 0, "b": 8, "c": 4}  # c touches both neighbours
        assert result.certificate.span == 16
        assert brute_min_span(result.placement.disks) == 16

    def test_unit_chain(self):
        result = greedy_solve(make_disks([F(1)] * 3))
        assert result.certificate.span == 6

    def test_hiding_disk_extends_left_without_span_growth(self):
        result = greedy_solve([Disk("a", F(2)), Disk("b", F(82, 100))])
        assert result.certificate.span == 8
        feet = {disk.id: x for disk, x in result.placement}
        assert feet["b"] == -2 * 2 * F(82, 100)  # touches a from the left

    def test_non_hiding_disk_grows_span(self):
        z = F(83, 100)
        result = greedy_solve([Disk("a", F(2)), Disk("b", z)])
        assert result.certificate.span == 4 + 2 * 2 * z + z * z
        assert result.certificate.span > 8

    def test_single_disk(self):
        result = greedy_solve([Disk("a", F(3))])
        assert result.certificate.span == 18
        assert result.certificate.ratio == 1
        assert result.queue_ops == 0

    def test_empty_input_rejected(self):
        with pytest.raises(DomainError):
            greedy_solve([])


class TestCertificate:
    def test_unit_disks_tight(self):
        result = greedy_solve(make_disks([F(1)] * 8))
        assert result.certificate.lower_bound == 16
        assert result.certificate.ratio == 1

    def test_prefix_bound_on_hidden_disk(self):
        result = greedy_solve([Disk("a", F(6)), Disk("b", F(1))])
        assert result.certificate.span == 72
        assert result.certificate.lower_bound == 72
        assert result.certificate.ratio == 1

    def test_ratio_bound_on_random_instances(self):
        rng = random.Random(77)
        limit = F(4, 3)
        for _ in range(200):
            n = rng.randint(1, 20)
            sizes = [F(rng.randint(10, 60), 10) for _ in range(n)]
            result = greedy_solve(make_disks(sizes))
            assert 1 <= result.certificate.ratio <= limit


class TestAgainstOracle:
    def test_within_four_thirds_of_optimum(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 6)
            sizes = [F(rng.randint(10, 60), 10) for _ in range(n)]
            disks = make_disks(sizes)
            result = greedy_solve(disks)
            assert result.certificate.span <= F(4, 3) * brute_min_span(disks)


class TestInvariants:
    def test_outputs_verify(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 30)
            disks = [Disk(f"d{i}", rng.uniform(1.0, 6.0)) for i in range(n)]
            result = greedy_solve(disks)
            report = span(result.placement)
            tol = 1e-9 * max(1.0, report.span)
            assert verify(result.placement, tol).ok

    def test_queue_ops_within_three_n(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randint(1, 200)
            disks = [Disk(f"d{i:03d}", rng.uniform(0.5, 6.0)) for i in range(n)]
            result = greedy_solve(disks)
            assert result.queue_ops <= 3 * n

    def test_byte_for_byte_determinism(self):
        rng = random.Random(15)
        disks = [Disk(f"d{i:02d}", rng.uniform(1.0, 6.0)) for i in range(50)]
        first = greedy_solve(list(disks))
        second = greedy_solve(list(reversed(disks)))
        assert format_placement(first.placement) == format_placement(second.placement)
        assert first.certificate == second.certificate

    def test_small_consecutive_disks_touch(self):
        # after rescaling by the smallest size, consecutive disks that are
        # both below size 2 must touch exactly
        rng = random.Random(121)
        for _ in range(20):
            n = rng.randint(2, 12)
            sizes = [F(rng.randint(8, 48), 8) for _ in range(n)]
            result = greedy_solve(make_disks(sizes))
            smallest = min(sizes)
            sizes = [d.size for d in result.placement.disks]
            feet = result.placement.footpoints
            for k in range(1, len(feet)):
                if sizes[k - 1] < 2 * smallest and sizes[k] < 2 * smallest:
                    gap = feet[k] - feet[k - 1]
                    assert gap == 2 * sizes[k - 1] * sizes[k]


def reduction_disks(m: int, seed: int) -> list[Disk]:
    """Disks of a 3-Partition reduction with m groups (B = 1000)."""
    rng = random.Random(seed)
    elements = []
    while len(elements) < 3 * m:
        a, b = rng.randint(251, 499), rng.randint(251, 499)
        if 250 < 1000 - a - b < 500:
            elements += [a, b, 1000 - a - b]
    rng.shuffle(elements)
    return list(build_instance(ThreePartitionInstance(tuple(elements), 1000)).disks)


class TestAgainstNaiveGreedy:
    """greedy_solve runs on plain lists (exact sizes as integers); the
    reference runs on checked scalars.  Outputs must agree to the byte."""

    @staticmethod
    def assert_same(disks, exact):
        if not exact:
            disks = [Disk(d.id, float(d.size)) for d in disks]
        got, want = greedy_solve(disks), naive_greedy(disks)
        assert format_placement(got.placement) == format_placement(want.placement)
        assert repr(got.certificate) == repr(want.certificate)
        assert got.queue_ops == want.queue_ops

    @pytest.mark.parametrize("exact", [True, False])
    def test_size_ratios_with_equal_runs(self, exact):
        rng = random.Random(41)
        for ratio in (F(3, 2), F(2), F(6), F(50), F(1000)):
            for _ in range(25):
                n = rng.randint(1, 80)
                sizes = [1 + (ratio - 1) * F(rng.randint(0, 1000), 1000)
                         for _ in range(n)]
                at = rng.randint(0, n)  # insert a run of equal sizes
                sizes[at:at] = [rng.choice(sizes)] * rng.choice((0, 2, 9, 30))
                disks = make_disks(sizes)
                rng.shuffle(disks)
                self.assert_same(disks, exact)

    @pytest.mark.parametrize("exact", [True, False])
    def test_coprime_denominators(self, exact):
        rng = random.Random(43)
        for _ in range(40):
            sizes = []
            for _ in range(rng.randint(2, 60)):
                den = rng.choice((7, 13, 990, 13200))
                sizes.append(F(rng.randint(den, 40 * den), den))
            self.assert_same(make_disks(sizes), exact)

    @pytest.mark.parametrize("exact", [True, False])
    def test_two_thousand_disks(self, exact):
        rng = random.Random(47)
        sizes = [F(rng.randint(1000, 100_000), 1000) for _ in range(2000)]
        self.assert_same(make_disks(sizes), exact)

    @pytest.mark.parametrize("exact", [True, False])
    def test_reduction_instance(self, exact):
        self.assert_same(reduction_disks(20, seed=53), exact)

    @pytest.mark.parametrize("exact", [True, False])
    def test_one_and_two_disks(self, exact):
        for sizes in ([F(3)], [F(1, 3)], [F(2), F(2)], [F(2), F(1)], [F(1), F(5, 7)],
                      [F(2), F(82, 100)]):
            for disks in (make_disks(sizes), make_disks(sizes[::-1])):
                self.assert_same(disks, exact)

    @pytest.mark.parametrize("exact", [True, False])
    def test_tie_heavy(self, exact):
        # few distinct sizes in long runs, so gaps tie on fit and the left
        # id decides
        rng = random.Random(59)
        for _ in range(60):
            dens = (1, 2, 3, 7)
            kinds = [F(rng.randint(1, 12), rng.choice(dens)) for _ in range(rng.randint(1, 4))]
            sizes = [rng.choice(kinds) for _ in range(rng.randint(1, 120))]
            disks = make_disks(sizes)
            rng.shuffle(disks)
            self.assert_same(disks, exact)
        self.assert_same(make_disks([F(1)] * 200), exact)
        self.assert_same(make_disks([F(4)] * 3 + [F(2)] * 40 + [F(1)] * 90), exact)

    @pytest.mark.parametrize("exact", [True, False])
    def test_ties_between_left_disks_of_different_sizes(self, exact):
        # Powers of two keep float footpoints exact, so the gaps of tangent
        # pairs (a, b) and (b, a) tie bit for bit.  Ids rise with size: of
        # two tied gaps whose left disks differ in size, the smaller left
        # disk comes later in index order but has the smaller id, and its
        # gap must go first.
        rng = random.Random(61)
        for _ in range(60):
            sizes = sorted(F(2) ** rng.randint(-3, 2) for _ in range(rng.randint(3, 80)))
            disks = [Disk(f"d{i:02d}", s) for i, s in enumerate(sizes)]
            rng.shuffle(disks)
            self.assert_same(disks, exact)

    def test_fits_closer_than_float_precision(self):
        # z, then y on its right, then c on its left: the gaps (c, z) and
        # (z, y) fit 2/3 and 2(1+eps)/(3+eps), about 1e-21 apart, so both
        # round to one float.  m must enter the wider gap, on z's right,
        # although the left-id tie-break would pick (c, z).
        eps = F(1, 10**20)
        disks = [Disk("z", F(2)), Disk("y", 1 + eps), Disk("c", F(1)), Disk("m", F(1, 10))]
        result = greedy_solve(disks)
        assert [d.id for d in result.placement.disks] == ["c", "z", "m", "y"]
        self.assert_same(disks, exact=True)


class TestFloatOutputVerifies:
    """A float footpoint placed left of a neighbour is rounded so that
    verify, which forms x + 2ab as the greedy does, accepts at tolerance 0."""

    def test_seeded_instances_at_tolerance_zero(self):
        rng = random.Random(24)
        for _ in range(300):
            sizes = [50 ** rng.random() for _ in range(rng.randint(2, 60))]
            if rng.random() < 0.5:  # runs of equal sizes
                sizes = [rng.choice(sizes[:3]) if rng.random() < 0.5 else s for s in sizes]
            assert verify(greedy_solve(make_disks(sizes)).placement, 0.0).ok, sizes

    @staticmethod
    def exact_gap(r):
        # a + b = 2, so z = ab/2 is exactly their gap fit ab/(a+b)
        a, b = 1 + r, 1 - r
        z = a * b / 2
        assert F(z) * (F(a) + F(b)) == F(a) * F(b)
        return a, b, z

    def test_exactly_fitting_gap_with_a_smaller_right_neighbour(self):
        # z touches b, the smaller neighbour, at 2ab - 2bz, which rounds
        # below 2az, where z touches a; z takes 2az, which clears b too
        a, b, z = self.exact_gap(341278 / 2**20)
        assert 2 * a * b - 2 * b * z < 2 * a * z
        result = greedy_solve([Disk("a", a), Disk("b", b), Disk("z", z)])
        feet = {disk.id: x for disk, x in result.placement}
        assert feet == {"a": 0.0, "z": 2 * a * z, "b": 2 * a * b}
        assert verify(result.placement, 0.0).ok

    def test_exactly_fitting_gaps_at_tolerance_zero(self):
        rng = random.Random(25)
        for _ in range(500):
            a, b, z = self.exact_gap(rng.randrange(1, 400_000) / 2**20)
            placement = greedy_solve([Disk("a", a), Disk("b", b), Disk("z", z)]).placement
            assert [d.id for d in placement.disks] == ["a", "z", "b"]
            assert verify(placement, 0.0).ok, (a, b, z)


class TestInputBoundary:
    """Checks made once on entry still reject what they rejected before."""

    @pytest.mark.parametrize("solver", [greedy_solve, compact])
    def test_empty_input(self, solver):
        with pytest.raises(DomainError):
            solver([])

    @pytest.mark.parametrize("solver", [greedy_solve, compact])
    @pytest.mark.parametrize("size", [F(2), 2.0])
    def test_duplicate_ids(self, solver, size):
        with pytest.raises(DomainError, match="duplicate disk id 'a'"):
            solver([Disk("a", size), Disk("b", size / 2), Disk("a", size / 3)])

    @pytest.mark.parametrize("solver", [greedy_solve, compact])
    def test_mixed_backends(self, solver):
        with pytest.raises(BackendMismatchError):
            solver([Disk("a", F(2)), Disk("b", 1.0)])
        with pytest.raises(BackendMismatchError):
            solver([Disk("a", 2.0), Disk("b", F(1)), Disk("c", F(1, 2))])

    @pytest.mark.parametrize(
        "sizes, named",
        [
            # sorted d0, d3, d6, d1, ...: d3, the second disk placed, would
            # sit 2 * 1e154 * 1e154 = inf right of d0
            ([1e154 / (1 + i % 3) for i in range(9)], "d3"),
            # d1 lands at a finite footpoint with a finite right wall, but
            # the span from the left wall overflows
            ([7.7e153, 7.7e153, 1.0], "d1"),
        ],
    )
    def test_greedy_stops_at_the_disk_whose_span_overflows(self, sizes, named):
        disks = [Disk(f"d{i}", size) for i, size in enumerate(sizes)]
        message = f"^placing disk '{named}' takes the span beyond the float range$"
        with pytest.raises(DomainError, match=message):
            greedy_solve(disks)

    @pytest.mark.parametrize("solver", [greedy_solve, compact])
    @pytest.mark.parametrize("size", [1e154, 1e200])
    def test_float_footpoints_overflowing_to_infinity(self, solver, size):
        # 2 * 1e154 * 1e154 overflows although every radius is finite
        with pytest.raises(DomainError):
            solver([Disk("a", size), Disk("b", size), Disk("c", size / 2)])
