import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from helpers import brute_min_span, make_disks, random_linear_disks
from shelfpack.errors import DomainError, PreconditionError
from shelfpack.geometry import compact, span
from shelfpack.greedy import greedy_solve
from shelfpack.linear import solve_linear
from shelfpack.oracle import OracleConfig, exact_solve


class TestFixedInstances:
    def test_two_unit_disks(self):
        _, report = exact_solve(make_disks([F(1), F(1)]))
        assert report.span == 4

    def test_four_disk_chain(self):
        placement, report = exact_solve(make_disks([F(10), F(9), F(8), F(7)]))
        assert report.span == 571
        sizes = [d.size for d in placement.disks]
        assert sizes in ([8, 10, 7, 9], [9, 7, 10, 8])

    def test_unit_disk_goes_between_the_big_pair(self):
        placement, report = exact_solve(make_disks([F(2), F(2), F(1)]))
        assert report.span == 16
        assert placement.disks[1].size == 1

    def test_hiding_beats_any_chain(self):
        _, report = exact_solve(make_disks([F(10), F(9), F(8), F(6), F(4)]))
        assert report.span == 533


class TestAgainstEnumeration:
    def test_matches_plain_enumeration(self):
        rng = random.Random(41)
        for _ in range(30):
            n = rng.randint(1, 6)
            sizes = [F(rng.randint(2, 40), rng.randint(1, 6)) for _ in range(n)]
            disks = make_disks(sizes)
            _, report = exact_solve(disks)
            assert report.span == brute_min_span(disks)

    @pytest.mark.parametrize("ratio", [1.5, 2, 6, 50, 500])
    def test_matches_enumeration_across_size_ratios(self, ratio):
        # both backends, with runs of equal sizes; every instance spans the
        # whole ratio.  Exact enumeration costs about five times float at
        # n = 7.
        rng = random.Random(int(10 * ratio))
        small = [(rng.randint(3, 5), exact) for exact in (True, False) for _ in range(25)]
        for n, exact in small + [(6, True), (7, False)]:
            sizes = [1.0, float(ratio)] + [ratio ** rng.random() for _ in range(n - 2)]
            if n > 3:
                sizes[-2:] = [rng.choice(sizes[:-2])] * 2
            rng.shuffle(sizes)
            if exact:
                sizes = [F(round(1000 * v), 1000) for v in sizes]
            disks = make_disks(sizes)
            best = brute_min_span(disks)
            _, report = exact_solve(disks)
            if exact:
                assert report.span == best
            else:
                # a greedy fallback may differ from every compacted span
                # by float rounding
                assert report.span == pytest.approx(best, rel=1e-12)

    def test_greedy_within_four_thirds_at_larger_n(self):
        rng = random.Random(61)
        for n, ratio in ((9, 6), (10, 6), (9, 50), (10, 50)):
            sizes = [F(round(1000 * ratio ** rng.random()), 1000) for _ in range(n)]
            disks = make_disks(sizes)
            _, orc = exact_solve(disks)
            assert greedy_solve(disks).certificate.span <= F(4, 3) * orc.span

    def test_never_above_a_random_compaction(self):
        rng = random.Random(43)
        for _ in range(10):
            sizes = [F(rng.randint(2, 40), rng.randint(1, 6)) for _ in range(6)]
            disks = make_disks(sizes)
            _, report = exact_solve(disks)
            for _ in range(100):
                rng.shuffle(disks)
                assert report.span <= span(compact(disks)).span


class TestSearchModes:
    def test_pruned_equals_unpruned(self):
        # the pruned search against unpruned enumeration of every order
        rng = random.Random(47)
        for _ in range(15):
            n = rng.randint(1, 6)
            sizes = [F(rng.randint(2, 40), rng.randint(1, 6)) for _ in range(n)]
            disks = make_disks(sizes)
            _, pruned = exact_solve(disks)
            assert pruned.span == brute_min_span(disks)

    def test_duplicate_sizes_collapse(self):
        # 9 disks but only 3 distinct sizes: feasible only because
        # equal-size permutations are not re-explored.  The reference
        # compacts each of the 9!/(3!)**3 = 1680 distinct size orders.
        sizes = [3] * 3 + [2] * 3 + [1] * 3  # ints: Disk makes them exact
        _, report = exact_solve(make_disks(sizes))
        best = min(
            span(compact(make_disks(order))).span
            for order in set(permutations(sizes))
        )
        assert report.span == best

    def test_reversal_symmetry_of_optimum(self):
        rng = random.Random(53)
        for _ in range(15):
            n = rng.randint(2, 6)
            sizes = [F(rng.randint(2, 40), rng.randint(1, 6)) for _ in range(n)]
            placement, report = exact_solve(make_disks(sizes))
            reversed_order = list(reversed(placement.disks))
            assert span(compact(reversed_order)).span == report.span


class TestLimits:
    def test_cap_refusal_names_the_cap(self):
        disks = make_disks([F(1)] * 12)
        with pytest.raises(PreconditionError, match="cap"):
            exact_solve(disks)

    def test_cap_override(self):
        disks = make_disks([F(1)] * 12)
        _, report = exact_solve(disks, OracleConfig(max_n=12))
        assert report.span == 24

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            exact_solve([])

    def test_bad_config_rejected(self):
        with pytest.raises(DomainError):
            OracleConfig(max_n=0)


class TestLinearAgreement:
    def test_equals_linear_solver_on_linear_instances(self):
        rng = random.Random(59)
        for _ in range(15):
            n = rng.randint(2, 6)
            while True:
                sizes = [F(rng.randint(100, 199), 100) for _ in range(n)]
                if len(set(sizes)) == n:
                    break
            disks = make_disks(sizes)
            _, lin = solve_linear(disks)
            _, orc = exact_solve(disks)
            assert lin.span == orc.span

    def test_equals_linear_solver_at_larger_n(self):
        rng = random.Random(67)
        for n in (9, 10, 9, 10):
            disks = random_linear_disks(rng, n)
            _, lin = solve_linear(disks)
            _, orc = exact_solve(disks)
            assert lin.span == orc.span
