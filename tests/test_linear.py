import random
from fractions import Fraction as F

import pytest

from helpers import (
    brute_min_span,
    improve_until_stuck,
    make_disks,
    random_linear_disks,
    reference_solve_linear,
    reversal_improvement,
    touching_chain_total,
)
from shelfpack import geometry
from shelfpack.errors import BackendMismatchError, DomainError, PreconditionError
from shelfpack.geometry import Disk, compact, span
from shelfpack.linear import is_linear_case, solve_linear
from shelfpack.oracle import exact_solve
from shelfpack.scalars import lift


class TestIsLinearCase:
    def test_examples(self):
        assert is_linear_case(make_disks([F(10), F(9), F(8), F(7), F(6)])) is True
        assert is_linear_case(make_disks([F(5), F(4), F(3), F(2)])) is False
        # at the paper's boundary 1/5 == 1/10 + 1/10 the size-5 disk fits
        # the gap of the two size-10 disks exactly, which is still linear
        assert is_linear_case(make_disks([F(6), F(10), F(5), F(10)])) is True
        # b is the second-largest size counted with multiplicity: with
        # a = b = 10, 1/4.9 <= 1/10 + 1/10 fails (with b = 6 it would hold)
        assert is_linear_case(make_disks([F(6), F(10), F(49, 10), F(10)])) is False

    def test_ratio_below_two_suffices(self):
        rng = random.Random(5)
        for _ in range(50):
            assert is_linear_case(random_linear_disks(rng, rng.randint(2, 9)))

    @staticmethod
    def reference(sizes):
        """The two comparisons on the sizes themselves."""
        *_, b, a = sorted(sizes)
        z = min(sizes)
        return a * b <= z * (a + b) and (z + a) ** 2 > 2 * a * a

    def test_lifted_sizes_against_fractions(self):
        rng = random.Random(29)
        for _ in range(300):
            den = rng.choice((1, 7, 990, 13200, 2**40 + 1))
            n = rng.randint(2, 12)
            sizes = [F(rng.randint(den, rng.choice((2, 3, 6)) * den), rng.choice((1, den)))
                     for _ in range(n)]
            disks = make_disks(sizes)
            rng.shuffle(disks)
            assert is_linear_case(disks) is self.reference(sizes), sizes
            floats = make_disks([float(x) for x in sizes])
            assert is_linear_case(floats) is self.reference([d.size for d in floats])

    def test_boundary_of_the_gap_test(self):
        # a*b == z*(a + b): the smallest disk fits the gap exactly and
        # touches both, which is linear; a hair smaller is not, over
        # denominators of all kinds
        for a, b in ((F(2), F(2)), (F(10, 7), F(13, 10)), (F(12, 5), F(11, 5)),
                     (F(10**12 + 3, 10**12), F(10**12 + 1, 10**12))):
            z = a * b / (a + b)
            for bump, want in ((0, True), (-F(1, 10**30), False)):
                sizes = [b, a, z + bump, b, (z + b) / 2]
                assert self.reference(sizes) is want
                assert is_linear_case(make_disks(sizes)) is want, (a, b, bump)

    def test_one_disk_is_linear(self):
        # a lone disk has no gap to hide in; an empty list has no answer
        assert is_linear_case(make_disks([F(1)])) is True
        assert is_linear_case(make_disks([0.5])) is True
        with pytest.raises(DomainError):
            is_linear_case([])

    def test_reads_the_lifted_sizes_without_coercing_them(self, monkeypatch):
        # the wall-gap test runs on the lifted sizes as they are: no
        # Fraction is built back from them and no backend checked again
        def refused(value):
            raise AssertionError(f"coerce({value!r})")

        exact = make_disks([F(10), F(9), F(8), F(7)])
        floats = make_disks([10.0, 9.0, 8.0, 7.0])
        spread = make_disks([F(5), F(4), F(3), F(2)])
        monkeypatch.setattr(geometry, "coerce", refused)
        assert is_linear_case(exact) is True and is_linear_case(floats) is True
        assert is_linear_case(spread) is False


def linear_order(disks):
    """The solver's order: compacted footpoints strictly increase."""
    return list(solve_linear(disks)[0].disks)


class TestOptimalOrder:
    def test_even_interleave(self):
        order = linear_order(make_disks([F(10), F(9), F(8), F(7)]))
        assert [d.size for d in order] == [8, 10, 7, 9]

    def test_single_disk(self):
        d = make_disks([F(3)])
        assert linear_order(d) == d
        placement, report = solve_linear(d)
        assert report.span == 18

    def test_median_goes_to_better_end(self):
        # 2*median > second-smallest + second-largest, so the left end wins
        disks = make_disks([F(14), F(13), F(12), F(9), F(8)])
        order = linear_order(disks)
        assert [d.size for d in order] == [12, 9, 14, 8, 13]
        _, report = solve_linear(disks)
        assert report.span == 1213
        assert touching_chain_total([12, 9, 14, 8, 13]) == 1213
        assert touching_chain_total([9, 14, 8, 13, 12]) == 1221
        assert brute_min_span(disks) == 1213

    def test_median_tie_goes_right(self):
        disks = make_disks([F(10), F(9), F(8), F(7), F(6)])
        order = linear_order(disks)
        assert [d.size for d in order] == [7, 10, 6, 9, 8]
        _, report = solve_linear(disks)
        assert report.span == 625
        assert brute_min_span(disks) == 625

    def test_rejects_non_linear(self):
        with pytest.raises(PreconditionError):
            solve_linear(make_disks([F(5), F(4), F(3), F(2)]))

    def test_refuses_as_the_linear_case_test_does(self):
        with pytest.raises(DomainError, match="^the linear-case test needs at least one disk$"):
            solve_linear([])
        with pytest.raises(BackendMismatchError):
            solve_linear([Disk("a", F(1)), Disk("b", 1.0)])

    def test_lifts_the_sizes_twice(self, monkeypatch):
        # the sort lifts them, and the condition is read from that lift;
        # the compaction lifts them again in footpoint order
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return lift(*args)

        monkeypatch.setattr(geometry, "lift", counted)
        solve_linear(make_disks([F(10), F(9), F(8), F(7), F(6)]))
        assert calls == [5, 5]


class TestSolveLinear:
    def test_fixed_chain(self):
        placement, report = solve_linear(make_disks([F(10), F(9), F(8), F(7)]))
        assert report.span == 571
        # consecutive disks touch and the end disks define both walls
        disks, feet = placement.disks, placement.footpoints
        for k in range(1, len(feet)):
            assert feet[k] - feet[k - 1] == 2 * disks[k - 1].size * disks[k].size
        assert report.left_disk_id == disks[0].id
        assert report.right_disk_id == disks[-1].id

    def test_two_unit_disks(self):
        _, report = solve_linear(make_disks([F(1), F(1)]))
        assert report.span == 4

    def test_matches_oracle_at_the_gap_boundary(self):
        # the smallest disk fits the gap of the two largest exactly:
        # z = ab/(a + b), with b > a/sqrt(2) so no disk fits a wall gap
        rng = random.Random(17)
        for _ in range(60):
            a = F(rng.randint(100, 400), 100)
            b = a * F(rng.choice((100, rng.randint(75, 99))), 100)
            z = a * b / (a + b)
            rest = [z + (b - z) * F(rng.randint(1, 100), 100)
                    for _ in range(rng.randint(0, 5))]
            disks = make_disks([a, b, z, *rest])
            rng.shuffle(disks)
            assert is_linear_case(disks)
            _, lin = solve_linear(disks)
            _, orc = exact_solve(disks)
            assert lin.span == orc.span

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(7)
        for _ in range(25):
            disks = random_linear_disks(rng, rng.randint(3, 6))
            _, lin = solve_linear(disks)
            _, orc = exact_solve(disks)
            assert lin.span == orc.span

    def test_compacts_one_order(self, monkeypatch):
        calls = []

        def counting_compact(order):
            calls.append(len(order))
            return compact(order)

        monkeypatch.setattr("shelfpack.linear.compact", counting_compact)
        rng = random.Random(11)
        for n in (1, 2, 3, 4, 7, 10, 13, 41, 100):
            disks = random_linear_disks(rng, n)
            calls.clear()
            placement, report = solve_linear(disks)
            assert calls == [n]
            assert placement == compact(placement.disks)
            assert report == span(placement)

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 15, 41, 101])
    def test_median_rule_matches_two_compactions(self, n):
        # exact sizes drawn with replacement from a few values, so ties
        # among the median and the pattern's ends are common
        rng = random.Random(n)
        for _ in range(40):
            pool = rng.sample(range(100, 200), rng.randint(1, 6))
            disks = make_disks([F(rng.choice(pool), 100) for _ in range(n)])
            placement, report = solve_linear(disks)
            want_placement, want_report = reference_solve_linear(disks)
            assert placement.disks == want_placement.disks
            assert report == want_report

    def test_extreme_blocks_are_contiguous(self):
        # the 2k extreme-size disks always form a consecutive run
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(2, 9)
            disks = random_linear_disks(rng, n)
            order = linear_order(disks)
            ranked = sorted(order, key=lambda d: (-d.size, d.id))
            position = {d.id: k for k, d in enumerate(order)}
            for k in range(1, n // 2 + 1):
                extremes = {d.id for d in ranked[:k]} | {d.id for d in ranked[-k:]}
                spots = sorted(position[i] for i in extremes)
                assert spots == list(range(spots[0], spots[0] + len(spots)))


class TestSpecExampleNotLinear:
    """The sizes [10, 9, 8, 6, 4] do not satisfy the linear-case predicate:
    1/4 > 1/10 + 1/9 and (4+10)**2 = 196 < 200.  The size-4 disk can hide,
    the interleave chain [8, 6, 10, 4, 9] is not geometrically realizable
    (its abstract width would be 513), and the true optimum is 533."""

    def test_predicate_fails_both_ways(self):
        disks = make_disks([F(10), F(9), F(8), F(6), F(4)])
        assert is_linear_case(disks) is False

    def test_solver_refuses(self):
        with pytest.raises(PreconditionError):
            solve_linear(make_disks([F(10), F(9), F(8), F(6), F(4)]))

    def test_true_optimum_is_533(self):
        disks = make_disks([F(10), F(9), F(8), F(6), F(4)])
        assert brute_min_span(disks) == 533
        _, report = exact_solve(disks)
        assert report.span == 533

    def test_abstract_chain_totals(self):
        assert touching_chain_total([8, 6, 10, 4, 9]) == 513
        assert touching_chain_total([6, 10, 4, 9, 8]) == 516
        # the 513 chain is infeasible: disks 10 and 9 would overlap
        assert span(compact(make_disks([F(8), F(6), F(10), F(4), F(9)]))).span == 541


class TestReversalImprovement:
    def test_tail_reversal_delta(self):
        order = make_disks([F(3), F(2), F(1)])
        delta, new_order = reversal_improvement(order, 0, 2)
        assert delta == (2 + 1 - 2 * 3) * (2 - 1) == -3
        assert [d.size for d in new_order] == [3, 1, 2]

    def test_interior_reversal_delta(self):
        order = make_disks([F(2), F(1), F(3, 2), F(3)])
        delta, new_order = reversal_improvement(order, 0, 2)
        assert delta == 2 * (2 - 3) * (F(3, 2) - 1) == -1
        assert [d.size for d in new_order] == [2, F(3, 2), 1, 3]

    def test_equal_sizes_not_applicable(self):
        order = make_disks([F(2), F(2), F(2)])
        assert reversal_improvement(order, 0, 2) is None

    def test_adjacent_pair_not_applicable(self):
        order = make_disks([F(3), F(2), F(1)])
        assert reversal_improvement(order, 0, 1) is None

    def test_index_validation(self):
        order = make_disks([F(3), F(2), F(1)])
        with pytest.raises(DomainError):
            reversal_improvement(order, 2, 1)
        with pytest.raises(DomainError):
            reversal_improvement(order, 0, 3)

    def test_delta_matches_compacted_spans_on_linear_instances(self):
        rng = random.Random(13)
        checked = 0
        while checked < 50:
            disks = random_linear_disks(rng, rng.randint(3, 7))
            rng.shuffle(disks)
            old_span = span(compact(disks)).span
            n = len(disks)
            for i in range(n - 1):
                for j in range(i + 1, n):
                    result = reversal_improvement(disks, i, j)
                    if result is None:
                        continue
                    delta, new_order = result
                    assert delta < 0
                    new_span = span(compact(new_order)).span
                    assert new_span - old_span == delta
                    checked += 1


class TestLocalSearch:
    def test_reaches_optimum_for_even_counts(self):
        rng = random.Random(21)
        for _ in range(20):
            n = rng.choice([4, 6])
            disks = random_linear_disks(rng, n)
            _, best = solve_linear(disks)
            rng.shuffle(disks)
            final, steps = improve_until_stuck(disks, n ** 3)
            assert span(compact(final)).span == best.span

    def test_odd_counts_stop_at_either_median_end(self):
        # moving the median between the two chain ends is not a reversal,
        # so odd instances can get stuck on the worse of the two ends
        rng = random.Random(22)
        seen_worse = False
        for _ in range(20):
            disks = random_linear_disks(rng, 5)
            desc = sorted(disks, key=lambda d: (-d.size, d.id))
            median = desc[2]
            rest = [d for d in desc if d.id != median.id]
            pattern = linear_order(rest)
            ends = {
                span(compact([median] + pattern)).span,
                span(compact(pattern + [median])).span,
            }
            rng.shuffle(disks)
            final, _ = improve_until_stuck(disks, 5 ** 3)
            final_span = span(compact(final)).span
            assert final_span in ends
            if final_span != min(ends):
                seen_worse = True
        assert seen_worse, "expected at least one run to stop at the worse end"
