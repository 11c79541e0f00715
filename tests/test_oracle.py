import hashlib
import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from helpers import brute_min_span, make_disks, random_linear_disks
from shelfpack import geometry
from shelfpack.errors import DomainError, PreconditionError
from shelfpack.files import format_placement
from shelfpack.geometry import by_size, compact, span, verify
from shelfpack.greedy import greedy_solve
from shelfpack.linear import _linear_prefix, is_linear_case, solve_linear
from shelfpack.oracle import OracleConfig, exact_solve, hidden_in_linear_prefix
from shelfpack.scalars import lift


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
            assert report.span == best

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


class TestOneCompaction:
    def test_lifts_the_sizes_once(self, monkeypatch):
        # the sort lifts them; the certifier, the search and the compaction
        # of its best order read that lift
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return lift(*args)

        monkeypatch.setattr(geometry, "lift", counted)
        hidden = make_disks([F(1)] * 5 + [F(1, 10)])
        assert hidden_in_linear_prefix(hidden) is not None
        searched = make_disks([F(2), F(2), F(19, 10), F(49, 50)])
        assert hidden_in_linear_prefix(searched) is None
        exact_solve(searched)
        assert calls == [6, 4, 4]

    def test_compacts_one_order(self, monkeypatch):
        calls = []

        compacted = geometry._compacted

        def counting_compacted(sizes):
            calls.append(len(sizes))
            return compacted(sizes)

        # every compaction runs this kernel, on columns lifted once
        monkeypatch.setattr(geometry, "_compacted", counting_compacted)
        rng = random.Random(71)
        instances = [make_disks([F(1), F(1)])]
        for _ in range(40):
            n = rng.randint(1, 7)
            sizes = [F(rng.randint(2, 40), rng.randint(1, 6)) for _ in range(n)]
            instances.append(make_disks(sizes))
        for disks in instances:
            calls.clear()
            placement, report = exact_solve(disks)
            assert calls == [len(disks)]
            assert placement == compact(placement.disks)
            assert report == span(placement)
            assert report.span <= greedy_solve(disks).certificate.span

    @pytest.mark.parametrize("ratio", [1.9, 6, 50])
    def test_float_outputs_pass_verify_at_tolerance_zero(self, ratio):
        rng = random.Random(int(10 * ratio))
        for _ in range(40):
            n = rng.randint(4, 8)
            disks = make_disks([ratio ** rng.random() for _ in range(n)])
            placement, _ = exact_solve(disks)
            assert verify(placement, 0).ok


class TestPinnedOutput:
    # sha256 of the placements below as the DP returned them before its
    # layer loop was tightened: a faster loop must not move a tie-break
    DIGEST = "21713a60dddac763349657fee1f1d6153415acfbbd31e0beb1fc3fce2301d461"

    def test_placements_are_unchanged(self):
        # n = 1-8 on both backends, size ratios up to 500, about 30% of
        # the sizes repeated
        rng = random.Random(97)
        digest = hashlib.sha256()
        for k in range(40):
            sizes = []
            for _ in range(1 + k // 2 % 8):
                if sizes and rng.random() < 0.3:
                    sizes.append(rng.choice(sizes))
                else:
                    sizes.append(F(rng.randint(10, 500), rng.randint(1, 10)))
            if k % 2:
                sizes = [float(v) for v in sizes]
            placement, _ = exact_solve(make_disks(sizes))
            digest.update(format_placement(placement).encode())
        assert digest.hexdigest() == self.DIGEST


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
        with pytest.raises(DomainError, match="hidden_in_linear_prefix"):
            hidden_in_linear_prefix([])

    def test_cap_is_checked_before_the_backend(self):
        disks = make_disks([F(1)] * 6) + make_disks([1.0] * 6, prefix="f")
        with pytest.raises(PreconditionError, match="cap"):
            exact_solve(disks)

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


class TestHiddenInLinearPrefix:
    """The bound of the longest linear-case prefix against the subset DP:
    exact sizes k/1000 log-uniform on [1, ratio], n = 2-9, about 30% tied
    sizes, and in about a third of the instances one disk at the gap
    boundary z = ab/(a + b) of two others."""

    RATIOS = (1.5, 3, 6, 20, 50, 1000)

    @staticmethod
    def sizes(rng, n, ratio):
        sizes = []
        for _ in range(n):
            if sizes and rng.random() < 0.3:
                sizes.append(rng.choice(sizes))
            else:
                sizes.append(F(round(1000 * ratio ** rng.random()), 1000))
        if n > 2 and rng.random() < 0.35:
            a, b = rng.sample(sizes[1:], 2)
            sizes[0] = a * b / (a + b)
        return sizes

    def instances(self, seed, per_cell):
        rng = random.Random(seed)
        for ratio in self.RATIOS:
            for n in range(2, 10):
                for _ in range(per_cell):
                    yield make_disks(self.sizes(rng, n, ratio))

    @staticmethod
    def longest_linear_prefix(disks):
        desc = sorted(disks, key=lambda d: d.size, reverse=True)
        k = max(k for k in range(1, len(desc) + 1) if is_linear_case(desc[:k]))
        return desc[:k]

    def test_certified_spans_are_optimal(self):
        certified = 0  # instances that are not the linear case
        for disks in self.instances(101, 8):
            hidden = hidden_in_linear_prefix(disks)
            if hidden is None:
                continue
            certified += not is_linear_case(disks)
            placement, report = hidden
            assert sorted(placement.disks, key=lambda d: d.id) == sorted(disks, key=lambda d: d.id)
            assert verify(placement, 0).ok
            assert report == span(placement)
            _, prefix = solve_linear(self.longest_linear_prefix(disks))
            assert report.span == prefix.span
            _, optimum = exact_solve(disks)
            assert report.span == optimum.span
        assert certified >= 150  # 216 of the 254 that are not the linear case

    def test_one_scan_finds_the_longest_linear_prefix(self):
        for disks in self.instances(103, 3):
            for column in (disks, make_disks([float(d.size) for d in disks])):
                _, sizes, _ = by_size(column, "empty")
                assert _linear_prefix(sizes) == len(self.longest_linear_prefix(column))

    def test_floats_never_certify(self):
        for disks in self.instances(107, 2):
            floats = make_disks([float(d.size) for d in disks])
            assert hidden_in_linear_prefix(floats) is None

    def test_the_linear_case_is_its_own_prefix(self):
        for disks in (random_linear_disks(random.Random(109), n) for n in range(1, 9)):
            placement, report = hidden_in_linear_prefix(disks)
            assert report == solve_linear(disks)[1]
            assert verify(placement, 0).ok
