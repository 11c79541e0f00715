"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import math
import random
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction as F

from helpers import brute_min_span, make_disks, touching_chain_total
from shelfpack.geometry import (
    Disk,
    compact,
    footpoint_distance,
    gap_fit_size,
    span,
    verify,
    wall_fit_exceeds,
)
from shelfpack.greedy import greedy_solve
from shelfpack.hardness import (
    PartitionSolution,
    ThreePartitionInstance,
    reduction_identity_suite,
    build_certificate,
    build_instance,
    decode_partition,
)
from shelfpack.linear import is_linear_case, solve_linear
from shelfpack.oracle import exact_solve

import suites

RATIO_LIMIT = 4 / 3 + 1e-9


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def test_criterion_1_identity_suite():
    with criterion(1, "reduction identity suite passes in exact arithmetic"):
        start = time.perf_counter()
        report = reduction_identity_suite()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"suite took {elapsed:.3f}s"
        assert report.ok
        values = {c.name: c.value for c in report.checks}
        # pinned exact values
        assert values["five inner frames overflow a gap by 0.1912"] == F(21912, 10000)
        assert (
            values["minimum element size at a_i > B/4"] == F(2261, 13200)
        )
        assert values["end disk fills the end slot with zero slack"] == 1
        # every overflow row beats its capacity
        for check in report.checks:
            if check.name.startswith("end overflow"):
                assert check.value > 1
            if check.name.startswith("gap overflow"):
                assert check.value > 2
        # cited sample rows beat their published bounds
        assert values["end overflow O F L F"] > F(10964, 10000)
        assert values["gap overflow O L P F F F F O"] > F(20076, 10000)
        assert values["gap overflow O P T L F P F F F L T P O"] > F(20078, 10000)


def test_criterion_2_reduction_round_trip():
    with criterion(2, "reduction round trip is exact for m in {1, 2, 3}"):
        cases = [
            (ThreePartitionInstance((4, 4, 4), 12), ((1, 2, 3),)),
            (
                ThreePartitionInstance((30, 33, 37, 26, 35, 39), 100),
                ((1, 2, 3), (4, 5, 6)),
            ),
            (
                ThreePartitionInstance((30, 33, 37, 26, 35, 39, 31, 32, 37), 100),
                ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
            ),
        ]
        start = time.perf_counter()
        for inst, groups in cases:
            m = inst.m
            hi = build_instance(inst)
            assert len(hi.disks) == 12 * m + 11
            cert = build_certificate(hi, PartitionSolution(groups))
            result = verify(cert, 0)
            assert result.ok
            assert result.report.span == 2 * (m + 1)  # exact rational equality
            decoded = decode_partition(hi, cert)
            flat = sorted(i for g in decoded.groups for i in g)
            assert flat == list(range(1, 3 * m + 1))
            for group in decoded.groups:
                assert sum(inst.elements[i - 1] for i in group) == inst.bound
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"round trips took {elapsed:.3f}s"


def test_criterion_3_linear_case_optimality():
    with criterion(3, "linear solver matches the oracle on 200 random instances"):
        start = time.perf_counter()
        rng = random.Random(303)
        for _ in range(200):
            n = rng.randint(3, 8)
            while True:
                sizes = [rng.uniform(1.0, 1.999) for _ in range(n)]
                if len(set(sizes)) == n:
                    break
            disks = make_disks(sizes)
            assert is_linear_case(disks)
            _, lin = solve_linear(disks)
            _, orc = exact_solve(disks)
            assert abs(lin.span - orc.span) <= 1e-9 * orc.span

        # fixed case, exact backend
        fixed = make_disks([F(10), F(9), F(8), F(7)])
        _, lin = solve_linear(fixed)
        _, orc = exact_solve(fixed)
        assert lin.span == orc.span == 571

        # the stated companion case [10, 9, 8, 6, 4] -> 513 contradicts the
        # oracle: the instance is not linear (1/4 > 1/10 + 1/9 and
        # (4+10)**2 < 200), 513 is the width of an infeasible abstract
        # chain, and the true optimum is 533.
        other = make_disks([F(10), F(9), F(8), F(6), F(4)])
        assert not is_linear_case(other)
        _, orc = exact_solve(other)
        assert orc.span == 533
        assert touching_chain_total([8, 6, 10, 4, 9]) == 513

        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"criterion took {elapsed:.1f}s"


def test_criterion_4_approximation_vs_oracle():
    with criterion(4, "greedy stays within 4/3 of the oracle on 200 instances"):
        start = time.perf_counter()
        rng = random.Random(404)
        max_ratio = 0.0
        for _ in range(200):
            n = rng.randint(1, 8)
            disks = make_disks([rng.uniform(1.0, 6.0) for _ in range(n)])
            greedy = greedy_solve(disks)
            _, orc = exact_solve(disks)
            ratio = greedy.certificate.span / orc.span
            max_ratio = max(max_ratio, ratio)
            assert ratio <= RATIO_LIMIT
        elapsed = time.perf_counter() - start
        print(f"  max observed greedy/optimal ratio: {max_ratio:.6f}")
        assert elapsed < 300.0, f"criterion took {elapsed:.1f}s"


def _timed_greedy(disks):
    start = time.perf_counter()
    result = greedy_solve(disks)
    return time.perf_counter() - start, result


def test_criterion_5_certificate_at_scale():
    with criterion(5, "greedy certifies 10,000 disks under one second"):
        import gc

        rng = random.Random(505)
        disks_5k = [Disk(f"d{i:05d}", rng.uniform(1.0, 6.0)) for i in range(5000)]
        disks_10k = [Disk(f"d{i:05d}", rng.uniform(1.0, 6.0)) for i in range(10000)]
        greedy_solve(disks_10k)  # warm up
        time_10k = math.inf
        scale_factors = []
        gc.collect()
        gc.disable()
        try:
            # interleaved pairs: machine drift hits both sides of a pair
            # alike, and the median ratio shrugs off a pair it split
            for _ in range(9):
                elapsed_5k = _timed_greedy(disks_5k)[0]
                elapsed, result = _timed_greedy(disks_10k)
                scale_factors.append(elapsed / elapsed_5k)
                time_10k = min(time_10k, elapsed)
        finally:
            gc.enable()
        scale = statistics.median(scale_factors)
        assert result.certificate.ratio <= RATIO_LIMIT
        assert time_10k < 1.0, f"10k disks took {time_10k:.3f}s"
        assert scale < 2.5, f"doubling n scaled time by {scale:.2f}"
        print(
            f"  10k: {time_10k:.3f}s, median scale factor {scale:.2f}, "
            f"ratio {float(result.certificate.ratio):.6f}"
        )


def test_criterion_6_tangency_identities():
    with criterion(6, "tangency closed forms hold on 1,000 random inputs"):
        rng = random.Random(606)
        for _ in range(1000):
            # exact backend: algebraic identities hold exactly
            a = F(rng.randint(1, 400), rng.randint(1, 40))
            b = F(rng.randint(1, 400), rng.randint(1, 40))
            d = footpoint_distance(a, b)
            assert d * d == (a * a + b * b) ** 2 - (a * a - b * b) ** 2
            g = gap_fit_size(a, b, d)
            assert g == a * b / (a + b)
            assert footpoint_distance(a, g) + footpoint_distance(g, b) == d

            # float backend: tangency residual at the claimed distance
            # (stable for any size ratio, unlike the sqrt of a difference)
            x = rng.uniform(0.01, 20.0)
            y = rng.uniform(0.01, 20.0)
            df = footpoint_distance(x, y)
            lhs = df * df + (x * x - y * y) ** 2
            rhs = (x * x + y * y) ** 2
            assert abs(lhs - rhs) <= 1e-12 * rhs
            gf = gap_fit_size(x, y, df)
            assert abs(gf - x * y / (x + y)) <= 1e-12 * gf
            assembled = footpoint_distance(x, gf) + footpoint_distance(gf, y)
            assert abs(assembled - df) <= 1e-12 * df

            z = rng.uniform(0.001, 20.0)
            threshold = (math.sqrt(2.0) - 1.0) * x
            if abs(z - threshold) > 1e-12 * x:
                assert wall_fit_exceeds(z, x) == (z > threshold)


def test_criterion_7_hiding_thresholds():
    with criterion(7, "hiding straddles the wall-gap threshold; unit disk fits"):
        # (sqrt(2) - 1) * 2 is about 0.8284: 0.82 hides, 0.83 does not
        assert wall_fit_exceeds(F(82, 100), F(2)) is False
        assert wall_fit_exceeds(F(83, 100), F(2)) is True

        hides = greedy_solve([Disk("a", F(2)), Disk("b", F(82, 100))])
        assert hides.certificate.span == 8
        grows = greedy_solve([Disk("a", F(2)), Disk("b", F(83, 100))])
        z = F(83, 100)
        assert grows.certificate.span == 8 + (2 * 2 * z + z * z - 4)
        assert grows.certificate.span > 8

        # direct constraint evaluation for the hidden disk
        placement = hides.placement
        report = span(placement)
        assert report.span == 8
        assert verify(placement, 0).ok

        # a unit disk exactly fills the gap between touching size-2 disks
        assert gap_fit_size(F(2), F(2), F(8)) == 1
        exact_fill, orc = exact_solve(make_disks([F(2), F(2), F(1)]))
        assert orc.span == 16
        assert brute_min_span(make_disks([F(2), F(2), F(1)])) == 16


def test_criterion_8_property_suites():
    with criterion(8, "five randomized invariant suites, 500 cases each"):
        for name, runner in [
            ("compact minimality", suites.run_compact_minimality_suite),
            ("support disjointness", suites.run_support_disjointness_suite),
            ("small consecutive pairs touch", suites.run_small_pairs_touch_suite),
            ("reversal delta consistency", suites.run_reversal_delta_suite),
            ("optimal order reversal symmetry", suites.run_reversal_symmetry_suite),
        ]:
            runner(500)
            print(f"  suite ok: {name} (500 cases)")
