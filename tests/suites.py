"""Randomized invariant suites, shared by the property and acceptance tests.

Each function runs at least ``cases`` independent randomized checks with a
fixed seed and raises AssertionError on the first failure.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

from shelfpack.geometry import (
    compact,
    span,
    support_lower_bound,
    verify,
)
from shelfpack.greedy import greedy_solve
from shelfpack.linear import reversal_improvement
from shelfpack.oracle import exact_solve

from helpers import make_disks


def _random_exact_sizes(rng: random.Random, n: int) -> list[F]:
    return [F(rng.randint(1, 48), rng.randint(1, 8)) for _ in range(n)]


def run_compact_minimality_suite(cases: int = 500) -> None:
    """Every compacted footpoint sits exactly on one of its lower bounds,
    and every compaction passes exact verification."""
    rng = random.Random(1001)
    for _ in range(cases):
        order = make_disks(_random_exact_sizes(rng, rng.randint(1, 7)))
        placement = compact(order)
        feet = {disk.id: x for disk, x in placement}
        for k, disk in enumerate(order):
            bounds = [disk.radius]
            bounds.extend(
                feet[earlier.id] + 2 * earlier.size * disk.size
                for earlier in order[:k]
            )
            assert feet[disk.id] == max(bounds), "footpoint above its lower bounds"
        assert verify(placement, 0).ok


def run_support_disjointness_suite(cases: int = 500) -> None:
    """In any verified placement the open support intervals, rescaled by the
    smallest size, are pairwise disjoint; their total never exceeds the span."""
    rng = random.Random(2002)
    for index in range(cases):
        sizes = _random_exact_sizes(rng, rng.randint(1, 8))
        disks = make_disks(sizes)
        if index % 2 == 0:
            placement = compact(disks)
        else:
            placement = greedy_solve(disks).placement
        assert verify(placement, 0).ok
        m = min(sizes)
        placed, feet = [d.size for d in placement.disks], placement.footpoints
        for k in range(1, len(feet)):
            needed = 2 * m * (placed[k - 1] + placed[k]) - 2 * m * m
            assert feet[k] - feet[k - 1] >= needed, "supports overlap"
        assert support_lower_bound(disks) <= span(placement).span


def run_small_pairs_touch_suite(cases: int = 500) -> None:
    """In greedy output, consecutive disks that are both smaller than twice
    the smallest size touch exactly (exact backend)."""
    rng = random.Random(3003)
    for _ in range(cases):
        n = rng.randint(2, 10)
        sizes = [F(rng.randint(8, 48), 8) for _ in range(n)]
        placement = greedy_solve(make_disks(sizes)).placement
        threshold = 2 * min(sizes)
        placed, feet = [d.size for d in placement.disks], placement.footpoints
        for k in range(1, len(feet)):
            if placed[k - 1] < threshold and placed[k] < threshold:
                distance = feet[k] - feet[k - 1]
                assert distance == 2 * placed[k - 1] * placed[k], (
                    "small consecutive pair does not touch"
                )


def run_reversal_delta_suite(cases: int = 500) -> None:
    """Each applicable chain reversal changes the compacted span by exactly
    its predicted (negative) delta on linear-case instances."""
    rng = random.Random(4004)
    checked = 0
    guard = 0
    while checked < cases:
        guard += 1
        assert guard < 50 * cases, "not enough applicable reversals generated"
        n = rng.randint(3, 7)
        while True:
            sizes = [F(rng.randint(100, 199), 100) for _ in range(n)]
            if len(set(sizes)) == n:
                break
        disks = make_disks(sizes)
        rng.shuffle(disks)
        base_span = span(compact(disks)).span
        for i in range(n - 1):
            for j in range(i + 1, n):
                result = reversal_improvement(disks, i, j)
                if result is None:
                    continue
                delta, new_order = result
                assert delta < 0
                assert span(compact(new_order)).span - base_span == delta
                checked += 1


def run_reversal_symmetry_suite(cases: int = 500) -> None:
    """Reversing the footpoint order of an oracle optimum and recompacting
    reproduces the optimal span exactly."""
    rng = random.Random(5005)
    for _ in range(cases):
        n = rng.randint(2, 5)
        sizes = _random_exact_sizes(rng, n)
        placement, report = exact_solve(make_disks(sizes))
        mirrored = list(reversed(placement.disks))
        assert span(compact(mirrored)).span == report.span
