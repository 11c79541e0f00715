"""Shared test utilities: independent oracles and instance builders."""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import permutations
from typing import Iterable, Sequence

from shelfpack.geometry import (
    Disk,
    Placement,
    best_support_lower_bound,
    compact,
    gap_fit_size,
    span,
)
from shelfpack.greedy import Certificate, GreedyResult
from shelfpack.linear import reversal_improvement


def make_disks(sizes: Sequence, prefix: str = "d") -> list[Disk]:
    return [Disk(f"{prefix}{i}", s) for i, s in enumerate(sizes)]


def random_linear_disks(rng, n: int) -> list[Disk]:
    """n distinct sizes k/100 with 100 <= k < 200 (so max/min < 2, which
    always satisfies the linear-case predicate); n is at most 100."""
    return make_disks([Fraction(k, 100) for k in rng.sample(range(100, 200), n)])


def naive_compact(order: Sequence[Disk]) -> Placement:
    """Reference left-compaction: each disk checks every earlier disk."""
    feet = []
    for disk in order:
        s = disk.size
        x = s * s
        for other, xo in zip(order, feet):
            c = xo + 2 * other.size * s
            if c > x:
                x = c
        feet.append(x)
    return Placement(order, feet)


def naive_greedy(disks: Iterable[Disk]) -> GreedyResult:
    """Reference greedy on scalars: every gap fit, footpoint and the final
    placement go through the checked geometry functions and constructors,
    and the certificate is measured with span() and
    best_support_lower_bound().  Same rules and tie-breaks as greedy_solve."""
    order = sorted(disks, key=lambda d: (-d.size, d.id))
    ids = [d.id for d in order]
    sizes = [d.size for d in order]
    foot = [sizes[0] * 0]
    right_nb = [-1]
    head = tail = 0
    left_wall = foot[0] - sizes[0] * sizes[0]
    right_wall = foot[0] + sizes[0] * sizes[0]
    heap = []  # (-fit, left disk id, left index, right index)
    ops = 0

    def push_gap(li, ri):
        nonlocal ops
        fit = gap_fit_size(sizes[li], sizes[ri], foot[ri] - foot[li])
        heapq.heappush(heap, (-fit, ids[li], li, ri))
        ops += 1

    for k in range(1, len(order)):
        d = sizes[k]
        placed_in_gap = False
        while heap:
            neg_fit, _, li, ri = heap[0]
            if right_nb[li] != ri:
                heapq.heappop(heap)
                continue
            if -neg_fit < d:
                break
            heapq.heappop(heap)
            ops += 1
            if sizes[li] <= sizes[ri]:
                x = foot[li] + 2 * sizes[li] * d
            else:
                x = foot[ri] - 2 * sizes[ri] * d
            foot.append(x)
            right_nb.append(ri)
            right_nb[li] = k
            push_gap(li, k)
            push_gap(k, ri)
            placed_in_gap = True
            break
        if not placed_in_gap:
            x_left = foot[head] - 2 * sizes[head] * d
            x_right = foot[tail] + 2 * sizes[tail] * d
            fits_left = x_left - d * d >= left_wall
            fits_right = x_right + d * d <= right_wall
            if fits_left or (not fits_right and sizes[head] > sizes[tail]):
                foot.append(x_left)
                right_nb.append(head)
                push_gap(k, head)
                head = k
            else:
                foot.append(x_right)
                right_nb.append(-1)
                right_nb[tail] = k
                push_gap(tail, k)
                tail = k
        left_wall = min(left_wall, foot[k] - d * d)
        right_wall = max(right_wall, foot[k] + d * d)

    placement = Placement(order, foot)
    report = span(placement)
    lb = best_support_lower_bound(order)
    return GreedyResult(placement, Certificate(report.span, lb, report.span / lb), ops)


def brute_min_span(disks: Sequence[Disk]):
    """Plain enumeration over all orders; independent of the search code."""
    best = None
    for perm in permutations(disks):
        s = span(compact(list(perm))).span
        if best is None or s < best:
            best = s
    return best


def touching_chain_total(sizes: Sequence) -> Fraction:
    """Abstract chain width: end radii plus consecutive footpoint steps.

    This equals the compacted span only when the chain is geometrically
    realizable with every consecutive pair touching (the linear case).
    """
    sizes = [Fraction(s) for s in sizes]
    total = sizes[0] ** 2 + sizes[-1] ** 2
    total += sum(2 * a * b for a, b in zip(sizes, sizes[1:]))
    return total


def improve_until_stuck(order: list[Disk], max_steps: int) -> tuple[list[Disk], int]:
    """Apply span-reducing reversals (scanning the order and its mirror)
    until none applies; returns the final order and the step count."""
    current = list(order)
    for step in range(max_steps):
        found = None
        for candidate in (current, current[::-1]):
            n = len(candidate)
            for i in range(n - 1):
                for j in range(i + 1, n):
                    result = reversal_improvement(candidate, i, j)
                    if result is not None:
                        found = result[1]
                        break
                if found:
                    break
            if found:
                break
        if found is None:
            return current, step
        current = found
    raise AssertionError(f"no local optimum within {max_steps} reversals")
