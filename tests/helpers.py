"""Shared test utilities: independent oracles and instance builders."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Sequence

from shelfpack.geometry import Disk, PlacedDisk, Placement, compact, span
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
    return Placement(tuple(PlacedDisk(d, x) for d, x in zip(order, feet)))


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
