"""Seeded input generators and file writers for the benchmark.

Every generator takes a ``random.Random`` and returns plain data (ids and
size literals, or 3-Partition elements); the program only ever sees the
files written from that data.  Exact sizes are ``k/DENOM`` literals.
"""

from __future__ import annotations

import random
from pathlib import Path

DENOM = 1000


def float_sizes(rng: random.Random, n: int, lo: float = 1.0, hi: float = 50.0) -> list[str]:
    """Decimal literals, log-uniform over [lo, hi] (size ratio up to 50)."""
    ratio = hi / lo
    return [f"{lo * ratio ** rng.random():.6f}" for _ in range(n)]


def linear_sizes(rng: random.Random, n: int) -> list[str]:
    """Rational literals with size ratio below 2, so the linear case holds."""
    return [f"{rng.randrange(DENOM, 2 * DENOM)}/{DENOM}" for _ in range(n)]


def stratified_sizes(rng: random.Random, n: int, ratio: float) -> list[str]:
    """Rational literals, one log-uniform draw per equal-width stratum of
    [1, ratio], shuffled.  Every instance then spans the whole ratio, which
    keeps the oracle's search effort from swinging with the seed."""
    ks = [round(DENOM * ratio ** ((i + rng.random()) / n)) for i in range(n)]
    rng.shuffle(ks)
    return [f"{k}/{DENOM}" for k in ks]


def three_partition(rng: random.Random, m: int, bound: int = 10000):
    """A solvable 3-Partition input with a known solution.

    Returns ``(elements, groups)``: ``elements`` are shuffled, ``groups``
    hold 1-based element indices, three per group, each summing to
    ``bound`` with every element strictly between bound/4 and bound/2.
    """
    lo, hi = bound // 4 + 1, (bound - 1) // 2
    triples = []
    while len(triples) < m:
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        c = bound - a - b
        if lo <= c <= hi:
            triples.append((a, b, c))
    flat = [x for t in triples for x in t]
    perm = list(range(3 * m))
    rng.shuffle(perm)  # element at new position p is flat[perm[p]]
    position = {old: new + 1 for new, old in enumerate(perm)}
    elements = [flat[old] for old in perm]
    groups = [tuple(sorted(position[3 * g + k] for k in range(3))) for g in range(m)]
    return elements, groups


def write_instance(path: Path, literals: list[str], prefix: str = "d") -> None:
    lines = ["shelfpack-instance v1"]
    lines.extend(f"{prefix}{i} {lit}" for i, lit in enumerate(literals))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_three_partition(path: Path, elements: list[int], bound: int) -> None:
    m = len(elements) // 3
    path.write_text(f"{m} {bound}\n" + " ".join(map(str, elements)) + "\n", encoding="utf-8")


def write_groups(path: Path, groups: list[tuple[int, int, int]]) -> None:
    path.write_text("\n".join(" ".join(map(str, g)) for g in groups) + "\n", encoding="utf-8")
