"""The 3-Partition reduction's proof table, recomputed in exact arithmetic.

The frame and filler sizes in :mod:`shelfpack.hardness` rest on exact-fit
identities, and the reduction's impossibility argument on disk sequences
that overflow an end or a gap, each published with a 4-decimal bound.
"""

import math
from fractions import Fraction as F
from operator import eq, gt, lt

from helpers import partition_disk_size
from shelfpack import hardness as h

# The smallest element disk, at a_i = B/4, just below every size the
# reduction allows (it needs a_i > B/4).
SIZE_MIN_ELEMENT = partition_disk_size(1, 4)

# Three element disks fit between the inner frames of one gap iff their
# sizes sum to at most this.
GAP_SIZE_BUDGET = 2 / (4 * h.SIZE_INNER) - 1

# Letters name disk roles: O outer frame, F inner frame, L large filler,
# T small filler, P the minimum element/end size.
ROLE_SIZES = {
    "O": h.SIZE_OUTER,
    "F": h.SIZE_INNER,
    "L": h.SIZE_LARGE_FILLER,
    "T": h.SIZE_SMALL_FILLER,
    "P": SIZE_MIN_ELEMENT,
}


def width(kind: str, spec: str) -> F:
    """Width of the touching chain ``spec`` in an end, from the outer
    frame's footpoint to the far edge of the last disk (capacity 1), or in
    a gap, between the footpoints of its two outer frames (capacity 2)."""
    sizes = [ROLE_SIZES[letter] for letter in spec.split()]
    chain = sum(2 * a * b for a, b in zip(sizes, sizes[1:]))
    return chain + sizes[-1] * sizes[-1] if kind == "end" else chain


f, l, t, p = (ROLE_SIZES[letter] for letter in "FLTP")
e = h.SIZE_END

# name, exact value, and the relation it must bear to a bound
IDENTITIES = [
    ("large filler fills the outer/inner corner", 1 / l, eq, 1 + 1 / f),
    ("small filler fills the outer/large-filler corner", 1 / t, eq, 1 + 1 / l),
    ("end disk fills the end slot with zero slack", 2 * f + 4 * f * e + f * f, eq, 1),
    ("gap size budget for three element disks", GAP_SIZE_BUDGET, eq, F(17, 33)),
    ("three average element disks exactly meet the budget",
     3 * partition_disk_size(1, 3), eq, F(17, 33)),
    ("minimum element size at a_i > B/4", F(17, 99) * F(399, 400), eq, F(2261, 13200)),
    ("five inner frames overflow a gap by 0.1912", width("gap", "O F F F F F O"), eq, F("2.1912")),
    ("three inner frames overflow an end by 0.2045", width("end", "O F F F"), eq, F("1.2045")),
    ("end disk is above the minimum element size", e - p, gt, 0),
    ("element disks overflow the space between touching inner frames", p - f / 2, gt, 0),
    ("size ratio of the family is below six", 1 / p, lt, 6),
]

# sequences that must overflow their end or gap, with their published bounds
OVERFLOW_ROWS = [
    ("end", "O F F F", F("1.2045")),
    ("end", "O F L F", F("1.0964")),
    ("end", "O F F L", F("1.1031")),
    ("end", "O L L F F", F("1.1098")),
    ("end", "O F T F", F("1.0313")),
    ("end", "O F F T", F("1.0485")),
    ("end", "O L T F F", F("1.0528")),
    ("end", "O T T L F F", F("1.0657")),
    ("end", "O F F P", F("1.0201")),
    ("end", "O L P F F", F("1.0209")),
    ("end", "O T P L F F", F("1.0411")),
    ("end", "O F P P F", F("1.0536")),
    ("end", "O P P T L F F", F("1.0584")),
    ("end", "O P T L F P F", F("1.0080")),
    ("gap", "O F F F F F O", F("2.1912")),
    ("gap", "O F L F F F O", F("2.0831")),
    ("gap", "O L L F F F F O", F("2.0965")),
    ("gap", "O F T F F F O", F("2.0180")),
    ("gap", "O L T F F F F O", F("2.0395")),
    ("gap", "O T T L F F F F O", F("2.0524")),
    ("gap", "O L P F F F F O", F("2.0076")),
    ("gap", "O T P L F F F F O", F("2.0278")),
    ("gap", "O F P P F F F O", F("2.0403")),
    ("gap", "O P P T L F F F F O", F("2.0451")),
    ("gap", "O P T L F P F P F F O", F("2.0030")),
    ("gap", "O P T L F P F F F L T P O", F("2.0078")),
]


def check_identities() -> tuple[dict[str, F], set[str]]:
    """Assert every identity and overflow row; return each check's exact
    value by name, and the names of the overflow rows whose published
    bound is the exact value rounded up rather than truncated."""
    values = {}
    for name, value, relation, bound in IDENTITIES:
        assert relation(value, bound), name
        values[name] = value
    rounded = set()
    for kind, spec, printed in OVERFLOW_ROWS:
        name = f"{kind} overflow {spec}"
        value = values[name] = width(kind, spec)
        assert value > (1 if kind == "end" else 2), name
        # the bound is the exact value truncated or rounded to 4 decimals
        printable = {F(math.floor(v * 10_000), 10_000) for v in (value, value + F(1, 20_000))}
        assert printed in printable, name
        if printed > value:
            rounded.add(name)
    return values, rounded
