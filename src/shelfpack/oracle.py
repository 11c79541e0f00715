"""Exact solver: a subset DP over compacted prefixes with dominance pruning.

Left-compaction is span-minimal for a fixed order, so the best compacted
order is optimal.  Orders are built left to right, one disk per layer.  A
state is the set of disks placed so far, its partial span (the largest
x_j + r_j) and its envelope E[k] = max_j x_j + 2 s_j s_k, one entry per
disk k not yet placed.  The next disk i lands at max(r_i, E[i]), so the
state holds everything the rest of the order can see of its prefix
(Held & Karp, 1962).

Within one set, a state that another matches or beats on the span and on
every envelope entry is dropped.  Footpoints, spans and envelopes of every
completion are built from the state by ``max`` and ``+`` alone, both
monotone (on floats as well, since rounding is monotone), so the dominated
state can never finish below the one that dominates it.  Equal-size disks
enter in index order only, so permutations among them are built once.
No other state is dropped, so the last layer holds an optimal order.
The disks and their lifted sizes come from the solvers' shared front end,
:func:`~shelfpack.geometry.by_size`, so on exact data every state value is
an integer over D**2.  On floats each footpoint is rounded as
:func:`~shelfpack.geometry.compact` rounds it, so the span found is the
smallest compacted span, bit for bit.

Before the search, :func:`hidden_in_linear_prefix` tries to prove an
optimum from the paper's linear case alone: exact sizes only, and
uncapped, since it never searches.
"""

from __future__ import annotations

from collections import namedtuple
from operator import le
from typing import Iterable, Optional

from .errors import DomainError, PreconditionError
from .geometry import Disk, Placement, SpanReport, by_size, span
from .geometry import _compact_columns, _compacted
from .greedy import _greedy
from .linear import _linear_order, _linear_prefix


def hidden_in_linear_prefix(disks: Iterable[Disk]) -> Optional[tuple[Placement, SpanReport]]:
    """An optimal placement proved without the search, or None.

    Let P be the longest size-decreasing prefix that is a linear-case
    instance.  By the paper's theorem :func:`~shelfpack.linear.solve_linear`
    places P with the smallest span, and removing disks never grows a
    span, so no placement of all the disks is shorter than that chain.
    The chain, in ``solve_linear``'s order and compacted, seeds the
    greedy's loop, which places the other disks.  If every one of them
    goes into a gap or keeps the walls, the placement meets the bound and
    is optimal.  On floats that equality would need an exact decision, so
    float sizes give None.
    """
    found = _hidden(*by_size(disks, "hidden_in_linear_prefix requires at least one disk"))
    if found is None:
        return None
    return found[0], span(found[0])


def _hidden(order: list, sizes: list, back) -> Optional[tuple]:
    """:func:`hidden_in_linear_prefix` on the columns of
    :func:`~shelfpack.geometry.by_size`: the placement and its span,
    lifted, or None."""
    if isinstance(sizes[0], float):
        return None
    chain = _linear_order(sizes[: _linear_prefix(sizes)])
    feet = _compacted([sizes[k] for k in chain])
    bound = max(x + sizes[k] * sizes[k] for k, x in zip(chain, feet))  # the left wall is 0
    placement, extent, _ = _greedy(order, sizes, back, chain, feet)
    return (placement, extent) if extent == bound else None


class OracleConfig(namedtuple("OracleConfig", "max_n")):
    """``max_n`` caps the instance size."""

    __slots__ = ()

    def __new__(cls, max_n: int = 10) -> OracleConfig:
        if max_n < 1:
            raise DomainError("max_n must be at least 1")
        return super().__new__(cls, max_n)

    @classmethod
    def _make(cls, iterable) -> OracleConfig:
        # _replace builds through _make, which would skip the check
        return cls(*iterable)


def exact_solve(
    disks: Iterable[Disk], config: Optional[OracleConfig] = None
) -> tuple[Placement, SpanReport]:
    """Minimum span over all footpoint orders, with a realizing placement.

    Layer d holds, for every set of d disks, the states (partial span,
    envelope E[k] at each unplaced disk k, order) that no other state of
    the same set dominates.  Extending a state by disk i puts it at
    x = max(r_i, E[i]), raises the span to x + r_i if that is larger and
    raises each remaining E[k] to x + 2 s_i s_k if that is larger.  These
    steps are monotone in the span and in E, so a dominated state never
    completes below the state that dominates it, and dropping it is
    exact.  One order is compacted: the best state's in the last layer.
    Its DP span is its compacted span, computed the same way, so on floats
    too the result is the smallest compacted span.
    """
    cfg = config or OracleConfig()
    items = list(disks)
    _check_cap(len(items), cfg.max_n)
    placement, _ = _subset_dp(*by_size(items, "exact_solve requires at least one disk"))
    return placement, span(placement)


def _check_cap(n: int, max_n: int) -> None:
    if n > max_n:
        raise PreconditionError(
            f"instance has {n} disks, above the oracle cap of "
            f"{max_n}; raise the cap with --max-n (OracleConfig.max_n) "
            "to search anyway"
        )


def _subset_dp(items: list, sizes: list, back) -> tuple:
    """:func:`exact_solve` on the columns of
    :func:`~shelfpack.geometry.by_size`, past the cap check: the placement
    and its span, lifted."""
    n = len(items)
    radii = [s * s for s in sizes]
    pair = [[2 * a * b for b in sizes] for a in sizes]
    zero = sizes[0] * 0

    # placed-set bitmask -> its front of (span, envelope, order) states;
    # envelope entries of placed disks stay zero so they never decide
    layer: dict[int, list] = {0: [(zero, (zero,) * n, ())]}
    for _ in range(n):
        following: dict[int, list] = {}
        for mask, front in layer.items():
            unplaced = [k for k in range(n) if not mask >> k & 1]
            for i in unplaced:
                if i and sizes[i - 1] == sizes[i] and not mask >> (i - 1) & 1:
                    continue  # equal-size disks enter in index order only
                # created before any state is tested: the sets of the next
                # layer keep the order in which masks first reach them, and
                # that order breaks ties there
                child = following.setdefault(mask | 1 << i, [])
                r = radii[i]
                row = pair[i]
                reach = [(k, row[k]) for k in unplaced if k != i]
                for partial, env, order in front:
                    x = env[i] if env[i] > r else r
                    extent = x + r
                    new_span = partial if partial > extent else extent
                    new_env = list(env)
                    new_env[i] = zero
                    for k, w in reach:
                        c = x + w
                        if c > new_env[k]:
                            new_env[k] = c
                    # keep the new state unless a kept one dominates it;
                    # drop the kept states it dominates
                    for old_span, old_env, _ in child:
                        if old_span <= new_span and all(map(le, old_env, new_env)):
                            break
                    else:
                        child[:] = [
                            old
                            for old in child
                            if not (new_span <= old[0] and all(map(le, new_env, old[1])))
                        ]
                        child.append((new_span, tuple(new_env), order + (i,)))
        layer = following

    (front,) = layer.values()
    best_order = min(front, key=lambda state: state[0])[2]
    return _compact_columns(items, sizes, back, best_order)
