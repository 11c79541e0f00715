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
The disks and their lifted sizes come from the solvers' shared front end,
:func:`~shelfpack.geometry.by_size`, so on exact data every state value,
and the greedy span that serves as incumbent, is an integer over D**2.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le
from typing import Iterable, Optional

from .errors import DomainError, PreconditionError
from .geometry import Disk, Placement, SpanReport, by_size, compact, span
from .greedy import _greedy


@dataclass(frozen=True)
class OracleConfig:
    """``max_n`` caps the instance size."""

    max_n: int = 10

    def __post_init__(self) -> None:
        if self.max_n < 1:
            raise DomainError("max_n must be at least 1")


def _keep(front: list, state: tuple) -> None:
    """Add ``state`` to the non-dominated ``front`` of one placed set."""
    new_span, new_env = state[0], state[1]
    for old_span, old_env, _ in front:
        if old_span <= new_span and all(map(le, old_env, new_env)):
            return
    front[:] = [
        old
        for old in front
        if not (new_span <= old[0] and all(map(le, new_env, old[1])))
    ]
    front.append(state)


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
    exact.  The greedy span is an incumbent, and states at or above it
    are dropped.  One order is compacted: the best state's in the last
    layer or, when no order beats the incumbent, the greedy placement's
    footpoint order.  Compaction is componentwise minimal, so that order
    compacts to at most the greedy span; on exact data no order beats
    it, so the two are equal.
    """
    cfg = config or OracleConfig()
    items = list(disks)
    if len(items) > cfg.max_n:
        raise PreconditionError(
            f"instance has {len(items)} disks, above the oracle cap of "
            f"{cfg.max_n}; raise OracleConfig.max_n to search anyway"
        )
    items, sizes, back = by_size(items, "exact_solve requires at least one disk")
    n = len(items)
    radii = [s * s for s in sizes]
    pair = [[2 * a * b for b in sizes] for a in sizes]
    zero = sizes[0] * 0

    greedy, incumbent = _greedy(items, sizes, back)

    # placed-set bitmask -> its front of (span, envelope, order) states;
    # envelope entries of placed disks stay zero so they never decide
    layer: dict[int, list] = {0: [(zero, (zero,) * n, ())]}
    for _ in range(n):
        following: dict[int, list] = {}
        for mask, front in layer.items():
            for i in range(n):
                bit = 1 << i
                if mask & bit:
                    continue
                if i and sizes[i - 1] == sizes[i] and not mask & (bit >> 1):
                    continue  # equal-size disks enter in index order only
                grown = mask | bit
                rest = [k for k in range(n) if not grown >> k & 1]
                r = radii[i]
                row = pair[i]
                for partial, env, order in front:
                    x = env[i] if env[i] > r else r
                    extent = x + r
                    new_span = partial if partial > extent else extent
                    if new_span >= incumbent:
                        continue
                    new_env = list(env)
                    new_env[i] = zero
                    for k in rest:
                        c = x + row[k]
                        if c > new_env[k]:
                            new_env[k] = c
                    _keep(
                        following.setdefault(grown, []),
                        (new_span, tuple(new_env), order + (i,)),
                    )
        layer = following

    if layer:
        (front,) = layer.values()
        best_order = min(front, key=lambda state: state[0])[2]
        order = [items[i] for i in best_order]
    else:
        order = greedy.placement.disks  # nothing beat the greedy span
    placement = compact(order)
    return placement, span(placement)
