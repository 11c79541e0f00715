"""Shared test utilities: independent oracles and instance builders."""

from __future__ import annotations

import gc
import heapq
import math
import os
import re
import statistics
import time
from decimal import Decimal
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from typing import Iterable, Optional, Sequence

import shelfpack
from shelfpack.errors import DomainError, ParseError
from shelfpack.geometry import (
    Disk,
    Placement,
    SpanReport,
    best_support_lower_bound,
    compact,
    span,
)
from shelfpack.greedy import Certificate, GreedyResult
from shelfpack.linear import _interleave
from shelfpack.scalars import Backend, Lift, Scalar, coerce, lift, unified_backend


def make_disks(sizes: Sequence, prefix: str = "d") -> list[Disk]:
    return [Disk(f"{prefix}{i}", s) for i, s in enumerate(sizes)]


def partition_disk_size(element: int, bound: int) -> Fraction:
    """Size encoding one element of a 3-Partition instance:
    (17/99) * ((3/100) * element/bound + 99/100), formed as the one
    fraction 17 * (3*element + 99*bound) / (9900*bound)."""
    if bound <= 0 or element <= 0:
        raise DomainError("element and bound must be positive")
    return Fraction(17 * (3 * element + 99 * bound), 9900 * bound)


def module_env() -> dict[str, str]:
    """``os.environ`` with the imported ``shelfpack``'s source directory
    first on ``PYTHONPATH``, for a ``python -m shelfpack`` subprocess."""
    env = dict(os.environ)
    src = str(Path(shelfpack.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def doubling_ratio(fn, small, large, pairs: int = 5) -> float:
    """Median over interleaved pairs of the time of ``fn(large)`` over that
    of ``fn(small)``, with the garbage collector off; ``large`` holds twice
    as many disks as ``small``."""
    ratios = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(pairs):
            start = time.perf_counter()
            fn(small)
            middle = time.perf_counter()
            fn(large)
            ratios.append((time.perf_counter() - middle) / (middle - start))
    finally:
        gc.enable()
    return statistics.median(ratios)


def random_linear_disks(rng, n: int) -> list[Disk]:
    """n distinct sizes k/100 with 100 <= k < 200 (so max/min < 2, which
    always satisfies the linear-case predicate); n is at most 100."""
    return make_disks([Fraction(k, 100) for k in rng.sample(range(100, 200), n)])


def footpoint_distance(a, b):
    """Footpoint distance of two touching disks of sizes ``a`` and ``b``."""
    return 2 * a * b


def gap_fit_size(a, b, footpoint_gap):
    """Largest size fitting between disks of sizes ``a`` and ``b`` whose
    footpoints are ``footpoint_gap`` apart; a*b/(a+b) for a touching pair."""
    return footpoint_gap / (2 * (a + b))


def reference_by_size(disks: Iterable[Disk], empty_message: str) -> tuple:
    """``geometry.by_size`` the plain way: sort the disks on their unlifted
    sizes by (-size, id), then lift the sorted sizes; each disk's id rank
    is its index among the sorted ids."""
    order = sorted(disks, key=lambda d: (-d.size, d.id))
    if not order:
        raise DomainError(empty_message)
    sizes = [d.size for d in order]
    unified_backend(sizes)
    sizes, _, _, back = lift(sizes)
    ids = sorted(d.id for d in order)
    return order, sizes, back, [ids.index(d.id) for d in order]


def reference_placement(disks: Sequence[Disk], feet: Sequence) -> tuple[tuple, tuple]:
    """The checks of ``Placement(disks, feet)`` on the unlifted scalars:
    the columns sorted by footpoint, or the same :class:`DomainError`
    naming the same first offender."""
    disks = tuple(disks)
    if not disks:
        raise DomainError("a placement must contain at least one disk")
    if len(disks) != len(feet):
        raise DomainError(
            f"a placement needs one footpoint per disk, got {len(disks)} "
            f"disks and {len(feet)} footpoints"
        )
    coerced = []
    for disk, x in zip(disks, feet):
        try:
            coerced.append(coerce(x))
        except DomainError as exc:
            raise DomainError(f"disk {disk.id!r} has footpoint {x!r}") from exc
    unified_backend([d.size for d in disks] + coerced)
    order = sorted(range(len(disks)), key=coerced.__getitem__)
    disks = tuple(disks[i] for i in order)
    feet = tuple(coerced[i] for i in order)
    seen: set[str] = set()
    for disk in disks:
        if disk.id in seen:
            raise DomainError(f"duplicate disk id {disk.id!r} in placement")
        seen.add(disk.id)
    for k in range(1, len(feet)):
        if feet[k - 1] == feet[k]:
            raise DomainError(f"footpoints of {disks[k - 1].id!r} and {disks[k].id!r} coincide")
    return disks, feet


def fresh_lift(placement: Placement) -> Lift:
    """The lift of a placement's columns, made from scratch."""
    return lift([d.size for d in placement.disks], placement.footpoints)


def unlifted(placement: Placement) -> Lift:
    """A placement's columns as they are, in the form that
    :func:`~shelfpack.scalars.lift` gives past its guard: every check on it
    runs on the scalars themselves."""
    back = float if placement.backend is Backend.FLOAT else Fraction
    return Lift([d.size for d in placement.disks], list(placement.footpoints), 1, back)


def with_lift(placement: Placement, lifted: tuple) -> Placement:
    """A copy of ``placement`` that keeps ``lifted`` in place of its own lift."""
    copy = object.__new__(Placement)
    object.__setattr__(copy, "disks", placement.disks)
    object.__setattr__(copy, "footpoints", placement.footpoints)
    object.__setattr__(copy, "_lift", lifted)
    object.__setattr__(copy, "_ids", placement._ids)
    return copy


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


def naive_staircase(sizes: Sequence) -> list:
    """Reference for the scan of ``geometry._compacted``: each footpoint is
    the largest of s**2 and x_j + 2*s_j*s over every earlier disk j."""
    feet: list = []
    for s in sizes:
        x = s * s
        for sj, xj in zip(sizes, feet):
            c = xj + 2 * sj * s
            if c > x:
                x = c
        feet.append(x)
    return feet


def all_pairs_violation(placement: Placement, tolerance) -> Optional[tuple]:
    """Reference for ``verify``'s violation, checking every pair: (left id,
    right id, deficit) for the first disk k in footpoint order that an
    earlier disk j reaches past x_k + tolerance, with x_j + 2*s_j*s_k, and
    the j that reaches furthest (the later one on a tie); None if no disk
    is overlapped."""
    placed = list(placement)
    for k, (right, y) in enumerate(placed):
        best = None
        for j, (left, x) in enumerate(placed[:k]):
            reach = x + 2 * left.size * right.size
            if reach > y + tolerance and (best is None or reach >= best[0]):
                best = (reach, left.id)
        if best is not None:
            return best[1], right.id, best[0] - y
    return None


def naive_greedy(disks: Iterable[Disk]) -> GreedyResult:
    """Reference greedy on scalars: every gap fit is the closed form
    gap_fit_size(), the final placement goes through the checked
    constructor, and the certificate is measured with span() and
    best_support_lower_bound().  Same rules, tie-breaks and float rounding
    of a footpoint placed left of its neighbour as greedy_solve."""
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

    def left_of(f, w):
        # f - w, or below it while the rounded float x + w passes f
        x = f - w
        while x + w > f:
            x = math.nextafter(x, -math.inf)
        return x

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
            x = foot[li] + 2 * sizes[li] * d
            if sizes[li] > sizes[ri]:
                x = max(x, left_of(foot[ri], 2 * sizes[ri] * d))
            foot.append(x)
            right_nb.append(ri)
            right_nb[li] = k
            push_gap(li, k)
            push_gap(k, ri)
            placed_in_gap = True
            break
        if not placed_in_gap:
            x_left = left_of(foot[head], 2 * sizes[head] * d)
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


def reference_solve_linear(disks: Iterable[Disk]) -> tuple[Placement, SpanReport]:
    """``linear.solve_linear`` by measurement: for an odd count, compact
    the median at either end of the even-count pattern of the other disks
    and keep the smaller span, the right end on a tie."""
    desc = sorted(disks, key=lambda d: (-d.size, d.id))
    n = len(desc)
    if n % 2 == 0:
        candidates = [_interleave(desc)]
    else:
        median = desc[n // 2]
        pattern = _interleave(desc[: n // 2] + desc[n // 2 + 1 :])
        candidates = [[median] + pattern, pattern + [median]]
    best = None
    for order in candidates:
        placement = compact(order)
        report = span(placement)
        if best is None or report.span <= best[1].span:
            best = (placement, report)
    return best


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


def reversal_improvement(
    order: Sequence[Disk], i: int, j: int
) -> Optional[tuple[Scalar, list[Disk]]]:
    """Try to shorten a touching chain by reversing ``order[i+1 .. j]``.

    ``i`` indexes a disk A whose successor is B, ``j`` indexes the disk Z
    where the reversed run ends.  On a touching chain the span change is
    closed-form and negative exactly in these cases:

    * Z is the last disk and a > b > z, or a < b < z:
      delta = (b + z - 2a) * (b - z)
    * Z is interior with successor Y, and (a > y and b > z) or
      (a < y and b < z): delta = 2 * (a - y) * (z - b)

    Returns ``(delta, reversed_order)`` when one case applies, else None.
    The deltas describe spans of fully touching chains, which is what
    compaction produces on linear-case instances.
    """
    if not (0 <= i < j < len(order)):
        raise DomainError(f"need 0 <= i < j < {len(order)}, got i={i}, j={j}")
    a = order[i].size
    b = order[i + 1].size
    z = order[j].size
    delta: Optional[Scalar] = None
    if j == len(order) - 1:
        if (a > b > z) or (a < b < z):
            delta = (b + z - 2 * a) * (b - z)
    else:
        y = order[j + 1].size
        if (a > y and b > z) or (a < y and b < z):
            delta = 2 * (a - y) * (z - b)
    if delta is None:
        return None
    reversed_order = list(order[: i + 1])
    reversed_order.extend(reversed(order[i + 1 : j + 1]))
    reversed_order.extend(order[j + 1 :])
    return delta, reversed_order


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


# Reference readers: the per-row parsers that the column-at-a-time ones in
# shelfpack.files replaced.  Each literal is classified, then parsed, one
# at a time, and each row is checked before the next.
_REF_RATIONAL = re.compile(r"^[+-]?\d+/\d+$", re.ASCII)
_REF_DECIMAL = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$", re.ASCII)


def reference_scalar(text: str) -> Scalar:
    if _REF_RATIONAL.match(text):
        num, _, den = text.partition("/")
        if int(den) == 0:
            raise ParseError(f"zero denominator in rational literal {text!r}")
        return Fraction(int(num), int(den))
    if _REF_DECIMAL.match(text):
        return float(text)
    raise ParseError(f"not a rational or decimal literal: {text!r}")


def _reference_rows(text: str, kind: str, usage: str) -> list[tuple[int, list[str]]]:
    header = f"shelfpack-{kind} v1"
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise ParseError(f"missing header line {header!r}")
    rows = [(number, line.split()) for number, line in enumerate(lines[1:], 2)]
    rows = [(n, tokens) for n, tokens in rows if tokens and tokens[0][0] != "#"]
    if not rows:
        raise ParseError(f"{kind} file has no disks")
    for number, tokens in rows:
        if len(tokens) != len(usage.split()):
            raise ParseError(f"line {number}: expected {usage!r}")
    literals = [tok for _, tokens in rows for tok in tokens[1:]]
    rational = [bool(_REF_RATIONAL.match(tok)) for tok in literals]
    if any(rational) and not all(rational):
        raise ParseError("file mixes rational and decimal literals")
    return rows


def _reference_disk(number: int, disk_id: str, literal: str) -> Disk:
    """The disk of one row, or the ParseError that names its line.  A
    decimal literal whose exact value is positive but whose float is 0.0
    lies below the float range."""
    size = reference_scalar(literal)
    try:
        if size == 0.0 and isinstance(size, float) and Decimal(literal) > 0:
            raise DomainError(f"disk {disk_id!r} has a size below the float range")
        return Disk(disk_id, size)
    except DomainError as exc:
        raise ParseError(f"line {number}: {exc}") from exc


def reference_parse_instance(text: str) -> tuple[list[Disk], Backend]:
    rows = _reference_rows(text, "instance", "<id> <size>")
    disks: list[Disk] = []
    seen: set[str] = set()
    for number, (disk_id, literal) in rows:
        if disk_id in seen:
            raise ParseError(f"line {number}: duplicate disk id {disk_id!r}")
        seen.add(disk_id)
        disks.append(_reference_disk(number, disk_id, literal))
    backend = Backend.EXACT if _REF_RATIONAL.match(rows[0][1][1]) else Backend.FLOAT
    return disks, backend


def reference_parse_placement(text: str) -> Placement:
    rows = _reference_rows(text, "placement", "<id> <size> <footpoint>")
    disks: list[Disk] = []
    feet = []
    for number, (disk_id, size_lit, foot_lit) in rows:
        disks.append(_reference_disk(number, disk_id, size_lit))
        feet.append(reference_scalar(foot_lit))
    try:
        return Placement(disks, feet)
    except DomainError as exc:
        raise ParseError(f"not a valid placement: {exc}") from exc
