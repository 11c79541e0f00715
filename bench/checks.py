"""Output checks written independently of the program.

Nothing here imports ``shelfpack``: files are parsed, spans and bounds are
recomputed and separations are checked with this module's own code, so a
fault in the program cannot hide behind the same fault in its checker.
Every check raises :class:`CheckError` with a message on failure.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from pathlib import Path


class CheckError(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def scalar(token: str):
    if "/" in token:
        num, den = token.split("/")
        return Fraction(int(num), int(den))
    return float(token)


def read_instance(path: Path) -> dict:
    """``{id: size}`` from an instance file."""
    lines = path.read_text(encoding="utf-8").split("\n")
    require(lines[0] == "shelfpack-instance v1", f"{path.name}: bad header")
    return {tok[0]: scalar(tok[1]) for tok in (line.split() for line in lines[1:]) if tok}


def read_placement(path: Path) -> list[tuple]:
    """``(footpoint, size, id)`` rows from a placement file, sorted by footpoint."""
    lines = path.read_text(encoding="utf-8").split("\n")
    require(lines[0] == "shelfpack-placement v1", f"{path.name}: bad header")
    rows = [(scalar(t[2]), scalar(t[1]), t[0]) for t in (line.split() for line in lines[1:]) if t]
    rows.sort()
    return rows


def reported_span(cli_stdout: str):
    """The value of the ``span:`` line the CLI printed."""
    for line in cli_stdout.splitlines():
        if line.startswith("span: "):
            value, kind = line[6:].split()
            return float(value) if kind == "(float)" else Fraction(value)
    raise CheckError("CLI printed no span line")


def span_of(rows: list[tuple]):
    left = min(x - s * s for x, s, _ in rows)
    right = max(x + s * s for x, s, _ in rows)
    return right - left


def first_overlap(rows: list[tuple], slack) -> tuple | None:
    """First pair (in footpoint order) closer than 2*s_i*s_j - slack.

    Rows must be sorted by footpoint.  A later disk at distance at least
    2*s_i*max_size from disk i clears it, and so does every disk after it.
    """
    max_size = max(s for _, s, _ in rows)
    n = len(rows)
    for i in range(n):
        xi, si, id_i = rows[i]
        reach = 2 * si * max_size
        j = i + 1
        while j < n and rows[j][0] - xi < reach:
            xj, sj, id_j = rows[j]
            if xj - xi < 2 * si * sj - slack:
                return id_i, id_j
            j += 1
    return None


def prefix_bound(sizes) -> Fraction | float:
    """Best support-interval lower bound over size-decreasing prefixes.

    Around each footpoint the open interval of half-width 2*s*m - m*m,
    with m the smallest size of the prefix, holds no other footpoint of the
    prefix and lies inside the span, so their total length bounds the span.
    """
    best = running = 0
    for count, s in enumerate(sorted(sizes, reverse=True), start=1):
        running += s
        best = max(best, 4 * s * running - 2 * count * s * s)
    return best


def check_placement(instance: dict, rows: list[tuple], stdout_span, slack) -> None:
    """Same ids and sizes as the instance, no overlap beyond ``slack``, and
    the span the CLI printed equals the recomputed one (float: within
    1e-12 relative)."""
    require(len(rows) == len(instance), "placement and instance differ in size")
    for _, s, disk_id in rows:
        require(instance.get(disk_id) == s, f"disk {disk_id}: id or size changed")
    overlap = first_overlap(rows, slack)
    require(overlap is None, f"disks {overlap} overlap")
    own = span_of(rows)
    if isinstance(own, float):
        require(abs(own - stdout_span) <= 1e-12 * own, f"span {stdout_span} != {own}")
    else:
        require(own == stdout_span, f"span {stdout_span} != {own}")


def check_touching_chain(rows: list[tuple]) -> None:
    for (xa, sa, ida), (xb, sb, idb) in zip(rows, rows[1:]):
        require(xb - xa == 2 * sa * sb, f"disks {ida} and {idb} do not touch")


def check_svg(text: str, n: int) -> None:
    require(text.startswith("<?xml") and text.rstrip().endswith("</svg>"), "SVG not closed")
    require(text.count("<circle ") == n, "SVG circle count differs from disk count")


def min_span_by_search(sizes: list[Fraction]) -> Fraction:
    """Optimal span over every footpoint order, by exhaustive search.

    Sizes are scaled by a common denominator L to integers k, so a disk
    of size k/L has radius k*k and touching neighbours sit 2*k*k' apart in
    units of 1/L**2.  Each order is left-compacted (the smallest feasible
    footpoint for each disk in turn, first wall at 0), which is optimal for
    that order.  A prefix whose span already reaches the best found is cut,
    which cannot lose an optimum, since appending disks never shrinks a
    span; equal sizes are tried once per position.
    """
    scale = lcm(*(s.denominator for s in sizes))
    ks = sorted((int(s * scale) for s in sizes), reverse=True)
    n = len(ks)
    used = [False] * n
    feet: list[tuple[int, int]] = []  # (footpoint, size) of the compacted prefix
    best = [None]

    def extend(partial: int) -> None:
        if len(feet) == n:
            best[0] = partial
            return
        tried = None
        for i, k in enumerate(ks):
            if used[i] or k == tried:
                continue
            tried = k
            x = k * k
            for xj, kj in feet:
                x = max(x, xj + 2 * kj * k)
            reach = max(partial, x + k * k)
            if best[0] is not None and reach >= best[0]:
                continue
            used[i] = True
            feet.append((x, k))
            extend(reach)
            feet.pop()
            used[i] = False

    extend(0)
    return Fraction(best[0], scale * scale)
