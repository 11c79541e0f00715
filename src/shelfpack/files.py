"""Text formats for instances, placements and 3-Partition inputs.

Sizes and footpoints are written either as ``p/q`` rational literals
(exact backend) or as decimal literals (float backend); one file never
mixes the two.  Blank lines and lines starting with ``#`` are ignored.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from .errors import DomainError, ParseError
from .geometry import Disk, Placement
from .hardness import HardnessInstance, PartitionSolution, ThreePartitionInstance
from .scalars import (
    Backend,
    format_scalar,
    is_rational_literal,
    parse_scalar,
)

INSTANCE_HEADER = "shelfpack-instance v1"
PLACEMENT_HEADER = "shelfpack-placement v1"
SIDECAR_FORMAT = "shelfpack-hardness-sidecar v1"


def _body_lines(text: str, header: str) -> list[tuple[int, list[str]]]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise ParseError(f"missing header line {header!r}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append((number, stripped.split()))
    return rows


def _classify(literals: list[str]) -> Backend:
    rational = [is_rational_literal(tok) for tok in literals]
    if all(rational):
        return Backend.EXACT
    if any(rational):
        raise ParseError("file mixes rational and decimal literals")
    return Backend.FLOAT


def parse_instance(text: str) -> tuple[list[Disk], Backend]:
    rows = _body_lines(text, INSTANCE_HEADER)
    if not rows:
        raise ParseError("instance file has no disks")
    for number, tokens in rows:
        if len(tokens) != 2:
            raise ParseError(f"line {number}: expected '<id> <size>'")
    backend = _classify([tokens[1] for _, tokens in rows])
    disks: list[Disk] = []
    seen: set[str] = set()
    for number, (disk_id, literal) in rows:
        if disk_id in seen:
            raise ParseError(f"line {number}: duplicate disk id {disk_id!r}")
        seen.add(disk_id)
        size = parse_scalar(literal)
        try:
            disks.append(Disk(disk_id, size))
        except DomainError as exc:
            raise ParseError(f"line {number}: {exc}") from exc
    return disks, backend


def format_instance(disks: Sequence[Disk]) -> str:
    lines = [INSTANCE_HEADER]
    lines.extend(f"{d.id} {format_scalar(d.size)}" for d in disks)
    return "\n".join(lines) + "\n"


def parse_placement(text: str) -> Placement:
    rows = _body_lines(text, PLACEMENT_HEADER)
    if not rows:
        raise ParseError("placement file has no disks")
    for number, tokens in rows:
        if len(tokens) != 3:
            raise ParseError(f"line {number}: expected '<id> <size> <footpoint>'")
    _classify([tok for _, tokens in rows for tok in tokens[1:]])
    disks: list[Disk] = []
    feet = []
    for number, (disk_id, size_lit, foot_lit) in rows:
        try:
            disks.append(Disk(disk_id, parse_scalar(size_lit)))
        except DomainError as exc:
            raise ParseError(f"line {number}: {exc}") from exc
        feet.append(parse_scalar(foot_lit))
    try:
        return Placement(disks, feet)
    except DomainError as exc:
        raise ParseError(f"not a valid placement: {exc}") from exc


def format_placement(placement: Placement) -> str:
    lines = [PLACEMENT_HEADER]
    lines.extend(
        f"{disk.id} {format_scalar(disk.size)} {format_scalar(x)}"
        for disk, x in placement
    )
    return "\n".join(lines) + "\n"


def parse_3partition(text: str) -> ThreePartitionInstance:
    """First two integers are m and B, followed by the 3m elements."""
    tokens: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens.extend(stripped.split())
    if len(tokens) < 2:
        raise ParseError("expected 'm B' followed by 3m integers")
    try:
        values = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ParseError(f"non-integer token in 3-Partition input: {exc}") from exc
    m, bound = values[0], values[1]
    elements = values[2:]
    if m < 1:
        raise ParseError(f"m must be at least 1, got {m}")
    if len(elements) != 3 * m:
        raise ParseError(f"expected {3 * m} elements for m = {m}, got {len(elements)}")
    return ThreePartitionInstance(tuple(elements), bound)


def parse_groups(text: str) -> PartitionSolution:
    """Whitespace-separated 1-based element indices, three per group."""
    tokens: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens.extend(stripped.split())
    try:
        indices = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ParseError(f"non-integer token in groups input: {exc}") from exc
    if not indices or len(indices) % 3 != 0:
        raise ParseError("groups input must hold a positive multiple of 3 indices")
    groups = tuple(
        (indices[k], indices[k + 1], indices[k + 2]) for k in range(0, len(indices), 3)
    )
    return PartitionSolution(groups)


def format_sidecar(hi: HardnessInstance) -> str:
    payload = {
        "format": SIDECAR_FORMAT,
        "m": hi.m,
        "bound": hi.source.bound,
        "elements": list(hi.source.elements),
        "budget": format_scalar(hi.budget),
        "roles": {disk_id: role.value for disk_id, role in sorted(hi.roles.items())},
        "element_index": dict(sorted(hi.element_index.items())),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def read_instance(path: str | Path) -> tuple[list[Disk], Backend]:
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def write_instance(path: str | Path, disks: Sequence[Disk]) -> None:
    Path(path).write_text(format_instance(disks), encoding="utf-8", newline="\n")


def read_placement(path: str | Path) -> Placement:
    return parse_placement(Path(path).read_text(encoding="utf-8"))


def write_placement(path: str | Path, placement: Placement) -> None:
    Path(path).write_text(format_placement(placement), encoding="utf-8", newline="\n")

