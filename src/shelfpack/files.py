"""Text formats for instances, placements and 3-Partition inputs.

Sizes and footpoints are written either as ``p/q`` rational literals
(exact backend) or as decimal literals (float backend); one file never
mixes the two.  Blank lines and lines starting with ``#`` are ignored.

Instance and placement files are read a column at a time: each check
runs over a whole column, and only a failed check looks for its first
offender.  The body after the header line is split once, and the flat
token list is cut into its columns by stride slices.  That split stands
only for a file laid out as the writers lay it out: the header line
exactly, no ``#`` anywhere in the body, and the body equal to its
columns joined again with single spaces and newlines, a newline ending
every row.  Any other file (comments, blank lines, tabs, runs of
spaces, CRLF line ends, a missing final newline, a row with too many
tokens) is split line by line, which skips blanks and comments and
numbers the lines its messages name.  The CLI reads with the cyclic
collector paused (see :func:`shelfpack.cli.main`).  A placement file
builds no ``Disk``: its exact sizes are read as int pairs, once per
distinct literal, and the placement keeps its id column and one lift.

A file with several faults reports the first failing check in this
order: the header, an empty body, the number of tokens on a line (first
such line), the literals (a mix of rational and decimal literals; else
the first literal that is neither, then the first zero denominator,
sizes before footpoints), duplicate ids in an instance (first repeated
line), the disks (first line with a size ``Disk`` refuses, or a
positive decimal that reads 0.0), and last the placement as a whole
(duplicate ids, non-finite footpoints, coinciding footpoints; named as
:class:`~shelfpack.geometry.Placement` names them).
"""

from __future__ import annotations

import os
import stat
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import DomainError, ParseError
from .geometry import Disk, Placement, _disk_column, _placement, _valid_sizes
from .scalars import (
    Backend,
    Scalar,
    _distinct,
    _format_column,
    _format_lifted,
    _ints,
    _read_column,
    _reduced,
    _too_many_digits,
    format_scalar,
    lift,
    scalars,
)

if TYPE_CHECKING:  # only genhard reads and writes 3-Partition records
    from .hardness import HardnessInstance, PartitionSolution, ThreePartitionInstance

INSTANCE_HEADER = "shelfpack-instance v1"
PLACEMENT_HEADER = "shelfpack-placement v1"
SIDECAR_FORMAT = "shelfpack-hardness-sidecar v1"


def _rows(lines: Iterable[list[str]], start: int) -> list[tuple[int, list[str]]]:
    """(line number, tokens) of each line, given as its tokens, that is
    neither blank nor a comment."""
    return [
        (number, tokens)
        for number, tokens in enumerate(lines, start)
        if tokens and tokens[0][0] != "#"
    ]


def _columns(text: str, header: str, kind: str, usage: str) -> tuple[Sequence[int], list]:
    """Line numbers and token columns of a ``kind`` file whose lines hold
    one token per word of ``usage``."""
    arity = len(usage.split())
    head, _, body = text.partition("\n")
    if head == header and "#" not in body:
        flat = body.split()
        columns = [flat[i::arity] for i in range(arity)]
        # exactly the writers' layout: rows of single-spaced tokens, each
        # ending in a newline; any other file takes the per-line walk
        if flat and "\n".join(map(" ".join, zip(*columns))) + "\n" == body:
            return range(2, len(columns[0]) + 2), columns
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise ParseError(f"missing header line {header!r}")
    rows = _rows(map(str.split, lines[1:]), 2)
    if not rows:
        raise ParseError(f"{kind} file has no disks")
    numbers, tokens = zip(*rows)
    if set(map(len, tokens)) != {arity}:
        number = next(n for n, row in zip(numbers, tokens) if len(row) != arity)
        raise ParseError(f"line {number}: expected {usage!r}")
    return numbers, list(map(list, zip(*tokens)))


def _tokens(text: str) -> list[str]:
    return [tok for _, tokens in _rows(map(str.split, text.splitlines()), 1) for tok in tokens]


def _disks(numbers: Sequence[int], ids: list, sizes: Sequence[Scalar], literals: list) -> list[Disk]:
    """The disks of split columns, checked once; a ParseError names a bad line."""
    if not _valid_sizes(sizes, Fraction):
        for number, disk_id, size, text in zip(numbers, ids, sizes, literals):
            positive = text[0] != "-" and text.upper().partition("E")[0].strip("+.0")
            try:
                if positive and size == 0.0 and isinstance(size, float):
                    raise DomainError(f"disk {disk_id!r} has a size below the float range")
                Disk(disk_id, size)
            except DomainError as exc:
                raise ParseError(f"line {number}: {exc}") from exc
    return _disk_column(ids, sizes)


def parse_instance(text: str) -> tuple[list[Disk], Backend]:
    numbers, (ids, literals) = _columns(text, INSTANCE_HEADER, "instance", "<id> <size>")
    sizes, backend = scalars(literals)
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        for number, disk_id in zip(numbers, ids):
            if disk_id in seen:
                raise ParseError(f"line {number}: duplicate disk id {disk_id!r}")
            seen.add(disk_id)
    return _disks(numbers, ids, sizes, literals), backend


def format_instance(disks: Iterable[Disk]) -> str:
    disks = list(disks)  # read once: an iterator is empty the second time
    rows = map(" ".join, zip([d.id for d in disks], _format_column([d.size for d in disks])))
    return "\n".join([INSTANCE_HEADER, *rows, ""])


def parse_placement(text: str) -> Placement:
    """The placement of the file's id column and one lift of its columns;
    its disks are built when first read."""
    numbers, (ids, literals, feet) = _columns(
        text, PLACEMENT_HEADER, "placement", "<id> <size> <footpoint>"
    )
    values, _ = _read_column(literals + feet)
    if values is None:  # exact: both columns stay ints
        parts = _ints(feet)
        sizes, size_dens = zip(*_distinct(literals, lambda p, q: zip(*_reduced(p, q))))
        feet, dens = parts[0::2], (size_dens, parts[1::2])
    else:
        sizes, feet, dens = values[: len(ids)], values[len(ids) :], None
    if not _valid_sizes(sizes, int):  # floats or int numerators; raises
        _disks(numbers, ids, sizes if dens is None else list(map(Fraction, sizes, size_dens)), literals)
    try:
        return _placement(ids, lift(sizes, feet, dens))
    except DomainError as exc:
        raise ParseError(f"not a valid placement: {exc}") from exc


def format_placement(placement: Placement) -> str:
    sizes, feet = _format_lifted(placement._lift)
    rows = map(" ".join, zip(placement._ids, sizes, feet))
    return "\n".join([PLACEMENT_HEADER, *rows, ""])


def _integers(tokens: list[str], kind: str) -> list[int]:
    """The values of tokens ``[+-]?[0-9]+``, in ASCII digits as in instance
    files: ``int`` alone would take underscores and other scripts' digits."""
    for tok in tokens:
        digits = tok[1:] if tok[0] in "+-" else tok
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(f"non-integer token in {kind} input: {tok!r}")
    try:
        return list(map(int, tokens))
    except ValueError:  # past the digit limit
        raise _too_many_digits(tokens) from None


def parse_3partition(text: str) -> ThreePartitionInstance:
    """First two integers are m and B, followed by the 3m elements."""
    from .hardness import ThreePartitionInstance

    tokens = _tokens(text)
    if len(tokens) < 2:
        raise ParseError("expected 'm B' followed by 3m integers")
    values = _integers(tokens, "3-Partition")
    m, bound = values[0], values[1]
    elements = values[2:]
    if m < 1:
        raise ParseError(f"m must be at least 1, got {m}")
    if len(elements) != 3 * m:
        raise ParseError(f"expected {3 * m} elements for m = {m}, got {len(elements)}")
    return ThreePartitionInstance(tuple(elements), bound)


def parse_groups(text: str) -> PartitionSolution:
    """Whitespace-separated 1-based element indices, three per group."""
    from .hardness import PartitionSolution

    indices = _integers(_tokens(text), "groups")
    if not indices or len(indices) % 3 != 0:
        raise ParseError("groups input must hold a positive multiple of 3 indices")
    groups = tuple(
        (indices[k], indices[k + 1], indices[k + 2]) for k in range(0, len(indices), 3)
    )
    return PartitionSolution(groups)


def format_sidecar(hi: HardnessInstance) -> str:
    import json  # only genhard writes JSON; solve and verify never load it

    payload = {
        "format": SIDECAR_FORMAT,
        "m": hi.m,
        "bound": hi.source.bound,
        "elements": list(hi.source.elements),
        "budget": format_scalar(hi.budget),
        # the encoder sorts the keys.  ``_value_`` is the attribute behind a
        # role's ``value`` property; the property, or a map from role to
        # value (an Enum hashes by a Python call), costs three to four
        # times as much per disk
        "roles": {disk_id: role._value_ for disk_id, role in hi.roles.items()},
        "element_index": dict(hi.element_index),
    }
    # the bytes of json.dumps(payload, indent=2, sort_keys=True) + "\n", from
    # the C encoder, which json uses only without ``indent``: each value is
    # a scalar, or a list or dict of scalars, so the separators carry the
    # newline and the indent of the one nested level.  The pieces are
    # joined once, since every copy of the text raises peak memory.
    encode = json.JSONEncoder(sort_keys=True, separators=(",\n    ", ": ")).encode
    parts = []
    for key in sorted(payload):
        value = payload[key]
        text = encode(value)
        parts += [",\n  ", json.dumps(key), ": "]
        if isinstance(value, (dict, list)) and value:
            parts += [text[0], "\n    ", text[1:-1], "\n  ", text[-1]]
        else:
            parts.append(text)
    parts[0] = "{\n  "
    parts.append("\n}\n")
    return "".join(parts)


def _write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with ``\n`` line ends.

    The file is opened without ``O_TRUNC``, overwritten from its start and
    then cut to the new length: cutting an existing file to zero first makes
    ext4 (``auto_da_alloc``) start writeback at ``close``.  Only a regular
    file is cut, so ``/dev/null`` and pipes take output too.  A write that
    fails part-way leaves a regular file empty, never new rows followed by
    the old file's tail.  There is no fsync, so a power loss mid-write can
    still leave old bytes.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            rest = data
            while rest:
                rest = rest[os.write(fd, rest):]
        except BaseException:
            if regular:
                os.ftruncate(fd, 0)
            raise
        if regular:
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def read_instance(path: str | Path) -> tuple[list[Disk], Backend]:
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def write_instance(path: str | Path, disks: Iterable[Disk]) -> None:
    _write_text(path, format_instance(disks))


def read_placement(path: str | Path) -> Placement:
    return parse_placement(Path(path).read_text(encoding="utf-8"))


def write_placement(path: str | Path, placement: Placement) -> None:
    _write_text(path, format_placement(placement))

