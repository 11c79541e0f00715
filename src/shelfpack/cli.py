"""Command line front end.

Subcommands: ``solve`` (dispatching between the exact linear-case solver,
the greedy approximation and the exact oracle), ``verify``,
``genhard`` (3-Partition reduction instances) and ``render`` (SVG).
``solve --mode exact`` answers a linear-case instance with the paper's
O(n log n) linear-case solver, like ``auto``.  On exact sizes it then
tries to prove an optimum without a search: the chain of the longest
linear-case prefix bounds every span from below, and an instance whose
other disks all hide in that chain meets the bound
(:func:`~shelfpack.oracle.hidden_in_linear_prefix`).  Any other instance
goes to the subset DP, the only part that ``--max-n`` caps.  On floats
the linear-case span can lie an ulp or two above the DP's smallest
compacted span.

``solve`` sorts and lifts the sizes once
(:func:`~shelfpack.geometry.by_size`), tests the linear case on that
column and runs the solver it picks on it: the private kernel that the
public solver wraps, which returns the placement with its span.  The
printed lower bound is one :func:`~shelfpack.geometry.best_support_lower_bound`
call on the sorted disks, which lifts them a second time.

Exit codes: 0 success, 1 verification rejected, 2 parse error or a file
that cannot be read or written, 3 precondition or domain violation.  A
reader that closes standard output early (``shelfpack solve big.instance
| head -1``) ends the command quietly with status 0.

In-process callers get the same statuses from :func:`main`, which returns
the exit status instead of raising :class:`SystemExit`: 2 after a usage
error (the usage goes to standard error), 0 after ``-h``.  ``main`` builds
its argument parser at its first call and reuses it for the rest of the
process, so further calls pay for their disks, not for argparse; a fresh
``shelfpack`` process builds one parser either way.  A command runs with
the cyclic collector paused, and ``main`` restores the caller's setting.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from pathlib import Path

from . import files
from .errors import (
    BackendMismatchError,
    DomainError,
    ParseError,
    PreconditionError,
)
from .geometry import Disk, best_support_lower_bound, by_size, verify
from .greedy import _greedy
from .hardness import build_certificate, build_instance
from .linear import _linear, _linear_placement
from .oracle import OracleConfig, _check_cap, _hidden, _subset_dp
# solve runs the kernels above; the public solvers stay bound here because
# bench/spans.py times them through these names
from .greedy import greedy_solve  # noqa: F401
from .linear import is_linear_case, solve_linear  # noqa: F401
from .oracle import exact_solve  # noqa: F401
from .scalars import Backend, Scalar, display_scalar, parse_scalar
from .svg import render_svg


_METHODS = {
    "linear": "exact (linear case)",
    "greedy": "greedy (4/3 approximation)",
    "exact": "exact (subset DP)",
    "hidden": "exact (hidden in linear prefix)",
}


def _display(value: Scalar, backend: Backend) -> str:
    suffix = "exact" if backend is Backend.EXACT else "float"
    return f"{display_scalar(value)} ({suffix})"


def _to_float_disks(disks: list[Disk]) -> list[Disk]:
    floats = []
    for d in disks:
        try:
            size = float(d.size)
        except OverflowError:
            raise DomainError(f"disk {d.id!r} has a size beyond the float range") from None
        if size == 0:  # the exact size is positive
            raise DomainError(f"disk {d.id!r} has a size below the float range")
        floats.append(Disk(d.id, size))
    return floats


def _parse_tolerance(text: str, backend: Backend) -> Scalar:
    """A literal of the file grammar.  Any literal suits a float placement
    (``verify`` takes it as a float); an exact placement takes an integer
    or rational literal, never a decimal one."""
    value = parse_scalar(text)
    if backend is Backend.EXACT and isinstance(value, float):
        try:
            return parse_scalar(text + "/1")  # an integer literal is exact
        except ParseError:
            raise PreconditionError(
                "exact placements need a rational (or integer) tolerance"
            ) from None
    return value


def cmd_solve(args: argparse.Namespace) -> int:
    disks, backend = files.read_instance(args.input)
    if args.backend == "exact" and backend is Backend.FLOAT:
        raise PreconditionError(
            "instance uses decimal literals; refusing to reinterpret them "
            "as exact rationals"
        )
    if args.backend == "float" and backend is Backend.EXACT:
        disks = _to_float_disks(disks)
        backend = Backend.FLOAT

    mode = args.mode
    if mode == "exact":
        max_n = OracleConfig(max_n=args.max_n).max_n  # checked on every exact call
    # one sort and one lift for the dispatch and every solver
    order, sizes, back = by_size(disks, "solve requires at least one disk")
    linear = mode != "greedy" and _linear(sizes)
    if mode == "linear" and not linear:
        raise PreconditionError("not a linear-case instance")
    if linear:
        mode = "linear"  # the paper's O(n log n) solver is exact here
    if mode == "linear":
        placement, extent = _linear_placement(order, sizes, back)
    elif mode == "exact":
        hidden = _hidden(order, sizes, back)  # proved without the DP
        if hidden:
            mode = "hidden"
            placement, extent = hidden
        else:
            _check_cap(len(order), max_n)
            placement, extent = _subset_dp(order, sizes, back)
    else:  # greedy, forced or as auto's fallback
        mode = "greedy"
        placement, extent, _ = _greedy(order, sizes, back)

    span = back(extent)
    # lifts the sizes again, sorted already; bench/spans.py times the
    # bound through this call
    lower = best_support_lower_bound(order)
    ratio = span / lower
    summary = [
        f"method: {_METHODS[mode]}",
        f"disks: {len(disks)}",
        f"span: {_display(span, backend)}",
        f"lower bound: {_display(lower, backend)}",
        f"ratio: {_display(ratio, backend)}",
    ]
    if args.out:
        files.write_placement(args.out, placement)
        summary.append(f"placement written to {args.out}")
        print("\n".join(summary))
    else:
        print("\n".join(summary), file=sys.stderr)
        sys.stdout.write(files.format_placement(placement))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    placement = files.read_placement(args.input)
    tolerance = _parse_tolerance(args.tolerance, placement.backend)
    result = verify(placement, tolerance)
    backend = placement.backend
    print(f"span: {_display(result.report.span, backend)}")
    print(
        f"left wall: {_display(result.report.left_wall, backend)} "
        f"at {result.report.left_disk_id}"
    )
    print(
        f"right wall: {_display(result.report.right_wall, backend)} "
        f"at {result.report.right_disk_id}"
    )
    if result.ok:
        print("accepted")
        return 0
    v = result.violation
    print(
        f"rejected: disks {v.left_disk_id} and {v.right_disk_id} "
        f"overlap by {display_scalar(v.deficit)}"
    )
    return 1


def cmd_genhard(args: argparse.Namespace) -> int:
    inst = files.parse_3partition(Path(args.input).read_text(encoding="utf-8"))
    hi = build_instance(inst)  # PreconditionError names a violated constraint
    if args.certificate:  # built before anything is written
        groups = files.parse_groups(
            Path(args.certificate).read_text(encoding="utf-8")
        )
        placement = build_certificate(hi, groups)
    files.write_instance(args.out, list(hi.disks))
    sidecar = Path(str(args.out) + ".json")
    sidecar.write_text(files.format_sidecar(hi), encoding="utf-8", newline="\n")
    print(f"disks: {len(hi.disks)}")
    print(f"budget: {display_scalar(hi.budget)}")
    print(f"instance written to {args.out}")
    print(f"sidecar written to {sidecar}")
    if args.certificate:
        certificate_path = Path(str(args.out) + ".certificate")
        files.write_placement(certificate_path, placement)
        print(f"certificate written to {certificate_path}")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    placement = files.read_placement(args.input)
    svg = render_svg(placement, args.scale)
    Path(args.out).write_text(svg, encoding="utf-8", newline="\n")
    print(f"svg written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """A new parser on each call; :func:`main` keeps the first one it gets."""
    parser = argparse.ArgumentParser(
        prog="shelfpack",
        description="Pack disks on a shelf: solve, verify, generate hardness "
        "instances, render placements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="place the disks of an instance file")
    p_solve.add_argument("input", help="instance file")
    p_solve.add_argument(
        "--mode",
        choices=["auto", "linear", "greedy", "exact"],
        default="auto",
        help="solver choice; auto and exact pick the linear-case solver when "
        "its condition holds; otherwise auto runs the greedy, and exact "
        "proves an optimum by the longest linear-case prefix or runs the "
        "subset DP",
    )
    p_solve.add_argument(
        "--backend",
        choices=["exact", "float"],
        default=None,
        help="numeric backend; defaults to the file's literal style",
    )
    p_solve.add_argument(
        "--max-n",
        type=int,
        default=10,
        help="most disks the subset DP of --mode exact takes (default 10); "
        "the linear case and an optimum proved by its prefix are not capped",
    )
    p_solve.add_argument("--out", default=None, help="placement output path")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check a placement file")
    p_verify.add_argument("input", help="placement file")
    p_verify.add_argument(
        "--tolerance",
        default="0",
        help="allowed separation slack (0 required for exact files)",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser(
        "genhard", help="build a disk family from a 3-Partition instance"
    )
    p_gen.add_argument("input", help="file with 'm B' then 3m integers")
    p_gen.add_argument("--out", required=True, help="instance output path")
    p_gen.add_argument(
        "--certificate",
        default=None,
        help="groups file (3m indices, three per group); also writes the "
        "span-budget placement",
    )
    p_gen.set_defaults(func=cmd_genhard)

    p_render = sub.add_parser("render", help="draw a placement as SVG")
    p_render.add_argument("input", help="placement file")
    p_render.add_argument("--out", required=True, help="SVG output path")
    p_render.add_argument(
        "--scale", type=float, default=40.0, help="pixels per unit length"
    )
    p_render.set_defaults(func=cmd_render)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built at the first call, not at import; parse_args leaves it as it was
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2) or -h (0)
        return exc.code
    # a command builds columns of containers and frees them by reference
    # counts; the collections they would set off find next to nothing to free
    collecting = gc.isenabled()
    gc.disable()
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        # the exit flush must not hit the closed pipe again
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 0
    except (ParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PreconditionError, BackendMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if collecting:
            gc.enable()


def entry() -> None:
    sys.exit(main())
