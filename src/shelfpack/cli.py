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

Each command imports what it runs, at its first call.  Importing this
module loads ``errors``, ``scalars``, ``geometry`` and ``files``, all that
``verify`` needs; ``solve`` adds ``linear`` (its dispatch test and
solver) and ``greedy`` for an instance outside the linear case, and only
``--mode exact`` loads ``oracle``; ``render`` loads ``svg`` and
``genhard`` ``hardness``.  Every command is a fresh process and pays for
the modules it loads.

Every output file (placement, instance, sidecar, certificate, SVG) is
rewritten in place and cut to its new length (``files._write_text``), so a
failed write exits 2 and leaves the file empty.

Exit codes: 0 success, 1 verification rejected, 2 parse error or a file
that cannot be read or written, 3 precondition or domain violation.  A
literal with more digits than Python converts to an int
(``sys.get_int_max_str_digits()``) is a parse error; a value to write or
print with more is a domain violation.  A reader that closes standard
output early (``shelfpack solve big.instance | head -1``) ends the
command quietly with status 0.

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
from importlib import import_module
from pathlib import Path

from . import files
from .errors import (
    BackendMismatchError,
    DomainError,
    ParseError,
    PreconditionError,
)
from .geometry import Disk, _compact_columns, best_support_lower_bound, by_size, verify
from .scalars import Backend, Scalar, display_scalar, parse_scalar

# What the commands load at their first use, by module.  Each name
# resolves through __getattr__ below and then stays bound here; the
# commands call through the module (``_cli.name``), which after the first
# call is one dict lookup, where an import statement costs about 40 us
# with cold caches.  The public solvers are bound here only because
# bench/spans.py wraps them on this module; they go when ROADMAP item 2
# deletes spans.py.
_LAZY = {
    "greedy": ("_greedy", "greedy_solve"),
    "hardness": ("build_certificate", "build_instance"),
    "linear": ("_linear", "_linear_order", "is_linear_case", "solve_linear"),
    "oracle": ("OracleConfig", "_check_cap", "_hidden", "_subset_dp", "exact_solve"),
    "svg": ("render_svg",),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}
_cli = sys.modules[__name__]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__package__}.{module}"), name)
    return value


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
        if set(text) & set(".eE"):  # a decimal literal, not an integer one
            raise PreconditionError(
                "exact placements need a rational (or integer) tolerance"
            )
        return parse_scalar(text + "/1")  # an integer literal is exact
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
    if mode == "exact":  # only --mode exact loads the oracle
        max_n = _cli.OracleConfig(max_n=args.max_n).max_n  # checked on every exact call
    # one sort and one lift for the dispatch and every solver
    order, sizes, back, ranks = by_size(disks, "solve requires at least one disk")
    linear = mode != "greedy" and _cli._linear(sizes)
    if mode == "linear" and not linear:
        raise PreconditionError("not a linear-case instance")
    if linear:
        mode = "linear"  # the paper's O(n log n) solver is exact here
    if mode == "linear":
        placement, extent = _compact_columns(order, sizes, back, _cli._linear_order(sizes))
    elif mode == "exact":
        hidden = _cli._hidden(order, sizes, back, ranks)  # proved without the DP
        if hidden:
            mode = "hidden"
            placement, extent = hidden
        else:
            _cli._check_cap(len(order), max_n)
            placement, extent = _cli._subset_dp(order, sizes, back)
    else:  # greedy, forced or as auto's fallback
        mode = "greedy"
        placement, extent, _ = _cli._greedy(order, sizes, back, ranks)

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
    hi = _cli.build_instance(inst)  # PreconditionError names a violated constraint
    if args.certificate:  # built before anything is written
        groups = files.parse_groups(
            Path(args.certificate).read_text(encoding="utf-8")
        )
        placement = _cli.build_certificate(hi, groups)
    files.write_instance(args.out, list(hi.disks))
    sidecar = Path(str(args.out) + ".json")
    files._write_text(sidecar, files.format_sidecar(hi))
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
    svg = _cli.render_svg(placement, args.scale)
    files._write_text(args.out, svg)
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
