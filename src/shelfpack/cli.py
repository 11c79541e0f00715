"""Command line front end.

Subcommands: ``solve`` (dispatching between the exact linear-case solver,
the greedy approximation and the exact oracle), ``verify``,
``genhard`` (3-Partition reduction instances) and ``render`` (SVG).

Exit codes: 0 success, 1 verification rejected, 2 parse error,
3 precondition or domain violation.  A reader that closes standard output
early (``shelfpack solve big.instance | head -1``) ends the command
quietly with status 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import files
from .errors import (
    BackendMismatchError,
    DomainError,
    ParseError,
    PreconditionError,
)
from .geometry import Disk, best_support_lower_bound, verify
from .greedy import greedy_solve
from .hardness import build_certificate, build_instance
from .linear import is_linear_case, solve_linear
from .oracle import OracleConfig, exact_solve
from .scalars import Backend, Scalar, display_scalar, parse_scalar
from .svg import render_svg


def _display(value: Scalar, backend: Backend) -> str:
    suffix = "exact" if backend is Backend.EXACT else "float"
    return f"{display_scalar(value)} ({suffix})"


def _to_float_disks(disks: list[Disk]) -> list[Disk]:
    return [Disk(d.id, float(d.size)) for d in disks]


def _parse_tolerance(text: str, backend: Backend) -> Scalar:
    try:
        return int(text)  # plain integers are valid in both backends
    except ValueError:
        pass
    value = parse_scalar(text)
    if backend is Backend.EXACT and isinstance(value, float):
        raise PreconditionError(
            "exact placements need a rational (or integer) tolerance"
        )
    if backend is Backend.FLOAT and isinstance(value, Fraction):
        return float(value)
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
    if mode == "auto":
        mode = "linear" if len(disks) == 1 or is_linear_case(disks) else "greedy"
        method = {
            "linear": "exact (linear case)",
            "greedy": "greedy (4/3 approximation)",
        }[mode]
    elif mode == "linear":
        method = "exact (linear case)"
    elif mode == "greedy":
        method = "greedy (4/3 approximation)"
    else:
        method = "exact (subset DP)"

    if mode == "linear":
        placement, report = solve_linear(disks)
    elif mode == "greedy":
        result = greedy_solve(disks)
        # the certificate carries the placement's span; no second measurement
        placement, report = result.placement, result.certificate
    else:
        placement, report = exact_solve(disks, OracleConfig(max_n=args.max_n))

    lower = best_support_lower_bound(disks)
    ratio = report.span / lower
    summary = [
        f"method: {method}",
        f"disks: {len(disks)}",
        f"span: {_display(report.span, backend)}",
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
    files.write_instance(args.out, list(hi.disks))
    sidecar = Path(str(args.out) + ".json")
    sidecar.write_text(files.format_sidecar(hi), encoding="utf-8", newline="\n")
    print(f"disks: {len(hi.disks)}")
    print(f"budget: {display_scalar(hi.budget)}")
    print(f"instance written to {args.out}")
    print(f"sidecar written to {sidecar}")
    if args.certificate:
        groups = files.parse_groups(
            Path(args.certificate).read_text(encoding="utf-8")
        )
        placement = build_certificate(hi, groups)
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
        help="solver choice; auto picks the linear-case solver when its "
        "condition holds and the greedy otherwise",
    )
    p_solve.add_argument(
        "--backend",
        choices=["exact", "float"],
        default=None,
        help="numeric backend; defaults to the file's literal style",
    )
    p_solve.add_argument(
        "--max-n", type=int, default=10, help="cap for --mode exact (default 10)"
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        # the exit flush must not hit the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, PreconditionError, BackendMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
