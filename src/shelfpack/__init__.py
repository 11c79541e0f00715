"""Pack disks on a shelf: every disk tangent to the x-axis from above,
no overlaps, minimum horizontal span.

The package provides the tangency constraint |x_i - x_j| >= 2 s_i s_j
over rational or float scalars, with left-compaction, span measurement,
verification and a support lower bound; an exact solver for linear-case
instances, a greedy 4/3-approximation with certificates, an exact
subset-DP oracle, a 3-Partition hardness-instance toolkit, and file/CLI
plumbing.

Every solver returns a :class:`Placement`: an id column and one lift of
its sizes and footpoints, sorted by footpoint, with its disks built when
first read.  Every placement passes one set of checks, whoever builds it.

``import shelfpack`` loads no submodule.  Each public name is imported
from its home module at its first access (``shelfpack.greedy_solve``,
``from shelfpack import greedy_solve`` or ``from shelfpack import *``) and
then stays bound here, so a CLI process loads only the modules its
command runs.
"""

# home module -> the public names it defines
_HOMES = {
    "errors": (
        "BackendMismatchError",
        "DomainError",
        "InconsistencyError",
        "ParseError",
        "PreconditionError",
        "ShelfPackError",
    ),
    "geometry": (
        "Disk",
        "Placement",
        "SpanReport",
        "VerificationResult",
        "Violation",
        "best_support_lower_bound",
        "compact",
        "span",
        "verify",
    ),
    "greedy": ("Certificate", "GreedyResult", "greedy_solve"),
    "hardness": (
        "DiskRole",
        "HardnessInstance",
        "PartitionSolution",
        "ThreePartitionInstance",
        "build_certificate",
        "build_instance",
        "decode_partition",
        "validate_3partition",
    ),
    "linear": ("is_linear_case", "solve_linear"),
    "oracle": ("OracleConfig", "exact_solve"),
    "scalars": ("Backend", "Scalar"),
    "svg": ("render_svg",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module  # kept out of the namespace

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
