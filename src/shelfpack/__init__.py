"""Pack disks on a shelf: every disk tangent to the x-axis from above,
no overlaps, minimum horizontal span.

The package provides the tangency constraint |x_i - x_j| >= 2 s_i s_j
over rational or float scalars, with left-compaction, span measurement,
verification and a support lower bound; an exact solver for linear-case
instances, a greedy 4/3-approximation with certificates, an exact
subset-DP oracle, a 3-Partition hardness-instance toolkit, and file/CLI
plumbing.

Every solver returns a :class:`Placement`: a column of disks and a column
of footpoints, sorted by footpoint.  ``Placement(disks, footpoints)`` is
its only constructor and checks every placement once, whoever builds it.
"""

from .errors import (
    BackendMismatchError,
    DomainError,
    InconsistencyError,
    ParseError,
    PreconditionError,
    ShelfPackError,
)
from .geometry import (
    Disk,
    Placement,
    SpanReport,
    VerificationResult,
    Violation,
    best_support_lower_bound,
    compact,
    span,
    verify,
)
from .greedy import Certificate, GreedyResult, greedy_solve
from .hardness import (
    DiskRole,
    HardnessInstance,
    PartitionSolution,
    ThreePartitionInstance,
    build_certificate,
    build_instance,
    decode_partition,
    partition_disk_size,
    validate_3partition,
)
from .linear import is_linear_case, solve_linear
from .oracle import OracleConfig, exact_solve
from .scalars import Backend, Scalar
from .svg import render_svg

__all__ = [
    "Backend",
    "BackendMismatchError",
    "Certificate",
    "Disk",
    "DiskRole",
    "DomainError",
    "GreedyResult",
    "HardnessInstance",
    "InconsistencyError",
    "OracleConfig",
    "ParseError",
    "PartitionSolution",
    "Placement",
    "PreconditionError",
    "Scalar",
    "ShelfPackError",
    "SpanReport",
    "ThreePartitionInstance",
    "VerificationResult",
    "Violation",
    "best_support_lower_bound",
    "build_certificate",
    "build_instance",
    "compact",
    "decode_partition",
    "exact_solve",
    "greedy_solve",
    "is_linear_case",
    "partition_disk_size",
    "render_svg",
    "solve_linear",
    "span",
    "validate_3partition",
    "verify",
]
