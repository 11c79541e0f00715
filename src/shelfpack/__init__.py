"""Pack disks on a shelf: every disk tangent to the x-axis from above,
no overlaps, minimum horizontal span.

The package provides exact tangency geometry over rational or float
scalars, an exact solver for linear-case instances, a greedy
4/3-approximation with certificates, an exact subset-DP oracle, a 3-Partition
hardness-instance toolkit, and file/CLI plumbing.

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
    footpoint_distance,
    gap_fit_size,
    size_from_radius,
    span,
    support_lower_bound,
    verify,
    wall_fit_exceeds,
)
from .greedy import Certificate, GreedyResult, greedy_solve
from .hardness import (
    DiskRole,
    HardnessInstance,
    IdentityCheck,
    IdentityReport,
    PartitionSolution,
    ThreePartitionCheck,
    ThreePartitionInstance,
    reduction_identity_suite,
    build_certificate,
    build_instance,
    decode_partition,
    partition_disk_size,
    scale_to_integer_radii,
    validate_3partition,
)
from .linear import (
    LinearOrder,
    is_linear_case,
    optimal_linear_order,
    reversal_improvement,
    solve_linear,
)
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
    "IdentityCheck",
    "IdentityReport",
    "InconsistencyError",
    "LinearOrder",
    "OracleConfig",
    "ParseError",
    "PartitionSolution",
    "Placement",
    "PreconditionError",
    "Scalar",
    "ShelfPackError",
    "SpanReport",
    "ThreePartitionCheck",
    "ThreePartitionInstance",
    "VerificationResult",
    "Violation",
    "reduction_identity_suite",
    "best_support_lower_bound",
    "build_certificate",
    "build_instance",
    "compact",
    "decode_partition",
    "exact_solve",
    "footpoint_distance",
    "gap_fit_size",
    "greedy_solve",
    "is_linear_case",
    "optimal_linear_order",
    "partition_disk_size",
    "render_svg",
    "reversal_improvement",
    "scale_to_integer_radii",
    "size_from_radius",
    "solve_linear",
    "span",
    "support_lower_bound",
    "validate_3partition",
    "verify",
    "wall_fit_exceeds",
]
