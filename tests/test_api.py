import shelfpack

PUBLIC_API = {
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
    "render_svg",
    "solve_linear",
    "span",
    "validate_3partition",
    "verify",
}


def test_public_api_is_pinned():
    # a name joins the API deliberately: add it here and to the README
    assert sorted(shelfpack.__all__) == sorted(PUBLIC_API)
    assert len(shelfpack.__all__) == len(PUBLIC_API)
    namespace = {}
    exec("from shelfpack import *", namespace)
    assert PUBLIC_API <= namespace.keys()
