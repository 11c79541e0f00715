"""Property-style invariants: hypothesis checks plus the randomized suites."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_disks
from shelfpack.files import format_placement, parse_placement
from shelfpack.geometry import Placement, _wall_gap_overflows, compact, span, verify
from shelfpack.scalars import format_scalar, parse_scalar

import suites

sizes = st.fractions(
    min_value=F(1, 50), max_value=F(50), max_denominator=200
)


@settings(max_examples=200, derandomize=True)
@given(a=sizes, b=sizes)
def test_footpoint_distance_solves_the_tangency_triangle(a, b):
    a, b = max(a, b), min(a, b)  # b must not reach past a's wall
    feet = compact(make_disks([a, b])).footpoints
    d = feet[1] - feet[0]
    assert d == 2 * a * b
    assert d * d + (a * a - b * b) ** 2 == (a * a + b * b) ** 2


@settings(max_examples=200, derandomize=True)
@given(a=sizes, b=sizes)
def test_touching_gap_fit_is_harmonic(a, b):
    a, b = max(a, b), min(a, b)  # b must not reach past a's wall
    feet = compact(make_disks([a, a * b / (a + b), b])).footpoints
    assert feet[2] - feet[0] == 2 * a * b


@settings(max_examples=200, derandomize=True)
@given(z=sizes, a=sizes, k=sizes)
def test_wall_fit_is_scale_invariant(z, a, k):
    assert _wall_gap_overflows(z, a) == _wall_gap_overflows(k * z, k * a)


@settings(max_examples=200, derandomize=True)
@given(
    value=st.one_of(
        st.fractions(max_denominator=10**6),
        st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_scalar_literals_round_trip(value):
    assert parse_scalar(format_scalar(value)) == value


# footpoint denominators: small ones, divisors of the sizes' D**2, and
# unrelated primes, a few of which push lift's Q past its bound
denominators = st.sampled_from([1, 2, 3, 4, 9, 12, 100, 7919, 104729, 1000003, 998244353])


@st.composite
def exact_placements(draw):
    n = draw(st.integers(1, 30))
    size = st.builds(F, st.integers(1, 600), st.integers(1, 12))
    disks = make_disks(draw(st.lists(size, min_size=n, max_size=n)))
    feet = draw(
        st.lists(
            st.builds(F, st.integers(-10**9, 10**9), denominators),
            min_size=n, max_size=n, unique=True,
        )
    )
    return disks, feet


def test_exact_placements_round_trip_through_files():
    # Placement kinds: Fraction footpoints as given, a file's integer
    # columns (parse_placement) and a solver's (compact)
    unlifted = []

    @settings(max_examples=100, derandomize=True, database=None)
    @given(columns=exact_placements())
    def round_trip(columns):
        disks, feet = columns
        for placement in (Placement(disks, feet), compact(disks)):
            text = format_placement(placement)
            parsed = parse_placement(text)
            assert parsed == placement and hash(parsed) == hash(placement)
            assert repr(parsed) == repr(placement)
            assert format_placement(parsed) == text
            built = Placement(placement.disks, list(parsed.footpoints))
            assert repr(verify(parsed, 0)) == repr(verify(built, 0))
            assert repr(span(parsed)) == repr(span(built))
            unlifted.append(parsed._lift[3] is F)

    round_trip()
    # some placements crossed lift's Q bound into its Fraction fallback
    assert any(unlifted) and not all(unlifted)


def test_compact_minimality_suite():
    suites.run_compact_minimality_suite(500)


def test_support_disjointness_suite():
    suites.run_support_disjointness_suite(500)


def test_small_pairs_touch_suite():
    suites.run_small_pairs_touch_suite(500)


def test_reversal_delta_suite():
    suites.run_reversal_delta_suite(500)


def test_reversal_symmetry_suite():
    suites.run_reversal_symmetry_suite(500)
