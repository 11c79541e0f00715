import math
import random
import sys
from fractions import Fraction as F
from functools import partial

import pytest

from helpers import (
    all_pairs_violation,
    brute_min_span,
    doubling_ratio,
    fresh_lift,
    make_disks,
    naive_compact,
    naive_staircase,
    random_linear_disks,
    reference_by_size,
    reference_placement,
    unlifted,
    with_lift,
)
from shelfpack import files, geometry, linear, oracle
from shelfpack.errors import BackendMismatchError, DomainError
from shelfpack.scalars import Backend, Lift, coerce, lift
from shelfpack.geometry import (
    Disk,
    Placement,
    SpanReport,
    _compacted,
    _disk_column,
    _wall_gap_overflows,
    best_support_lower_bound,
    by_size,
    compact,
    span,
    verify,
)
from shelfpack.hardness import (
    SIZE_END,
    SIZE_INNER,
    SIZE_LARGE_FILLER,
    SIZE_SMALL_FILLER,
    partition_disk_size,
)
from shelfpack.files import format_placement, parse_placement
from shelfpack.greedy import greedy_solve
from shelfpack.svg import render_svg
from shelfpack.linear import solve_linear
from shelfpack.oracle import exact_solve


class TestDiskTypes:
    def test_disk_normalizes_ints_to_exact(self):
        d = Disk("a", 2)
        assert d.size == F(2) and isinstance(d.size, F)
        assert d.radius == F(4)

    def test_disk_rejects_bad_values(self):
        with pytest.raises(DomainError):
            Disk("a", 0)
        with pytest.raises(DomainError):
            Disk("a", -1.5)
        with pytest.raises(DomainError):
            Disk("", 1)
        with pytest.raises(DomainError):
            Disk("has space", 1)

    def test_placed_disk_backend_must_match(self):
        with pytest.raises(BackendMismatchError):
            Placement([Disk("a", 0.5)], [F(1)])

    def test_placement_sorts_and_validates(self):
        p = Placement([Disk("b", F(1)), Disk("a", F(1))], [F(3), F(1)])
        assert [d.id for d in p.disks] == ["a", "b"]
        with pytest.raises(DomainError):
            Placement([], [])
        with pytest.raises(DomainError):
            Placement([Disk("a", F(1)), Disk("a", F(1))], [F(1), F(3)])
        with pytest.raises(DomainError):
            Placement([Disk("a", F(1)), Disk("b", F(2))], [F(1), F(1)])


class TestPlacementConstructor:
    def test_sorts_by_footpoint(self):
        disks = make_disks([F(1), F(1), F(2)])
        p = Placement(disks, [4, F(-1), F(1)])
        assert list(p) == [(disks[1], -1), (disks[2], 1), (disks[0], 4)]
        assert p.disks == (disks[1], disks[2], disks[0])
        assert [type(x) for x in p.footpoints] == [F, F, F]  # ints become exact
        assert len(p) == 3 and p.backend is Backend.EXACT
        assert p == Placement(p.disks, p.footpoints)

    def test_unknown_attribute(self):
        # __getattr__ builds the footpoints and nothing else
        p = Placement(make_disks([F(1), F(1)]), [F(1), F(3)])
        with pytest.raises(AttributeError, match="'Placement' object has no attribute 'feet'"):
            p.feet

    def test_keeps_placement_promises(self):
        disks = make_disks([1.0, 1.0])
        with pytest.raises(DomainError, match="a placement must contain"):
            Placement([], [])
        with pytest.raises(DomainError, match="duplicate disk id 'd0'"):
            Placement([disks[0], disks[0]], [0.0, 2.0])
        with pytest.raises(DomainError, match="footpoints of 'd0' and 'd1' coincide"):
            Placement(disks, [1.0, 1.0])
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(DomainError, match="disk 'd1' has footpoint"):
                Placement(disks, [0.0, bad])
        with pytest.raises(BackendMismatchError):
            Placement(disks, [0.0, F(2)])
        with pytest.raises(BackendMismatchError):
            Placement(make_disks([F(1), F(1)]), [F(0), 2.0])

    def test_names_offenders_in_footpoint_order_when_unsorted(self):
        a, b, c = make_disks([F(1), F(1), F(1)])
        with pytest.raises(DomainError, match="footpoints of 'd1' and 'd2' coincide"):
            Placement([a, b, c], [F(3), F(1), F(1)])
        with pytest.raises(DomainError, match="duplicate disk id 'd0'"):
            Placement([b, a, a], [F(1), F(5), F(1)])
        p = Placement([c, a, b], [F(9), F(1), F(5)])
        assert p.disks == (a, b, c) and p.footpoints == (1, 5, 9)

    def test_one_footpoint_per_disk(self):
        disks = make_disks([F(1), F(1)])
        for feet in ([F(0)], [F(0), F(2), F(4)]):
            with pytest.raises(DomainError, match="one footpoint per disk"):
                Placement(disks, feet)


class FloatSize(float):
    pass


# Values that Disk and Placement take or refuse one at a time; the column
# proofs must give the same objects or the same error text for each.  An id
# may hold a '#' but not start with one: files read such a line as a comment.
ID_ROWS = ["a", "\u03a9", 3, None, b"a", "", "a b", "a\tb", " a", "a\u00a0b",
           "#a", "#", "a#b", "a #b"]
SCALAR_ROWS = [1.5, F(3, 2), True, False, 2, 0, FloatSize(1.5), 0.0, -0.0,
               math.inf, -math.inf, math.nan, F(-1, 2), F(0), 1e-320,
               1e-200, 1e200, FloatSize(1e200), 1.3e154, F(1, 10**200)]


def _built(build):
    """The outcome of ``build()``: what it holds, types included, or the
    text of its DomainError (and of the error that caused it)."""
    try:
        return "ok", [[(type(v), repr(v)) for v in row] for row in build()]
    except DomainError as exc:
        return "error", str(exc), str(exc.__cause__)


class TestColumnProofs:
    @pytest.mark.parametrize("first", [None, 1.0, F(1)], ids=["alone", "float", "exact"])
    def test_disk_column_builds_what_disk_builds(self, first):
        for disk_id in ID_ROWS:
            for size in SCALAR_ROWS:
                ids, sizes = [disk_id], [size]
                if first is not None:  # one valid row before and after
                    ids, sizes = ["z", *ids, "y"], [first, *sizes, first]
                want = _built(lambda: [(d.id, d.size) for d in map(Disk, ids, sizes)])
                got = _built(lambda: [(d.id, d.size) for d in _disk_column(ids, sizes)])
                assert got == want, (disk_id, size, first)

    def test_disk_column_of_one_type(self):
        for size in SCALAR_ROWS:
            ids, sizes = ["a", "b", "c"], [size] * 3
            want = _built(lambda: [(d.id, d.size) for d in map(Disk, ids, sizes)])
            got = _built(lambda: [(d.id, d.size) for d in _disk_column(ids, sizes)])
            assert got == want, size
        assert _disk_column(("a", "b"), (2.0, 0.5)) == [Disk("a", 2.0), Disk("b", 0.5)]

    def test_float_radius_must_be_a_normal_float(self):
        # the radius size*size must be a normal float: below its least
        # normal value, or infinite, the size is refused, one column or
        # one disk at a time, with the one message
        low = math.sqrt(sys.float_info.min)
        high = math.sqrt(sys.float_info.max)
        low = low if low * low >= sys.float_info.min else math.nextafter(low, 2)
        high = high if high * high <= sys.float_info.max else math.nextafter(high, 0)
        for size, ok in ((low, True), (math.nextafter(low, 0), False), (high, True),
                         (math.nextafter(high, math.inf), False), (1e-200, False),
                         (1e200, False), (FloatSize(1e200), False), (1.0, True)):
            for sizes in ([size], [1.0, size, 2.0], [size, size]):
                ids = [f"d{i}" for i in range(len(sizes))]
                want = _built(lambda: [(d.id, d.size) for d in map(Disk, ids, sizes)])
                got = _built(lambda: [(d.id, d.size) for d in _disk_column(ids, sizes)])
                assert got == want, (size, sizes)
                assert (want[0] == "ok") is ok, (size, want)
        with pytest.raises(DomainError) as error:
            Disk("a", 1e-200)
        assert str(error.value) == "disk 'a' has size 1e-200, whose radius leaves the float range"
        assert Disk("a", F(1, 10**200)).radius == F(1, 10**400)  # exact sizes have no range

    @pytest.mark.parametrize("exact", [True, False])
    def test_placement_footpoints_as_coerce_makes_them(self, exact):
        one = F(1) if exact else 1.0
        disks = make_disks([one, one, one])
        for x in SCALAR_ROWS:
            for feet in ([-4 * one, x, 4 * one], [x] * 3):

                def coerced():
                    for disk, value in zip(disks, feet):
                        try:
                            coerce(value)
                        except DomainError as exc:
                            raise DomainError(
                                f"disk {disk.id!r} has footpoint {value!r}"
                            ) from exc
                    p = Placement(disks, list(map(coerce, feet)))
                    return [p.disks, p.footpoints]

                def placed():
                    p = Placement(disks, feet)
                    return [p.disks, p.footpoints]

                try:
                    want = _built(coerced)
                except BackendMismatchError as exc:
                    want = ("mixed", str(exc))
                try:
                    got = _built(placed)
                except BackendMismatchError as exc:
                    got = ("mixed", str(exc))
                assert got == want, (x, feet)


def _outcome(build):
    """What ``build()`` returns, types included, or its error and text."""
    try:
        return "ok", repr(build())
    except DomainError as exc:
        return "error", type(exc).__name__, str(exc)


def _typed(lifted):
    """A lift's columns with the type of every value, its c, and what its
    ``back`` maps 7 to."""
    sizes, feet, c, back = lifted
    return [[(type(v), repr(v)) for v in column] for column in (sizes, feet)], c, repr(back(7))


def from_lift(disks, feet):
    """``Placement(disks, feet)`` built as the solvers and the reader build
    it: the id column and a ``Lift`` of the sizes and footpoints handed to
    the private constructor."""
    return geometry._placement([d.id for d in disks], lift([d.size for d in disks], feet))


def lift_cases(rng):
    """(disks, footpoints) columns: exact and float compactions and
    overlapping placements, each in order and shuffled, and footpoints
    3i + 1/r_i that trip the lift's guard."""
    for exact in (True, False):
        for n in (1, 2, 7, 40):
            sizes = [F(rng.randint(1, 40), rng.randint(1, 8)) for _ in range(n)]
            if not exact:
                sizes = [float(v) for v in sizes]
            disks = make_disks(sizes)
            feet = list(compact(disks).footpoints)
            # spread: every disk moves by its own small fraction, some inward
            moved = [x + (F(rng.randint(-9, 9), rng.choice((7, 11, 13))) if exact
                          else rng.uniform(-1, 1)) for x in feet]
            for columns in ((disks, feet), (disks, moved)):
                yield columns
                order = rng.sample(range(n), n)
                yield [columns[0][i] for i in order], [columns[1][i] for i in order]
    n = 30
    guard = [3 * i + F(1, rng.randint(2, 10**6)) for i in range(n)]
    order = rng.sample(range(n), n)
    disks = make_disks([F(1)] * n)
    yield disks, guard
    yield [disks[i] for i in order], [guard[i] for i in order]


class TestKeptLift:
    """A placement lifts its columns once and keeps the lift; whatever reads
    it must answer as a lift made from scratch, and as the unlifted
    scalars, would."""

    def test_kept_lift_is_a_fresh_one(self):
        rng = random.Random(101)
        guarded = 0
        for disks, feet in lift_cases(rng):
            p = Placement(disks, feet)
            assert _typed(p._lift) == _typed(fresh_lift(p))
            guarded += p._lift.back is F
            q = from_lift(disks, feet)
            assert q == p and _typed(q._lift) == _typed(p._lift)
        assert guarded == 2

    def test_columns_and_errors_match_the_unlifted_checks(self):
        rng = random.Random(103)
        for disks, feet in lift_cases(rng):
            cases = [(disks, feet)]
            if len(disks) > 2:
                twin = list(feet)
                twin[-1] = twin[1]  # two disks share a footpoint
                dup = [*disks[:-1], disks[0]]  # and two share an id
                cases += [(disks, twin), (dup, feet), (dup, twin)]
            for d, x in cases:
                got = _outcome(lambda: [Placement(d, x).disks, Placement(d, x).footpoints])
                want = _outcome(lambda: list(reference_placement(d, x)))
                assert got == want, (d, x)
                got = _outcome(lambda: [from_lift(d, x).disks, from_lift(d, x).footpoints])
                assert got == want, (d, x)

    def test_a_lift_is_refused_as_plain_footpoints_are(self):
        floats = make_disks([1.0, 2.0, 0.5])
        cases = [
            [0.0, 3.0, math.inf],  # an overflowed float footpoint
            [math.nan, -math.inf, 3.0],
        ]
        for feet in cases:
            want = _outcome(lambda: Placement(floats, feet))
            assert want[0] == "error", feet
            assert _outcome(lambda: from_lift(floats, feet)) == want, feet
        # only the private constructor takes a Lift: Placement reads one as
        # its four fields, which are not footpoints, whatever the disk count
        for disks in (floats, make_disks([F(1), F(2), F(1, 2), F(3)])):
            with pytest.raises(DomainError):
                Placement(disks, compact(disks)._lift)

    def test_span_and_verify_read_the_kept_lift(self):
        rng = random.Random(107)
        for disks, feet in lift_cases(rng):
            p = Placement(disks, feet)
            exact = p.backend is Backend.EXACT
            for q in (with_lift(p, fresh_lift(p)), with_lift(p, unlifted(p))):
                assert repr(span(q)) == repr(span(p))
                for tolerance in (0,) if exact else (0, 0.0, 0.5):
                    assert repr(verify(q, tolerance)) == repr(verify(p, tolerance))

    def test_parse_verify_span_render_lift_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return lift(*args)

        monkeypatch.setattr(geometry, "lift", counted)
        monkeypatch.setattr(files, "lift", counted)  # the reader's lift
        p = compact(make_disks([F(3, 2), F(1), F(5, 3)]))
        calls.clear()
        q = parse_placement(format_placement(p))
        assert verify(q, 0).ok
        span(q)
        render_svg(q)
        assert calls == [3]

    def test_equality_hash_and_repr_ignore_the_kept_lift(self):
        disks = make_disks([F(1), F(2), F(1, 2)])
        p = Placement(disks, [F(9), F(1), F(4)])
        # the same values kept over Q = 3 D**2 instead of D**2: the lifted
        # columns differ, and equality compares the values
        sizes, feet, c, _ = p._lift
        other = Lift(sizes, [3 * x for x in feet], 3 * c, partial(F, denominator=3 * 4))
        q = with_lift(Placement(disks[::-1], [F(4), F(1), F(9)]), other)
        assert p == q and q == p and hash(p) == hash(q) and repr(p) == repr(q)
        assert "_lift" not in repr(p) and "denominator" not in repr(q)
        assert p != Placement(disks, [F(9), F(1), F(5)])

    def test_replace_checks_and_lifts_again(self):
        p = compact(make_disks([F(1), F(2), F(1, 2)]))
        moved = Placement(p.disks, footpoints=[x + F(1, 7) for x in p.footpoints])
        assert _typed(moved._lift) == _typed(fresh_lift(moved))
        assert span(moved).left_wall == span(p).left_wall + F(1, 7)
        with pytest.raises(DomainError, match="footpoints of 'd0' and 'd1' coincide"):
            Placement(p.disks, footpoints=[F(0)] * 3)
        # the kept lift is not a constructor argument
        with pytest.raises(TypeError):
            Placement(p.disks, p.footpoints, _lift=p._lift)


def footpoint_gaps(placement):
    feet = placement.footpoints
    return [y - x for x, y in zip(feet, feet[1:])]


class TestFootpointDistance:
    """Compaction puts touching disks of sizes a and b exactly 2ab apart."""

    def test_unit_pair(self):
        assert footpoint_gaps(compact(make_disks([F(1), F(1)]))) == [2]

    def test_direct_product(self):
        p = compact(make_disks([F(1), SIZE_INNER]))
        assert footpoint_gaps(p) == [F(33, 50)]

    def test_frame_chain_total(self):
        # 1, f, f, f, f, f, 1 with f = 33/100 sums to exactly 2.1912
        sizes = [F(1)] + [SIZE_INNER] * 5 + [F(1)]
        assert sum(footpoint_gaps(compact(make_disks(sizes)))) == F(21912, 10000)

    def test_rejects_mixed_backends(self):
        with pytest.raises(BackendMismatchError):
            compact([Disk("a", F(1)), Disk("b", 1.0)])


class TestGapFitSize:
    """A disk of size g = ab/(a+b) fills the gap between touching disks of
    sizes a >= b: compacting a, g, b leaves b exactly 2ab from a."""

    @staticmethod
    def fills_gap(a, g, b):
        p = compact(make_disks([a, g, b]))
        return p.footpoints[2] - p.footpoints[0] == 2 * a * b

    def test_symmetric_touching_pair(self):
        a = F(7, 3)
        assert self.fills_gap(a, a / 2, a)
        assert not self.fills_gap(a, a / 2 + F(1, 10**9), a)

    def test_outer_inner_corner_fits_large_filler(self):
        assert SIZE_LARGE_FILLER == F(33, 133)
        assert self.fills_gap(F(1), SIZE_LARGE_FILLER, SIZE_INNER)

    def test_outer_large_filler_corner_fits_small_filler(self):
        assert SIZE_SMALL_FILLER == F(33, 166)
        assert self.fills_gap(F(1), SIZE_SMALL_FILLER, SIZE_LARGE_FILLER)

    def test_general_form(self):
        # 2 and 3 with footpoints 40 apart: the gap fits size 40 / 10 = 4
        p = Placement(make_disks([2.0, 4.0, 3.0]), [0.0, 16.0, 40.0])
        assert verify(p, 0.0).ok
        assert not verify(Placement(p.disks, [0.0, 16.0, 39.0]), 0.0).ok


class TestWallFit:
    def test_equal_sizes_exceed(self):
        assert _wall_gap_overflows(F(5), F(5)) is True

    def test_straddles_threshold(self):
        assert _wall_gap_overflows(0.41, 1.0) is False  # 1.41**2 = 1.9881 < 2
        assert _wall_gap_overflows(0.42, 1.0) is True  # 1.42**2 = 2.0164 > 2
        assert _wall_gap_overflows(F(41, 100), F(1)) is False
        assert _wall_gap_overflows(F(42, 100), F(1)) is True

    def test_agrees_with_float_threshold(self):
        rng = random.Random(4)
        for _ in range(300):
            a = rng.uniform(0.1, 10.0)
            z = rng.uniform(0.01, 10.0)
            expected = z - (2 ** 0.5 - 1) * a
            if abs(expected) < 1e-9 * a:
                continue  # too close to the threshold for float comparison
            assert _wall_gap_overflows(z, a) == (expected > 0)


class TestCompact:
    def test_two_unit_disks(self):
        p = compact(make_disks([F(1), F(1)]))
        assert p.footpoints == (F(1), F(3))
        assert span(p).span == 4

    def test_small_disk_hides_in_wall_gap(self):
        p = compact(make_disks([F(4, 5), F(2)]))
        assert p.footpoints == (F(16, 25), F(4))
        report = span(p)
        assert report.span == 8
        assert report.left_wall == 0

    def test_small_disk_hides_in_wall_gap_float(self):
        p = compact(make_disks([0.8, 2.0]))
        feet = p.footpoints
        assert feet[0] == 0.8 * 0.8 and feet[1] == 4.0
        assert span(p).span == 8.0

    def test_interleaved_chain_span(self):
        p = compact(make_disks([8, 10, 7, 9]))
        assert p.footpoints == (64, 224, 364, 490)
        assert span(p).span == 571

    def test_brute_force_confirms_571_optimal(self):
        disks = make_disks([F(10), F(9), F(8), F(7)])
        assert brute_min_span(disks) == 571

    def test_empty_order_rejected(self):
        with pytest.raises(DomainError):
            compact([])

    def test_footpoints_attain_lower_bounds(self):
        order = make_disks([F(3), F(1, 2), F(2), F(5, 2), F(1)])
        p = compact(order)
        feet = {disk.id: x for disk, x in p}
        for k, disk in enumerate(order):
            x = feet[disk.id]
            bounds = [disk.radius]
            bounds.extend(
                feet[other.id] + 2 * other.size * disk.size for other in order[:k]
            )
            assert x == max(bounds)

    @pytest.mark.parametrize("exact", [True, False])
    def test_matches_naive_compaction(self, exact):
        rng = random.Random(17)
        cases = []
        for ratio in (F(3, 2), F(2), F(4), F(50), F(500)):
            for _ in range(40):
                n = rng.randint(1, 60)
                sizes = [1 + (ratio - 1) * F(rng.randint(0, 1000), 1000)
                         for _ in range(n)]
                at = rng.randint(0, n)  # insert a run of equal sizes
                sizes[at:at] = [sizes[0]] * rng.choice((0, 0, 2, 12))
                cases.append(sizes)
        # the reduction's sizes, whose denominators are pairwise coprime
        reduction = [SIZE_INNER, SIZE_LARGE_FILLER, SIZE_SMALL_FILLER, SIZE_END]
        reduction += [partition_disk_size(a, b) for b in (100, 97) for a in (26, 33, 48)]
        for _ in range(40):
            cases.append(rng.choices(reduction, k=rng.randint(1, 60)))
        for sizes in cases:
            if not exact:
                sizes = [float(s) for s in sizes]
            order = make_disks(sizes)
            got = list(map(repr, compact(order).footpoints))
            want = list(map(repr, naive_compact(order).footpoints))
            assert got == want


    @pytest.mark.parametrize("exact", [True, False])
    def test_one_large_disk_then_unit_disks_scales_linearly(self, exact):
        # the staircase keeps two disks here; scanning every disk within
        # the largest size's reach made this quadratic (ratio near 4)
        def family(n):
            return make_disks([F(10**4) if exact else 1e4] + [F(1) if exact else 1.0] * (n - 1))

        few = family(300)
        assert compact(few).footpoints == naive_compact(few).footpoints
        assert doubling_ratio(compact, family(4000), family(8000)) < 3


class TestSpan:
    def test_single_disk(self):
        a = F(3)
        p = Placement([Disk("a", a)], [a * a])
        r = span(p)
        assert r.span == 2 * a * a
        assert r.left_disk_id == r.right_disk_id == "a"

    def test_requires_a_placement(self):
        with pytest.raises(DomainError, match="span requires a non-empty placement"):
            span(None)

    def test_unit_chain(self):
        n = 6
        r = span(compact(make_disks([F(1)] * n)))
        assert r.span == 2 * n

    def test_tie_goes_to_smallest_id(self):
        p = Placement([Disk("b", F(1)), Disk("a", F(1))], [F(1), F(3)])
        r = span(p)
        # both walls are hit by exactly one disk here
        assert r.left_disk_id == "b" and r.right_disk_id == "a"
        q = Placement(
            [Disk("b", F(2)), Disk("a", F(2)), Disk("c", F(2))], [F(4), F(8), F(12)]
        )
        # left extents: b at 0; right extents: c at 16; no ties
        rq = span(q)
        assert rq.left_disk_id == "b" and rq.right_disk_id == "c"
        # a genuine tie: two unit disks sharing each wall via a hidden twin
        t = Placement(
            [Disk("z", F(2)), Disk("y", F(4, 5))], [F(4), F(4, 5) * F(4, 5)]
        )
        rt = span(t)
        assert rt.left_wall == 0
        assert rt.left_disk_id == "y"  # ties broken by id: y < z


class TestVerify:
    def test_compact_outputs_accepted_exactly(self):
        rng = random.Random(11)
        for _ in range(25):
            sizes = [F(rng.randint(1, 40), rng.randint(1, 8)) for _ in range(6)]
            assert verify(compact(make_disks(sizes)), 0).ok

    def test_overlap_reported_with_deficit(self):
        p = Placement([Disk("u1", F(1)), Disk("u2", F(1))], [F(0), F(19, 10)])
        result = verify(p, 0)
        assert not result.ok
        assert result.violation.left_disk_id == "u1"
        assert result.violation.right_disk_id == "u2"
        assert result.violation.deficit == F(1, 10)
        assert result.report.span == F(19, 10) + 2

    def test_tolerance_permits_slack(self):
        p = Placement([Disk("u1", 1.0), Disk("u2", 1.0)], [0.0, 1.9])
        assert not verify(p, 0.0).ok
        assert verify(p, 0.2).ok

    def test_exact_backend_requires_zero_tolerance(self):
        p = compact(make_disks([F(1), F(1)]))
        with pytest.raises(DomainError):
            verify(p, F(1, 10))
        with pytest.raises(DomainError):
            verify(p, 0.1)
        assert verify(p, 0.0).ok  # a float zero is accepted as zero

    def test_float_placement_takes_any_tolerance_as_float(self):
        p = Placement([Disk("a", 1.0), Disk("b", 1.0)], [0.0, 3.0])
        for tolerance in (1, F(1), F(1, 10), 0):
            assert verify(p, tolerance).ok
        close = Placement([Disk("a", 1.0), Disk("b", 1.0)], [0.0, 1.9])
        assert not verify(close, F(1, 20)).ok
        assert verify(close, F(1, 10)).ok
        with pytest.raises(DomainError, match="beyond the float range"):
            verify(p, 10**400)

    def test_negative_tolerance_rejected(self):
        p = compact(make_disks([1.0, 1.0]))
        with pytest.raises(DomainError):
            verify(p, -0.1)

    def test_sweep_matches_naive_pairwise(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(2, 7)
            disks = [
                Disk(f"d{i}", F(rng.randint(1, 20), rng.randint(1, 5)))
                for i in range(n)
            ]
            feet = [F(rng.randint(0, 120), rng.randint(1, 3)) for _ in range(n)]
            try:
                p = Placement(disks, feet)
            except DomainError:
                continue  # coincident footpoints
            placed = list(p)
            # deficits[k][j]: how far disk j < k reaches past disk k
            deficits = [
                [x + 2 * a.size * b.size - y for a, x in placed[:k]]
                for k, (b, y) in enumerate(placed)
            ]
            overlapped = [k for k, row in enumerate(deficits) if row and max(row) > 0]
            result = verify(p, 0)
            assert result.ok == (not overlapped)
            if overlapped:
                # the first overlapped disk, the disk overlapping it most
                k = overlapped[0]
                j = max(range(k), key=deficits[k].__getitem__)
                v = result.violation
                assert v.right_disk_id == placed[k][0].id
                assert v.deficit == deficits[k][j] > 0
                assert deficits[k][[d.id for d, _ in placed].index(v.left_disk_id)] == v.deficit

    def test_footpoint_denominators_beyond_size_square(self):
        # sizes over 3, footpoints over 7: the lift works over lcm(9, 7) = 63
        third = F(1, 3)
        close = Placement([Disk("a", third), Disk("b", third)], [F(1, 7), F(2, 7)])
        result = verify(close, 0)
        assert not result.ok
        assert result.violation.deficit == F(2, 9) - F(1, 7) == F(5, 63)
        assert result.report.left_wall == F(1, 7) - F(1, 9) == F(2, 63)
        assert result.report.span == F(1, 7) + F(2, 9) == F(23, 63)
        a, b = Disk("a", F(1, 3)), Disk("b", F(2, 3))
        touching = Placement([a, b], [F(1, 7), F(1, 7) + F(4, 9)])
        assert verify(touching, 0).ok
        nudged = Placement([a, b], [F(1, 7), F(1, 7) + F(4, 9) - F(1, 7 * 10**20)])
        assert verify(nudged, 0).violation.deficit == F(1, 7 * 10**20)
        assert span(touching).right_wall == F(1, 7) + F(4, 9) + F(4, 9)

    @pytest.mark.parametrize("exact", [True, False])
    def test_tie_names_the_later_disk(self, exact):
        # a (size 2 at 0) and b (size 1 at 4) touch, and both reach 8 on a
        # size-2 disk at 7: the later one, b, is named
        two, one = (F(2), F(1)) if exact else (2.0, 1.0)
        disks = [Disk("a", two), Disk("b", one), Disk("c", two)]
        result = verify(Placement(disks, [0 * one, 4 * one, 7 * one]), 0)
        assert (result.violation.left_disk_id, result.violation.right_disk_id) == ("b", "c")
        assert result.violation.deficit == one

    @pytest.mark.parametrize("exact", [True, False])
    def test_one_large_disk_then_unit_disks_scales_linearly(self, exact):
        def family(n):
            return compact(
                make_disks([F(10**4) if exact else 1e4] + [F(1) if exact else 1.0] * (n - 1))
            )

        small, large = family(4000), family(8000)
        assert verify(large, 0).ok
        assert doubling_ratio(lambda p: verify(p, 0), small, large) < 3

    def test_unrelated_footpoint_denominators_stay_fractions(self):
        # Q = lcm(D**2, every denominator) would grow with each footpoint;
        # past its bound the columns stay Fractions, and verify is linear
        def family(n):
            rng = random.Random(n)
            feet = [3 * i + F(1, rng.randint(2, 10**6)) for i in range(n)]
            return Placement(make_disks([F(1)] * n), feet)

        small, large = family(4000), family(8000)
        sizes, feet, c, back = lift([F(1)] * 8000, large.footpoints)
        assert (c, back, tuple(feet)) == (1, F, large.footpoints)
        result = verify(large, 0)
        assert result.ok and result.report.span == large.footpoints[-1] - large.footpoints[0] + 2
        nudged = list(large.footpoints)
        nudged[5000] -= nudged[5000] - nudged[4999] - 2 + F(1, 10**9)
        result = verify(Placement(large.disks, nudged), 0)
        assert (result.violation.right_disk_id, result.violation.deficit) == ("d5000", F(1, 10**9))
        assert doubling_ratio(lambda p: verify(p, 0), small, large, pairs=3) < 3

    def test_footpoints_off_the_size_grid_keep_an_integer_lift(self):
        # a greedy placement shifted by 1/3 lies off the D**2 grid of its
        # sizes; the lift factor c = Q / D**2 keeps it on integers, and
        # verify linear, where lifting over D**2 alone would fall back to
        # Fractions and verify about thirty times slower at 20,000 disks
        def family(n):
            rng = random.Random(n)
            disks = make_disks([F(rng.randint(1000, 50000), 1000) for _ in range(n)])
            placed = greedy_solve(disks).placement
            return Placement(placed.disks, [x + F(1, 3) for x in placed.footpoints])

        small, large = family(4000), family(8000)
        for p in (small, large):
            _, feet, c, _ = p._lift
            assert c == 3 and all(type(x) is int for x in feet)
            assert verify(p, 0).ok
        assert doubling_ratio(lambda p: verify(p, 0), small, large) < 3

    def test_moving_a_chain_disk_left_is_rejected(self):
        rng = random.Random(29)
        for n in (2, 5, 8, 13):
            placement, _ = solve_linear(random_linear_disks(rng, n))
            assert verify(placement, 0).ok
            for k in range(1, n):
                feet = list(placement.footpoints)
                feet[k] -= F(1, 10**30)
                moved = verify(Placement(placement.disks, feet), 0)
                assert not moved.ok
                assert moved.violation.right_disk_id == placement.disks[k].id
                assert moved.violation.deficit == F(1, 10**30)

    def test_float_solver_outputs_pass_at_zero_tolerance(self):
        rng = random.Random(31)
        for _ in range(100):
            sizes = [rng.uniform(1, 50) for _ in range(30)]
            assert verify(compact(make_disks(sizes)), 0).ok
        for n in (7, 40, 41):
            disks = [Disk(d.id, float(d.size)) for d in random_linear_disks(rng, n)]
            assert verify(solve_linear(disks)[0], 0).ok
        for _ in range(5):
            disks = make_disks([rng.uniform(1, 6) for _ in range(6)])
            assert verify(exact_solve(disks)[0], 0).ok


def scan_sizes(rng, n, exact):
    """Sizes k/1000 for three orders: random with a size ratio up to 50,
    strictly decreasing (every disk stays on the staircase), and a few
    values repeated (ties)."""
    ks = [rng.randint(1000, 50000) for _ in range(n)]
    kind = rng.randrange(3)
    if kind == 1:
        ks = sorted(set(ks), reverse=True)
    elif kind == 2:
        ks = [rng.choice(ks[:3]) for _ in ks]
    return [F(k, 1000) if exact else k / 1000 for k in ks]


def scan_placements(rng, exact):
    """Compactions of :func:`scan_sizes` of 1 to 60 disks, most with a few
    footpoints pulled left towards their predecessor, so that they
    overlap; the footpoints stay in order."""
    for _ in range(150):
        order = make_disks(scan_sizes(rng, rng.randint(1, 60), exact))
        feet = list(compact(order).footpoints)
        for _ in range(rng.randint(0, 3) if len(feet) > 1 else 0):
            k = rng.randrange(1, len(feet))
            t = F(rng.randint(1, 999), 1000) if exact else rng.randint(1, 999) / 1000
            feet[k] = feet[k - 1] + (feet[k] - feet[k - 1]) * t
        yield Placement(order, feet)


class TestSeparationScan:
    """The one scan loop that compaction and ``verify`` share, against
    checks of every pair."""

    @pytest.mark.parametrize("exact", [True, False])
    def test_verify_matches_an_all_pairs_check(self, exact):
        rng = random.Random(3232)
        rejected = 0
        for p in scan_placements(rng, exact):
            for tolerance in (0,) if exact else (0.0, 1e-3, 0.5):
                result = verify(p, tolerance)
                want = all_pairs_violation(p, tolerance)
                assert result.ok == (want is None)
                assert result.violation == (None if want is None else tuple(want))
                assert result.report == span(p)
                rejected += not result.ok
        assert rejected >= 100

    def test_a_tolerance_equal_to_the_deficit_is_accepted(self):
        # one footpoint pulled left overlaps that disk alone; a tolerance of
        # its deficit accepts it, and one just below rejects the same pair
        rng = random.Random(3233)
        tried = 0
        for _ in range(200):
            order = make_disks(scan_sizes(rng, rng.randint(2, 60), False))
            feet = list(compact(order).footpoints)
            if len(feet) < 2:
                continue
            k = rng.randrange(1, len(feet))
            feet[k] -= (feet[k] - feet[k - 1]) * rng.randint(1, 200) / 1000
            p = Placement(order, feet)
            want = all_pairs_violation(p, 0.0)
            if want is None:  # disk k was held off by its own radius
                continue
            left, right, deficit = want
            assert want == verify(p, 0.0).violation
            assert verify(p, deficit).ok
            below = deficit - 4 * math.ulp(feet[k] + deficit)
            assert verify(p, below).violation[:2] == (left, right)
            tried += 1
        assert tried >= 100

    @pytest.mark.parametrize("exact", [True, False])
    def test_tied_walls_name_the_smallest_id(self, exact):
        # x and c share the left wall, c and a the right one: c (size 3)
        # reaches 9 from its footpoint, the unit disks 1 from theirs
        one = F(1) if exact else 1.0
        p = Placement(
            [Disk("x", one), Disk("c", 3 * one), Disk("a", one)], [-8 * one, 0 * one, 8 * one]
        )
        for placement in (p, parse_placement(format_placement(p))):
            result = verify(placement, 0)
            assert result.ok and result.violation is None
            assert result.report == SpanReport(-9 * one, 9 * one, 18 * one, "c", "a")

    @pytest.mark.parametrize("exact", [True, False])
    def test_compacted_is_the_naive_maximum(self, exact):
        # bit for bit on floats, and on the integers S over D that exact
        # sizes lift to
        rng = random.Random(3234)
        for _ in range(300):
            sizes = scan_sizes(rng, rng.randint(1, 60), exact)
            if exact:
                sizes = lift(sizes).sizes
            got, want = _compacted(sizes), naive_staircase(sizes)
            assert list(map(type, got)) == list(map(type, want))
            assert list(map(repr, got)) == list(map(repr, want))


class TestSupportLowerBound:
    def test_unit_disks_tight(self):
        disks = make_disks([F(1)] * 7)
        assert best_support_lower_bound(disks) == 14
        assert span(compact(disks)).span == 14

    def test_single_disk_tight(self):
        a = F(5, 2)
        assert best_support_lower_bound([Disk("a", a)]) == 2 * a * a

    def test_two_two_one(self):
        # the unit disk exactly fills the gap, so the bound is tight
        disks = make_disks([F(2), F(2), F(1)])
        assert best_support_lower_bound(disks) == brute_min_span(disks) == 16

    def test_never_exceeds_any_compaction(self):
        rng = random.Random(23)
        for _ in range(30):
            sizes = [F(rng.randint(1, 30), rng.randint(1, 6)) for _ in range(5)]
            disks = make_disks(sizes)
            bound = best_support_lower_bound(disks)
            rng.shuffle(disks)
            assert bound <= span(compact(disks)).span

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            best_support_lower_bound([])


class TestBestSupportLowerBound:
    def test_prefix_beats_full_set_when_minimum_drops(self):
        # the size-1 disk hides entirely, so the two-disk bound of 24 is
        # far below the single-disk bound of 72
        disks = make_disks([F(6), F(1)])
        assert best_support_lower_bound(disks) == 72
        assert brute_min_span(disks) == 72

    def test_matches_full_set_on_units(self):
        disks = make_disks([F(1)] * 5)
        assert best_support_lower_bound(disks) == 10

    def test_two_two_one(self):
        assert best_support_lower_bound(make_disks([F(2), F(2), F(1)])) == 16

    def test_is_a_valid_lower_bound(self):
        rng = random.Random(31)
        for _ in range(25):
            sizes = [F(rng.randint(1, 24), rng.randint(1, 4)) for _ in range(5)]
            disks = make_disks(sizes)
            assert best_support_lower_bound(disks) <= brute_min_span(disks)

    @pytest.mark.parametrize("exact", [True, False])
    def test_runs_of_equal_sizes(self, exact):
        # reference: running sums over the disks ranked by (-size, id)
        rng = random.Random(37)
        for _ in range(60):
            values = [F(rng.randint(100, 5000), rng.choice((7, 13, 100, 990)))
                      for _ in range(4)]
            sizes = [rng.choice(values) for _ in range(rng.randint(1, 40))]
            if not exact:
                sizes = [float(s) for s in sizes]
            disks = make_disks(sizes)
            rng.shuffle(disks)
            ranked = sorted(disks, key=lambda d: (-d.size, d.id))
            running, bounds = 0 * sizes[0], []
            for count, disk in enumerate(ranked, start=1):
                m = disk.size
                running += m
                bounds.append(4 * m * running - 2 * count * m * m)
            assert repr(best_support_lower_bound(disks)) == repr(max(bounds))



def tied_disks(rng, values, n, exact):
    """n sizes drawn from a few ``values`` with coprime denominators, under
    distinct ids whose string order differs from their input order."""
    ids = rng.sample(range(1000), n)
    sizes = [rng.choice(values) for _ in range(n)]
    return [Disk(f"d{k}", s if exact else float(s)) for k, s in zip(ids, sizes)]


class TestBySize:
    # linear-case sizes (ratio below two) and sizes that let disks hide
    LINEAR = [F(1), F(8, 7), F(17, 13), F(3, 2), F(19, 10)]
    SPREAD = [F(1, 3), F(1, 2), F(8, 7), F(17, 13), F(3)]

    @pytest.mark.parametrize("exact", [True, False])
    def test_matches_the_reference_order(self, exact):
        rng = random.Random(83)
        for _ in range(40):
            disks = tied_disks(rng, self.SPREAD, rng.randint(1, 60), exact)
            order, sizes, back, ranks = by_size(disks, "test")
            ref_order, ref_sizes, ref_back, ref_ranks = reference_by_size(disks, "test")
            assert order == ref_order and sizes == ref_sizes and ranks == ref_ranks
            assert back(sizes[0] * sizes[0]) == order[0].radius
            assert all(isinstance(s, int if exact else float) for s in sizes)

    def test_rejects_empty_and_mixed_input(self):
        with pytest.raises(DomainError, match="^some_solver requires at least one disk$"):
            by_size([], "some_solver requires at least one disk")
        with pytest.raises(BackendMismatchError):
            by_size([Disk("a", F(1)), Disk("b", 1.0)], "some_solver requires at least one disk")

    @pytest.mark.parametrize("exact", [True, False])
    def test_solvers_place_as_with_the_reference_order(self, exact, monkeypatch):
        # the lifted sort must order heavily tied sizes as the unlifted one:
        # both solvers, run once on each, must write the same bytes
        rng = random.Random(89 if exact else 97)
        cases = [
            (linear.solve_linear, linear, self.LINEAR, 40, 30),
            (oracle.exact_solve, oracle, self.LINEAR, 7, 20),
            (oracle.exact_solve, oracle, self.SPREAD, 7, 20),
        ]
        for solve, module, values, max_n, count in cases:
            for _ in range(count):
                disks = tied_disks(rng, values, rng.randint(1, max_n), exact)
                placement, report = solve(disks)
                with monkeypatch.context() as patch:
                    patch.setattr(module, "by_size", reference_by_size)
                    ref_placement, ref_report = solve(disks)
                assert format_placement(placement) == format_placement(ref_placement)
                assert repr(report) == repr(ref_report)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_disks_given_as_an_iterator_are_read_once(exact):
    # every public function taking disks answers a generator as the list
    spread = [F(5), F(4), F(3), F(2)]
    chain = [F(10), F(9), F(8), F(7)]
    if not exact:
        spread, chain = [float(v) for v in spread], [float(v) for v in chain]
    spread, chain = make_disks(spread), make_disks(chain)
    feet = [0, 20, 40, 60] if exact else [0.0, 20.0, 40.0, 60.0]
    calls = [
        (compact, spread),
        (greedy_solve, spread),
        (solve_linear, chain),
        (exact_solve, spread),
        (oracle.hidden_in_linear_prefix, spread),
        (linear.is_linear_case, spread),
        (best_support_lower_bound, spread),
        (lambda disks: Placement(disks, feet), spread),
        (files.format_instance, spread),
    ]
    for fn, disks in calls:
        want = fn(disks)
        got = fn(d for d in disks)
        assert got == want and repr(got) == repr(want), fn
