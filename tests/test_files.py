from fractions import Fraction as F

import pytest

from helpers import make_disks
from shelfpack.errors import ParseError
from shelfpack.files import (
    format_instance,
    format_placement,
    format_sidecar,
    parse_3partition,
    parse_groups,
    parse_instance,
    parse_placement,
)
from shelfpack.geometry import compact
from shelfpack.hardness import ThreePartitionInstance, build_instance
from shelfpack.scalars import Backend


class TestInstanceFormat:
    def test_exact_round_trip(self):
        disks = make_disks([F(1), F(33, 133), F(571)])
        text = format_instance(disks)
        parsed, backend = parse_instance(text)
        assert backend is Backend.EXACT
        assert parsed == disks
        assert text.startswith("shelfpack-instance v1\n")

    def test_float_round_trip(self):
        disks = make_disks([0.33, 1.5, 2.0000000000000004])
        parsed, backend = parse_instance(format_instance(disks))
        assert backend is Backend.FLOAT
        assert parsed == disks

    def test_comments_and_blanks_ignored(self):
        text = "shelfpack-instance v1\n# a comment\n\nd0 1/2\n  # indented comment\nd1 3/4\n"
        parsed, backend = parse_instance(text)
        assert [d.size for d in parsed] == [F(1, 2), F(3, 4)]

    def test_mixed_literals_rejected(self):
        with pytest.raises(ParseError, match="mixes"):
            parse_instance("shelfpack-instance v1\nd0 1/2\nd1 0.5\n")

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            parse_instance("shelfpack v1\nd0 1/2\n")

    def test_duplicate_id_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_instance("shelfpack-instance v1\nd0 1/2\nd0 3/4\n")

    def test_non_positive_size_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("shelfpack-instance v1\nd0 0/2\n")
        with pytest.raises(ParseError):
            parse_instance("shelfpack-instance v1\nd0 -1/2\n")

    def test_wrong_arity_rejected(self):
        with pytest.raises(ParseError, match="expected"):
            parse_instance("shelfpack-instance v1\nd0\n")

    def test_empty_body_rejected(self):
        with pytest.raises(ParseError, match="no disks"):
            parse_instance("shelfpack-instance v1\n")


class TestPlacementFormat:
    def test_exact_round_trip(self):
        placement = compact(make_disks([F(8), F(10), F(7), F(9)]))
        parsed = parse_placement(format_placement(placement))
        assert parsed == placement

    def test_float_round_trip_full_precision(self):
        placement = compact(make_disks([0.8, 2.0, 1.2345678901234567]))
        parsed = parse_placement(format_placement(placement))
        assert parsed == placement

    def test_negative_footpoints_round_trip(self):
        text = "shelfpack-placement v1\na 2/1 0/1\nb 41/50 -82/25\n"
        placement = parse_placement(text)
        assert placement.footpoints[0] == F(-82, 25)

    def test_coincident_footpoints_rejected(self):
        with pytest.raises(ParseError, match="not a valid placement"):
            parse_placement("shelfpack-placement v1\na 1/1 0/1\nb 1/1 0/1\n")

    def test_mixed_literals_rejected(self):
        with pytest.raises(ParseError, match="mixes"):
            parse_placement("shelfpack-placement v1\na 1/1 0.5\n")


class TestAuxiliaryFormats:
    def test_parse_3partition(self):
        inst = parse_3partition("# comment\n2 100\n30 33 37\n26 35 39\n")
        assert inst == ThreePartitionInstance((30, 33, 37, 26, 35, 39), 100)

    def test_parse_3partition_wrong_count(self):
        with pytest.raises(ParseError, match="expected 6 elements"):
            parse_3partition("2 100\n30 33 37\n")

    def test_parse_groups(self):
        sol = parse_groups("1 2 3\n4 5 6\n")
        assert sol.groups == ((1, 2, 3), (4, 5, 6))

    def test_parse_groups_bad_count(self):
        with pytest.raises(ParseError):
            parse_groups("1 2 3 4\n")

    def test_sidecar_is_deterministic_json(self):
        hi = build_instance(ThreePartitionInstance((30, 33, 37, 26, 35, 39), 100))
        text = format_sidecar(hi)
        assert text == format_sidecar(hi)
        import json

        payload = json.loads(text)
        assert payload["budget"] == "6/1"
        assert payload["m"] == 2
        assert payload["roles"]["outer-0"] == "outer_frame"
        assert payload["element_index"]["part-1"] == 1
