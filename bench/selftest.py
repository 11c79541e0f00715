"""Tests of the benchmark's own checks and of its reference scaling.

Run from the repository root with ``python3 bench/selftest.py``.
"""

from __future__ import annotations

import unittest
from fractions import Fraction as F

import reference
from checks import (
    CheckError,
    check_placement,
    check_touching_chain,
    first_overlap,
    min_span_by_search,
    prefix_bound,
    span_of,
)


def rows_of(*triples):
    return sorted((F(x), F(s), i) for i, s, x in triples)


class ExhaustiveSearch(unittest.TestCase):
    def test_hand_computed_spans(self):
        # Two unit disks (radius 1) touching: footpoints 2 apart, span 4.
        self.assertEqual(min_span_by_search([F(1), F(1)]), 4)
        # Radii 4 and 1: footpoints 2*2*1 = 4 apart, span 4 + 4 + 1.
        self.assertEqual(min_span_by_search([F(2), F(1)]), 9)
        # Three unit disks in a row: 1 + 2 + 2 + 1.
        self.assertEqual(min_span_by_search([F(1)] * 3), 6)
        # Two radius-4 disks span 16; a size-1 disk fits their gap exactly
        # (fit size 2*2/(2+2) = 1), so adding it leaves the span at 16.
        self.assertEqual(min_span_by_search([F(2), F(2), F(1)]), 16)
        # Scaling sizes by 1/2 scales every length by 1/4.
        self.assertEqual(min_span_by_search([F(1), F(1), F(1, 2)]), 4)

    def test_bound_is_below_search(self):
        sizes = [F(7, 3), F(2), F(3, 2), F(1), F(5, 4)]
        self.assertLessEqual(prefix_bound(sizes), min_span_by_search(sizes))


class PlacementChecks(unittest.TestCase):
    def setUp(self):
        # Sizes 2, 1, 2: the small disk hides in the gap of the two large.
        self.instance = {"a": F(2), "b": F(1), "c": F(2)}
        self.valid = rows_of(("a", 2, 4), ("b", 1, 8), ("c", 2, 12))

    def test_valid_placement_passes(self):
        check_placement(self.instance, self.valid, F(16), 0)
        self.assertEqual(span_of(self.valid), 16)

    def test_planted_overlap_is_rejected(self):
        planted = rows_of(("a", 2, 4), ("b", 1, 8), ("c", 2, F(23, 2)))
        self.assertEqual(first_overlap(planted, 0), ("a", "c"))
        with self.assertRaises(CheckError):
            check_placement(self.instance, planted, span_of(planted), 0)

    def test_float_slack(self):
        rows = sorted([(4.0, 2.0, "a"), (8.0 - 1e-12, 1.0, "b")])
        self.assertIsNotNone(first_overlap(rows, 0.0))
        self.assertIsNone(first_overlap(rows, 1e-9))

    def test_changed_size_or_wrong_span_is_rejected(self):
        with self.assertRaises(CheckError):
            check_placement({"a": F(2), "b": F(1), "c": F(3)}, self.valid, F(16), 0)
        with self.assertRaises(CheckError):
            check_placement(self.instance, self.valid, F(17), 0)

    def test_touching_chain(self):
        chain = rows_of(("a", 2, 4), ("b", 1, 8), ("c", 2, 12))
        check_touching_chain(chain)
        with self.assertRaises(CheckError):
            check_touching_chain(rows_of(("a", 1, 1), ("b", 1, 4)))


class ReferenceScale(unittest.TestCase):
    def test_scale_maps_reference_time_to_ref_seconds(self):
        ref = reference.REF_SECONDS
        self.assertEqual(reference.scale(ref, ref), 1.0)
        # A machine running the reference twice as slow halves every time.
        self.assertEqual(reference.scale(2 * ref, 2 * ref), 0.5)
        self.assertEqual(reference.scale(ref, 3 * ref), 0.5)

    def test_before_reuses_a_fresh_run_only(self):
        last = reference.seconds()
        self.assertEqual(reference.before(), last)
        reference._last_end -= reference.REUSE_WITHIN
        self.assertNotEqual(reference.before(), last)


if __name__ == "__main__":
    unittest.main()
