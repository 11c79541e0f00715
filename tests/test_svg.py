from fractions import Fraction as F

import pytest

from helpers import make_disks
from shelfpack.errors import DomainError
from shelfpack.geometry import Disk, Placement, compact
from shelfpack.svg import render_svg


def test_two_unit_disks_geometry():
    svg = render_svg(compact(make_disks([F(1), F(1)])), scale=40.0)
    # circles of radius 1 at world centers (1, 1) and (3, 1); the left wall
    # maps to x = 20, so centers land at x = 60 and x = 140
    assert '<circle cx="60" cy="60" r="40"' in svg
    assert '<circle cx="140" cy="60" r="40"' in svg
    assert "span = 4</text>" in svg
    assert svg.count("stroke-dasharray") == 2


def test_disk_ids_embedded_as_titles():
    svg = render_svg(compact(make_disks([F(2), F(1)])), scale=10.0)
    assert "<title>d0</title>" in svg and "<title>d1</title>" in svg


def test_output_is_a_pure_function_of_inputs():
    placement = compact(make_disks([F(3), F(2), F(1)]))
    assert render_svg(placement, 17.5) == render_svg(placement, 17.5)
    assert render_svg(placement, 17.5) != render_svg(placement, 18.0)


@pytest.mark.parametrize("scale", [0, 0.0, -1.0])
def test_non_positive_scale_rejected(scale):
    placement = compact(make_disks([F(1)]))
    with pytest.raises(DomainError):
        render_svg(placement, scale)


def test_exact_placement_beyond_the_float_range_rejected():
    placement = Placement([Disk("a", F(10**200))], [F(0)])
    with pytest.raises(DomainError, match="float range"):
        render_svg(placement)


def test_float_radius_overflow_rejected():
    # the size is a finite float, its radius is not
    placement = Placement([Disk("a", 1e200)], [0.0])
    with pytest.raises(DomainError, match="float range"):
        render_svg(placement)
