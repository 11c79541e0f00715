import random
from fractions import Fraction as F

import pytest

from helpers import make_disks
from shelfpack.errors import DomainError
from shelfpack.geometry import Disk, Placement, compact, span
from shelfpack.greedy import greedy_solve
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


@pytest.mark.parametrize("scale", ["40", True])
def test_non_number_scale_rejected(scale):
    placement = compact(make_disks([F(1)]))
    with pytest.raises(DomainError, match="^scale must be a number$"):
        render_svg(placement, scale)


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
    # the radius is a finite float, its drawing is not (a radius beyond the
    # float range is refused by Disk)
    placement = Placement([Disk("a", 1e154)], [0.0])
    with pytest.raises(DomainError, match="float range"):
        render_svg(placement)


@pytest.mark.parametrize("exact", [True, False])
def test_circles_as_formatted_one_value_at_a_time(exact):
    # the circle rows are filled from one template; each coordinate must
    # read as the value formatted on its own
    rng = random.Random(61)
    sizes = [F(rng.randint(1, 5000), rng.choice((7, 1000))) for _ in range(300)]
    disks = make_disks(sizes if exact else [float(s) for s in sizes])
    placement = greedy_solve(disks).placement
    scale = 13.7
    report = span(placement)
    left = float(report.left_wall)
    baseline_y = 20.0 + scale * 2 * max(float(d.radius) for d in placement.disks)
    want = [
        f'<circle cx="{20.0 + scale * (float(x) - left):.12g}" '
        f'cy="{baseline_y - scale * float(d.radius):.12g}" r="{scale * float(d.radius):.12g}" '
        f'fill="none" stroke="black" stroke-width="1"><title>{d.id}</title></circle>'
        for d, x in placement
    ]
    lines = render_svg(placement, scale).splitlines()
    got = [line for line in lines if line.startswith("<circle")]
    assert got == want


def test_far_apart_footpoints_rejected():
    # far apart footpoints: the drawing overflows towards the right wall
    placement = Placement(make_disks([1.0, 1.0]), [-1e308, 1e308])
    with pytest.raises(DomainError, match="float range"):
        render_svg(placement, 1.0)
