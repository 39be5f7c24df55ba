from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import pytest

from stitlab.checks import SUITES, random_convex_polygon, random_direction  # noqa: F401 (shared with tests)
from stitlab.geometry import ConvexPolygon, Point, box
from stitlab.measure import axis_measure, isotropic_measure
from stitlab.stit import Tessellation, tessellation_from_json


@pytest.fixture
def iso():
    """Isotropic directional measure of total mass 2*pi (unit density)."""
    return isotropic_measure()


@pytest.fixture
def axes():
    """Four axis atoms of mass 1/2 each."""
    return axis_measure()


@pytest.fixture
def unit_square():
    return box(0.0, 0.0, 1.0, 1.0)


@functools.cache
def _check_result(name: str) -> tuple[bool, str]:
    return SUITES["all"][name]()


def assert_check(name: str) -> None:
    """Run one ``stitlab validate`` check, once per test run however many
    tests name it (the checks are seeded); its detail is the failure message."""
    ok, detail = _check_result(name)
    assert ok, detail


def centroid(poly: ConvexPolygon) -> Point:
    """Centre of mass of a polygon, a segment's midpoint, or the point itself."""
    verts = poly.vertices
    n = len(verts)
    if n == 1:
        return verts[0]
    if n == 2:
        return ((verts[0][0] + verts[1][0]) / 2.0, (verts[0][1] + verts[1][1]) / 2.0)
    a2 = 0.0
    cx = 0.0
    cy = 0.0
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        w = x1 * y2 - x2 * y1
        a2 += w
        cx += (x1 + x2) * w
        cy += (y1 + y2) * w
    return (cx / (3.0 * a2), cy / (3.0 * a2))


def rotate(poly: ConvexPolygon, theta: float, about: Point = (0.0, 0.0)) -> ConvexPolygon:
    """The polygon turned by ``theta`` radians counter-clockwise about a point."""
    c, s = math.cos(theta), math.sin(theta)
    ox, oy = about
    return ConvexPolygon(
        tuple(
            (ox + c * (x - ox) - s * (y - oy), oy + s * (x - ox) + c * (y - oy))
            for x, y in poly.vertices
        )
    )


def read_tessellation_file(path: str) -> Tessellation:
    """Read a tessellation dump, with or without the CLI's config wrapper."""
    obj = json.loads(Path(path).read_text())
    return tessellation_from_json(obj.get("tessellation", obj))
