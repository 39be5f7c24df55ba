"""The kernel judged against rational arithmetic (``exact``), not against float replicas of itself.

Each property that fails today is marked ``xfail(strict=True)`` and names the
CHANGES.md FOUND line it reproduces, so the change that mends the defect must
also remove the mark.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import exact
from stitlab.geometry import EPS, ConvexPolygon, GeometryError, box, convex_hull, polygon_from_json, polygon_to_json
from stitlab.measure import isotropic_measure
from stitlab.stit import SimulationParams, simulate

# Three points collinear in floats: p, q and the origin. p lies beyond q.
P = (-31.49624987585983, -9.742931813366038)
Q = (-30.56981231553027, -9.456351092956204)

# A thin loop at 1e6 that ConvexPolygon canonicalises to three vertices.
THIN_LOOP = ((1000002.0, 1000000.0), (1000001.0806046118, 1000000.0000000016),
             (999998.0200150068, 1000000.0000000002), (999998.1270866254, 999999.9999999993))


@pytest.mark.parametrize(
    "k",
    [0, 10, pytest.param(20, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "CHANGES.md FOUND: geometry.convex_hull can drop the far end of three points that are "
        "collinear in floats once coordinates pass ~1e7")))],
)
def test_hull_keeps_every_point_within_eps(k):
    s = 2.0**k
    points = [(s * P[0], s * P[1]), (s * Q[0], s * Q[1]), (0.0, 0.0)]
    hull = convex_hull(points)
    for p in points:
        assert exact.distance_squared(p, hull.vertices) <= Fraction(EPS) ** 2


@pytest.mark.parametrize(
    "rebuild",
    [lambda poly: ConvexPolygon(poly.vertices), lambda poly: polygon_from_json(polygon_to_json(poly))],
    ids=["own-vertices", "json"],
)
@pytest.mark.xfail(strict=True, raises=GeometryError, reason=(
    "CHANGES.md FOUND: _canonical_loop with its default ccw=False does not return a canonical loop "
    "unchanged, and a valid polygon cannot always be rebuilt from its own vertices"))
def test_construction_is_idempotent_on_a_thin_loop_far_out(rebuild):
    poly = ConvexPolygon(THIN_LOOP)
    v = poly.vertices
    assert all(exact.orient(v[i - 1], v[i], v[(i + 1) % len(v)]) > 0 for i in range(len(v)))
    assert rebuild(poly).vertices == v


@pytest.mark.xfail(strict=True, raises=GeometryError, reason=(
    "CHANGES.md FOUND: stitlab.simulate crashes with GeometryError('vertex chain is not convex') on "
    "windows far from the origin. Once this passes, bench/oracle.py must take cell areas about a local "
    "origin first (FOUND: once the 1e8-offset window of tessellate-large simulates, ...)"))
def test_window_far_out_tessellates_into_cells_of_positive_area():
    window = box(1e8, 1e8, 1e8 + 4.0, 1e8 + 4.0)
    tess = simulate(SimulationParams(window=window, time=1.0, measure=isotropic_measure(), seed=1))
    areas = [exact.area(cell.polygon.vertices) for cell in tess.live_cells]
    assert all(a > 0 for a in areas)
    assert abs(sum(areas) - 16) <= len(areas) * Fraction(EPS) * 16
