from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_check, random_convex_polygon, random_direction, rotate
from stitlab.geometry import (
    CompactSet,
    ConvexPolygon,
    Direction,
    GeometryError,
    Hyperplane,
    area,
    box,
    chord,
    clip,
    clip_segment_to_polygon,
    contains_point,
    convex_hull,
    _canonical_loop,
    _joint_hull,
    _perp_distance,
    diameter,
    dilate,
    hit_reach,
    hits,
    interior_clearance,
    perimeter,
    piece_distance,
    polygon_intersection,
    projection_bounds,
    regular_polygon,
    scale,
    segment_hits_body,
    segment_segment_distance,
    separates,
    translate,
)

E1 = Direction(1.0, 0.0)
E2 = Direction(0.0, 1.0)


class TestDirection:
    def test_renormalises(self):
        u = Direction(3.0, 4.0)
        assert math.isclose(u.x, 0.6) and math.isclose(u.y, 0.8)
        assert abs(u.x**2 + u.y**2 - 1.0) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(GeometryError):
            Direction(0.0, 0.0)

    def test_angle_roundtrip(self):
        for theta in (0.0, 1.0, -2.5, math.pi):
            u = Direction.from_angle(theta)
            assert math.isclose(math.cos(theta), u.x, abs_tol=1e-15)


class TestHyperplane:
    def test_negative_distance_rejected(self):
        with pytest.raises(GeometryError):
            Hyperplane(-0.1, E1)

    def test_offset_sign(self):
        plane = Hyperplane(0.5, E1)
        assert plane.offset((1.0, 0.0)) > 0
        assert plane.offset((0.0, 0.0)) < 0


class TestConvexHull:
    def test_singleton(self):
        p = convex_hull([(0.0, 0.0)])
        assert p.vertices == ((0.0, 0.0),)

    def test_interior_point_removed(self):
        p = convex_hull([(0, 0), (1, 0), (0.5, 0.2), (1, 1), (0, 1)])
        assert set(p.vertices) == {(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)}

    def test_collinear_becomes_segment(self):
        p = convex_hull([(0, 0), (1, 0), (2, 0)])
        assert len(p.vertices) == 2
        assert set(p.vertices) == {(0.0, 0.0), (2.0, 0.0)}

    def test_empty_rejected(self):
        with pytest.raises(GeometryError, match="empty point set"):
            convex_hull([])

    def test_small_triangle_away_from_origin(self):
        # Doubled area 2.2e-16; summed about the origin it rounds to
        # -8.9e-16, which once reversed the counter-clockwise hull.
        pts = [(3.8846569200700327, 1.179541743119065), (3.88465701533592, 1.179541643231187),
               (3.8846569224096403, 1.1795417429806856)]
        (ax, ay), (bx, by), (cx, cy) = convex_hull(pts).vertices
        assert {(ax, ay), (bx, by), (cx, cy)} == set(pts)
        assert (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0.0

    def test_idempotent(self):
        assert_check("geometry.hull_idempotent")


class TestPolygonConstruction:
    def test_orientation_forced_ccw(self):
        p = ConvexPolygon(((0, 0), (0, 1), (1, 1), (1, 0)))
        assert area(p) > 0

    def test_duplicates_removed(self):
        p = ConvexPolygon(((0, 0), (0, 0), (1, 0), (1, 1), (1, 1), (0, 1)))
        assert len(p.vertices) == 4

    def test_collinear_interior_vertex_removed(self):
        p = ConvexPolygon(((0, 0), (0.5, 0.0), (1, 0), (1, 1), (0, 1)))
        assert len(p.vertices) == 4

    def test_nonconvex_rejected(self):
        with pytest.raises(GeometryError, match="not convex"):
            ConvexPolygon(((0, 0), (2, 0), (2, 2), (1, 0.5), (0, 2)))

    def test_nearly_collinear_loop_collapses_to_segment(self):
        p = ConvexPolygon(((0, 0), (1, 1e-12), (2, 0)))
        assert len(p.vertices) == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        # A NaN vertex used to vanish in the dedupe, leaving the point (nan, 0).
        for pts in (((bad, 0.0), (1.0, 0.0), (0.0, 1.0)), ((0.0, 0.0), (1.0, bad), (0.0, 1.0))):
            with pytest.raises(GeometryError, match="finite"):
                ConvexPolygon(pts)
            with pytest.raises(GeometryError, match="finite"):
                convex_hull(pts)


class TestClip:
    def test_axis_cut(self, unit_square):
        left = clip(unit_square, Hyperplane(0.5, E1), "minus")
        assert left is not None
        assert math.isclose(area(left), 0.5)
        assert set(left.vertices) == {(0.0, 0.0), (0.5, 0.0), (0.5, 1.0), (0.0, 1.0)}

    def test_non_hitting_plane(self, unit_square):
        same = clip(unit_square, Hyperplane(2.0, E1), "minus")
        assert same is not None and same.vertices == unit_square.vertices
        assert clip(unit_square, Hyperplane(2.0, E1), "plus") is None

    def test_grazing_clip_is_empty(self, unit_square):
        assert clip(unit_square, Hyperplane(1.0, E1), "plus") is None

    def test_bad_side(self, unit_square):
        with pytest.raises(GeometryError):
            clip(unit_square, Hyperplane(0.5, E1), "left")

    def test_segment_clip(self):
        seg = ConvexPolygon(((0.0, 0.0), (2.0, 0.0)))
        part = clip(seg, Hyperplane(0.5, E1), "minus")
        assert part is not None and len(part.vertices) == 2
        assert math.isclose(diameter(part), 0.5)

    def test_partition_of_area(self):
        assert_check("geometry.clip_partition")


class TestSupport:
    """The support function h(u) is the top of ``projection_bounds``."""

    def test_square(self, unit_square):
        assert projection_bounds(unit_square.vertices, 1.0, 0.0) == (0.0, 1.0)
        assert projection_bounds(unit_square.vertices, -1.0, 0.0) == (-1.0, 0.0)

    def test_point_dot(self):
        lo, hi = projection_bounds(((3.0, 4.0),), 0.6, 0.8)
        assert lo == hi and math.isclose(hi, 5.0)

    def test_width_nonnegative(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            p = random_convex_polygon(rng)
            u = random_direction(rng)
            _, h_u = projection_bounds(p.vertices, u.x, u.y)
            _, h_minus_u = projection_bounds(p.vertices, -u.x, -u.y)
            assert h_u + h_minus_u >= 0.0


class TestHits:
    def test_square_hit(self, unit_square):
        assert hits(Hyperplane(0.5, E1), unit_square)

    def test_point_missed(self):
        assert not hits(Hyperplane(0.5, E1), ConvexPolygon(((0.0, 0.0),)))

    def test_union_checked_per_piece(self):
        two_points = CompactSet.of(
            ConvexPolygon(((0.0, 0.0),)), ConvexPolygon(((1.0, 0.0),))
        )
        assert not hits(Hyperplane(0.5, E1), two_points)
        assert hits(Hyperplane(1.0, E1), two_points)

    def test_predicate_matches_interval(self):
        assert_check("geometry.hits_matches_interval")


class TestSeparates:
    def test_points_separated(self):
        a = ConvexPolygon(((0.0, 0.0),))
        b = ConvexPolygon(((1.0, 0.0),))
        assert separates(Hyperplane(0.5, E1), a, b)
        assert not separates(Hyperplane(1.5, E1), a, b)

    def test_hit_set_never_separated(self, unit_square):
        b = ConvexPolygon(((5.0, 5.0),))
        assert not separates(Hyperplane(0.5, E1), unit_square, b)

    def test_implies_missing_both(self):
        assert_check("geometry.separates_consistent")


class TestMetrics:
    def test_unit_square(self, unit_square):
        assert math.isclose(area(unit_square), 1.0)
        assert math.isclose(perimeter(unit_square), 4.0)
        assert math.isclose(diameter(unit_square), math.sqrt(2.0))

    def test_segment(self):
        seg = ConvexPolygon(((0.0, 0.0), (3.0, 0.0)))
        assert area(seg) == 0.0
        assert math.isclose(perimeter(seg), 6.0)
        assert math.isclose(diameter(seg), 3.0)

    def test_point(self):
        p = ConvexPolygon(((2.0, 2.0),))
        assert area(p) == 0.0 and perimeter(p) == 0.0 and diameter(p) == 0.0


class TestCompactSet:
    def test_touching_pieces_connected(self):
        k = CompactSet.of(box(0, 0, 1, 1), box(1, 0, 2, 1))
        assert k.connected

    def test_separated_pieces_disconnected(self):
        k = CompactSet.of(box(0, 0, 1, 1), box(2, 0, 3, 1))
        assert not k.connected

    def test_chain_connected_through_middle(self):
        k = CompactSet.of(box(0, 0, 1, 1), box(2, 0, 3, 1), box(1, 0.2, 2, 0.8))
        assert k.connected

    def test_polygon_is_a_connected_one_piece_body(self):
        for poly in (box(0, 0, 1, 1), ConvexPolygon(((0.0, 0.0), (1.0, 0.0))), ConvexPolygon(((2.0, 3.0),))):
            assert poly.pieces == (poly,) and poly.pieces[0] is poly
            assert poly.connected is True
            assert (poly.pieces, poly.connected) == (CompactSet.of(poly).pieces, CompactSet.of(poly).connected)

    def test_piece_distance(self):
        d = piece_distance(box(0, 0, 1, 1), box(2, 0, 3, 1))
        assert math.isclose(d, 1.0)
        assert piece_distance(box(0, 0, 2, 2), box(1, 1, 3, 3)) == 0.0

    def test_piece_distance_closing_edge(self):
        tri = ConvexPolygon(((0, 0), (1, 0), (0, 1)))
        assert math.isclose(piece_distance(tri, ConvexPolygon(((-0.5, 0.5),))), 0.5)

    def test_piece_distance_brute_force(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            p = random_convex_polygon(rng, scale=0.8)
            q = random_convex_polygon(rng, scale=0.8)
            got = piece_distance(p, q)
            # Brute force over dense boundary samples, upper bound on truth.
            def samples(poly):
                pts = []
                v = poly.vertices
                n = len(v)
                for i in range(n if n > 2 else n - 1 or 1):
                    a, b = v[i], v[(i + 1) % n]
                    for t in np.linspace(0.0, 1.0, 24):
                        pts.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
                return pts
            brute = min(
                math.hypot(x1 - x2, y1 - y2)
                for x1, y1 in samples(p)
                for x2, y2 in samples(q)
            )
            assert got <= brute + 1e-12
            assert brute - got <= 0.2  # sampling resolution slack


def exact_segment_distance(p1, p2, q1, q2):
    """Distance between two segments, computed in rational arithmetic."""
    p1, p2, q1, q2 = [(Fraction(x), Fraction(y)) for x, y in (p1, p2, q1, q2)]

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    if orient(p1, p2, q1) * orient(p1, p2, q2) < 0 and orient(q1, q2, p1) * orient(q1, q2, p2) < 0:
        return 0.0

    def squared(p, a, b):
        dx, dy = b[0] - a[0], b[1] - a[1]
        t = ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / (dx * dx + dy * dy)
        t = min(max(t, Fraction(0)), Fraction(1))
        return (p[0] - a[0] - t * dx) ** 2 + (p[1] - a[1] - t * dy) ** 2

    return math.sqrt(min(squared(p1, q1, q2), squared(p2, q1, q2), squared(q1, p1, p2), squared(q2, p1, p2)))


class TestSegmentDistance:
    """Nearly collinear segments that do not meet are as far apart as they are."""

    # A chord and a segment body 5.8e-7 apart end to end, once counted as a hit.
    CHORD = ((7.714867500121967, 22.77936047363058), (15.21895475083641, 19.044889105823874))
    BODY = ((15.21895527385473, 19.04488884553946), (16.03933380805723, 18.636620651902614))

    def test_logged_pair(self):
        exact = exact_segment_distance(*self.CHORD, *self.BODY)
        assert exact == pytest.approx(5.842e-7, rel=1e-3)
        assert abs(segment_segment_distance(*self.CHORD, *self.BODY) - exact) <= 1e-12
        assert not segment_hits_body(*self.CHORD, ConvexPolygon(self.BODY))
        assert piece_distance(ConvexPolygon(self.CHORD), ConvexPolygon(self.BODY)) == pytest.approx(exact, abs=1e-12)

    def test_head_to_tail_family(self):
        # The second segment starts a gap past the first one's end, turned by
        # a small angle: rounding decides every cross product here.
        rng = np.random.default_rng(2029)
        for _ in range(2000):
            x, y = rng.uniform(-20.0, 20.0, size=2)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            angle = 10.0 ** rng.uniform(-16.0, -6.0) * rng.choice([-1.0, 1.0])
            gap = 10.0 ** rng.uniform(-9.0, -6.0)
            len_p, len_q = rng.uniform(0.5, 10.0, size=2)
            p1 = (float(x), float(y))
            p2 = (float(x + len_p * math.cos(phi)), float(y + len_p * math.sin(phi)))
            q1 = (p2[0] + gap * math.cos(phi), p2[1] + gap * math.sin(phi))
            q2 = (q1[0] + len_q * math.cos(phi + angle), q1[1] + len_q * math.sin(phi + angle))
            exact = exact_segment_distance(p1, p2, q1, q2)
            for a, b, c, d in ((p1, p2, q1, q2), (q2, q1, p2, p1)):
                assert abs(segment_segment_distance(a, b, c, d) - exact) <= 1e-12
            assert piece_distance(ConvexPolygon((p1, p2)), ConvexPolygon((q1, q2))) == pytest.approx(exact, abs=1e-12)
            if abs(exact - 1e-9) > 1e-12:
                assert segment_hits_body(p1, p2, ConvexPolygon((q1, q2))) == (exact <= 1e-9)

    def test_crossing_segments_are_at_rounding_distance(self):
        rng = np.random.default_rng(2030)
        for _ in range(500):
            a, b, c, d = (tuple(map(float, rng.uniform(-20.0, 20.0, size=2))) for _ in range(4))
            exact = exact_segment_distance(a, b, c, d)
            assert abs(segment_segment_distance(a, b, c, d) - exact) <= 1e-12


class TestIntersectionAndContainment:
    def test_polygon_intersection(self):
        p = polygon_intersection(box(0, 0, 2, 2), box(1, 1, 3, 3))
        assert p is not None and math.isclose(area(p), 1.0)

    def test_polygon_intersection_empty(self):
        assert polygon_intersection(box(0, 0, 1, 1), box(2, 2, 3, 3)) is None

    def test_intersection_with_self_is_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = random_convex_polygon(rng)
            q = polygon_intersection(p, p)
            assert q is not None and q.vertices == p.vertices

    def test_segment_clip(self):
        seg = clip_segment_to_polygon((-1.0, 0.5), (3.0, 0.5), box(0, 0, 1, 1))
        assert seg is not None
        assert math.isclose(seg[0][0], 0.0) and math.isclose(seg[1][0], 1.0)

    def test_segment_clip_parallel_tolerance_is_in_length_units(self):
        # A segment parallel to an edge is kept within EPS of it and dropped
        # beyond, however long that edge is.
        seg = ((2.0, -5e-10), (8.0, -5e-10))
        assert clip_segment_to_polygon(*seg, box(0, 0, 10, 10)) == seg
        small = box(0, 0, 0.01, 0.01)
        a, b = (0.002, -5e-9), (0.008, -5e-9)
        assert interior_clearance(small, (a, b)) == pytest.approx(-5e-9)
        assert clip_segment_to_polygon(a, b, small) is None

    def test_contains_point(self, unit_square):
        assert contains_point(unit_square, (0.5, 0.5))
        assert contains_point(unit_square, (1.0, 1.0))
        assert not contains_point(unit_square, (1.1, 0.5))

    def test_interior_clearance(self, unit_square):
        assert math.isclose(interior_clearance(unit_square, [(0.5, 0.5)]), 0.5)
        assert interior_clearance(unit_square, [(1.5, 0.5)]) < 0
        # The minimum over all points, and -inf for a window without area.
        assert math.isclose(interior_clearance(unit_square, [(0.5, 0.5), (0.9, 0.5)]), 0.1)
        assert interior_clearance(ConvexPolygon(((0.0, 0.0), (1.0, 0.0))), [(0.5, 0.0)]) == -math.inf

    def test_chord(self, unit_square):
        cut = chord(unit_square, Hyperplane(0.5, E1))
        assert cut is not None
        (x0, y0), (x1, y1) = cut
        assert math.isclose(x0, 0.5) and math.isclose(x1, 0.5)
        assert math.isclose(abs(y1 - y0), 1.0)

    def test_segment_hits_body(self, unit_square):
        assert segment_hits_body((-1.0, 0.5), (2.0, 0.5), unit_square)
        assert not segment_hits_body((-1.0, 2.0), (2.0, 2.0), unit_square)

    def test_dilate_gives_clearance(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            p = random_convex_polygon(rng)
            w = dilate(p, 0.25)
            assert interior_clearance(w, p.vertices) > 0.2


class TestMotions:
    def test_rigid_motion_preserves_metrics(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            p = random_convex_polygon(rng)
            q = rotate(translate(p, (1.3, -2.0)), 0.7, about=(0.5, 0.5))
            assert math.isclose(area(p), area(q), rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(perimeter(p), perimeter(q), rel_tol=1e-12)

    def test_scale(self, unit_square):
        s = scale(unit_square, 3.0)
        assert math.isclose(area(s), 9.0)
        for bad in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(GeometryError):
                scale(unit_square, bad)

    def test_dilate_needs_a_finite_positive_margin(self, unit_square):
        for bad in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(GeometryError):
                dilate(unit_square, bad)


class TestJson:
    def test_polygon_roundtrip(self):
        assert_check("io.json_roundtrips")

    def test_compact_roundtrip(self):
        assert_check("io.json_roundtrips")


def test_regular_polygon_perimeter():
    disc = regular_polygon(64, circumradius=1.0)
    assert math.isclose(perimeter(disc), 128.0 * math.sin(math.pi / 64.0), rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Single-pass polygon kernel against the multi-pass one it replaced


def _dist(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


def reference_canonical_loop(points):
    """The multi-pass canonicalisation plus the separate convexity check.

    Dedupe, collapse, orientation, stripping and the convexity check each
    take their own pass here, where ``_canonical_loop`` takes one scan for
    the strip and the turn.
    """
    pts = []
    for p in points:
        q = (float(p[0]), float(p[1]))
        if not pts or _dist(q, pts[-1]) > 1e-9:
            pts.append(q)
    while len(pts) > 1 and _dist(pts[0], pts[-1]) <= 1e-9:
        pts.pop()
    if len(pts) == 1:
        return (pts[0],)
    if len(pts) == 2:
        return tuple(pts)
    area2 = 0.0
    for i in range(len(pts)):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % len(pts)]
        area2 += x1 * y2 - y1 * x2
    spread = math.hypot(
        max(x for x, _ in pts) - min(x for x, _ in pts),
        max(y for _, y in pts) - min(y for _, y in pts),
    )
    if abs(area2) <= 4.0 * 1e-9 * spread:
        best, best_d = (0, 1), -1.0
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d = _dist(pts[i], pts[j])
                if d > best_d:
                    best_d, best = d, (i, j)
        a, b = pts[best[0]], pts[best[1]]
        if all(_perp_distance(p, a, b) <= 1e-9 for p in pts):
            return (a, b) if best_d > 1e-9 else (a,)
    if area2 < 0.0:
        pts.reverse()
    changed = True
    while changed and len(pts) > 2:
        changed = False
        for i in range(len(pts)):
            if _perp_distance(pts[i], pts[i - 1], pts[(i + 1) % len(pts)]) <= 1e-9:
                pts.pop(i)
                changed = True
                break
    n = len(pts)
    for i in range(n):
        p, q, r = pts[i - 1], pts[i], pts[(i + 1) % n]
        if n > 2:
            cross = (q[0] - p[0]) * (r[1] - q[1]) - (q[1] - p[1]) * (r[0] - q[0])
            if cross < 0.0 and _perp_distance(q, p, r) > 1e-9:
                raise GeometryError("vertex chain is not convex")
    return tuple(pts)


def canonical_loop(points):
    """``_canonical_loop``'s vertices, once a perimeter it returns is checked
    to be their edge sum from vertex 0."""
    verts, per = _canonical_loop(points)
    if per is not None:
        expected = 0.0 if len(verts) == 1 else sum(_dist(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts)))
        assert repr(per) == repr(expected)
    return verts


def outcome(fn, points):
    try:
        return repr(fn(points))
    except GeometryError as err:
        return f"GeometryError({err})"


coordinate = st.floats(-50.0, 50.0)
offset = st.sampled_from([0.0, 1e4, 1e6, 1e8])


@st.composite
def convex_loops(draw):
    """Vertices on an ellipse, either orientation, around a possibly far centre."""
    n = draw(st.integers(1, 12))
    angles = sorted(draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=n, max_size=n)))
    rx = draw(st.floats(1e-6, 20.0))
    ry = draw(st.sampled_from([rx, rx * 1e-9, rx * 1e-10, 3e-10]))
    c = draw(offset)
    cx, cy = c + draw(coordinate), c + draw(coordinate)
    pts = [(cx + rx * math.cos(t), cy + ry * math.sin(t)) for t in angles]
    return pts[::-1] if draw(st.booleans()) else pts


@st.composite
def perturbed_loops(draw):
    """Convex loops with repeats within EPS, jitter below EPS, or shuffled (non-convex) order."""
    pts = draw(convex_loops())
    kind = draw(st.sampled_from(["duplicates", "jitter", "shuffle"]))
    jitter = st.floats(-1.5e-9, 1.5e-9)
    if kind == "duplicates":
        out = []
        for x, y in pts:
            out.append((x, y))
            for _ in range(draw(st.integers(0, 2))):
                out.append((x + draw(jitter), y + draw(jitter)))
        return out
    if kind == "jitter":
        return [(x + draw(jitter), y + draw(jitter)) for x, y in pts]
    return draw(st.permutations(pts))


@st.composite
def near_collinear_loops(draw):
    """Points near one line: collapse to a segment or a point, or strip to a sliver."""
    n = draw(st.integers(3, 8))
    x0, y0 = draw(coordinate), draw(coordinate)
    theta = draw(st.floats(0.0, math.pi))
    length = draw(st.sampled_from([1e-10, 1e-6, 1.0, 30.0]))
    width = draw(st.sampled_from([0.0, 1e-11, 5e-10, 2e-9, 1e-7]))
    ts = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    pts = []
    for t in ts:
        w = draw(st.floats(-width, width)) if width else 0.0
        pts.append((x0 + length * t * math.cos(theta) - w * math.sin(theta),
                    y0 + length * t * math.sin(theta) + w * math.cos(theta)))
    return pts + pts[-2:0:-1] if draw(st.booleans()) else pts


@st.composite
def loops_with_inserted_vertices(draw):
    """Convex loops with vertices inserted on or near their edges.

    Each inserted vertex lies 0, 5e-10, 2e-9 or 3e-9 off its edge, outside
    or inside, so it is stripped (within EPS) or kept. The loop is then
    rotated (an inserted vertex first or last, or anywhere), reversed, or
    made not convex by a dent or by swapping two neighbours.
    """
    n = draw(st.integers(3, 8))
    rx = draw(st.floats(0.5, 20.0))
    ry = draw(st.floats(0.5, 20.0))
    c = draw(offset)
    cx, cy = c + draw(coordinate), c + draw(coordinate)
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    pts = [(cx + rx * math.cos(phase + 2.0 * math.pi * k / n), cy + ry * math.sin(phase + 2.0 * math.pi * k / n))
           for k in range(n)]
    inserts = sorted(
        (draw(st.integers(0, n - 1)), draw(st.floats(0.01, 0.99)), draw(st.sampled_from([0.0, 5e-10, 2e-9, 3e-9])),
         draw(st.sampled_from([-1.0, 1.0])))
        for _ in range(draw(st.integers(1, 4)))
    )
    loop, inserted = [], []
    for k in range(n):
        loop.append(pts[k])
        (ax, ay), (bx, by) = pts[k], pts[(k + 1) % n]
        ln = math.hypot(bx - ax, by - ay)
        for _, t, off, side in (ins for ins in inserts if ins[0] == k):
            d = side * off / ln
            inserted.append(len(loop))
            loop.append((ax + t * (bx - ax) + d * (by - ay), ay + t * (by - ay) - d * (bx - ax)))
    kind = draw(st.sampled_from(["first", "last", "rotated", "reversed", "dent", "swap"]))
    if kind == "first":
        k = draw(st.sampled_from(inserted))
        loop = loop[k:] + loop[:k]
    elif kind == "last":
        k = draw(st.sampled_from(inserted)) + 1
        loop = loop[k:] + loop[:k]
    elif kind == "rotated":
        k = draw(st.integers(0, len(loop) - 1))
        loop = loop[k:] + loop[:k]
    elif kind == "reversed":
        loop = loop[::-1]
    elif kind == "dent":
        k = draw(st.integers(0, len(loop) - 1))
        x, y = loop[k]
        f = draw(st.sampled_from([0.5, 0.999]))
        loop[k] = (cx + f * (x - cx), cy + f * (y - cy))
    else:
        k = draw(st.integers(0, len(loop) - 1))
        loop[k], loop[k - 1] = loop[k - 1], loop[k]
    return loop


class TestCanonicalLoopMatchesReference:
    """Same vertices, bit for bit, and the same error as the multi-pass kernel."""

    @settings(max_examples=400, deadline=None)
    @given(convex_loops())
    def test_convex_loops(self, pts):
        assert outcome(canonical_loop, pts) == outcome(reference_canonical_loop, pts)

    @settings(max_examples=400, deadline=None)
    @given(perturbed_loops())
    def test_duplicates_jitter_and_non_convex_chains(self, pts):
        assert outcome(canonical_loop, pts) == outcome(reference_canonical_loop, pts)

    @settings(max_examples=300, deadline=None)
    @given(near_collinear_loops())
    def test_near_collinear_slivers(self, pts):
        assert outcome(canonical_loop, pts) == outcome(reference_canonical_loop, pts)

    @settings(max_examples=500, deadline=None)
    @given(loops_with_inserted_vertices())
    def test_strips_near_inserted_vertices(self, pts):
        assert outcome(canonical_loop, pts) == outcome(reference_canonical_loop, pts)

    def test_strip_of_last_vertex_rechecks_first(self):
        # Two vertices near the triangle's closing edge, one first and one
        # last in the loop. The first is 1.06e-9 from its chord, the last
        # 4.5e-10; stripping the last brings the first to 9.0e-10.
        pts = [(-1.16569288575892, -6.446515794316754), (10.0, 0.0), (-4.999999999999998, 8.660254037844387),
               (-5.000000000000004, -8.660254037844384), (-3.923186885658163, -8.038555696181032)]
        assert canonical_loop(pts) == tuple(pts[1:4])
        assert outcome(reference_canonical_loop, pts) == outcome(canonical_loop, pts)

    def test_non_convex_chain_raises(self):
        pts = [(0.0, 0.0), (2.0, 0.0), (1.0, 0.2), (2.0, 2.0), (0.0, 2.0)]
        assert outcome(canonical_loop, pts) == "GeometryError(vertex chain is not convex)"
        assert outcome(reference_canonical_loop, pts) == outcome(canonical_loop, pts)
        with pytest.raises(GeometryError, match="not convex"):
            ConvexPolygon(tuple(pts))

    def test_dent_far_from_origin_raises(self):
        # A dent of 1.5e-8 > EPS at coordinates ~1e8, where one ulp is 1.5e-8.
        pts = [(1e8, 1e8), (1e8 + 4.0, 1e8), (1e8 + 4.0, 1e8 + 4.0), (1e8 + 2.0, 1e8 + 4.0 - 1.5e-8), (1e8, 1e8 + 4.0)]
        assert outcome(canonical_loop, pts) == "GeometryError(vertex chain is not convex)"
        assert outcome(reference_canonical_loop, pts) == outcome(canonical_loop, pts)

    @settings(max_examples=400, deadline=None)
    @given(convex_loops())
    def test_canonical_loop_comes_back_unchanged(self, pts):
        # Canonicalising a polygon's own loop, known to run counter-clockwise,
        # returns its vertices and perimeter.
        try:
            poly = ConvexPolygon(tuple(pts))
        except GeometryError:
            return
        verts, per = _canonical_loop(poly.vertices, ccw=True)
        assert verts == poly.vertices
        assert repr(per) == repr(perimeter(poly))

    @settings(max_examples=200, deadline=None)
    @given(convex_loops())
    def test_perimeter_sums_left_to_right(self, pts):
        try:
            poly = ConvexPolygon(tuple(pts))
        except GeometryError:
            return
        v = poly.vertices
        expected = 0.0 if len(v) == 1 else sum(_dist(v[i], v[(i + 1) % len(v)]) for i in range(len(v)))
        assert repr(perimeter(poly)) == repr(expected)


def reference_clip_loop(verts, nx, ny, c, keep_ge):
    """Clip a convex vertex loop against <x,n> >= c (or <= c).

    Vertices within 1e-9 of the line are kept on both sides.
    """
    sign = 1.0 if keep_ge else -1.0
    s = [sign * (x * nx + y * ny - c) for x, y in verts]
    n = len(verts)
    if n == 1:
        return [verts[0]] if s[0] >= -1e-9 else []
    out = []
    for i in range(n):
        j = (i + 1) % n
        si, sj = s[i], s[j]
        if si >= -1e-9:
            out.append(verts[i])
        if (si > 1e-9 and sj < -1e-9) or (si < -1e-9 and sj > 1e-9):
            t = si / (si - sj)
            vi, vj = verts[i], verts[j]
            out.append((vi[0] + t * (vj[0] - vi[0]), vi[1] + t * (vj[1] - vi[1])))
    return out


def reference_clip(poly, plane, side):
    """clip as one reference_clip_loop followed by the full canonicalisation."""
    loop = reference_clip_loop(poly.vertices, plane.u.x, plane.u.y, plane.r, side == "plus")
    if all(abs(plane.u.dot(p) - plane.r) <= 1e-9 for p in loop):
        return None
    return ConvexPolygon(tuple(loop))


def clip_outcome(fn, poly, plane, side):
    """Vertices and perimeter (both as reprs) of the clipped polygon, None, or the error."""
    try:
        out = fn(poly, plane, side)
    except GeometryError as err:
        return f"GeometryError({err})"
    return None if out is None else (repr(out.vertices), repr(perimeter(out)))


def line_at(u, r):
    """Hyperplane {<x, u> = r}, flipped to r >= 0."""
    return Hyperplane(r, u) if r >= 0.0 else Hyperplane(-r, Direction(-u.x, -u.y))


@st.composite
def polygon_cuts(draw):
    """A canonical polygon (possibly far from the origin) and a line cutting it.

    The line passes through a vertex, within 1e-9 of one, nearly parallel to
    an edge, just inside a support line (a sliver child) or anywhere across.
    """
    try:
        poly = ConvexPolygon(tuple(draw(convex_loops())))
    except GeometryError:
        poly = box(0.0, 0.0, 1.0, 1.0)
    verts = poly.vertices
    k = draw(st.integers(0, len(verts) - 1))
    vx, vy = verts[k]
    kind = draw(st.sampled_from(["vertex", "near vertex", "near parallel", "sliver", "across"]))
    if kind == "near parallel" and len(verts) > 1:
        (ax, ay), (bx, by) = verts[k], verts[(k + 1) % len(verts)]
        tilt = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6])) * draw(st.sampled_from([-1.0, 1.0]))
        u = Direction.from_angle(math.atan2(ax - bx, by - ay) + tilt)
        t = draw(st.floats(0.0, 1.0))
        r = u.dot((ax + t * (bx - ax), ay + t * (by - ay))) + draw(st.floats(-2e-9, 2e-9))
        return poly, line_at(u, r)
    u = Direction.from_angle(draw(st.floats(0.0, 2.0 * math.pi)))
    lo, hi = projection_bounds(verts, u.x, u.y)
    if kind == "vertex":
        r = u.dot((vx, vy))
    elif kind == "near vertex":
        r = u.dot((vx, vy)) + draw(st.floats(-1e-9, 1e-9))
    elif kind == "sliver":
        r = hi - draw(st.sampled_from([0.0, 1e-10, 1e-9, 2e-9, 1e-8, 1e-6]))
    else:
        r = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    return poly, line_at(u, r)


class TestClipMatchesReference:
    """clip, one ``_clip_loop`` pass and one ``_canonicalise``, gives the
    reference clip's vertices, bit for bit, its perimeter, and its error."""

    @settings(max_examples=600, deadline=None)
    @given(polygon_cuts(), st.sampled_from(["minus", "plus"]))
    def test_cuts(self, cut, side):
        poly, plane = cut
        assert clip_outcome(clip, poly, plane, side) == clip_outcome(reference_clip, poly, plane, side)

    @pytest.mark.parametrize("offset", [1e4, 1e6, 1e8])
    def test_far_from_origin(self, offset):
        # From 1e6 on, rounding makes a few of these cuts raise; clip must
        # raise exactly where the full canonicalisation does.
        rng = np.random.default_rng(17)
        poly = box(offset, offset, offset + 4.0, offset + 4.0)
        for _ in range(300):
            u = Direction.from_angle(rng.uniform(0.0, 2.0 * math.pi))
            lo, hi = projection_bounds(poly.vertices, u.x, u.y)
            plane = line_at(u, lo + rng.uniform(0.0, 1.0) * (hi - lo))
            for side in ("minus", "plus"):
                assert clip_outcome(clip, poly, plane, side) == clip_outcome(reference_clip, poly, plane, side)
            try:
                out = clip(poly, plane, "minus")
            except GeometryError:
                out = None
            # Keep cutting the minus side while it is not too small.
            if out is not None and len(out.vertices) >= 3 and area(out) > 1e-3:
                poly = out
            else:
                poly = box(offset, offset, offset + 4.0, offset + 4.0)

    def test_many_inherited_vertices(self):
        # Cuts of a 64-gon keep long runs of vertices whose neighbours are
        # unchanged, next to at most two new points.
        gon = regular_polygon(64, 10.0, (3.0, -2.0))
        rng = np.random.default_rng(23)
        for _ in range(200):
            u = Direction.from_angle(rng.uniform(0.0, 2.0 * math.pi))
            lo, hi = projection_bounds(gon.vertices, u.x, u.y)
            plane = line_at(u, lo + rng.uniform(0.0, 1.0) * (hi - lo))
            for side in ("minus", "plus"):
                assert clip_outcome(clip, gon, plane, side) == clip_outcome(reference_clip, gon, plane, side)


class TestProjectionBounds:
    def test_min_and_max_of_projections(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            p = random_convex_polygon(rng)
            u = random_direction(rng)
            proj = [u.x * x + u.y * y for x, y in p.vertices]
            lo, hi = projection_bounds(p.vertices, u.x, u.y)
            assert (lo, hi) == (min(proj), max(proj))
            # Negating the direction negates the range exactly: -max(-p) is min(p).
            assert projection_bounds(p.vertices, -u.x, -u.y) == (-hi, -lo)


# ---------------------------------------------------------------------------
# Reach of a piece: where segment_hits_body can count a hit


def reach_box(reach):
    xs = [x for x, _ in reach]
    ys = [y for _, y in reach]
    return min(xs), max(xs), min(ys), max(ys)


def in_box(p, b):
    return b[0] <= p[0] <= b[1] and b[2] <= p[1] <= b[3]


@st.composite
def slivers(draw):
    """Triangle with tip (x, y), axis angle phi, length L and half-angle alpha."""
    x, y = draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    length = draw(st.floats(0.01, 10.0))
    alpha = draw(st.sampled_from([1e-5, 1e-4, 1e-3, 0.1, 0.7, 1.4]))
    pts = [(x, y)] + [
        (x + length * math.cos(phi + s * alpha), y + length * math.sin(phi + s * alpha)) for s in (-1.0, 1.0)
    ]
    return ConvexPolygon(tuple(pts))


class TestHitReach:
    def test_sliver_tip_reaches_eps_over_sine(self):
        tri = ConvexPolygon(((0.0, 0.0), (1.0, -1e-5), (1.0, 1e-5)))
        reach = hit_reach(tri, scale=2.0)
        tip = min(reach)
        # EPS / sin(theta/2), with EPS widened by 2^-16 EPS + 2^-44 scale.
        widened = 1e-9 * (1.0 + 2.0**-16) + 2.0**-44 * 2.0
        assert tip == pytest.approx((-widened / math.sin(math.atan(1e-5)), 0.0), rel=1e-9, abs=1e-18)
        assert contains_point(tri, (-4.5e-5, 0.0))
        assert not contains_point(tri, (-1.01e-4, 0.0))

    def test_point_and_segment_reach(self):
        point = hit_reach(ConvexPolygon(((1.0, 2.0),)), scale=2.0)
        d = 1e-9 * (1.0 + 2.0**-16) + 2.0**-44 * 2.0
        assert reach_box(point) == pytest.approx((1.0 - d, 1.0 + d, 2.0 - d, 2.0 + d), abs=1e-15)
        seg = hit_reach(ConvexPolygon(((0.0, 0.0), (3.0, 4.0))), scale=2.0)
        assert len(seg) == 4 and area(ConvexPolygon(seg)) == pytest.approx(2.0 * d * (5.0 + 2.0 * d), rel=1e-5)

    def test_unplaceable_corner_gives_unbounded_reach(self):
        needle = ConvexPolygon(((0.0, 0.0), (10.0, -1e-6), (10.0, 1e-6)))
        assert len(needle.vertices) == 3
        assert hit_reach(needle, scale=10.0) is None

    @settings(max_examples=300, deadline=None)
    @given(slivers(), st.floats(0.0, 1.5), st.integers(0, 2), st.floats(-1e-9, 1e-9), st.floats(-1e-9, 1e-9))
    @example(
        piece=ConvexPolygon(((0.0, 0.0), (0.99999999995, -9.999999999833334e-06), (0.99999999995, 9.999999999833334e-06))),
        s=0.998046875, k=0, jx=0.0, jy=0.0,
    )
    def test_counted_points_lie_in_the_reach_box(self, piece, s, k, jx, jy):
        # Points between a vertex and its reach corner (and beyond): wherever
        # the predicate counts one, it lies in the reach box.
        reach = hit_reach(piece, scale=40.0)
        if reach is None or len(piece.vertices) != len(reach):
            return
        (vx, vy), (cx, cy) = piece.vertices[k], reach[k]
        p = (vx + s * (cx - vx) + jx, vy + s * (cy - vy) + jy)
        if segment_hits_body(p, p, piece):
            assert in_box(p, reach_box(reach))
        # The corner sits at the widened offset d over sin(theta/2);
        # contains_point counts the points up to EPS over it.
        d = 1e-9 * (1.0 + 2.0**-16) + 2.0**-44 * 40.0
        if s * d <= 0.999 * 1e-9 and jx == jy == 0.0:
            assert contains_point(piece, p)
        if s >= 1.001 and jx == jy == 0.0:
            assert not contains_point(piece, p)


# ---------------------------------------------------------------------------
# The joint hull from the hulls' chains against the monotone chain over both vertex lists


def hull_outcome(fn, a, b):
    """Vertices and perimeter (as reprs) of the hull fn(a, b), or the error."""
    try:
        out = fn(a, b)
    except GeometryError as err:
        return f"GeometryError({err})"
    return repr(out.vertices), repr(perimeter(out))


def chain_hull(a, b):
    return convex_hull(list(a.vertices) + list(b.vertices))


@st.composite
def hull_bodies(draw, size):
    """A point, segment, box, regular n-gon or random hull of the given size at the origin."""
    kind = draw(st.sampled_from(["point", "segment", "box", "n-gon", "hull"]))
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    unit = st.floats(-1.0, 1.0)
    if kind == "point":
        pts = [(0.0, 0.0)]
    elif kind == "segment":
        pts = [(0.0, 0.0), (math.cos(theta), math.sin(theta))]
    elif kind == "box":
        pts = box(0.0, 0.0, 1.0, draw(st.floats(0.05, 1.0))).vertices
    elif kind == "n-gon":
        pts = rotate(regular_polygon(draw(st.sampled_from([3, 5, 8, 17, 64]))), theta).vertices
    else:
        pts = convex_hull(draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=20))).vertices
    try:
        return ConvexPolygon(tuple((size * x, size * y) for x, y in pts))
    except GeometryError:
        return ConvexPolygon(((0.0, 0.0),))


@st.composite
def hull_pairs(draw):
    """Two bodies apart, touching, overlapping or nested, or a box and its
    translate along an axis, whose joint hull runs along the boxes' edges.

    Sizes are 1e-4 to 30, and the pair is then moved by up to 1e7.
    """
    relation = draw(st.sampled_from(["apart", "touching", "overlapping", "nested", "along an axis"]))
    sizes = st.sampled_from([1e-4, 1.0, 30.0])
    a = draw(hull_bodies(draw(sizes)))
    if relation == "along an axis":
        w, h = draw(st.floats(1e-3, 30.0)), draw(st.floats(1e-3, 30.0))
        a = box(0.0, 0.0, w, h)
        step = draw(st.floats(0.0, 100.0))
        b = translate(a, draw(st.sampled_from([(step, 0.0), (0.0, step), (-step, 0.0)])))
    elif relation == "apart":
        h, phi = draw(st.floats(0.0, 1e3)), draw(st.floats(0.0, 2.0 * math.pi))
        b = translate(draw(hull_bodies(draw(sizes))), (h * math.cos(phi), h * math.sin(phi)))
    elif relation == "touching":
        b = draw(hull_bodies(draw(sizes)))
        (ax, ay), (bx, by) = draw(st.sampled_from(a.vertices)), draw(st.sampled_from(b.vertices))
        b = translate(b, (ax - bx, ay - by))
    else:
        (vx, vy), t = a.vertices[0], draw(st.floats(0.1, 0.9))
        cx = sum(x for x, _ in a.vertices) / len(a.vertices)
        cy = sum(y for _, y in a.vertices) / len(a.vertices)
        if relation == "overlapping":
            b = translate(a, (t * (cx - vx), t * (cy - vy)))
        else:
            b = ConvexPolygon(tuple((cx + t * (x - cx), cy + t * (y - cy)) for x, y in a.vertices))
    c = draw(st.sampled_from([0.0, 1e4, 1e7]))
    move = (c + draw(st.floats(-50.0, 50.0)), -c + draw(st.floats(-50.0, 50.0)))
    try:
        return translate(a, move), translate(b, move)
    except GeometryError:
        return a, b


class TestJointHull:
    """The joint hull equals the monotone chain's hull of both vertex lists, vertex for vertex."""

    @settings(max_examples=1000, deadline=None)
    @given(hull_pairs())
    # The merge's edge cases: one repeated point; a point on the other
    # body's lower chain; boxes stacked along y, with vertical edges at both
    # chain ends; a 64-gon in a scaled copy of itself, whose chains interleave.
    @example((ConvexPolygon(((1.0, 2.0),)), ConvexPolygon(((1.0, 2.0),))))
    @example((regular_polygon(8), ConvexPolygon((regular_polygon(8).vertices[6],))))
    @example((box(0.0, 0.0, 1.0, 1.0), box(0.0, 2.0, 1.0, 3.0)))
    @example((regular_polygon(64), regular_polygon(64, 1.5)))
    def test_matches_chain_hull(self, pair):
        a, b = pair
        want = hull_outcome(chain_hull, a, b)
        for x, y in ((a, b), (b, a)):
            assert hull_outcome(_joint_hull, x, y) == want
