from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stitlab.geometry as geometry_module
from conftest import assert_check, random_convex_polygon, rotate
from stitlab.geometry import (
    CompactSet,
    ConvexPolygon,
    Direction,
    GeometryError,
    _canonical_loop,
    _difference_hull,
    box,
    convex_hull,
    hits,
    perimeter,
    regular_polygon,
    separates,
    translate,
)
from stitlab.measure import (
    DirectionalMeasure,
    MeasureError,
    axis_measure,
    double_hit_mass,
    hit_mass,
    isotropic_measure,
    min_separation_rate,
    sample_hitting,
    separating_mass,
    separation_rate,
)

TWO_PI = 2.0 * math.pi
E1 = Direction(1.0, 0.0)


def trapezoid_hit_mass(measure: DirectionalMeasure, poly: ConvexPolygon, n: int = 4096) -> float:
    """Independent oracle: hitting mass with the isotropic part by trapezoid rule."""
    verts = np.asarray(poly.vertices)
    thetas = np.linspace(0.0, TWO_PI, n + 1)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    proj = verts @ dirs.T
    lens = np.maximum(0.0, proj.max(axis=0)) - np.maximum(0.0, proj.min(axis=0))
    total = measure.isotropic_mass / TWO_PI * np.trapezoid(lens, thetas)
    for u, w in measure.atoms:
        p = verts @ np.array([u.x, u.y])
        total += w * (max(0.0, p.max()) - max(0.0, p.min()))
    return float(total)


def mc_separating_mass(measure, a, b, n, seed) -> float:
    """Independent oracle: separating mass estimated from lines hitting a big disc."""
    pts = list(a.vertices) + list(b.vertices)
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    radius = 2.0 * max(math.hypot(p[0] - cx, p[1] - cy) for p in pts) + 1.0
    disc = regular_polygon(64, circumradius=radius, center=(cx, cy))
    rng = np.random.default_rng(seed)
    hits_sep = sum(1 for _ in range(n) if separates(sample_hitting(measure, disc, rng), a, b))
    return hits_sep / n * hit_mass(measure, disc)


class TestValidate:
    # Every rule of a valid measure is checked on construction.
    def test_parallel_atoms_rejected(self):
        for atoms in (((E1, 1.0),), ((E1, 1.0), (Direction(-1.0, 0.0), 1.0))):
            with pytest.raises(MeasureError, match="do not span the plane"):
                DirectionalMeasure(atoms=atoms)

    def test_axis_measure_ok(self, axes):
        assert DirectionalMeasure(axes.atoms) == axes

    def test_isotropic_ok(self, iso):
        assert DirectionalMeasure((), iso.isotropic_mass) == iso

    def test_zero_mass_rejected(self):
        with pytest.raises(MeasureError, match="total mass"):
            DirectionalMeasure(atoms=(), isotropic_mass=0.0)

    def test_unbalanced_atoms_rejected(self):
        # Either set makes hit_mass depend on where the origin is: the unit
        # square's is 2 at the origin and 0 after a shift by (-5, -5) for the
        # first, 3 and 2 for the second, whose mass on E1 is 2 but on -E1 is 1.
        u, w = E1, Direction(0.0, 1.0)
        minus_u, minus_w = Direction(-1.0, 0.0), Direction(0.0, -1.0)
        for atoms, iso_mass in (
            (((u, 1.0), (w, 1.0)), 0.0),
            (((u, 1.0), (w, 1.0)), 1.0),
            (((u, 1.0), (u, 1.0), (minus_u, 1.0), (w, 1.0), (minus_w, 1.0)), 0.0),
        ):
            with pytest.raises(MeasureError, match="antipodally balanced"):
                DirectionalMeasure(atoms=atoms, isotropic_mass=iso_mass)

    def test_nonpositive_atom_mass_rejected(self):
        with pytest.raises(MeasureError):
            DirectionalMeasure(atoms=((E1, 0.0),))

    def test_json_roundtrip(self):
        assert_check("io.json_roundtrips")


class TestHitMass:
    # The exact values (4 and 1) are in the measure.example_values check.
    def test_isotropic_square_is_perimeter(self, iso, unit_square):
        assert abs(hit_mass(iso, unit_square) - trapezoid_hit_mass(iso, unit_square)) <= 1e-6

    def test_axis_square(self, axes, unit_square):
        # Enumeration of the four hit intervals: only +e1 and +e2 see r >= 0.
        assert abs(hit_mass(axes, unit_square) - trapezoid_hit_mass(axes, unit_square)) <= 1e-12

    def test_point_has_zero_mass(self):
        assert_check("measure.example_values")

    def test_matches_trapezoid_oracle_on_random_bodies(self, iso):
        rng = np.random.default_rng(41)
        for _ in range(25):
            p = random_convex_polygon(rng)
            assert abs(hit_mass(iso, p) - trapezoid_hit_mass(iso, p)) <= 1e-6 * max(
                1.0, hit_mass(iso, p)
            )

    def test_translation_invariance(self, iso, axes):
        rng = np.random.default_rng(43)
        for _ in range(100):
            p = random_convex_polygon(rng)
            t = tuple(rng.uniform(-20.0, 20.0, size=2))
            for m in (iso, axes):
                a, b = hit_mass(m, p), hit_mass(m, translate(p, t))
                assert abs(a - b) <= 1e-9 * max(a, 1e-12)

    def test_scaling_degree_one(self, iso, axes):
        rng = np.random.default_rng(47)
        for _ in range(100):
            p = random_convex_polygon(rng)
            s = float(rng.uniform(0.1, 5.0))
            scaled = ConvexPolygon(tuple((s * x, s * y) for x, y in p.vertices))
            for m in (iso, axes):
                assert math.isclose(hit_mass(m, scaled), s * hit_mass(m, p), rel_tol=1e-12)

    def test_disconnected_rejected(self, iso):
        k = CompactSet.of(box(0, 0, 1, 1), box(3, 0, 4, 1))
        with pytest.raises(MeasureError, match="connected"):
            hit_mass(iso, k)

    def test_connected_union_uses_hull(self, iso):
        k = CompactSet.of(box(0, 0, 1, 1), box(1, 0, 2, 1))
        assert k.connected
        assert math.isclose(hit_mass(iso, k), 6.0, abs_tol=1e-12)


class TestSeparationRate:
    def test_isotropic_constant_two(self, iso):
        # Rate 2 in 50 random directions is in the measure.example_values
        # check; here it is compared with the trapezoid rule for its integral,
        # (1/2) * integral of |cos| over the circle (density 1/pi per radian).
        thetas = np.linspace(0.0, TWO_PI, 4097)
        oracle = 0.5 * np.trapezoid(np.abs(np.cos(thetas)), thetas)
        assert math.isclose(separation_rate(iso, E1), oracle, rel_tol=1e-6)

    def test_axis_values(self):
        assert_check("measure.example_values")

    def test_lipschitz_with_half_total_mass(self):
        assert_check("measure.rate_lipschitz")


def kappa_rounding_bound(measure: DirectionalMeasure) -> float:
    """The rounding bound ``min_separation_rate`` subtracts: (k + 2) * 2**-52 * total mass for k atoms."""
    return (len(measure.atoms) + 2) * 2.0**-52 * measure.total_mass


@st.composite
def balanced_measures(draw):
    """One to six atoms, each with its antipode, and maybe an isotropic part."""
    iso = draw(st.sampled_from([0.0, 0.0, 1e-3, 1.0, 10.0]))
    atoms = []
    for _ in range(draw(st.integers(1, 6))):
        u = Direction.from_angle(draw(st.floats(0.0, math.pi, exclude_max=True)))
        w = draw(st.floats(1e-3, 10.0))
        atoms += [(u, w), (Direction(-u.x, -u.y), w)]
    try:
        return DirectionalMeasure(atoms=tuple(atoms), isotropic_mass=iso)
    except MeasureError:  # parallel atoms and no isotropic part
        return DirectionalMeasure(atoms=tuple(atoms), isotropic_mass=1.0)


class TestMinSeparationRate:
    def test_invalid_measure_propagates(self):
        # No measure whose separation rate vanishes on a direction can be built.
        with pytest.raises(MeasureError, match="do not span the plane"):
            min_separation_rate(DirectionalMeasure(atoms=((E1, 0.5), (Direction(-1.0, 0.0), 0.5))))

    @pytest.mark.parametrize(
        "measure, exact",
        [
            (isotropic_measure(), 2.0),
            (isotropic_measure(1.0), 1.0 / math.pi),
            (axis_measure(), 0.5),
            (axis_measure(3.0), 3.0),
        ],
        ids=["isotropic", "isotropic-1", "axis", "axis-3"],
    )
    def test_exact_within_rounding_bound(self, measure, exact):
        assert exact - kappa_rounding_bound(measure) <= min_separation_rate(measure) <= exact

    @settings(max_examples=150, deadline=None)
    @given(balanced_measures())
    def test_matches_dense_grid(self, measure):
        """At or below every grid rate, and within the grid's Lipschitz slack of their minimum."""
        n = 2048
        rates = [separation_rate(measure, Direction.from_angle(k * math.pi / n)) for k in range(n)]
        kappa = min_separation_rate(measure)
        # Every direction lies within pi / (2n) of the half-circle grid, and
        # the rate is Lipschitz with constant total_mass / 2 (criterion 5).
        slack = measure.total_mass * math.sin(math.pi / (4 * n))
        assert kappa <= min(rates) <= kappa + slack + kappa_rounding_bound(measure)


class TestSeparatingMass:
    def test_point_pair_isotropic(self, iso):
        a = ConvexPolygon(((0.0, 0.0),))
        for L in (0.5, 1.0, 7.25):
            b = ConvexPolygon(((L, 0.0),))
            assert math.isclose(separating_mass(iso, a, b), 2.0 * L, rel_tol=1e-12)

    def test_point_pair_axis(self, axes):
        a = ConvexPolygon(((0.0, 0.0),))
        b = ConvexPolygon(((2.0, 0.0),))
        assert math.isclose(separating_mass(axes, a, b), 1.0, rel_tol=1e-12)

    def test_point_pair_matches_length_times_rate(self):
        assert_check("measure.point_separation_identity")

    def test_additivity_along_segment(self):
        assert_check("measure.separation_additivity")

    def test_self_separation_zero(self, iso, unit_square):
        assert separating_mass(iso, unit_square, unit_square) == 0.0

    def test_overlap_yields_zero(self, iso):
        assert separating_mass(iso, box(0, 0, 2, 2), box(1, 1, 3, 3)) == 0.0

    def test_translation_invariance(self, iso, axes):
        rng = np.random.default_rng(71)
        for _ in range(50):
            a = random_convex_polygon(rng, scale=0.5)
            b = translate(random_convex_polygon(rng, scale=0.5), (4.0, 1.0))
            t = tuple(rng.uniform(-10, 10, size=2))
            for m in (iso, axes):
                v1 = separating_mass(m, a, b)
                v2 = separating_mass(m, translate(a, t), translate(b, t))
                assert abs(v1 - v2) <= 1e-9 * max(v1, 1e-9)

    def test_sandwich_between_hull_masses(self):
        assert_check("measure.separation_sandwich")

    def test_against_monte_carlo_oracle(self, iso):
        a = ConvexPolygon(((0.0, 0.0),))
        b = ConvexPolygon(((2.0, 0.0),))
        est = mc_separating_mass(iso, a, b, n=60_000, seed=5)
        exact = separating_mass(iso, a, b)
        assert abs(est - exact) < 0.08  # ~3 sigma for this sample size

    def test_segment_pair_closed_form(self, iso):
        # Unit vertical segments a distance h apart: 2 (sqrt(h^2+1) - 1).
        a = ConvexPolygon(((0.0, -0.5), (0.0, 0.5)))
        for h in (1.5, 2.0, 5.0, 25.0, 400.0, 1e4):
            b = translate(a, (h, 0.0))
            assert math.isclose(
                separating_mass(iso, a, b), 2.0 * (math.hypot(h, 1.0) - 1.0), rel_tol=2 * 2.0**-52
            )

    def test_collinear_segments_with_a_gap(self, iso):
        # Every separating line crosses the gap g between the segments' ends: 2 g.
        a = ConvexPolygon(((0.0, 0.0), (1.0, 0.0)))
        for g in (0.0, 1e-9, 0.1, 0.5, 3.0, 1e4):
            b = ConvexPolygon(((1.0 + g, 0.0), (2.0 + g, 0.0)))
            gap = (1.0 + g) - 1.0  # g as the floats hold it, exactly
            assert math.isclose(separating_mass(iso, a, b), 2.0 * gap, rel_tol=4 * 2.0**-52, abs_tol=0.0)


# Reference: the isotropic separating mass is isotropic_mass / 2 pi times
# the integral over all directions u of max(0, -h_D(u)), h_D the support
# function of the difference hull D, integrated exactly arc by arc.


def _support_arcs(poly: ConvexPolygon) -> list[tuple[float, float, float, float]]:
    """Angular arcs on which each vertex realises the support maximum.

    Returns (vertex_x, vertex_y, arc_start, arc_end) tuples with
    arc_end > arc_start, covering one full turn in total.
    """
    verts = poly.vertices
    n = len(verts)
    if n == 1:
        x, y = verts[0]
        return [(x, y, 0.0, TWO_PI)]
    if n == 2:
        (x0, y0), (x1, y1) = verts
        phi = math.atan2(y1 - y0, x1 - x0)
        # v1 is active where <v1 - v0, u> > 0: the half circle around phi.
        return [
            (x1, y1, phi - math.pi / 2.0, phi + math.pi / 2.0),
            (x0, y0, phi + math.pi / 2.0, phi + 3.0 * math.pi / 2.0),
        ]
    normals = []
    for i in range(n):
        ex = verts[(i + 1) % n][0] - verts[i][0]
        ey = verts[(i + 1) % n][1] - verts[i][1]
        normals.append(math.atan2(-ex, ey))
    arcs = []
    for i in range(n):
        start = normals[i - 1]
        end = normals[i]
        while end <= start:
            end += TWO_PI
        arcs.append((verts[i][0], verts[i][1], start, end))
    return arcs


def _negative_cos_antiderivative(psi: float) -> float:
    """Antiderivative of max(0, -cos); increases by 2 per full turn."""
    turns = math.floor(psi / TWO_PI)
    frac = psi - turns * TWO_PI
    if frac <= math.pi / 2.0:
        g = 0.0
    elif frac <= 3.0 * math.pi / 2.0:
        g = 1.0 - math.sin(frac)
    else:
        g = 2.0
    return 2.0 * turns + g


def _negative_support_integral(poly: ConvexPolygon) -> float:
    """Exact integral over all directions of max(0, -h(u)) for a convex body."""
    total = 0.0
    for x, y, start, end in _support_arcs(poly):
        r = math.hypot(x, y)
        if r == 0.0:
            continue
        phi = math.atan2(y, x)
        total += r * (
            _negative_cos_antiderivative(end - phi)
            - _negative_cos_antiderivative(start - phi)
        )
    return total


def hull_perimeter(points) -> float:
    """Perimeter of the points' convex hull, by a monotone chain with no tolerance.

    ``convex_hull`` merges points within EPS and flattens loops within EPS
    of a line; this chain drops a point only when a float cross product is
    <= 0, and sorting puts an exactly collinear point in the middle.
    """
    pts = sorted(set(points))

    def half(seq):
        chain = []
        for rx, ry in seq:
            while len(chain) > 1 and (
                (chain[-1][0] - chain[-2][0]) * (ry - chain[-2][1])
                - (chain[-1][1] - chain[-2][1]) * (rx - chain[-2][0])
            ) <= 0.0:
                chain.pop()
            chain.append((rx, ry))
        return chain[:-1]

    loop = half(pts) + half(pts[::-1]) if len(pts) > 1 else pts
    return sum(math.dist(p, q) for p, q in zip(loop, loop[1:] + loop[:1]))


def perimeter_difference(d: ConvexPolygon) -> float:
    """per(conv(D + O)) - per(D): Crofton's formula from two hulls, with no chain."""
    return hull_perimeter(d.vertices + ((0.0, 0.0),)) - perimeter(d)


def body_at_origin(kind: str, size: float, theta: float, sides: int) -> ConvexPolygon:
    """A point, a segment along ``theta`` or a regular polygon turned by it, at the origin."""
    if kind == "point":
        return ConvexPolygon(((0.0, 0.0),))
    if kind == "segment":
        return ConvexPolygon(((0.0, 0.0), (size * math.cos(theta), size * math.sin(theta))))
    return rotate(regular_polygon(sides, size), theta)


@st.composite
def separation_cases(draw):
    """(a, b, overlap): apart, touching, overlapping, nested and collinear pairs.

    ``overlap`` marks pairs whose difference hull holds the origin well
    inside: a polygon and its translate by part of the way from a vertex to
    its centre, or a polygon and a copy shrunk about its centre. Collinear
    pairs are segments on one line, so their difference hull lies on a line
    through the origin. Each pair is then moved by up to 1e3.
    """
    relation = draw(st.sampled_from(["apart", "touching", "overlapping", "nested", "collinear"]))
    size = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    theta = draw(st.floats(0.0, TWO_PI))
    sides = draw(st.integers(3, 8))
    kinds = st.sampled_from(["point", "segment", "polygon"])
    overlap = relation in ("overlapping", "nested")
    if overlap:
        a = body_at_origin("polygon", size, theta, sides)
        vx, vy = a.vertices[0]
        t = draw(st.floats(0.1, 0.9))
        if relation == "overlapping":  # the centre is the origin
            b = translate(a, (-t * vx, -t * vy))
        else:
            b = ConvexPolygon(tuple((t * x, t * y) for x, y in a.vertices))
    elif relation == "collinear":
        ux, uy = math.cos(theta), math.sin(theta)
        length, start = draw(st.floats(1e-3, 30.0)), draw(st.floats(-40.0, 40.0))
        a = ConvexPolygon(((0.0, 0.0), (size * ux, size * uy)))
        b = ConvexPolygon(((start * ux, start * uy), ((start + length) * ux, (start + length) * uy)))
    else:
        a = body_at_origin(draw(kinds), size, theta, sides)
        b_size, b_theta = draw(st.sampled_from([1e-3, 1.0, 30.0])), draw(st.floats(0.0, TWO_PI))
        b = body_at_origin(draw(kinds), b_size, b_theta, sides)
        if relation == "touching":
            (ax, ay), (bx, by) = draw(st.sampled_from(a.vertices)), draw(st.sampled_from(b.vertices))
            shift = (ax - bx, ay - by)
        else:
            h, phi = draw(st.floats(0.0, 1e4)), draw(st.floats(0.0, TWO_PI))
            shift = (h * math.cos(phi), h * math.sin(phi))
        b = translate(b, shift)
    move = (draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3)))
    return translate(a, move), translate(b, move), overlap


class TestCroftonSeparation:
    """The isotropic separating mass against the support-arc integral and two perimeters."""

    @settings(max_examples=1500, deadline=None)
    @given(separation_cases())
    def test_matches_references(self, case):
        a, b, overlap = case
        iso = isotropic_measure()  # total mass 2 pi: the mass is the perimeter difference itself
        got = separating_mass(iso, a, b)
        d = _difference_hull(a, b)
        bound = 8 * 2.0**-52 * hull_perimeter(a.vertices + b.vertices)  # the joint-hull mass
        assert got >= 0.0
        assert abs(got - _negative_support_integral(d)) <= bound
        assert abs(got - perimeter_difference(d)) <= bound
        if overlap:
            assert got == 0.0


def reference_difference_hull(a, b):
    """The hull of all n * m vertex differences p - q, p in a, q in b."""
    return convex_hull([(p[0] - q[0], p[1] - q[1]) for p in a.vertices for q in b.vertices])


def hull_outcome(fn, a, b):
    try:
        return repr(fn(a, b).vertices)
    except GeometryError as err:
        return f"GeometryError({err})"


@st.composite
def convex_bodies(draw):
    """A point, segment, box, regular n-gon or random hull, up to 1e6 from the origin.

    A body that rounding at its offset makes not convex is replaced by its first point.
    """
    kind = draw(st.sampled_from(["point", "segment", "box", "n-gon", "hull"]))
    size = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    cx = draw(st.sampled_from([0.0, 1e3, 1e6])) + draw(st.floats(-50.0, 50.0))
    cy = draw(st.sampled_from([0.0, -1e6])) + draw(st.floats(-50.0, 50.0))
    unit = st.floats(-1.0, 1.0)
    if kind == "point":
        pts = [(0.0, 0.0)]
    elif kind == "segment":
        pts = [(0.0, 0.0), (draw(unit), draw(unit))]
    elif kind == "box":
        w, h = draw(st.floats(0.01, 1.0)), draw(st.floats(0.01, 1.0))
        pts = [(0.0, 0.0), (w, 0.0), (w, h), (0.0, h)]
    elif kind == "n-gon":
        pts = list(regular_polygon(draw(st.sampled_from([3, 4, 5, 6, 8, 17, 64]))).vertices)
    else:
        pts = convex_hull(draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=16))).vertices
    try:
        return ConvexPolygon(tuple((cx + size * x, cy + size * y) for x, y in pts))
    except GeometryError:
        return ConvexPolygon(((cx + size * pts[0][0], cy + size * pts[0][1]),))


@st.composite
def body_pairs(draw):
    """Two bodies, or one and a translate of it (every edge parallel), maybe turned by a near-zero angle."""
    a = draw(convex_bodies())
    if draw(st.booleans()):
        return a, draw(convex_bodies())
    shift = (draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0)))
    tilt = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6])) * draw(st.sampled_from([-1.0, 1.0]))
    try:
        return a, rotate(translate(a, shift), tilt, about=a.vertices[0])
    except GeometryError:
        return a, a


class TestDifferenceHull:
    """The edge merge gives the hull of all n * m differences, vertex for vertex."""

    @settings(max_examples=600, deadline=None)
    @given(body_pairs())
    def test_matches_all_differences(self, pair):
        a, b = pair
        assert hull_outcome(_difference_hull, a, b) == hull_outcome(reference_difference_hull, a, b)
        assert hull_outcome(_difference_hull, b, a) == hull_outcome(reference_difference_hull, b, a)

    def test_hull_gets_at_most_n_plus_m_points(self, iso, monkeypatch):
        # The merge hands the canonicaliser one loop of at most n + m points.
        # A translate's edges are parallel up to rounding and advance
        # together, so a 64-gon and its translate give 64 points, not 126.
        sizes = []

        def counting_loop(points, kept=(), ccw=False):
            sizes.append(len(points))
            return _canonical_loop(points, kept, ccw)

        monkeypatch.setattr(geometry_module, "_canonical_loop", counting_loop)
        a = regular_polygon(64)
        for b, count in ((translate(a, (5.0, 1.0)), 64), (rotate(a, 0.01, about=(-4.0, 0.0)), 128)):
            sizes.clear()
            separating_mass(iso, a, b)
            assert sizes == [count]


class TestDoubleHitMass:
    def test_inclusion_exclusion(self, iso, axes):
        # Lines hitting the joint hull hit a, b, both, or separate them.
        pairs = ((E1, 0.3), (Direction(0.6, 0.8), 0.7))
        mixed = DirectionalMeasure(
            atoms=pairs + tuple((Direction(-u.x, -u.y), w) for u, w in pairs), isotropic_mass=1.5
        )
        rng = np.random.default_rng(83)
        for _ in range(200):
            a = random_convex_polygon(rng, scale=0.7)
            b = translate(random_convex_polygon(rng, scale=0.7), tuple(rng.uniform(-6, 6, size=2)))
            hull = convex_hull(list(a.vertices) + list(b.vertices))
            for m in (iso, axes, mixed):
                want = hit_mass(m, a) + hit_mass(m, b) - hit_mass(m, hull) + separating_mass(m, a, b)
                assert abs(double_hit_mass(m, a, b) - want) <= 1e-9 * hit_mass(m, hull)

    def test_segment_pair_crossed_belt(self, iso):
        # Sylvester: diagonals minus parallel sides, 2 (sqrt(h^2+1) - h).
        a = ConvexPolygon(((0.0, -0.5), (0.0, 0.5)))
        for h in (2.0, 5.0, 25.0, 400.0):
            want = 2.0 / (math.hypot(h, 1.0) + h)
            assert math.isclose(double_hit_mass(iso, a, translate(a, (h, 0.0))), want, rel_tol=1e-9)

    def test_disjoint_projections_give_exact_zero(self, axes):
        a = ConvexPolygon(((-0.5, 0.5), (0.5, -0.5)))
        for h in (2.0, 50.0, 400.0):
            assert double_hit_mass(axes, a, translate(a, (h, h))) == 0.0

    def test_disconnected_rejected(self, iso):
        k = CompactSet.of(box(0, 0, 1, 1), box(3, 0, 4, 1))
        with pytest.raises(MeasureError, match="connected"):
            double_hit_mass(iso, k, box(8, 0, 9, 1))

    def test_point_and_segment_give_zero_not_rounding(self, iso):
        # No line of positive measure hits a point; inclusion-exclusion of
        # the masses alone left -8.9e-16 here.
        point = ConvexPolygon(((0.0, 0.0),))
        assert double_hit_mass(iso, point, ConvexPolygon(((3.0, -1.0), (3.0, 1.0)))) == 0.0

    @settings(max_examples=400, deadline=None)
    @given(body_pairs(), st.sampled_from(["iso", "mixed"]))
    def test_never_negative(self, pair, kind):
        a, b = pair
        atoms = ((E1, 0.3), (Direction(-1.0, 0.0), 0.3), (Direction(0.6, 0.8), 0.7), (Direction(-0.6, -0.8), 0.7))
        measure = isotropic_measure() if kind == "iso" else DirectionalMeasure(atoms=atoms, isotropic_mass=1.5)
        assert double_hit_mass(measure, a, b) >= 0.0


class TestSampleHitting:
    def test_every_sample_hits_window(self, iso, unit_square):
        rng = np.random.default_rng(79)
        for _ in range(2000):
            plane = sample_hitting(iso, unit_square, rng)
            assert plane.r >= 0.0
            assert hits(plane, unit_square)

    def test_left_half_hit_fraction(self):
        assert_check("measure.sampling_left_half")

    def test_axis_normals_only(self, axes, unit_square):
        rng = np.random.default_rng(89)
        for _ in range(500):
            plane = sample_hitting(axes, unit_square, rng)
            assert min(abs(plane.u.x), abs(plane.u.y)) < 1e-12

    def test_rounding_past_the_last_atom_draws_an_atom(self, axes):
        # This window's rate times 1 - 2**-53, less each atom's mass in turn,
        # is not below the last one's: the draw must still take an atom.
        class TopDraw:
            draws = iter([1.0 - 2.0**-53])

            def random(self):
                return next(self.draws)

            def uniform(self, lo, hi):
                return lo

        window = box(0.92, 0.13, 1.15, 1.14)
        plane = sample_hitting(axes, window, TopDraw())
        assert plane.u in [u for u, _ in axes.atoms]
        assert hits(plane, window)

    def test_degenerate_window_rejected(self, iso):
        with pytest.raises(MeasureError, match="degenerate window"):
            sample_hitting(iso, ConvexPolygon(((0.0, 0.0),)), np.random.default_rng(1))

    def test_atom_measure_r_distribution(self, axes):
        # For the unit square only +e1/+e2 have positive weight; r is U(0,1).
        rng = np.random.default_rng(97)
        rs = [sample_hitting(axes, box(0, 0, 1, 1), rng).r for _ in range(20_000)]
        assert 0.0 <= min(rs) and max(rs) <= 1.0
        assert abs(np.mean(rs) - 0.5) < 3.0 * (1.0 / math.sqrt(12.0)) / math.sqrt(len(rs))
