from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stitlab.measure as measure_module
from conftest import assert_check, random_convex_polygon
from stitlab.geometry import (
    CompactSet,
    ConvexPolygon,
    Direction,
    GeometryError,
    box,
    convex_hull,
    hits,
    regular_polygon,
    rotate,
    separates,
    translate,
)
from stitlab.measure import (
    DirectionalMeasure,
    _difference_hull,
    MeasureError,
    double_hit_mass,
    hit_mass,
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


class TestMinSeparationRate:
    def test_isotropic_certified_band(self):
        assert_check("measure.kappa_certified")

    def test_axis_certified_band(self):
        assert_check("measure.kappa_certified")

    def test_invalid_measure_propagates(self):
        # No measure whose separation rate vanishes on a direction can be built.
        with pytest.raises(MeasureError, match="do not span the plane"):
            min_separation_rate(DirectionalMeasure(atoms=((E1, 0.5), (Direction(-1.0, 0.0), 0.5))))

    def test_lower_bounds_rate_on_dense_grid(self):
        assert_check("measure.kappa_certified")


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
        for h in (2.0, 5.0, 25.0):
            b = translate(a, (h, 0.0))
            assert math.isclose(
                separating_mass(iso, a, b), 2.0 * (math.hypot(h, 1.0) - 1.0), rel_tol=1e-12
            )



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
        sizes = []

        def counting_hull(points):
            sizes.append(len(points))
            return convex_hull(points)

        monkeypatch.setattr(measure_module, "convex_hull", counting_hull)
        a = regular_polygon(64)
        for b in (translate(a, (5.0, 1.0)), rotate(a, 0.01, about=(-4.0, 0.0))):
            sizes.clear()
            separating_mass(iso, a, b)
            assert len(sizes) == 1 and sizes[0] <= 128


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
