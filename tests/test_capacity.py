from __future__ import annotations

import math

import pytest

from conftest import assert_check, rotate
from stitlab.capacity import (
    Estimate,
    capacity_growth_bound,
    default_window,
    increment_check,
    mc_joint,
    mc_missing,
    missing_probability,
    pool,
)
from stitlab.geometry import (
    CompactSet,
    ConvexPolygon,
    GeometryError,
    box,
    interior_clearance,
    translate,
)
from stitlab.measure import MeasureError, hit_mass
from stitlab.mixing import closed_form_ratio_minus_one, joint_missing_closed_form


class TestAnalyticMissing:
    def test_time_zero_is_one(self, iso, axes, unit_square):
        for m in (iso, axes):
            assert missing_probability(unit_square, 0.0, m) == 1.0

    def test_unit_segment_isotropic(self):
        assert_check("capacity.closed_forms")

    def test_unit_square_isotropic(self):
        assert_check("capacity.closed_forms")

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_time_non_negative(self, iso, unit_square, bad):
        far = translate(unit_square, (3.0, 0.0))
        for closed_form in (
            lambda: missing_probability(unit_square, bad, iso),
            lambda: joint_missing_closed_form(unit_square, far, bad, iso),
            lambda: closed_form_ratio_minus_one(unit_square, far, bad, iso),
        ):
            with pytest.raises(ValueError, match="time must be >= 0"):
                closed_form()

    def test_disconnected_rejected(self, iso):
        k = CompactSet.of(box(0, 0, 1, 1), box(3, 0, 4, 1))
        with pytest.raises(MeasureError, match="connected"):
            missing_probability(k, 1.0, iso)

    def test_scaling_law(self, iso, unit_square):
        # Missing probability of sK at time a equals that of K at time s*a.
        from stitlab.geometry import scale

        for s in (0.5, 2.0, 3.7):
            assert math.isclose(
                missing_probability(scale(unit_square, s), 1.0, iso),
                missing_probability(unit_square, s, iso),
                rel_tol=1e-12,
            )


class TestCapacityGrowthBound:
    def test_unit_square_value(self):
        assert_check("capacity.closed_forms")

    def test_small_time_limit_is_hull_mass(self, iso, unit_square):
        got = capacity_growth_bound(unit_square, 1e-15, iso)
        assert math.isclose(got, hit_mass(iso, unit_square), rel_tol=1e-9)

    def test_rigid_motion_invariance_isotropic(self, iso, unit_square):
        moved = rotate(translate(unit_square, (3.0, -1.0)), 0.9, about=(1.0, 1.0))
        a = capacity_growth_bound(unit_square, 1.0, iso)
        b = capacity_growth_bound(moved, 1.0, iso)
        assert abs(a - b) <= 1e-9 * a

    def test_disconnected_needs_mc(self, iso):
        # No closed form for a disconnected body: the Monte Carlo estimators
        # are the way to its missing probability.
        k = CompactSet.of(box(0, 0, 1, 1), box(3, 0, 4, 1))
        with pytest.raises(MeasureError, match="Monte Carlo"):
            capacity_growth_bound(k, 1.0, iso)


class TestEstimate:
    def test_stderr_formula(self):
        e = Estimate(0.25, math.sqrt(0.25 * 0.75 / 100), 100, 7)
        assert 0.0 <= e.mean <= 1.0

    def test_mean_range_enforced(self):
        with pytest.raises(ValueError):
            Estimate(1.5, 0.0, 10, 0)

    def test_pool_matches_counts(self):
        a = Estimate(0.5, math.sqrt(0.25 / 100), 100, 1)
        b = Estimate(0.25, math.sqrt(0.1875 / 200), 200, 2)
        merged = pool([a, b])
        assert merged.n == 300
        assert math.isclose(merged.mean, (50 + 50) / 300)
        assert pool([b, a]).mean == merged.mean

    def test_pool_needs_an_estimate(self):
        with pytest.raises(ValueError, match="need at least one estimate"):
            pool([])


class TestMcMissing:
    def test_time_zero_exact_one(self, iso, unit_square):
        est = mc_missing(unit_square, 0.0, iso, 50, seed=1)
        assert est.mean == 1.0 and est.stderr == 0.0

    def test_matches_analytic_unit_square(self):
        assert_check("capacity.mc_matches_analytic")

    def test_default_window_has_margin(self, unit_square):
        w = default_window(unit_square)
        assert interior_clearance(w, unit_square.vertices) > 0.1

    def test_interiority_enforced(self, iso, unit_square):
        with pytest.raises(GeometryError, match="interior"):
            mc_missing(unit_square, 1.0, iso, 10, seed=1, window=unit_square)

    def test_deterministic_given_seed(self, iso, unit_square):
        a = mc_missing(unit_square, 0.5, iso, 200, seed=42)
        b = mc_missing(unit_square, 0.5, iso, 200, seed=42)
        assert a == b

    def test_disconnected_between_bounds(self, iso):
        k = CompactSet.of(box(0, 0, 1, 1), box(4, 0, 5, 1))
        w = box(-0.5, -0.5, 5.5, 1.5)
        a = 0.5
        est = mc_missing(k, a, iso, 2500, seed=13, window=w)
        from stitlab.geometry import convex_hull

        hull = convex_hull(list(k.pieces[0].vertices) + list(k.pieces[1].vertices))
        lower = math.exp(-a * hit_mass(iso, hull))
        upper = min(
            missing_probability(k.pieces[0], a, iso), missing_probability(k.pieces[1], a, iso)
        )
        assert lower <= est.mean + 4.0 * est.stderr
        assert est.mean - 4.0 * est.stderr <= upper


class TestMcJoint:
    def test_same_body_equals_missing(self, iso, unit_square):
        w = default_window(unit_square)
        joint = mc_joint(unit_square, unit_square, 0.8, iso, 500, seed=3, window=w)
        single = mc_missing(unit_square, 0.8, iso, 500, seed=3, window=w)
        assert joint.mean == single.mean

    def test_joint_below_marginals(self, iso):
        a = box(0, 0, 1, 1)
        b = box(2.5, 0, 3.5, 1)
        w = box(-0.5, -0.5, 4.0, 1.5)
        n = 2000
        joint = mc_joint(a, b, 0.6, iso, n, seed=17, window=w)
        pa = mc_missing(a, 0.6, iso, n, seed=17, window=w)
        pb = mc_missing(b, 0.6, iso, n, seed=17, window=w)
        assert joint.mean <= min(pa.mean, pb.mean) + 1e-12


class TestMcAgainstClosedFormGrid:
    SHAPES = {
        "segment": ConvexPolygon(((0.0, 0.0), (1.0, 0.0))),
        "triangle": ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.4, 0.8))),
        "square": box(0, 0, 1, 1),
    }

    @pytest.mark.parametrize("shape_name", sorted(SHAPES))
    @pytest.mark.parametrize("measure_name", ["iso", "axes"])
    def test_mean_tracks_analytic(self, shape_name, measure_name, iso, axes):
        measure = {"iso": iso, "axes": axes}[measure_name]
        body = self.SHAPES[shape_name]
        seed = sorted(self.SHAPES).index(shape_name) * 2 + (measure_name == "axes") + 900
        est = mc_missing(body, 1.0, measure, 1500, seed=seed)
        target = missing_probability(body, 1.0, measure)
        assert abs(est.mean - target) <= 4.0 * max(est.stderr, 1e-6)

    def test_rigid_motion_invariance_of_means(self, iso, unit_square):
        n = 1500
        est = mc_missing(unit_square, 1.0, iso, n, seed=71)
        moved = rotate(translate(unit_square, (2.0, 1.0)), 0.7, about=(0.0, 0.0))
        est_moved = mc_missing(moved, 1.0, iso, n, seed=72)
        se = math.sqrt(est.stderr**2 + est_moved.stderr**2)
        assert abs(est.mean - est_moved.mean) <= 4.0 * se


class TestIncrementCheck:
    def test_zero_step_zero_increment(self, iso, unit_square):
        rep = increment_check(unit_square, 1.0, 0.0, iso, 200, seed=5)
        assert rep.increment == 0.0 and rep.monotone and rep.rate_ratio == 0.0

    def test_bound_holds_on_example(self):
        assert_check("capacity.increment_bound")

    @pytest.mark.parametrize("n", [0, -2])
    def test_needs_a_replication(self, iso, unit_square, n):
        # The one replication loop rejects n < 1 for every estimator.
        far = translate(unit_square, (3.0, 0.0))
        calls = (
            lambda: increment_check(unit_square, 1.0, 0.5, iso, n, seed=5),
            lambda: mc_missing(unit_square, 1.0, iso, n, seed=5),
            lambda: mc_joint(unit_square, far, 1.0, iso, n, seed=5),
        )
        for call in calls:
            with pytest.raises(ValueError, match="need at least one replication"):
                call()

    def test_monotone_in_time_with_coupled_seeds(self, iso, unit_square):
        # Coupled runs share replicate seeds, so hit fractions are ordered.
        w = default_window(unit_square)
        from stitlab.stit import SimulationParams, first_hit_time, mix_seed, simulate

        n = 400
        taus = [
            first_hit_time(
                simulate(SimulationParams(window=w, time=2.0, measure=iso, seed=mix_seed(9, i))),
                unit_square,
            )
            for i in range(n)
        ]
        fractions = [sum(1 for t in taus if t <= a) / n for a in (0.5, 1.0, 2.0)]
        assert fractions == sorted(fractions)
