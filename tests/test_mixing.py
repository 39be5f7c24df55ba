from __future__ import annotations

import math

import pytest
from scipy.integrate import quad

from conftest import assert_check, rotate
from stitlab.checks import closed_form_configs, first_split_terms, simpson
from stitlab.capacity import missing_probability
from stitlab.geometry import CompactSet, ConvexPolygon, Direction, box, regular_polygon, translate
from stitlab.measure import DirectionalMeasure, hit_mass, separating_mass
from stitlab.mixing import (
    MixingRow,
    NoPowerLawError,
    SweepConfig,
    closed_form_error_bound,
    closed_form_ratio_minus_one,
    fit_decay_exponent,
    joint_missing_closed_form,
    mixing_constant,
    sweep,
    sweep_to_csv,
    translate_body,
)

E1 = Direction(1.0, 0.0)


def quadrature_joint(body_a, body_b, time, measure):
    """Independent oracle: adaptive integration of the first-split identity."""
    sep, f = first_split_terms(body_a, body_b, time, measure)
    value, _ = quad(f, 0.0, time, epsabs=1e-15, epsrel=1e-13, limit=200)
    return sep * value


def _product(body_a, body_b, time, measure):
    return math.exp(-time * (hit_mass(measure, body_a) + hit_mass(measure, body_b)))


UNIT_VSEG = ConvexPolygon(((0.0, -0.5), (0.0, 0.5)))


class TestClosedForm:
    def test_touching_hulls_give_zero(self, iso):
        assert joint_missing_closed_form(box(0, 0, 1, 1), box(1, 0, 2, 1), 1.0, iso) == 0.0

    def test_point_pair_value(self, iso):
        a = ConvexPolygon(((0.0, 0.0),))
        for L, t in ((1.0, 1.0), (3.0, 0.5), (0.25, 2.0)):
            b = ConvexPolygon(((L, 0.0),))
            got = joint_missing_closed_form(a, b, t, iso)
            assert math.isclose(got, 1.0 - math.exp(-2.0 * t * L), rel_tol=1e-12)

    def test_matches_quadrature_on_random_configs(self):
        assert_check("mixing.closed_form_quadrature")
        # The check's Simpson rule against scipy's adaptive quad, whose
        # requested relative accuracy is 1e-13.
        worst = 0.0
        for a, b, time, measure in closed_form_configs():
            _, f = first_split_terms(a, b, time, measure)
            want, _ = quad(f, 0.0, time, epsabs=1e-15, epsrel=1e-13, limit=200)
            worst = max(worst, abs(simpson(f, 0.0, time) - want) / want)
        assert worst <= 1e-13, worst

    def test_small_rate_gap_series_branch(self, iso):
        # A segment plus a point close to its end makes the hull barely larger
        # than the parts, driving the rate gap towards zero.
        seg = ConvexPolygon(((0.0, 0.0), (1.0, 0.0)))
        for eps in (1e-7, 1e-9, 1e-12):
            point = ConvexPolygon(((1.0 + eps, 0.0),))
            got = joint_missing_closed_form(seg, point, 1.0, iso)
            want = quadrature_joint(seg, point, 1.0, iso)
            assert got >= 0.0
            assert abs(got - want) <= 1e-10 * max(want, 1e-300)
            ratio_want = want / _product(seg, point, 1.0, iso) - 1.0
            ratio_got = closed_form_ratio_minus_one(seg, point, 1.0, iso)
            assert math.isclose(ratio_got, ratio_want, rel_tol=1e-9)

    def test_disconnected_rejected(self, iso):
        from stitlab.geometry import CompactSet

        k = CompactSet.of(box(0, 0, 1, 1), box(3, 0, 4, 1))
        with pytest.raises(ValueError, match="connected"):
            joint_missing_closed_form(k, box(8, 0, 9, 1), 1.0, iso)


class TestTranslateBody:
    def test_moves_every_piece_and_keeps_the_type(self):
        t = (2.5, -1.0)
        moved = translate_body(UNIT_VSEG, t)
        assert type(moved) is ConvexPolygon and moved == translate(UNIT_VSEG, t)
        pieces = (box(0, 0, 1, 1), box(3, 0, 4, 1))
        assert translate_body(CompactSet(pieces), t) == CompactSet(tuple(translate(p, t) for p in pieces))
        assert translate_body(CompactSet(pieces[:1]), t) == CompactSet((translate(pieces[0], t),))


class TestBoundsAndConstants:
    def test_error_bound_value(self, iso):
        a = UNIT_VSEG
        b = translate(a, (10.0, 0.0))
        got = closed_form_error_bound(a, b, 1.0, iso)
        assert math.isclose(got, math.exp(-22.0), rel_tol=1e-9)
        assert got <= 1e-8

    def test_chi_square_pair_value(self, iso, unit_square):
        got = mixing_constant(unit_square, unit_square, 1.0, iso)
        want = 2.0 * 4.0 * 5.0 * math.exp(-4.0) + 8.0
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_chi_rigid_motion_invariance(self, iso, unit_square):
        moved = rotate(translate(unit_square, (5.0, 2.0)), 1.2, about=(0.0, 0.0))
        a = mixing_constant(unit_square, unit_square, 1.0, iso)
        b = mixing_constant(moved, moved, 1.0, iso)
        assert abs(a - b) <= 1e-9 * a

    def test_chi_positive_and_finite_at_small_time(self, iso, unit_square):
        got = mixing_constant(unit_square, unit_square, 1e-12, iso)
        assert 0.0 < got < math.inf


class TestSweep:
    def default_config(self, measure, direction=E1, mc_n=None, distances=(5, 10, 25, 50, 100, 200, 400)):
        return SweepConfig(
            body_a=UNIT_VSEG,
            body_b=UNIT_VSEG,
            direction=direction,
            distances=tuple(float(h) for h in distances),
            time=1.0,
            measure=measure,
            seed=99,
            mc_n=mc_n,
        )

    def test_rows_complete_and_consistent(self, iso):
        rows = sweep(self.default_config(iso))
        assert len(rows) == 7
        for r in rows:
            assert not r.overlap
            assert 0.0 <= r.joint_gamma_exact <= 1.0
            assert 0.0 <= r.product_exact <= 1.0
            assert r.asymptote == pytest.approx(1.0 / (r.h_norm * r.zeta))
            assert r.ratio_minus_one == pytest.approx(
                r.joint_gamma_exact / r.product_exact - 1.0
            )

    def test_sandwich_along_sweep(self, iso):
        for r in sweep(self.default_config(iso)):
            body_b = translate_body(UNIT_VSEG, (r.h_norm, 0.0))
            sep = separating_mass(iso, UNIT_VSEG, body_b)
            from stitlab.geometry import convex_hull

            hull = convex_hull(list(UNIT_VSEG.vertices) + list(body_b.vertices))
            whole = hit_mass(iso, hull)
            assert sep <= whole + 1e-9
            assert whole - sep <= hit_mass(iso, UNIT_VSEG) * 2.0 + 1e-9

    def test_covariance_upper_bound_along_sweep(self, iso, axes):
        # |joint - product| + complement bound <= 1.1 * chi / (h * zeta).
        for measure in (iso, axes):
            rows = sweep(self.default_config(measure))
            for r in rows[1:]:
                lhs = abs(r.joint_gamma_exact - r.product_exact) + r.gamma_complement_bound
                assert lhs <= 1.1 * r.chi_bound / (r.h_norm * r.zeta)

    @pytest.mark.parametrize("case", ["iso-e1", "axes-e1", "axes-diagonal"])
    def test_ratio_minus_one_exact_on_segment_sweeps(self, iso, axes, case):
        # (c* - sep e^{-d}) / d at t = 1 with sep = c* + d; c* and d in closed
        # form: crossed belt for the isotropic pair, common projected range
        # for the axis pairs.
        diag = Direction(1.0, 1.0)
        perp = ConvexPolygon(((-0.5 * diag.y, 0.5 * diag.x), (0.5 * diag.y, -0.5 * diag.x)))
        body, direction, measure, exact = {
            "iso-e1": (UNIT_VSEG, E1, iso, lambda h: (2.0 / (math.hypot(h, 1.0) + h), 2.0 * h - 2.0)),
            "axes-e1": (UNIT_VSEG, E1, axes, lambda h: (0.5, (h - 1.0) / 2.0)),
            "axes-diagonal": (perp, diag, axes, lambda h: (0.0, (h - 1.0) / math.sqrt(2.0))),
        }[case]
        config = SweepConfig(
            body_a=body,
            body_b=body,
            direction=direction,
            distances=(5.0, 10.0, 25.0, 50.0, 100.0, 200.0, 400.0),
            time=1.0,
            measure=measure,
        )
        for r in sweep(config):
            c_star, d = exact(r.h_norm)
            want = (c_star - (c_star + d) * math.exp(-d)) / d
            assert math.isclose(r.ratio_minus_one, want, rel_tol=1e-9)

    @pytest.mark.parametrize(
        "case", ["segments", "unit-square", "64-gon", "point", "two-piece"]
    )
    def test_rows_equal_pair_functions(self, iso, axes, case):
        # Every closed-form field of a row is the public per-pair function's
        # value, bit for bit; the first distance of each grid is an overlap row.
        body_a, body_b, direction = {
            "segments": (UNIT_VSEG, UNIT_VSEG, Direction(0.0, 1.0)),
            "unit-square": (box(0, 0, 1, 1), box(0, 0, 1, 1), Direction(2.0, 1.0)),
            "64-gon": (regular_polygon(64), regular_polygon(64), E1),
            "point": (ConvexPolygon(((0.0, 0.0),)), box(-1, -1, 1, 1), E1),
            "two-piece": (CompactSet.of(box(0, 0, 1, 1), box(1, 0, 2, 1)), UNIT_VSEG, E1),
        }[case]
        mixed = DirectionalMeasure(
            atoms=tuple(
                (Direction.from_angle(theta), w)
                for theta, w in ((0.0, 0.5), (math.pi, 0.5), (1.0, 0.4), (1.0 + math.pi, 0.4))
            ),
            isotropic_mass=math.pi,
        )
        for measure in (iso, axes, mixed):
            config = SweepConfig(body_a, body_b, direction, (0.5, 3.0, 8.0), 0.7, measure)
            rows = sweep(config)
            assert [r.overlap for r in rows] == [True, False, False]
            for r in rows[1:]:
                b = translate_body(body_b, (r.h_norm * direction.x, r.h_norm * direction.y))
                args = (body_a, b, config.time, measure)
                assert r.product_exact == missing_probability(body_a, config.time, measure) * (
                    missing_probability(b, config.time, measure)
                )
                assert r.joint_gamma_exact == joint_missing_closed_form(*args)
                assert r.ratio_minus_one == closed_form_ratio_minus_one(*args)
                assert r.gamma_complement_bound == closed_form_error_bound(*args)
                assert r.chi_bound == mixing_constant(*args)

    def test_overlap_rows_flagged(self, iso):
        config = SweepConfig(
            body_a=box(0, 0, 1, 1),
            body_b=box(0, 0, 1, 1),
            direction=E1,
            distances=(0.5, 3.0),
            time=1.0,
            measure=iso,
        )
        rows = sweep(config)
        assert rows[0].overlap and rows[0].joint_gamma_exact is None
        assert not rows[1].overlap

    def test_strictly_increasing_distances_enforced(self, iso):
        with pytest.raises(ValueError, match="increasing"):
            SweepConfig(
                body_a=UNIT_VSEG,
                body_b=UNIT_VSEG,
                direction=E1,
                distances=(5.0, 5.0),
                time=1.0,
                measure=iso,
            )

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_distances_finite_and_positive(self, iso, bad):
        with pytest.raises(ValueError, match="finite and > 0"):
            SweepConfig(
                body_a=UNIT_VSEG,
                body_b=UNIT_VSEG,
                direction=E1,
                distances=(bad, 2.0) if bad <= 0.0 else (2.0, bad),
                time=1.0,
                measure=iso,
            )

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_time_positive(self, iso, bad):
        with pytest.raises(ValueError, match="time parameter must be positive"):
            SweepConfig(
                body_a=UNIT_VSEG,
                body_b=UNIT_VSEG,
                direction=E1,
                distances=(2.0, 3.0),
                time=bad,
                measure=iso,
            )

    def test_mc_spot_check_small_h(self):
        assert_check("mixing.joint_mc_spot")

    def test_csv_layout(self, iso):
        rows = sweep(self.default_config(iso, distances=(5.0, 10.0)))
        text = sweep_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("h_norm,zeta,product_exact,joint_gamma_exact")
        assert len(lines) == 3
        assert len(lines[1].split(",")) == 10


class TestFitDecayExponent:
    def make_rows(self, hs, ratios):
        return [
            MixingRow(
                h_norm=h,
                direction=E1,
                zeta=2.0,
                asymptote=1.0 / (2.0 * h),
                overlap=False,
                product_exact=0.5,
                joint_gamma_exact=0.5 * (1.0 + r),
                ratio_minus_one=r,
                gamma_complement_bound=0.0,
                chi_bound=1.0,
            )
            for h, r in zip(hs, ratios)
        ]

    def test_exact_inverse_law_gives_minus_one(self):
        assert_check("mixing.fit_synthetic")

    def test_constant_rows_give_zero_slope(self):
        rows = self.make_rows([10.0, 20.0, 40.0, 80.0], [0.3, 0.3, 0.3, 0.3])
        slope, _, _ = fit_decay_exponent(rows)
        assert abs(slope) <= 1e-12

    def test_uses_far_half_only(self):
        hs = [10.0, 20.0, 40.0, 80.0]
        # Near rows corrupted; the far half still carries the clean law.
        rows = self.make_rows(hs, [5.0, 9.9, 1.0 / 40.0, 1.0 / 80.0])
        slope, _, _ = fit_decay_exponent(rows)
        assert abs(slope + 1.0) <= 1e-9

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="two usable rows"):
            fit_decay_exponent(self.make_rows([10.0], [0.1]))

    def test_criterion_7_diagonal_sweep_has_no_power_law(self, axes):
        # Axis measure, segments perpendicular to the diagonal moved along
        # it: c* = 0, so every row is ratio - 1 = -exp(-(h - 1) / sqrt(2)).
        diag = Direction(1.0, 1.0)
        perp = ConvexPolygon(((-0.5 * diag.y, 0.5 * diag.x), (0.5 * diag.y, -0.5 * diag.x)))
        rows = sweep(
            SweepConfig(
                body_a=perp,
                body_b=perp,
                direction=diag,
                distances=(5.0, 10.0, 25.0, 50.0, 100.0, 200.0, 400.0),
                time=1.0,
                measure=axes,
            )
        )
        with pytest.raises(NoPowerLawError, match="no power-law decay"):
            fit_decay_exponent(rows)

    @pytest.mark.parametrize("bad", [0.0, -1e-3])
    def test_non_positive_far_row_refused(self, bad):
        hs = [10.0, 20.0, 40.0, 80.0]
        with pytest.raises(NoPowerLawError):
            fit_decay_exponent(self.make_rows(hs, [0.1, 0.05, 0.025, bad]))

    def test_non_positive_near_row_ignored(self):
        hs = [10.0, 20.0, 40.0, 80.0]
        slope, _, _ = fit_decay_exponent(self.make_rows(hs, [-1.0, 0.0, 1.0 / 40.0, 1.0 / 80.0]))
        assert abs(slope + 1.0) <= 1e-9
