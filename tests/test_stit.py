from __future__ import annotations

import builtins
import hashlib
import itertools
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_check, centroid, random_convex_polygon, rotate
import stitlab.checks as checks
import stitlab.stit as stit_mod
from stitlab.capacity import (
    Estimate,
    default_window,
    increment_check,
    mc_joint,
    mc_missing,
    replicate_first_hits,
)
from stitlab.checks import window_tree_first_hits
from stitlab.cli import main as cli_main
from stitlab.geometry import (
    EPS,
    CompactSet,
    ConvexPolygon,
    Direction,
    GeometryError,
    Hyperplane,
    area,
    box,
    chord,
    clip,
    contains_point,
    convex_hull,
    dilate,
    hit_reach,
    hull_of,
    interior_clearance,
    polygon_intersection,
    polygon_to_json,
    projection_bounds,
    regular_polygon,
    segment_hits_body,
    translate,
)
from stitlab.measure import (
    DirectionalMeasure,
    axis_measure,
    double_hit_mass,
    hit_mass,
    isotropic_measure,
    separating_mass,
)
from stitlab.mixing import SweepConfig, sweep, sweep_to_csv
from stitlab.stit import (
    Edge,
    HitQuery,
    QueryBody,
    SimulationParams,
    Tessellation,
    _near_test,
    cell_stream,
    first_hit_time,
    hits_internal,
    mix_seed,
    nest,
    rescale,
    restrict,
    simulate,
    tessellation_from_json,
    tessellation_to_json,
)


def params(window, time, measure, seed):
    return SimulationParams(window=window, time=time, measure=measure, seed=seed)


class TestStreams:
    def test_mix_seed_stable(self):
        assert mix_seed(1, 2) == mix_seed(1, 2)
        assert mix_seed(1, 2) != mix_seed(2, 1)
        assert 0 <= mix_seed(123, 2**200 + 7) < 2**64

    def test_stream_deterministic_and_uniform(self):
        s1 = cell_stream(7, 5)
        s2 = cell_stream(7, 5)
        draws = [s1.random() for _ in range(1000)]
        assert draws == [s2.random() for _ in range(1000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert abs(np.mean(draws) - 0.5) < 0.05

    def test_exponential_mean(self):
        s = cell_stream(3, 1)
        xs = [s.exponential(2.0) for _ in range(20000)]
        assert abs(np.mean(xs) - 2.0) < 3.0 * 2.0 / math.sqrt(len(xs))


class TestSimulate:
    def test_tiny_time_single_cell(self, iso):
        t = simulate(params(box(0, 0, 10, 10), 1e-12, iso, 42))
        assert len(t.live_cells) == 1
        assert t.live_cells[0].polygon == t.window

    def test_zero_time_single_cell(self, iso):
        t = simulate(params(box(0, 0, 4, 4), 0.0, iso, 9))
        assert len(t.live_cells) == 1 and not t.internal_edges

    def test_area_conservation(self):
        assert_check("stit.area_partition")

    def test_determinism_bit_identical(self):
        assert_check("stit.determinism")

    def test_seed_changes_output(self, iso):
        a = simulate(params(box(0, 0, 5, 5), 1.0, iso, 1))
        b = simulate(params(box(0, 0, 5, 5), 1.0, iso, 2))
        assert a != b

    def test_cells_have_disjoint_interiors(self, iso):
        t = simulate(params(box(0, 0, 6, 6), 1.0, iso, 7))
        cells = t.live_cells
        rng = np.random.default_rng(0)
        idx = rng.integers(0, len(cells), size=(40, 2))
        for i, j in idx:
            if i == j:
                continue
            inter = polygon_intersection(cells[i].polygon, cells[j].polygon)
            if inter is not None:
                assert area(inter) < 1e-9 * 36.0

    def test_edges_inside_window(self, iso):
        t = simulate(params(box(0, 0, 6, 6), 1.0, iso, 11))
        assert t.internal_edges
        for e in t.internal_edges:
            assert contains_point(t.window, e.a) and contains_point(t.window, e.b)

    def test_prefix_property_of_longer_runs(self):
        assert_check("stit.prefix_coupling")

    @pytest.mark.parametrize(
        "mutant",
        [
            # Children born one ulp after their parent's death.
            lambda t: replace(t, cells=tuple(
                c if c.id == 1 else replace(c, birth_time=math.nextafter(c.birth_time, math.inf)) for c in t.cells
            )),
            # The live cell with the lowest label left out.
            lambda t: replace(t, cells=t.cells[1:]),
        ],
        ids=["late-births", "dropped-cell"],
    )
    def test_prefix_check_fails_on_mutants(self, monkeypatch, mutant):
        monkeypatch.setattr(checks, "simulate", lambda p: mutant(simulate(p)))
        ok, detail = checks.check_prefix_coupling()
        assert not ok, detail

    def test_missing_probability_matches_analytic(self):
        assert_check("capacity.mc_matches_analytic")

    def test_bad_window_rejected(self, iso):
        with pytest.raises(GeometryError, match="positive area"):
            simulate(params(ConvexPolygon(((0.0, 0.0), (1.0, 0.0))), 1.0, iso, 1))

    def test_event_cap(self, iso, monkeypatch):
        monkeypatch.setattr(stit_mod, "EVENT_CAP", 5)
        with pytest.raises(ValueError, match="event cap"):
            simulate(params(box(0, 0, 10, 10), 2.0, iso, 3))

    def test_undividable_cell_is_a_geometry_error(self, iso, axes):
        # At a = 2**30 on a 2**-28 window, cells shrink until every line drawn
        # leaves a sliver thinner than EPS on one side.
        side = 4.0 * 2.0**-30
        for measure, seed in ((iso, 0), (axes, 0)):
            with pytest.raises(GeometryError, match="could not draw a dividing line"):
                simulate(params(box(0, 0, side, side), 2.0**30, measure, seed))

    def test_axis_measure_cells_are_boxes(self, axes):
        t = simulate(params(box(0, 0, 4, 4), 1.0, axes, 15))
        for c in t.live_cells:
            assert len(c.polygon.vertices) == 4
            xs = sorted({round(v[0], 12) for v in c.polygon.vertices})
            ys = sorted({round(v[1], 12) for v in c.polygon.vertices})
            assert len(xs) == 2 and len(ys) == 2


class TestEventCalls:
    """Each event draws lines (``stit._sample_line``) on the popped cell until
    one divides it, then makes one ``stit.chord`` call of that cell by that
    line. If the run goes on, one ``minus`` and one ``plus`` ``stit.clip``
    call of the same cell by the same line follow, both non-None; a run that
    stops at the chord clips nothing. The benchmark's tracer counts division
    events on ``chord`` and reads clips per event from ``clip``."""

    @staticmethod
    def record(monkeypatch):
        calls = []
        sample_line, clip, chord = stit_mod._sample_line, stit_mod.clip, stit_mod.chord

        def line_spy(measure, poly, law, gen):
            plane = sample_line(measure, poly, law, gen)
            calls.append(("line", poly, plane))
            return plane

        def clip_spy(poly, plane, side):
            out = clip(poly, plane, side)
            calls.append(("clip", poly, plane, side, out))
            return out

        def chord_spy(poly, plane):
            calls.append(("chord", poly, plane))
            return chord(poly, plane)

        monkeypatch.setattr(stit_mod, "_sample_line", line_spy)
        monkeypatch.setattr(stit_mod, "clip", clip_spy)
        monkeypatch.setattr(stit_mod, "chord", chord_spy)
        return calls

    @staticmethod
    def events(calls):
        """(events, draws, stops) in the call log, checking its shape: per
        event one or more lines drawn on one cell, one chord of that cell by
        the last of them, then either a minus and a plus clip of that cell by
        that line, both non-None, or the next run's first draw or the log's
        end. ``stops`` lists the (cell, line) of each chord a run stopped at."""
        events = draws = i = 0
        stops = []
        while i < len(calls):
            poly = calls[i][1]
            while i < len(calls) and calls[i][0] == "line":
                assert calls[i][1] is poly
                plane = calls[i][2]
                draws += 1
                i += 1
            kind, poly2, plane2 = calls[i]
            assert kind == "chord" and poly2 is poly and plane2 is plane
            events += 1
            i += 1
            if i < len(calls) and calls[i][0] == "clip":
                (k1, poly1, plane1, side1, minus), (k2, poly2, plane2, side2, plus) = calls[i], calls[i + 1]
                assert (k1, side1, k2, side2) == ("clip", "minus", "clip", "plus")
                assert poly1 is poly2 is poly and plane1 is plane2 is plane
                assert minus is not None and plus is not None
                i += 2
            else:
                stops.append((poly, plane))
        return events, draws, stops

    @pytest.mark.parametrize("measure_name", ["isotropic", "axis", "mixed"])
    def test_simulate(self, measure_name, monkeypatch):
        calls = self.record(monkeypatch)
        t = simulate(params(box(0, 0, 8, 8), 1.5, QUERY_MEASURES[measure_name], 21))
        events, draws, stops = self.events(calls)
        # Each event turns one live cell into two.
        assert events == len(t.cells) - 1 > 10 and draws >= events and stops == []

    def test_query_driven_and_nested_runs(self, iso, monkeypatch):
        square = box(0.0, 0.0, 1.0, 1.0)
        query = HitQuery(box(-1.0, -1.0, 2.0, 2.0), [square])
        calls = self.record(monkeypatch)
        for seed in range(5):
            query.first_hit_nested(0.3, 0.3, iso, seed, seed)
        events, _, _ = self.events(calls)
        assert events > 0

    def test_a_run_stops_at_the_hitting_chord(self, iso, monkeypatch):
        # A run that returns at a hit clips nothing of the hitting event: the
        # last logged call of first_hit is that event's chord.
        square = box(0.0, 0.0, 1.0, 1.0)
        query = HitQuery(box(-1.0, -1.0, 2.0, 2.0), [square])
        calls = self.record(monkeypatch)
        outer = inner = 0
        for seed in range(40):
            for nested in (False, True):
                calls.clear()
                if nested:
                    hit = query.first_hit_nested(0.3, 0.3, iso, seed, seed)
                else:
                    hit = query.first_hit(0.3, iso, seed)
                _, _, stops = self.events(calls)
                if hit == math.inf:
                    assert stops == []
                    continue
                assert stops and all(segment_hits_body(*chord(*stop), square) for stop in stops)
                if hit <= 0.3:
                    assert calls[-1] == ("chord", *stops[-1]) and len(stops) == 1
                    outer += 1
                else:
                    inner += 1
        assert outer > 10 and inner > 0


class TestAcceptedLine:
    """``_divisions`` accepts a drawn line exactly when both of its ``clip``
    sides are non-None. Scripted lines at and next to the EPS margins of
    slivers, EPS-thin cells and boxes, near and far from the origin, run
    through the real loop."""

    CELLS = {
        "sliver": ConvexPolygon(((0.0, 0.0), (1.0, -1e-5), (1.0, 1e-5))),
        "thin": box(0.0, 0.0, 1.0, 2.5 * EPS),
        "box": box(0.0, 0.0, 1.0, 1.0),
    }
    ANGLES = (0.0, math.pi / 2, 1e-7, 0.3, 2.0, 4.0)

    @staticmethod
    def lines(cell, theta):
        """Lines of normal angle theta at hi - k EPS and lo + k EPS, and their ulp neighbours."""
        u = Direction.from_angle(theta)
        lo, hi = projection_bounds(cell.vertices, u.x, u.y)
        out = []
        for k in (0.0, 0.5, 1.0, 1.5, 2.0):
            for c0 in (hi - k * EPS, lo + k * EPS):
                for c in (math.nextafter(c0, -math.inf), c0, math.nextafter(c0, math.inf)):
                    out.append(Hyperplane(c, u) if c >= 0.0 else Hyperplane(-c, Direction(-u.x, -u.y)))
        return out

    @staticmethod
    def divides(cell, plane):
        # clip returns None only from its offset test; a side whose loop then
        # fails to canonicalise (an origin defect) is not None.
        for side in ("minus", "plus"):
            try:
                if clip(cell, plane, side) is None:
                    return False
            except GeometryError:
                pass
        return True

    @staticmethod
    def first_event(cell, script, monkeypatch):
        """The lines the loop draws from ``script`` in the window ``cell`` until
        its first chord, or None when 64 refused lines raise its named error."""
        drawn = []
        lines = itertools.cycle(script)

        def scripted(measure, poly, law, gen):
            assert poly is cell
            drawn.append(next(lines))
            return drawn[-1]

        monkeypatch.setattr(stit_mod, "_sample_line", scripted)
        iso = isotropic_measure()
        run = stit_mod._divisions(params(cell, 1e9, iso, 0), [], None, stit_mod._hitting_law(iso, cell))
        try:
            _, cut = next(run)
        except GeometryError as exc:
            assert "could not draw a dividing line" in str(exc) and len(drawn) == 64
            return None
        assert cut == chord(cell, drawn[-1])
        return drawn

    @pytest.mark.parametrize("name", sorted(CELLS))
    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_accepts_the_first_line_both_clips_keep(self, name, offset, monkeypatch):
        cell = translate(self.CELLS[name], (offset, offset))
        accepted = refused = 0
        for theta in self.ANGLES:
            lines = self.lines(cell, theta)
            for plane in lines:
                divides = self.divides(cell, plane)
                assert self.first_event(cell, [plane], monkeypatch) == ([plane] if divides else None)
                accepted += divides
                refused += not divides
            for script in (lines, lines[::-1]):
                first = next((i for i, plane in enumerate(script) if self.divides(cell, plane)), None)
                expected = None if first is None else script[: first + 1]
                assert self.first_event(cell, script, monkeypatch) == expected
        assert accepted > 0 and refused > 0


class TestRequireInterior:
    """The bounding-circle pre-test does not change which bodies are refused."""

    def test_matches_interior_clearance(self):
        rng = np.random.default_rng(3)
        refused = 0
        for k in range(600):
            offset = (0.0, 1e4, 1e6)[k // 3 % 3]
            window = translate(regular_polygon(int(rng.integers(3, 40)), 2.0), (offset, offset))
            (ax, ay), (bx, by) = window.vertices[:2]
            ex, ey = bx - ax, by - ay
            nx, ny = -ey / math.hypot(ex, ey), ex / math.hypot(ex, ey)
            # A point on the first edge, and one a few EPS inside or outside it.
            t, d = rng.uniform(0.2, 0.8), rng.uniform(-3e-9, 3e-9) + 1e-9
            foot = (ax + t * ex, ay + t * ey)
            tip = (foot[0] + d * nx, foot[1] + d * ny)
            if k % 3 == 0:
                body = translate(regular_polygon(16, rng.uniform(0.1, 2.2)), (offset, offset))
            elif k % 3 == 1:
                body = convex_hull([tip, (offset - 0.2, offset), (offset + 0.2, offset)])
            else:
                # A segment along the inward normal: its bounding circle touches the edge line at the tip.
                body = ConvexPolygon((tip, (tip[0] + 0.5 * nx, tip[1] + 0.5 * ny)))
            verts = [v for piece in body.pieces for v in piece.vertices]
            expected = interior_clearance(window, verts) <= EPS
            try:
                stit_mod.require_interior(window, body)
                raised = False
            except GeometryError:
                raised = True
            assert raised == expected
            refused += raised
        assert 0 < refused < 600


class TestRestrict:
    def test_identity_on_full_window(self):
        assert_check("stit.restrict_identity")

    def test_area_conservation(self, iso):
        t = simulate(params(box(0, 0, 4, 4), 0.8, iso, 33))
        w2 = box(0.5, 0.5, 3.0, 2.5)
        r = restrict(t, w2)
        assert abs(sum(area(c.polygon) for c in r.live_cells) - area(w2)) <= 1e-6 * area(w2)

    def test_edges_interior_to_subwindow(self, iso):
        t = simulate(params(box(0, 0, 4, 4), 1.0, iso, 37))
        w2 = box(1.0, 1.0, 3.0, 3.0)
        r = restrict(t, w2)
        for e in r.internal_edges:
            mid = ((e.a[0] + e.b[0]) / 2, (e.a[1] + e.b[1]) / 2)
            assert interior_clearance(w2, [mid]) > 0

    def test_not_contained_rejected(self, iso):
        t = simulate(params(box(0, 0, 2, 2), 0.5, iso, 39))
        with pytest.raises(GeometryError, match="not contained"):
            restrict(t, box(1.0, 1.0, 3.0, 3.0))

    def test_small_window_clips_at_length_tolerance(self, iso):
        # Edges 2e-5 long: a tolerance of EPS in the units of unnormalised
        # edge normals reached 5e-5 past them and kept cells four times the
        # sub-window's area.
        t = rescale(simulate(params(box(0, 0, 4, 4), 2.0, iso, 5)), 1e-5)
        w2 = box(1e-5, 1e-5, 3e-5, 3e-5)
        r = restrict(t, w2)
        assert abs(sum(area(c.polygon) for c in r.cells) - area(w2)) <= 1e-4 * area(w2)
        assert interior_clearance(w2, [v for c in r.cells for v in c.polygon.vertices]) >= -EPS


class TestNest:
    def test_zero_extra_time_keeps_geometry(self, iso):
        t = simulate(params(box(0, 0, 3, 3), 0.7, iso, 51))
        z = nest(t, 1e-12, iso, seed=99)
        assert sorted(c.polygon.vertices for c in z.live_cells) == sorted(
            c.polygon.vertices for c in t.live_cells
        )
        assert z.time == pytest.approx(0.7 + 1e-12)

    def test_area_conservation(self, iso):
        t = simulate(params(box(0, 0, 3, 3), 0.5, iso, 53))
        z = nest(t, 0.5, iso, seed=101)
        assert abs(sum(area(c.polygon) for c in z.live_cells) - 9.0) <= 1e-6 * 9.0
        assert len(z.live_cells) >= len(t.live_cells)

    def test_keeps_original_edges(self, iso):
        t = simulate(params(box(0, 0, 3, 3), 0.5, iso, 55))
        z = nest(t, 0.5, iso, seed=103)
        zset = {(e.a, e.b) for e in z.internal_edges}
        assert all((e.a, e.b) in zset for e in t.internal_edges)

    def test_deterministic(self, iso):
        t = simulate(params(box(0, 0, 3, 3), 0.5, iso, 57))
        assert nest(t, 0.5, iso, seed=7) == nest(t, 0.5, iso, seed=7)


class TestRescaleAndQueries:
    def test_rescale_scales_coordinates_only(self, iso):
        t = simulate(params(box(0, 0, 2, 2), 0.8, iso, 63))
        s = rescale(t, 2.5)
        assert s.time == t.time
        assert area(s.window) == pytest.approx(6.25 * area(t.window))
        assert len(s.live_cells) == len(t.live_cells)
        assert math.isclose(
            hit_mass(iso, s.live_cells[0].polygon),
            2.5 * hit_mass(iso, t.live_cells[0].polygon),
        )
        for bad in (0.0, -2.0, math.nan, math.inf):
            with pytest.raises(GeometryError):
                rescale(t, bad)

    def test_power_of_two_round_trip_is_exact(self, iso):
        # Halving takes some cells' features below EPS; a power of two scales
        # exactly, so no vertex is stripped and doubling restores every cell.
        t = simulate(params(box(0, 0, 20, 20), 2.0, iso, 31279095855))
        half = rescale(t, 0.5)
        assert [len(c.polygon.vertices) for c in half.cells] == [len(c.polygon.vertices) for c in t.cells]
        assert rescale(half, 2.0) == t

    def test_hits_internal_empty_tessellation(self, iso):
        t = simulate(params(box(0, 0, 3, 3), 0.0, iso, 65))
        assert not hits_internal(t, box(1, 1, 2, 2))

    def test_shrunken_cell_is_split_free(self, iso):
        t = simulate(params(box(0, 0, 3, 3), 1.0, iso, 67))
        cell = max(t.live_cells, key=lambda c: area(c.polygon))
        cx, cy = centroid(cell.polygon)
        shrunk = ConvexPolygon(
            tuple((cx + 0.9 * (x - cx), cy + 0.9 * (y - cy)) for x, y in cell.polygon.vertices)
        )
        if interior_clearance(t.window, shrunk.vertices) > 1e-9:
            assert not hits_internal(t, shrunk)

    def test_segment_between_cells_is_hit(self, iso):
        t = simulate(params(box(0, 0, 3, 3), 1.0, iso, 69))
        cells = t.live_cells
        assert len(cells) >= 2
        a = centroid(cells[0].polygon)
        b = centroid(cells[1].polygon)
        seg = ConvexPolygon((a, b))
        assert hits_internal(t, seg)

    def test_boundary_query_rejected(self, iso):
        t = simulate(params(box(0, 0, 2, 2), 0.5, iso, 71))
        with pytest.raises(GeometryError, match="interior"):
            hits_internal(t, box(0.0, 0.5, 1.0, 1.5))

    def test_first_hit_time_consistent(self, iso):
        k = box(1.2, 1.2, 1.8, 1.8)
        for i in range(20):
            t = simulate(params(box(0, 0, 3, 3), 1.0, iso, mix_seed(73, i)))
            tau = first_hit_time(t, k)
            assert (tau <= 1.0) == hits_internal(t, k)
            if math.isfinite(tau):
                edges_before = [e for e in t.internal_edges if e.time <= tau]
                t_before = stit_mod.Tessellation(
                    window=t.window,
                    time=t.time,
                    cells=t.cells,
                    internal_edges=tuple(edges_before),
                )
                assert hits_internal(t_before, k)

    def test_compact_set_query(self, iso):
        t = simulate(params(box(0, 0, 3, 3), 1.0, iso, 75))
        k = CompactSet.of(box(0.4, 0.4, 0.6, 0.6), box(2.4, 2.4, 2.6, 2.6))
        assert isinstance(hits_internal(t, k), bool)


class TestJsonRoundTrip:
    def test_roundtrip_identity(self, iso):
        t = simulate(params(box(0, 0, 3, 3), 0.8, iso, 81))
        again = tessellation_from_json(tessellation_to_json(t))
        assert again.window == t.window
        assert again.time == t.time
        assert [c.polygon for c in again.cells] == [c.polygon for c in t.cells]
        assert again.internal_edges == t.internal_edges

    @pytest.mark.parametrize(
        "where, key, value",
        [("cell", "id", "7"), ("cell", "id", 2.9), ("cell", "parent", True), ("cell", "birth", True),
         ("cell", "death", "inf"), ("tess", "time", False), ("edge", "time", "0.5"), ("edge", "a", ["0", 1.0]),
         ("edge", "b", [0.0, 1.0, 2.0])],
        ids=["id-string", "id-float", "parent-bool", "birth-bool", "death-string", "time-bool", "edge-time-string",
             "edge-point-string", "edge-point-triple"],
    )
    def test_fields_take_only_json_numbers(self, iso, where, key, value):
        doc = tessellation_to_json(simulate(params(box(0, 0, 3, 3), 0.8, iso, 81)))
        record = {"tess": doc, "cell": doc["cells"][-1], "edge": doc["internal_edges"][-1]}[where]
        record[key] = value
        with pytest.raises(GeometryError, match=f"^{key!r} has a bad value {re.escape(repr(value))}: "):
            tessellation_from_json(doc)


# ---------------------------------------------------------------------------
# Query-driven runs against whole tessellations


def vertical_segment(x):
    return ConvexPolygon(((x, 0.0), (x, 1.0)))


# Query cases: the bodies whose first hit is asked for, one window each.
QUERY_BODIES = {
    "segment": [ConvexPolygon(((0.0, 0.0), (1.0, 0.0)))],
    "square": [box(0.0, 0.0, 1.0, 1.0)],
    "64-gon": [regular_polygon(64, circumradius=1.0)],
    "point": [ConvexPolygon(((0.3, -0.2),))],
    "disconnected": [CompactSet.of(box(0.0, 0.0, 0.5, 0.5), box(2.0, 0.2, 2.4, 0.9))],
    "pair h=5": [vertical_segment(0.0), vertical_segment(5.0)],
    "pair h=25": [vertical_segment(0.0), vertical_segment(25.0)],
}
QUERY_WINDOWS = [(name, "default") for name in QUERY_BODIES] + [
    (name, "large") for name in ("segment", "square", "64-gon", "point", "disconnected")
]
QUERY_MEASURES = {
    "isotropic": isotropic_measure(),
    "axis": axis_measure(),
    "mixed": DirectionalMeasure(
        atoms=tuple(
            (Direction.from_angle(theta), w)
            for theta, w in ((0.0, 0.5), (math.pi, 0.5), (1.0, 0.4), (1.0 + math.pi, 0.4))
        ),
        isotropic_mass=math.pi,
    ),
}


def query_window(bodies, kind):
    """default_window of the bodies' joint hull, or that dilated by 3 (most cells pruned)."""
    window = default_window(convex_hull([v for b in bodies for v in hull_of(b).vertices]))
    return window if kind == "default" else dilate(window, 3.0)


def full_first_hits(bodies, time, measure, n, seed, window):
    """Reference loop: simulate each whole tessellation and scan its chords."""
    return [
        min(first_hit_time(simulate(params(window, time, measure, mix_seed(seed, i))), b) for b in bodies)
        for i in range(n)
    ]


class TestFirstHitSeedGrid:
    SEEDS = 200

    @pytest.mark.parametrize("measure_name", sorted(QUERY_MEASURES))
    @pytest.mark.parametrize("case,window_kind", QUERY_WINDOWS)
    def test_matches_full_simulation(self, case, window_kind, measure_name):
        bodies = QUERY_BODIES[case]
        measure = QUERY_MEASURES[measure_name]
        window = query_window(bodies, window_kind)
        query = HitQuery(window, bodies)
        value_mismatch = indicator_mismatch = hits = 0
        for seed in range(self.SEEDS):
            tess = simulate(params(window, 0.6, measure, mix_seed(9100, seed)))
            expected = min(first_hit_time(tess, b) for b in bodies)
            tau = query.first_hit(0.6, measure, mix_seed(9100, seed))
            value_mismatch += tau != expected
            indicator_mismatch += (tau != math.inf) != any(hits_internal(tess, b) for b in bodies)
            hits += tau != math.inf
        assert (value_mismatch, indicator_mismatch) == (0, 0)
        # Both outcomes occur, except where a hit is (almost) impossible or certain.
        if case not in ("point", "64-gon"):
            assert 0 < hits < self.SEEDS

    def test_stops_early_and_prunes(self, iso, monkeypatch):
        # A far pair: the query-driven run divides a small share of the cells.
        bodies = QUERY_BODIES["pair h=25"]
        p = params(query_window(bodies, "default"), 1.0, iso, 5)
        full = len(simulate(p).internal_edges)
        events = []
        original = stit_mod.chord

        def counting(poly, plane):
            events.append(poly)
            return original(poly, plane)

        monkeypatch.setattr(stit_mod, "chord", counting)
        HitQuery(p.window, bodies).first_hit(p.time, p.measure, p.seed)
        assert 0 < len(events) < full / 5

    def test_window_area_checked_once(self, iso, monkeypatch):
        calls = []
        original = stit_mod.area

        def counting(poly):
            calls.append(poly)
            return original(poly)

        monkeypatch.setattr(stit_mod, "area", counting)
        square = box(0.0, 0.0, 1.0, 1.0)
        query = HitQuery(default_window(square), [square])
        assert calls == [query.window]
        for seed in range(20):
            query.first_hit(1.0, iso, mix_seed(9800, seed))
        assert len(calls) == 1
        # Each inner run of a nested query still checks its own cell.
        query.first_hit_nested(0.05, 1.0, iso, mix_seed(9800, 0), mix_seed(9800, 1))
        assert len(calls) > 1

    def test_degenerate_window_rejected(self):
        with pytest.raises(GeometryError, match="simulation window must have positive area"):
            HitQuery(ConvexPolygon(((0.0, 0.0), (2.0, 0.0))), [ConvexPolygon(((1.0, 0.0),))])

    def test_no_bodies_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            HitQuery(box(0, 0, 2, 2), [])

    def test_boundary_query_rejected(self, iso):
        with pytest.raises(GeometryError, match="interior"):
            HitQuery(box(0, 0, 2, 2), [box(1, 1, 1.5, 1.5), box(0.0, 0.5, 1.0, 1.5)])


def full_nested_first_hit(bodies, window, time, extra_time, measure, seed, nest_seed):
    """Reference: nest the whole tessellation, scan its chords; also whether any body is hit."""
    nested = nest(simulate(params(window, time, measure, seed)), extra_time, measure, nest_seed)
    return min(first_hit_time(nested, b) for b in bodies), any(hits_internal(nested, b) for b in bodies)


class TestFirstHitNestedSeedGrid:
    SEEDS = 60

    def assert_matches_nest(self, query, bodies, time, extra_time, measure, seeds):
        """0 value and 0 indicator mismatches; returns (hits, hits made only by inner chords)."""
        value_mismatch = indicator_mismatch = hits = inner_hits = 0
        for seed in range(seeds):
            s, ns = mix_seed(9400, seed), mix_seed(9500, seed)
            expected, hit = full_nested_first_hit(bodies, query.window, time, extra_time, measure, s, ns)
            tau = query.first_hit_nested(time, extra_time, measure, s, ns)
            value_mismatch += tau != expected
            indicator_mismatch += (tau != math.inf) != hit
            hits += tau != math.inf
            inner_hits += tau != math.inf and query.first_hit(time, measure, s) == math.inf
        assert (value_mismatch, indicator_mismatch) == (0, 0)
        return hits, inner_hits

    @pytest.mark.parametrize("measure_name", sorted(QUERY_MEASURES))
    @pytest.mark.parametrize("case,window_kind", QUERY_WINDOWS)
    def test_matches_nest_of_full_simulation(self, case, window_kind, measure_name):
        bodies = QUERY_BODIES[case]
        query = HitQuery(query_window(bodies, window_kind), bodies)
        hits, inner_hits = self.assert_matches_nest(query, bodies, 0.3, 0.3, QUERY_MEASURES[measure_name], self.SEEDS)
        # Outer and inner chords both hit, except on the (unhittable) point.
        assert (hits > 0 and inner_hits > 0) == (case != "point")

    @pytest.mark.parametrize("measure_name", sorted(QUERY_MEASURES))
    @pytest.mark.parametrize(
        "body,time",
        [(box(0.0, 0.0, 1.0, 1.0), 0.5), (box(-0.4, -0.4, 1.4, 1.4), 0.1)],
        ids=["unit square", "square filling the window"],
    )
    def test_body_straddling_many_cells(self, body, time, measure_name):
        # The square meets most outer cells, so the outer run prunes almost
        # none of them before its first hit; inner hits occur as well.
        query = HitQuery(box(-0.5, -0.5, 1.5, 1.5), [body])
        hits, inner_hits = self.assert_matches_nest(query, [body], time, time, QUERY_MEASURES[measure_name], 40)
        assert 0 < inner_hits and hits < 40

    def test_negative_extra_time_rejected(self, iso):
        square = box(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=">= 0"):
            HitQuery(default_window(square), [square]).first_hit_nested(0.5, -0.1, iso, 1, 2)


class TestQueryTraffic:
    """Division events that query-driven runs expand at fixed seeds, counted
    on the division loop's calls (``TestEventCalls.record``). A pruning test
    that keeps fewer cells lowers these counts, and one that keeps more
    raises them. Under the axis measure every cell is a box, and so is each
    reach here, so there the box comparison is exact."""

    SEEDS = 100
    EVENTS = {
        ("segment", "isotropic"): 114,
        ("square", "isotropic"): 119,
        ("64-gon", "isotropic"): 127,
        ("square", "mixed"): 122,
        ("square", "axis"): 93,
        ("pair h=5", "axis"): 278,
        ("pair h=25", "axis"): 784,
        ("pair h=5", "isotropic"): 491,
        ("pair h=25", "isotropic"): 1270,
    }
    NESTED_EVENTS = 204

    @pytest.mark.parametrize("case,measure_name", sorted(EVENTS))
    def test_first_hit(self, case, measure_name, monkeypatch):
        bodies = QUERY_BODIES[case]
        query = HitQuery(query_window(bodies, "default"), bodies)
        calls = TestEventCalls.record(monkeypatch)
        for seed in range(self.SEEDS):
            query.first_hit(1.0, QUERY_MEASURES[measure_name], mix_seed(9600, seed))
        assert TestEventCalls.events(calls)[0] == self.EVENTS[case, measure_name]

    def test_first_hit_nested(self, iso, monkeypatch):
        # The capacity-small benchmark's ``iterate`` configuration.
        query = HitQuery(box(-0.5, -0.5, 1.5, 1.5), QUERY_BODIES["square"])
        calls = TestEventCalls.record(monkeypatch)
        for seed in range(self.SEEDS):
            query.first_hit_nested(0.5, 0.5, iso, mix_seed(9700, 2 * seed), mix_seed(9700, 2 * seed + 1))
        assert TestEventCalls.events(calls)[0] == self.NESTED_EVENTS


# ---------------------------------------------------------------------------
# Prepared query bodies: reach-box prefilter and pruning against the reach


def unfiltered_first_hit_time(tess, body):
    """Reference scan: the predicate on every chord, no prefilter."""
    times = [e.time for e in tess.internal_edges if segment_hits_body(e.a, e.b, body)]
    return min(times, default=math.inf)


def unfiltered_hits_internal(tess, body):
    return any(segment_hits_body(e.a, e.b, body) for e in tess.internal_edges)


# A sliver whose tip angle is 2e-5: contains_point counts points up to
# EPS / sin(1e-5) = 1e-4 past the tip, a hundred times PRUNE_MARGIN.
SLIVER = ConvexPolygon(((0.0, 0.0), (1.0, -1e-5), (1.0, 1e-5)))
SLIVER_WINDOW = box(-1.0, -1.0, 2.0, 1.0)


def chord_tessellation(window, chords):
    """A tessellation with the given (a, b) chords at times 0.1, 0.2, ..."""
    edges = tuple(Edge(a, b, 0.1 * (k + 1)) for k, (a, b) in enumerate(chords))
    return Tessellation(window=window, time=1.0, cells=(), internal_edges=edges)


class TestSliverReach:
    def test_cell_past_the_tip_is_kept(self):
        # Before the reach was used, this cell was pruned although a chord
        # inside it hits the sliver.
        assert contains_point(SLIVER, (-4.5e-5, 0.0))
        assert segment_hits_body((-4.5e-5, 0.0), (-4.5e-5, 1e-6), SLIVER)
        near = _near_test([QueryBody(SLIVER, SLIVER_WINDOW)])
        assert near(box(-5e-5, 0.0, -4e-5, 1e-6))
        assert not near(box(-5e-4, 0.0, -4e-4, 1e-6))

    @pytest.mark.parametrize("end", [-5e-6, -9e-5, -2e-4])
    def test_chord_ending_past_the_tip(self, end):
        tess = chord_tessellation(SLIVER_WINDOW, [((-0.5, 0.3), (end, 0.0)), ((-0.5, -0.5), (-0.4, -0.5))])
        assert hits_internal(tess, SLIVER) == unfiltered_hits_internal(tess, SLIVER) == (end > -1e-4)
        assert first_hit_time(tess, SLIVER) == unfiltered_first_hit_time(tess, SLIVER)

    def test_needle_without_placeable_corner_is_never_pruned(self):
        needle = ConvexPolygon(((0.0, 0.0), (1.5, -1e-7), (1.5, 1e-7)))
        query = QueryBody(needle, SLIVER_WINDOW)
        assert query.reaches == (None,)
        assert _near_test([query]) is None
        tess = chord_tessellation(SLIVER_WINDOW, [((-0.9, 0.5), (-0.9, -0.5)), ((-0.5, 0.3), (-1e-3, 0.0))])
        assert hits_internal(tess, needle) == unfiltered_hits_internal(tess, needle)
        assert first_hit_time(tess, needle) == unfiltered_first_hit_time(tess, needle)

    def test_first_hit_matches_full_simulation(self, iso):
        window = default_window(SLIVER)
        query = HitQuery(window, [SLIVER])
        for seed in range(40):
            p = params(window, 2.0, iso, mix_seed(9300, seed))
            assert query.first_hit(2.0, iso, p.seed) == unfiltered_first_hit_time(simulate(p), SLIVER)


@pytest.fixture(scope="module")
def property_tessellations():
    """Small tessellations shared by the property tests."""
    return {
        name: simulate(params(box(0.0, 0.0, 6.0, 6.0), 2.5, measure, 4242))
        for name, measure in (("isotropic", isotropic_measure()), ("axis", axis_measure()))
    }


def piece_at(kind, x, y, size, theta):
    """A point, a segment, a sliver with its tip at (x, y), or a small square."""
    c, s = math.cos(theta), math.sin(theta)
    if kind == "point":
        return ConvexPolygon(((x, y),))
    if kind == "segment":
        return ConvexPolygon(((x, y), (x + size * c, y + size * s)))
    if kind == "sliver":
        w = 1e-5 * size
        return ConvexPolygon(((x, y), (x + size * c + w * s, y + size * s - w * c), (x + size * c - w * s, y + size * s + w * c)))
    return ConvexPolygon(((x, y), (x + size * c, y + size * s), (x + size * (c - s), y + size * (s + c)), (x - size * s, y + size * c)))


KINDS = st.sampled_from(["point", "segment", "sliver", "square"])
SIZES = st.sampled_from([1e-9, 1e-6, 1e-3, 0.3, 2.0])


@st.composite
def query_bodies(draw, tess):
    """Random bodies, or bodies placed within 1e-9 of a chord (touching or just missing)."""
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    size = draw(SIZES)
    if draw(st.booleans()):
        e = tess.internal_edges[draw(st.integers(0, len(tess.internal_edges) - 1))]
        t = draw(st.sampled_from([0.0, 1.0, draw(st.floats(-0.01, 1.01))]))
        dx, dy = e.b[0] - e.a[0], e.b[1] - e.a[1]
        ln = math.hypot(dx, dy)
        off = draw(st.floats(-1e-9, 1e-9))
        x, y = e.a[0] + t * dx - off * dy / ln, e.a[1] + t * dy + off * dx / ln
    else:
        x, y = draw(st.floats(0.5, 5.5)), draw(st.floats(0.5, 5.5))
    first = piece_at(draw(KINDS), x, y, size, theta)
    if not draw(st.booleans()):
        return first
    other = piece_at(draw(KINDS), draw(st.floats(0.5, 5.5)), draw(st.floats(0.5, 5.5)), draw(SIZES), theta)
    return CompactSet.of(first, other)


class TestPrefilterMatchesUnfilteredScan:
    @pytest.mark.parametrize("name", ["isotropic", "axis"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_queries(self, property_tessellations, name, data):
        tess = property_tessellations[name]
        body = data.draw(query_bodies(tess))
        if interior_clearance(tess.window, [v for p in body.pieces for v in p.vertices]) <= 1e-9:
            return
        assert hits_internal(tess, body) == unfiltered_hits_internal(tess, body)
        assert first_hit_time(tess, body) == unfiltered_first_hit_time(tess, body)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 2.0 * math.pi), st.floats(-2e-9, 1e-4), st.floats(1e-7, 1e-2), st.sampled_from([1e-5, 1e-3, 0.3]))
    def test_pruning_keeps_every_cell_the_predicate_reaches(self, phi, past, half_angle, cell_size):
        # A point past a sliver's tip that the predicate counts must lie in a
        # kept cell, whatever the cell's size.
        c, s = math.cos(phi), math.sin(phi)
        tip = (3.0, 3.0)
        far = [(3.0 + c * math.cos(half_angle) - sg * s * math.sin(half_angle),
                3.0 + s * math.cos(half_angle) + sg * c * math.sin(half_angle)) for sg in (-1.0, 1.0)]
        piece = ConvexPolygon((tip, far[0], far[1]))
        p = (tip[0] - past * c, tip[1] - past * s)
        if not segment_hits_body(p, p, piece):
            return
        near = _near_test([QueryBody(piece, box(0.0, 0.0, 6.0, 6.0))])
        if near is not None:
            assert near(box(p[0], p[1], p[0] + cell_size, p[1] + cell_size))
            assert near(box(p[0] - cell_size, p[1] - cell_size, p[0], p[1]))


def reference_near(body, window, cell):
    """Whether the cell's bounding box meets some piece's ``hit_reach`` box widened by PRUNE_MARGIN."""
    scale = max(abs(c) for v in window.vertices for c in v)
    m = stit_mod.PRUNE_MARGIN
    xs, ys = [x for x, _ in cell.vertices], [y for _, y in cell.vertices]
    for piece in body.pieces:
        reach = hit_reach(piece, scale)
        rx, ry = [x for x, _ in reach], [y for _, y in reach]
        if (max(xs) >= min(rx) - m and min(xs) <= max(rx) + m
                and max(ys) >= min(ry) - m and min(ys) <= max(ry) + m):
            return True
    return False


@st.composite
def cells_near(draw, body):
    """A convex cell around a point near a vertex of one of the body's pieces."""
    piece = draw(st.sampled_from(body.pieces))
    ax, ay = draw(st.sampled_from(piece.vertices))
    gap = draw(st.sampled_from([1e-7, 1e-6, 2e-6, 1e-3, 0.3, 2.0]))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    cx, cy = ax + gap * math.cos(phi), ay + gap * math.sin(phi)
    size = draw(st.sampled_from([1e-7, 1e-3, 0.3, 1.0]))
    angles = draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=3, max_size=6))
    cell = convex_hull([(cx + size * math.cos(t), cy + size * math.sin(t)) for t in angles])
    assume(len(cell.vertices) >= 3)
    return cell


class TestNearTest:
    """``_near_test`` keeps a cell iff its bounding box meets some piece's reach box."""

    WINDOW = box(-3.0, -3.0, 9.0, 9.0)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_reach_boxes(self, data):
        body = piece_at(data.draw(KINDS), data.draw(st.floats(1.0, 2.5)), data.draw(st.floats(1.0, 2.5)),
                        data.draw(st.sampled_from([1e-6, 1e-3, 0.3, 1.0])), data.draw(st.floats(0.0, 2.0 * math.pi)))
        if data.draw(st.booleans()):
            other = piece_at(data.draw(KINDS), data.draw(st.floats(3.5, 4.5)), data.draw(st.floats(1.0, 4.5)),
                             data.draw(st.sampled_from([1e-6, 1e-3, 0.3, 1.0])), data.draw(st.floats(0.0, 2.0 * math.pi)))
            body = CompactSet.of(body, other)
        near = _near_test([QueryBody(body, self.WINDOW)])
        assume(near is not None)
        cell = data.draw(cells_near(body))
        assert near(cell) == reference_near(body, self.WINDOW, cell)

    def test_keeps_cell_beyond_a_diagonal(self):
        # The triangle's bounding box meets the square's, though its long
        # edge line x + y = 2.4 separates the two.
        square, window = box(0.0, 0.0, 1.0, 1.0), box(-1.0, -1.0, 2.0, 2.0)
        cell = ConvexPolygon(((0.9, 1.5), (1.5, 0.9), (1.5, 1.5)))
        assert reference_near(square, window, cell)
        assert _near_test([QueryBody(square, window)])(cell)


class TestEstimatorsMatchFullSimulation:
    @staticmethod
    def estimate(successes, n, seed):
        mean = successes / n
        return Estimate(mean, math.sqrt(mean * (1.0 - mean) / n), n, seed)

    @pytest.mark.parametrize(
        "case,measure_name", [("square", "isotropic"), ("disconnected", "axis"), ("point", "mixed")]
    )
    def test_mc_missing(self, case, measure_name):
        [body] = QUERY_BODIES[case]
        measure = QUERY_MEASURES[measure_name]
        n, seed, time = 200, 9200, 0.6
        taus = full_first_hits([body], time, measure, n, seed, default_window(body))
        assert mc_missing(body, time, measure, n, seed) == self.estimate(taus.count(math.inf), n, seed)

    @pytest.mark.parametrize("case", ["pair h=5", "pair h=25"])
    def test_mc_joint(self, case):
        body_a, body_b = QUERY_BODIES[case]
        measure = QUERY_MEASURES["mixed"]
        window = query_window([body_a, body_b], "default")
        n, seed, time = 200, 9300, 0.3
        taus = full_first_hits([body_a, body_b], time, measure, n, seed, window)
        est = mc_joint(body_a, body_b, time, measure, n, seed)
        assert est == self.estimate(taus.count(math.inf), n, seed)

    def test_increment_check(self, iso):
        body = QUERY_BODIES["square"][0]
        n, seed, a, step = 300, 9400, 0.5, 0.25
        taus = full_first_hits([body], a + step, iso, n, seed, default_window(body))
        rep = increment_check(body, a, step, iso, n, seed)
        want = self.estimate(sum(a < tau <= a + step for tau in taus), n, seed)
        assert (rep.increment, rep.stderr, rep.n, rep.seed) == (want.mean, want.stderr, n, seed)

    def test_window_tree_reference_loop(self, iso):
        # The reference loop of the variant-equivalence check gives, seed for
        # seed, the first hits of the window-tree construction as a whole
        # simulation with a chord scan gave them (values recorded from one).
        taus = window_tree_first_hits(box(1.0, 1.0, 2.0, 2.0), 1.0, iso, 20, 6, box(0.2, 0.2, 2.8, 2.8))
        assert taus == [
            0.11173393298244633, 0.07662220607196467, 0.32534246492948315, 0.02325714944100478,
            0.2813052796686169, 0.18521067272571923, 0.031610303528268, 0.08803780465324716,
            0.39271336609134766, 0.08866579805207968, 0.15888149913554242, 0.16064113433331403,
            0.19345875682451555, 0.012166151364209975, 0.20741992564275746, 0.4236953901333945,
            0.0525652203505758, 0.011705521006886703, 0.13813314517577718, 0.03183594254315614,
        ]



class TestPinnedOutputs:
    """Per-seed outputs recorded from an earlier division loop, which kept
    per-cell side tables: any change to the draws, their order or the cells
    kept shows here as a changed value."""

    @pytest.mark.parametrize(
        "window,measure_name,seed,cells,digest",
        [
            (box(0, 0, 4, 4), "isotropic", 1, 88, "d9621deee03956e953b4ca40680a32687715b695ad75d10aa368798053154bff"),
            (regular_polygon(6, 3.0, (1.0, 2.0)), "axis", 2, 10, "97985f802fa817a9bc852f06b56d658e1953ff5143a6e0bfe2969735d65537e5"),
            (box(0, 0, 4, 4), "mixed", 3, 32, "d5d445f9a59a23461165d4ed1731f9ec98f5c888266fdcc6470b5bd6de182777"),
        ],
    )
    def test_tessellation_json(self, window, measure_name, seed, cells, digest):
        t = simulate(params(window, 1.0, QUERY_MEASURES[measure_name], seed))
        assert self.digest(t) == (cells, digest)

    @staticmethod
    def digest(tess):
        doc = json.dumps(tessellation_to_json(tess), sort_keys=True).encode()
        return len(tess.cells), hashlib.sha256(doc).hexdigest()

    # Recorded before cells kept their hitting law and clip canonicalised
    # its output locally.
    def test_64gon_axis_box_and_nest(self):
        gon = simulate(params(regular_polygon(64, 3.0, (0.5, -0.25)), 1.0, QUERY_MEASURES["mixed"], 4))
        assert self.digest(gon) == (61, "9255f4ad345a59202202fb9b14a55a4b6f93cf21bfa7f8ad402c1aed8272e323")
        axes = simulate(params(box(0, 0, 10, 10), 2.0, QUERY_MEASURES["axis"], 5))
        assert self.digest(axes) == (110, "fa204bfce8d16ec0fa6d02e8b9af8ae387fd39f0d8c2cf027835e6200e40d9b7")
        iso = QUERY_MEASURES["isotropic"]
        nested = nest(simulate(params(box(0, 0, 4, 4), 0.6, iso, 6)), 0.4, iso, 7)
        assert self.digest(nested) == (75, "2c26d2c79ad30270e32ad152df62c5eb249bf81b84947e3ee61746c3d2eddb24")

    @pytest.mark.parametrize(
        "measure_name,missing,joint,increment,taus",
        [
            ("isotropic", (0.15333333333333332, 0.029419066631718307), (0.36, 0.03919183588453085),
             (0.14666666666666667, 0.02888546988315008, 0.4199447574288832),
             "eb62c765eaeb0a6ca2341008622946b5fd52bd00f68116df938a8f7cd047d404"),
            ("axis", (0.56, 0.04052982440952177), (0.8533333333333334, 0.028885469883150078),
             (0.15333333333333332, 0.029419066631718307, 0.187689612889979),
             "0111fcc87caaa0cbeda4bf9741364be042efe82ed37b239b082c8b333a478031"),
            ("mixed", (0.21333333333333335, 0.03344868928395872), (0.47333333333333333, 0.04076672571995359),
             (0.10666666666666667, 0.02520435000668058, 0.3999175411111254),
             "ff1406d65f1f42ad1fd95bfe4428caf62a2bf0bce4e1b9501ba98fadce01026e"),
        ],
    )
    def test_estimators(self, measure_name, missing, joint, increment, taus):
        measure = QUERY_MEASURES[measure_name]
        square = QUERY_BODIES["square"][0]
        e = mc_missing(square, 0.5, measure, 150, 11)
        assert (e.mean, e.stderr) == missing
        e = mc_joint(*QUERY_BODIES["pair h=5"], 0.3, measure, 150, 12)
        assert (e.mean, e.stderr) == joint
        rep = increment_check(square, 0.4, 0.2, measure, 150, 13)
        assert (rep.increment, rep.stderr, rep.bound) == increment
        times = replicate_first_hits([square], 0.5, measure, 150, 11, default_window(square))
        assert hashlib.sha256(repr(times).encode()).hexdigest() == taus

    def test_first_hit_times(self):
        square = box(0.0, 0.0, 1.0, 1.0)
        query = HitQuery(default_window(square), [square])
        taus = {
            name: [query.first_hit(0.8, QUERY_MEASURES[name], mix_seed(5, i)) for i in range(4)]
            for name in ("isotropic", "axis", "mixed")
        }
        assert taus == {
            "isotropic": [math.inf, 0.02360401559411951, 0.6706422960650585, 0.18426283415395567],
            "axis": [math.inf, 0.08984385042602507, 0.2968607267767279, 0.701358734694608],
            "mixed": [math.inf, 0.030760094724834226, 0.10163705175630108, 0.24012618574333405],
        }
        segment = QUERY_BODIES["segment"][0]
        query = HitQuery(default_window(segment), [segment])
        assert [query.first_hit(0.8, QUERY_MEASURES["axis"], mix_seed(5, i)) for i in range(6)] == [
            math.inf, 0.16465075539955132, 0.5440365999506348, math.inf, 0.6371881575637856, math.inf,
        ]


def restrict_subwindows(tess):
    """Sub-windows with edges 1 to 10 units long: four about the window's
    centroid, and, at two live-cell vertices, three boxes and a tilted
    triangle with an edge through the vertex or 5e-9 to either side of it.

    The vertex lies at least one unit from the sub-window's corners: a cell
    edge through a vertex 5e-9 from a corner crosses the other edge there,
    within any clip tolerance of it.
    """
    cx, cy = centroid(tess.window)
    out = [
        box(cx - 0.5, cy - 0.5, cx + 0.5, cy + 0.5),
        box(cx - 5.0, cy - 1.0, cx + 5.0, cy + 1.0),
        rotate(box(cx - 3.0, cy - 3.0, cx + 3.0, cy + 3.0), 0.3, (cx, cy)),
        ConvexPolygon(((cx - 4.0, cy - 2.0), (cx + 3.5, cy - 2.5), (cx, cy + 4.0))),
    ]
    # Vertices 4.6 inside the window: each sub-window about one fits.
    verts = [
        v for c in tess.live_cells for v in c.polygon.vertices if interior_clearance(tess.window, (v,)) > 4.6
    ]
    tx, ty = math.cos(0.7), math.sin(0.7)
    for ax, ay in ((cx, cy), (cx - 1.0, cy + 1.0)) if verts else ():
        vx, vy = min(verts, key=lambda v: math.hypot(v[0] - ax, v[1] - ay))
        for d in (0.0, 5e-9, -5e-9):
            x, y = vx + d, vy + d
            px, py = vx - d * ty, vy + d * tx
            out += [
                box(x - 1.0, y, x + 2.0, y + 2.0),
                box(x - 1.5, y - 4.0, x + 2.5, y),
                box(x, y - 1.5, x + 3.0, y + 1.0),
                ConvexPolygon((
                    (px - 2.0 * tx, py - 2.0 * ty),
                    (px + 3.0 * tx, py + 3.0 * ty),
                    (px + 0.5 * tx + 3.0 * ty, py + 0.5 * ty - 3.0 * tx),
                )),
            ]
    return out


class TestPinnedRestrict:
    """``restrict`` outputs recorded before ``polygon_intersection`` shared
    ``clip``'s loop: cells cut by sub-window edges that pass through their
    vertices or 5e-9 beside them, which no clip tolerance reaches. A
    sub-window for which ``restrict`` raises is recorded by its error."""

    WINDOWS = {
        "square": box(0.0, 0.0, 12.0, 12.0),
        "hexagon": regular_polygon(6, 8.0, (1.0, 2.0)),
        "pentagon": regular_polygon(5, 9.0, (-2.0, 3.0)),
    }
    # Time parameters giving about a hundred cells per run.
    TIMES = {"isotropic": 0.5, "axis": 1.5, "mixed": 0.5}

    @pytest.mark.parametrize(
        "window_name,measure_name,cells,digest",
        [
            ("square", "isotropic", 2638, "31a05cb396070b24b97cfd515b06d6eee345d776d2eed4d5eca346b409ba754a"),
            ("square", "axis", 1997, "8c5039aca23ee680a976ba395b1ec1579da765ed1f20be7ca0c3a725fb3c0c7c"),
            ("square", "mixed", 1643, "1edfbf733163099ab9694a2f17149ee3ca129b24f083981427600f6192a3d71b"),
            ("hexagon", "isotropic", 2800, "66b371d66992f80ac79c7ced23ab06dae9e1357f4fbe3ca2952b24a931072431"),
            ("hexagon", "axis", 2039, "322c7544e937049676123b951f388d88397df4fcc25cdf553a1cf0c758a5638f"),
            ("hexagon", "mixed", 2002, "678e5f3f5cf3d6186d64f4cfefd864e8d1de1d57ac51635605077e89dd0a1dee"),
            ("pentagon", "isotropic", 2898, "77873f652481b8292d2e591cd5addafa3a4dbc83eee644502a01d8c717915c2f"),
            ("pentagon", "axis", 1964, "26c53124ae2bb6eaed1ba0d68ea6cb204b5fb6049097ac59c63420719438be9a"),
            ("pentagon", "mixed", 1459, "d924eab6dda0d2b677d6e75664e7dea24c15dec20b411e67af381f3796b4d688"),
        ],
    )
    def test_restrict_json(self, window_name, measure_name, cells, digest):
        measure = QUERY_MEASURES[measure_name]
        h = hashlib.sha256()
        total = 0
        for seed in range(5):
            tess = simulate(params(self.WINDOWS[window_name], self.TIMES[measure_name], measure, seed))
            for sub in restrict_subwindows(tess):
                try:
                    r = restrict(tess, sub)
                except GeometryError as err:
                    h.update(f"GeometryError({err})".encode())
                    continue
                total += len(r.cells)
                h.update(json.dumps(tessellation_to_json(r), sort_keys=True).encode())
        assert (total, h.hexdigest()) == (cells, digest)


class TestPinnedIterateReports:
    """``stitlab iterate`` report bytes recorded while each replicate still
    nested a whole tessellation: the query-driven path must not change one."""

    @pytest.mark.parametrize(
        "measure_name,seed,digest",
        [
            ("isotropic", 1, "91f8a6a44c25422e9e538bb6360180ab6fdcf36c1ade9979337c8f8ad9082100"),
            ("isotropic", 2, "b1e46ad23956346a5e3368809af9acc72c7de34bdf9f9ebade2a2962dc4dd9e5"),
            ("isotropic", 3, "c731df8a4c6b824af2429a49736fddf6026c812c943f46c225e63b852027f841"),
            ("axis", 1, "b27a2b58b4568da7588022c1d2a864a7c1f8a922d89acbda1e53c1705ce6e0f3"),
            ("axis", 2, "9d212b30a786a92a0968c87e9ca40f5f1389a24c9b87c4bf8920517f417e3ba4"),
            ("axis", 3, "7abdda708cf0082b3e249f0f4c6ca8384310f7762305aa3a1e875ce6e7155290"),
            ("mixed", 1, "adcc5018b031ee8a52e62a6b31a3e3a44ba871eaa0862d917be28352f33e539f"),
            ("mixed", 2, "08e5df4f233e12a035a0699e6d902ade2c189c47167675351577032f4925f9d6"),
            ("mixed", 3, "a7ee4a39d3ca06249037a1e2e92aeafb01f96dae229dd9212ca3e60c9c916baf"),
        ],
    )
    def test_report_bytes(self, tmp_path, measure_name, seed, digest):
        config = {
            "measure": QUERY_MEASURES[measure_name].to_json(),
            "window": polygon_to_json(box(-0.5, -0.5, 1.5, 1.5)),
            "set": "unit_square",
            "a": 0.5,
            "a2": 0.5,
        }
        path, out = tmp_path / "iterate.json", tmp_path / "report.json"
        path.write_text(json.dumps(config))
        assert cli_main(["iterate", "--config", str(path), "--seed", str(seed), "--n", "300", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _closed_form_parts() -> dict[str, bytes]:
    """Closed-form sweeps and masses by part, as bytes: CSV text and float reprs."""
    distances = (5.0, 10.0, 25.0, 50.0, 100.0, 200.0, 400.0)
    e1 = Direction(1.0, 0.0)
    diag = Direction(1.0, 1.0)
    vseg = ConvexPolygon(((0.0, -0.5), (0.0, 0.5)))
    perp = ConvexPolygon(((-0.5 * diag.y, 0.5 * diag.x), (0.5 * diag.y, -0.5 * diag.x)))
    disc = regular_polygon(64, circumradius=1.0)
    sweeps = {
        "sweep vseg isotropic": (vseg, e1, "isotropic"),
        "sweep vseg axis": (vseg, e1, "axis"),
        "sweep perp axis": (perp, diag, "axis"),
        "sweep square mixed": (box(0.0, 0.0, 1.0, 1.0), Direction(2.0, 1.0), "mixed"),
        "sweep disc isotropic": (disc, e1, "isotropic"),
    }
    parts = {
        name: sweep_to_csv(sweep(SweepConfig(body, body, u, distances, 1.0, QUERY_MEASURES[m]))).encode()
        for name, (body, u, m) in sweeps.items()
    }
    pairs = [
        (vseg, ConvexPolygon(((3.0, 0.2), (3.5, 1.7)))),
        (box(0.0, 0.0, 1.0, 1.0), regular_polygon(5, 0.7, (2.5, -1.5))),
        (box(-2.0, -1.0, -1.0, 1.0), box(0.5, -0.5, 2.0, 0.5)),
        (regular_polygon(7, 1.0, (1.0, 1.0)), regular_polygon(6, 0.8, (1.6, 2.2))),
        (ConvexPolygon(((-4.0, 3.0),)), disc),
    ]
    for name in ("axis", "mixed"):
        measure = QUERY_MEASURES[name]
        for i, (a, b) in enumerate(pairs):
            values = (
                hit_mass(measure, a),
                separating_mass(measure, a, b),
                double_hit_mass(measure, a, b),
            )
            parts[f"masses {name} {i}"] = " ".join(map(repr, values)).encode()
    return parts


PINNED_CLOSED_FORMS = {
    "sweep vseg isotropic": "8c55ed7da190cd079e274844e25ff6fc51e3135b0a70ad6a206586a8bce44a63",
    "sweep vseg axis": "6dac2ae747381689d1d6f4d981a1c5a33dde00a2879b6d61051c7e3047f66edd",
    "sweep perp axis": "0399743c5e829c215d7c77451e786a58cf85749e6914ea481468fbd3998a14a0",
    "sweep square mixed": "ee0b47d4962ee1fc2ad5e3913f9a205860faeb89398be50d12a289fc0b5ccff9",
    "sweep disc isotropic": "6d94b4efc4740aa385b02060ee73e4309b58c4c9c9a645d09e346da803cc450f",
    "masses axis 0": "035ce607d90c2ded8fd7b231563f7eee60c06489cb33967bfac411061567fb8c",
    "masses axis 1": "0d6de375382c92f0f1a67019b477a2a7446dc9c0a1388f388097f18d55343793",
    "masses axis 2": "9e2ceefc79b971a2013b2b901e8a8a23fc5e051806879d729378df3a1ee9d2ba",
    "masses axis 3": "bc446b485803f170781afacd618af26e9ae418d3ef35eb4fe17a00a74b624539",
    "masses axis 4": "2f12ad70712974e958ffde763200adf7c1fda98853dbdfd94c104cd1e45739dd",
    "masses mixed 0": "20b9e9dd92485273398cb900cf8cd0e1f714eb1ccfcaa9770b8b17751ee7e5d2",
    "masses mixed 1": "c2236fa78243e17da6623864f331c2fe4f1b3a4172c10330b71c3b9d2dfaec16",
    "masses mixed 2": "997253eb0111b14b2d7dc3f9c09974f4da83a91a23e211d8969eafe1d52fa792",
    "masses mixed 3": "53f1e90f5319e1e2f05dd17624d29ecec66998e673f1c19ed5e9c5291221c50e",
    "masses mixed 4": "8925d2ce8c83b5469bf9b9257b23226da50ce4edc3ceb09bbd664f796a40bbd8",
}


class TestPinnedClosedForms:
    """Closed-form sweeps and masses, one digest per part: a change to the
    r >= 0 cut, the projection order of operations or the separating mass
    shows here as the changed digests of exactly the parts it reaches."""

    def test_sweeps_and_masses(self):
        digests = {name: hashlib.sha256(part).hexdigest() for name, part in _closed_form_parts().items()}
        assert digests == PINNED_CLOSED_FORMS

    def test_closed_forms_do_not_depend_on_how_sum_rounds(self, monkeypatch):
        # Python 3.12 and later add floats in ``sum`` with compensation. Neither
        # the pinned digests nor the masses of 200 random pairs may change with it.
        masses = _random_pair_masses()
        monkeypatch.setattr(builtins, "sum", _compensated_sum)
        digests = {name: hashlib.sha256(part).hexdigest() for name, part in _closed_form_parts().items()}
        assert digests == PINNED_CLOSED_FORMS
        assert _random_pair_masses() == masses


def _random_pair_masses() -> list[float]:
    """Separating and double-hit masses of 200 random polygon pairs, isotropic and mixed."""
    rng = np.random.default_rng(0)
    values = []
    for _ in range(200):
        a = random_convex_polygon(rng, max_pts=12)
        b = random_convex_polygon(rng, max_pts=12)
        for name in ("isotropic", "mixed"):
            measure = QUERY_MEASURES[name]
            values += [separating_mass(measure, a, b), double_hit_mass(measure, a, b)]
    return values


_plain_sum = builtins.sum


def _compensated_sum(iterable, /, start=0):
    """``sum`` as Python 3.12 adds floats: Neumaier's compensated summation.

    Anything but ints and floats, with at least one float, goes to the plain ``sum``.
    """
    items = list(iterable)
    numbers = all(type(v) in (int, float) for v in (start, *items))
    if not numbers or not any(type(v) is float for v in items):
        return _plain_sum(items, start)
    total, carry = float(start), 0.0
    for v in items:
        x = float(v)
        t = total + x
        carry += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + carry if carry and math.isfinite(carry) else total
