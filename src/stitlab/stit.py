"""Event-driven simulator of the iteration-stable cell-division tessellation.

Each live cell carries an independent exponential clock with rate equal to
the measure of lines hitting it; when the clock fires the cell is divided by
a line drawn from its own normalised hitting measure, so both children are
non-empty. Per-cell randomness comes from counter-based streams keyed by
(seed, cell id), which makes runs deterministic, makes the time-a state an
exact prefix of any longer run with the same seed, and keeps nested or
restricted constructions independent of scheduling order.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from .geometry import (
    CompactSet,
    ConvexPolygon,
    EPS,
    GeometryError,
    Point,
    _bounds,
    area,
    chord,
    clip,
    clip_segment_to_polygon,
    hit_reach,
    interior_clearance,
    perimeter,
    polygon_from_json,
    polygon_intersection,
    polygon_to_json,
    scale as scale_polygon,
    segment_hits_body,
)
from .measure import DirectionalMeasure, _hitting_law, _sample_line

# Hard cap on processed division events; misconfigured huge a * Lambda([W])
# aborts with a diagnostic instead of running away.
EVENT_CAP = 10_000_000

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _fold(acc: int, p: int) -> int:
    """Fold one integer (of any size) into a 64-bit accumulator."""
    p = int(p)
    if p < 0:
        p = -p * 2 + 1
    while True:
        acc = _splitmix64(acc ^ (p & _MASK64))
        p >>= 64
        if p == 0:
            return acc


def mix_seed(*parts: int) -> int:
    """Fold integers (of any size) into one 64-bit stream seed."""
    acc = 0x243F6A8885A308D3
    for p in parts:
        acc = _fold(acc, p)
    return acc


class SplitStream:
    """Counter-based random stream: the n-th draw is a hash of (key, n).

    splitmix64 output sequence; statistically solid for Monte Carlo and
    trivially splittable by key, which keeps cell streams independent of
    scheduling order.
    """

    __slots__ = ("_state",)

    def __init__(self, key: int):
        self._state = key & _MASK64

    def random(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        z = self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((z ^ (z >> 31)) >> 11) * (2.0**-53)

    def uniform(self, lo: float, hi: float) -> float:
        # ``random`` written out: this runs for every line drawn.
        z = self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return lo + (hi - lo) * (((z ^ (z >> 31)) >> 11) * (2.0**-53))

    def exponential(self, scale: float) -> float:
        return -scale * math.log1p(-self.random())


def cell_stream(seed: int, cell_id: int) -> SplitStream:
    """Random stream for one cell, keyed by (seed, cell id) only."""
    return SplitStream(mix_seed(seed, cell_id))


@dataclass(frozen=True)
class Cell:
    """One cell of the division process, identified by its binary-tree label."""

    id: int
    parent_id: int
    polygon: ConvexPolygon
    birth_time: float
    death_time: float


@dataclass(frozen=True, order=True)
class Edge:
    """Division chord clipped to the parent cell, with its creation time."""

    a: tuple[float, float]
    b: tuple[float, float]
    time: float


@dataclass(frozen=True)
class SimulationParams:
    window: ConvexPolygon
    time: float
    measure: DirectionalMeasure
    seed: int

    def __post_init__(self) -> None:
        if self.time < 0.0 or not math.isfinite(self.time):
            raise ValueError("time parameter must be finite and >= 0")


@dataclass(frozen=True)
class Tessellation:
    """State of the division process in a window at a fixed time."""

    window: ConvexPolygon
    time: float
    cells: tuple[Cell, ...]
    internal_edges: tuple[Edge, ...]

    @property
    def live_cells(self) -> tuple[Cell, ...]:
        return tuple(c for c in self.cells if c.death_time > self.time)


def _divisions(
    params: SimulationParams,
    live: list,
    near: Callable[[ConvexPolygon], bool] | None = None,
    root_law: tuple | None = None,
) -> Iterator[tuple[float, tuple[Point, Point] | None]]:
    """Run the division process, yielding (time, chord) per event in time order.

    The one division loop behind ``simulate`` and ``HitQuery.first_hit``, so
    both take the same draws from each cell's stream in the same order: a
    cell dies at rate equal to its own hitting mass and is divided by a line
    drawn from its own hitting law. ``live``, an empty list owned by the
    caller, is the event queue and the only per-cell state: a heap of
    (death, label, polygon, birth, stream, law) entries, one per undivided
    cell. ``law`` is the cell's ``measure._hitting_law``, computed once for
    its rate and reused by every draw of its dividing line, or None for a
    cell that dies after the time parameter; ``root_law``, if given, is the
    window's. Labels are unique, so entries never compare past the label.
    Once the loop is exhausted, ``live`` holds exactly the cells alive at
    the time parameter. With ``near`` given, a child is spawned only if
    ``near(child polygon)`` holds; a child left out takes its whole subtree
    with it, because descendants and their chords lie inside it, and every
    kept cell still gets exactly the draws it gets in the full run.
    """
    window = params.window
    if len(window.vertices) < 3 or area(window) <= 0.0:
        raise GeometryError("simulation window must have positive area")
    measure = params.measure
    horizon = params.time
    # cell_stream(seed, label), with the seed folded in once per run.
    prefix = mix_seed(params.seed)

    def spawn(label: int, poly: ConvexPolygon, birth: float, law: tuple | None = None) -> None:
        if near is not None and not near(poly):
            return
        gen = SplitStream(_fold(prefix, label))
        if law is None:
            law = _hitting_law(measure, poly)
        rate = law[0]
        death = birth + gen.exponential(1.0 / rate) if rate > 0.0 else math.inf
        # Only a cell that will be divided reads its law again.
        heapq.heappush(live, (death, label, poly, birth, gen, law if death <= horizon else None))

    spawn(1, window, 0.0, root_law)

    events = 0
    while live and live[0][0] <= horizon:
        death, label, poly, _, gen, law = heapq.heappop(live)
        events += 1
        if events > EVENT_CAP:
            raise RuntimeError(
                f"event cap {EVENT_CAP} exceeded at t={death:.6g}; "
                "a * Lambda([W]) is likely misconfigured"
            )
        for _ in range(64):
            plane = _sample_line(measure, poly, law, gen)
            minus = clip(poly, plane, "minus")
            plus = clip(poly, plane, "plus")
            if minus is not None and plus is not None:
                break
        else:
            raise RuntimeError("could not draw a dividing line for a cell")

        yield death, chord(poly, plane)
        spawn(2 * label, minus, death)
        spawn(2 * label + 1, plus, death)


def simulate(params: SimulationParams) -> Tessellation:
    """Run the cell-division process in the window up to the time parameter.

    Each cell dies at rate equal to its own hitting mass and is divided by a
    line drawn from its own hitting law, so both children are non-empty.
    ``cells`` holds the cells alive at the time parameter, sorted by label;
    a cell's parent is its label halved.
    """
    live: list = []
    edges = [Edge(cut[0], cut[1], death) for death, cut in _divisions(params, live) if cut is not None]
    cells = tuple(
        Cell(id=label, parent_id=label // 2, polygon=poly, birth_time=birth, death_time=death)
        for death, label, poly, birth, _, _ in sorted(live, key=itemgetter(1))
    )
    return Tessellation(window=params.window, time=params.time, cells=cells, internal_edges=tuple(edges))


def restrict(tess: Tessellation, window: ConvexPolygon) -> Tessellation:
    """The tessellation induced on a sub-window (consistency restriction).

    Cells become their non-empty intersections with the sub-window; division
    chords are clipped to its interior (parts lying on the new boundary are
    dropped).
    """
    if len(window.vertices) < 3 or area(window) <= 0.0:
        raise GeometryError("restriction window must have positive area")
    if interior_clearance(tess.window, window.vertices) < -EPS:
        raise GeometryError("restriction window is not contained in the tessellation window")

    cells = []
    for cell in tess.live_cells:
        part = polygon_intersection(cell.polygon, window)
        if part is None or len(part.vertices) < 3:
            continue
        cells.append(replace(cell, polygon=part))

    edges = []
    for e in tess.internal_edges:
        seg = clip_segment_to_polygon(e.a, e.b, window)
        if seg is None:
            continue
        mid = ((seg[0][0] + seg[1][0]) / 2.0, (seg[0][1] + seg[1][1]) / 2.0)
        if interior_clearance(window, (mid,)) > EPS:
            edges.append(Edge(seg[0], seg[1], e.time))

    return Tessellation(
        window=window,
        time=tess.time,
        cells=tuple(cells),
        internal_edges=tuple(edges),
    )


def nest(
    tess: Tessellation, extra_time: float, measure: DirectionalMeasure, seed: int
) -> Tessellation:
    """Divide every live cell by an independent fresh construction.

    Each live cell becomes the window of an independent run with the given
    time parameter; the union of the original chords and all nested ones is
    returned with time metadata advanced by ``extra_time``. Per-cell seeds
    derive from (seed, cell id) only.
    """
    cells: list[Cell] = []
    edges: list[Edge] = list(tess.internal_edges)
    next_id = 1
    for cell in sorted(tess.live_cells, key=lambda c: c.id):
        sub = simulate(
            SimulationParams(
                window=cell.polygon,
                time=extra_time,
                measure=measure,
                seed=mix_seed(seed, cell.id),
            )
        )
        for sc in sub.live_cells:
            cells.append(
                Cell(
                    id=next_id,
                    parent_id=0,
                    polygon=sc.polygon,
                    birth_time=tess.time + sc.birth_time,
                    death_time=tess.time + sc.death_time,
                )
            )
            next_id += 1
        for e in sub.internal_edges:
            edges.append(Edge(e.a, e.b, tess.time + e.time))
    return Tessellation(
        window=tess.window,
        time=tess.time + extra_time,
        cells=tuple(cells),
        internal_edges=tuple(edges),
    )


def rescale(tess: Tessellation, factor: float) -> Tessellation:
    """Scale all coordinates by a positive factor; time metadata unchanged."""
    if not (factor > 0.0):
        raise GeometryError("rescale factor must be positive")

    def sp(p: tuple[float, float]) -> tuple[float, float]:
        return (factor * p[0], factor * p[1])

    cells = tuple(
        replace(c, polygon=scale_polygon(c.polygon, factor)) for c in tess.cells
    )
    edges = tuple(Edge(sp(e.a), sp(e.b), e.time) for e in tess.internal_edges)
    return Tessellation(
        window=scale_polygon(tess.window, factor),
        time=tess.time,
        cells=cells,
        internal_edges=edges,
    )


# ---------------------------------------------------------------------------
# Queries: whether, and when, a division chord meets a body


def require_interior(window: ConvexPolygon, body: ConvexPolygon | CompactSet) -> None:
    """Raise GeometryError unless the body lies in the window's interior.

    Queries need this because the window boundary is not part of the process.
    It raises exactly when ``interior_clearance(window, body vertices) <= EPS``,
    but tests the vertices only against the edges that the body's bounding
    circle does not clear by more than EPS plus a rounding margin. A computed
    distance of p from the edge at a is off by a few ulps of |p - a|, at
    most |c - a| + radius, and |c - a| is at most |c - w0| + perimeter / 2
    for a window vertex w0: 2^-40 of that far exceeds it.
    """
    verts = [v for piece in body.pieces for v in piece.vertices]
    wv = window.vertices
    if len(wv) < 3:
        raise GeometryError("query set must be interior to the window")
    cx, cy, radius = _bounding_circle(verts)
    x0, y0 = wv[0]
    reach = math.hypot(cx - x0, cy - y0) + 0.5 * perimeter(window) + radius
    clear = radius + EPS + 2.0**-40 * reach
    for (ax, ay), (bx, by) in zip(wv, wv[1:] + wv[:1]):
        ex, ey = bx - ax, by - ay
        ln = math.hypot(ex, ey)
        if (ex * (cy - ay) - ey * (cx - ax)) / ln > clear:
            continue
        # interior_clearance's terms for this edge.
        if min([ex * (py - ay) - ey * (px - ax) for px, py in verts]) / ln <= EPS:
            raise GeometryError("query set must be interior to the window")


class QueryBody:
    """A query body checked and prepared once for chord tests in one window.

    Construction checks that the body lies in the window's interior and
    keeps each piece's reach (``hit_reach``) and the box around all of
    them. A chord whose bounding box misses that box cannot meet the body,
    so ``segment_hits_body`` need only be called for the chords that pass
    this four-comparison test: ``meets`` tests one chord, ``candidates``
    filters a scan.
    """

    __slots__ = ("body", "reaches", "box")

    def __init__(self, body: ConvexPolygon | CompactSet, window: ConvexPolygon):
        require_interior(window, body)
        self.body = body
        # Chords lie in the window, so its coordinates bound theirs.
        scale = max(map(abs, _bounds(window.vertices)))
        self.reaches = tuple(hit_reach(piece, scale) for piece in body.pieces)
        if None in self.reaches:
            self.box = (-math.inf, math.inf, -math.inf, math.inf)
        else:
            self.box = _bounds([v for reach in self.reaches for v in reach])

    def meets(self, a: Point, b: Point) -> bool:
        """``segment_hits_body(a, b, body)``, skipped when ab's box misses the reach box."""
        x0, x1, y0, y1 = self.box
        (ax, ay), (bx, by) = a, b
        if (ax < x0 and bx < x0) or (ax > x1 and bx > x1):
            return False
        if (ay < y0 and by < y0) or (ay > y1 and by > y1):
            return False
        return segment_hits_body(a, b, self.body)

    def candidates(self, edges: Iterable[Edge]) -> Iterator[Edge]:
        """The edges, in order, whose bounding box meets the reach box (as in ``meets``)."""
        x0, x1, y0, y1 = self.box
        for e in edges:
            (ax, ay), (bx, by) = e.a, e.b
            if (ax < x0 and bx < x0) or (ax > x1 and bx > x1):
                continue
            if (ay < y0 and by < y0) or (ay > y1 and by > y1):
                continue
            yield e


def _bounding_circle(verts: Sequence[Point]) -> tuple[float, float, float]:
    """(cx, cy, radius): the vertex mean and the largest distance from it."""
    cx = sum([x for x, _ in verts]) / len(verts)
    cy = sum([y for _, y in verts]) / len(verts)
    return cx, cy, max([math.hypot(x - cx, y - cy) for x, y in verts])


def first_hit_time(tess: Tessellation, body: ConvexPolygon | CompactSet) -> float:
    """Earliest division time whose chord meets the body; inf if none does.

    The body must lie in the window's interior: the window boundary is not
    part of the process.
    """
    best = math.inf
    for e in QueryBody(body, tess.window).candidates(tess.internal_edges):
        if e.time < best and segment_hits_body(e.a, e.b, body):
            best = e.time
    return best


def hits_internal(tess: Tessellation, body: ConvexPolygon | CompactSet) -> bool:
    """True iff some division chord meets the body (window boundary excluded)."""
    edges = QueryBody(body, tess.window).candidates(tess.internal_edges)
    return any(segment_hits_body(e.a, e.b, body) for e in edges)


# A query-driven run expands no cell whose bounding box lies farther than
# this from the reach box of every query piece; a piece's reach is the
# region outside which ``segment_hits_body`` cannot count a hit. It must
# exceed the rounding of clipped and chord coordinates (a few ulps of the
# window's), which it does by orders of magnitude.
PRUNE_MARGIN = 1e-6


def _near_test(queries: Sequence[QueryBody]) -> Callable[[ConvexPolygon], bool] | None:
    """Predicate true iff the polygon's bounding box meets some piece's reach box.

    Each piece's reach box is the bounding box of its ``hit_reach`` widened
    by PRUNE_MARGIN on every side. A polygon whose box misses all of them
    lies farther than the margin from every reach, so no chord inside it
    can meet a body; any other polygon is kept, since a kept cell only costs
    time. None (prune nothing) when some reach is unbounded.
    """
    m = PRUNE_MARGIN
    boxes = []
    for query in queries:
        for verts in query.reaches:
            if verts is None:
                return None
            x0, x1, y0, y1 = _bounds(verts)
            boxes.append((x0 - m, x1 + m, y0 - m, y1 + m))

    def near(poly: ConvexPolygon) -> bool:
        x0, x1, y0, y1 = _bounds(poly.vertices)
        for bx0, bx1, by0, by1 in boxes:
            if x1 >= bx0 and x0 <= bx1 and y1 >= by0 and y0 <= by1:
                return True
        return False

    return near


class HitQuery:
    """Query bodies prepared once for query-driven runs in one window.

    Construction checks that every body lies in the window's interior and
    builds each piece's reach box and the pruning test (``_near_test``), so
    a loop over seeds does none of this per replicate. The window's hitting
    law is kept for the last measure asked, so every replicate reuses it.
    """

    def __init__(self, window: ConvexPolygon, bodies: Sequence[ConvexPolygon | CompactSet]):
        self.window = window
        self.bodies = tuple(bodies)
        if not self.bodies:
            raise ValueError("need at least one query body")
        self._queries = tuple(QueryBody(body, window) for body in self.bodies)
        self._near = _near_test(self._queries)
        self._root: tuple = (None, None)

    def _root_law(self, measure: DirectionalMeasure) -> tuple:
        if self._root[0] is not measure:
            self._root = (measure, _hitting_law(measure, self.window))
        return self._root[1]

    def first_hit(self, time: float, measure: DirectionalMeasure, seed: int) -> float:
        """Earliest time <= ``time`` at which a division chord meets any body; inf if none.

        Bit-identical, seed for seed, to ``min(first_hit_time(t, b) for b in
        bodies)`` with ``t = simulate(SimulationParams(window, time, measure,
        seed))``, without building the tessellation: a chord lies inside its
        cell and every cell's draws are keyed by (seed, label) alone, so the
        run expands only cells whose bounding box meets a piece's reach box
        widened by PRUNE_MARGIN (``_near_test``), and returns at the first
        event whose chord meets a body (events pop in time order).
        Consequently ``EVENT_CAP`` counts expanded events only, and cells
        that are never expanded cannot fail.
        """
        params = SimulationParams(self.window, time, measure, seed)
        return self._first_hit(params, [], self._root_law(measure))

    def first_hit_nested(
        self, time: float, extra_time: float, measure: DirectionalMeasure, seed: int, nest_seed: int
    ) -> float:
        """``first_hit`` of the nested tessellation; inf if no chord meets a body.

        Bit-identical, seed for seed, to ``min(first_hit_time(n, b) for b in
        bodies)`` with ``n = nest(simulate(SimulationParams(window, time,
        measure, seed)), extra_time, measure, nest_seed)``, without building
        either tessellation. An outer hit comes first, as outer times are at
        most ``time``. Otherwise the pruned outer run has left every kept
        cell alive at ``time``, with its label and polygon from the full run,
        and each runs ``nest``'s inner run (seed ``mix_seed(nest_seed,
        label)``) pruned by the same test: inner chords lie inside their
        cell, so inside the window whose scale sized the reach boxes. Each
        inner run stops at the earliest hit found so far, since a run's
        events up to a horizon do not depend on the horizon. Only kept cells
        are divided, so a degenerate cell far from every body cannot fail
        the run as it fails ``nest``.
        """
        if extra_time < 0.0 or not math.isfinite(extra_time):
            raise ValueError("time parameter must be finite and >= 0")
        live: list = []
        params = SimulationParams(self.window, time, measure, seed)
        outer = self._first_hit(params, live, self._root_law(measure))
        if outer != math.inf:
            return outer
        inner = math.inf
        for _, label, poly, _, _, _ in live:
            params = SimulationParams(poly, min(extra_time, inner), measure, mix_seed(nest_seed, label))
            inner = min(inner, self._first_hit(params, []))
        # nest() dates each inner chord time + its inner time.
        return time + inner

    def _first_hit(self, params: SimulationParams, live: list, root_law: tuple | None = None) -> float:
        """Death of the first event of the pruned run whose chord meets a body; inf if none."""
        queries = self._queries
        for death, cut in _divisions(params, live, self._near, root_law):
            if cut is not None and any(q.meets(cut[0], cut[1]) for q in queries):
                return death
        return math.inf


# ---------------------------------------------------------------------------
# JSON form


def tessellation_to_json(tess: Tessellation) -> dict:
    return {
        "window": polygon_to_json(tess.window),
        "time": tess.time,
        "cells": [
            {
                "id": c.id,
                "parent": c.parent_id,
                "birth": c.birth_time,
                "death": c.death_time,
                "polygon": polygon_to_json(c.polygon),
            }
            for c in tess.cells
        ],
        "internal_edges": [
            {"a": [e.a[0], e.a[1]], "b": [e.b[0], e.b[1]], "time": e.time}
            for e in tess.internal_edges
        ],
    }


def tessellation_from_json(obj: dict) -> Tessellation:
    cells = tuple(
        Cell(
            id=int(c["id"]),
            parent_id=int(c["parent"]),
            polygon=polygon_from_json(c["polygon"]),
            birth_time=float(c["birth"]),
            death_time=float(c["death"]),
        )
        for c in obj["cells"]
    )
    edges = tuple(
        Edge(
            (float(e["a"][0]), float(e["a"][1])),
            (float(e["b"][0]), float(e["b"][1])),
            float(e["time"]),
        )
        for e in obj["internal_edges"]
    )
    return Tessellation(
        window=polygon_from_json(obj["window"]),
        time=float(obj["time"]),
        cells=cells,
        internal_edges=edges,
    )
