"""Exact 2-D convex geometry kernel.

Polygons, half-plane clipping, the one projection helper, and the
line-hitting and interior-clearance predicates. Everything here is pure and
immutable; degenerate polygons (segments, points) share the same code paths
as proper ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

Point = tuple[float, float]

# Geometric tolerance in length units. Windows are O(1)..O(1e2) units, so
# doubles leave ample headroom below this.
EPS = 1e-9

# Unit-vector normalisation tolerance.
DIR_EPS = 1e-12


class GeometryError(ValueError):
    """Raised on invalid geometric input."""


@dataclass(frozen=True)
class Direction:
    """Unit vector in the plane, renormalised on construction."""

    x: float
    y: float

    def __post_init__(self) -> None:
        n = math.hypot(self.x, self.y)
        if n == 0.0 or not math.isfinite(n):
            raise GeometryError("direction must be a non-zero finite vector")
        if abs(n - 1.0) > DIR_EPS:
            object.__setattr__(self, "x", self.x / n)
            object.__setattr__(self, "y", self.y / n)

    @classmethod
    def from_angle(cls, theta: float) -> Direction:
        return cls(math.cos(theta), math.sin(theta))

    @property
    def angle(self) -> float:
        return math.atan2(self.y, self.x)

    def dot(self, p: Point) -> float:
        return self.x * p[0] + self.y * p[1]

    def cross(self, other: Direction) -> float:
        return self.x * other.y - self.y * other.x

    def perpendicular(self) -> Direction:
        return Direction(-self.y, self.x)


@dataclass(frozen=True)
class Hyperplane:
    """Line at distance ``r >= 0`` from the origin with exterior unit normal ``u``.

    The line is {x : <x,u> = r}; the closed half-plane not containing the
    origin is ``plus``, the other one ``minus``.
    """

    r: float
    u: Direction

    def __post_init__(self) -> None:
        if not (self.r >= 0.0) or not math.isfinite(self.r):
            raise GeometryError(f"hyperplane distance must be >= 0, got {self.r}")

    def offset(self, p: Point) -> float:
        """Signed distance of ``p`` from the line, positive on the plus side."""
        return self.u.dot(p) - self.r


def _dist(p: Point, q: Point) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _shoelace2(verts: Sequence[Point]) -> float:
    """Twice the signed area of a closed vertex loop."""
    s = 0.0
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        s += x1 * y2 - y1 * x2
    return s


def _perp_distance(p: Point, a: Point, b: Point) -> float:
    """Distance of ``p`` from the infinite line through ``a`` and ``b``."""
    ax, ay = a
    bx, by = b
    ex, ey = bx - ax, by - ay
    n = math.hypot(ex, ey)
    if n == 0.0:
        return _dist(p, a)
    return abs(ex * (p[1] - ay) - ey * (p[0] - ax)) / n


def _canonical_loop(points: Sequence[Point], ccw: bool = False) -> tuple[tuple[Point, ...], float | None]:
    """Tidy a convex loop of finite floats: dedupe, orient CCW, strip collinear vertices.

    Collapses nearly-collinear loops to a segment and coincident points to a
    single point, using the module tolerance. Raises GeometryError when the
    tidied loop turns clockwise at a vertex farther than EPS from the chord
    of its neighbours. With ``ccw`` the loop is known to run
    counter-clockwise and is never reversed: the shoelace sum about the
    origin can take the wrong sign for a loop of tiny area.
    Returns the loop and its perimeter, summed edge by edge from vertex 0,
    or None for the perimeter unless the loop is the deduped points as given.
    """
    while True:
        # Dedupe, shoelace sum and perimeter in one pass.
        lx, ly = x0, y0 = points[0]
        pts = [points[0]]
        area2 = per = 0.0
        for p in points[1:]:
            x, y = p
            d = math.hypot(x - lx, y - ly)
            if d > EPS:
                pts.append(p)
                per += d
                area2 += lx * y - ly * x
                lx, ly = x, y
        d = math.hypot(x0 - lx, y0 - ly)
        if d > EPS or len(pts) == 1:
            break
        # The last vertex lies within EPS of the first: drop it and sum again.
        points = pts[:-1]
    per += d
    area2 += lx * y0 - ly * x0
    if len(pts) < 3:
        return tuple(pts), per

    # A loop within EPS of a line spans at most a 2*EPS-wide strip, so its
    # doubled area is below 4*EPS*diameter; larger loops skip the collapse.
    # That diameter, the bounding box's diagonal, is below perimeter/sqrt(2).
    if abs(area2) <= 4.0 * EPS * per:
        xmin, xmax, ymin, ymax = _bounds(pts)
        if abs(area2) <= 4.0 * EPS * math.hypot(xmax - xmin, ymax - ymin):
            best = (0, 1)
            best_d = -1.0
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    d = _dist(pts[i], pts[j])
                    if d > best_d:
                        best_d = d
                        best = (i, j)
            a, b = pts[best[0]], pts[best[1]]
            if all(_perp_distance(p, a, b) <= EPS for p in pts):
                return ((a, b) if best_d > EPS else (a,)), None

    if area2 < 0.0 and not ccw:
        pts.reverse()
        per = None

    # One scan for the distance of each vertex q = pts[i] from the chord of
    # its neighbours p, r and the turn p -> q -> r. The first vertex within
    # EPS of its chord is stripped and the scan starts again from vertex 0;
    # with none left, a clockwise turn means the loop is not convex.
    while True:
        clockwise = False
        px, py = pts[-1]
        qx, qy = pts[0]
        for i, (rx, ry) in enumerate(pts[1:] + pts[:1]):
            ex, ey = rx - px, ry - py
            ln = math.hypot(ex, ey)
            if ln == 0.0:
                dist = math.hypot(qx - px, qy - py)
            else:
                dist = abs(ex * (qy - py) - ey * (qx - px)) / ln
            if dist <= EPS:
                break
            if (qx - px) * (ry - qy) - (qy - py) * (rx - qx) < 0.0:
                clockwise = True
            px, py, qx, qy = qx, qy, rx, ry
        else:
            if clockwise:
                raise GeometryError("vertex chain is not convex")
            return tuple(pts), per
        pts.pop(i)
        per = None
        if len(pts) < 3:
            return tuple(pts), per


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex vertex chain in counter-clockwise order.

    One vertex is a point, two a segment, three or more a proper polygon.
    The constructor canonicalises the chain (orientation, duplicate and
    collinear vertex removal) and rejects a chain that is not convex.
    """

    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) == 0:
            raise GeometryError("polygon needs at least one vertex")
        object.__setattr__(self, "vertices", _canonical_loop(_finite(self.vertices))[0])

    @property
    def pieces(self) -> tuple[ConvexPolygon]:
        """The polygon as a one-piece body, as ``CompactSet.pieces``."""
        return (self,)

    @cached_property
    def _perimeter(self) -> float:
        verts = self.vertices
        if len(verts) == 1:
            return 0.0
        # Summed edge by edge from vertex 0: seeded results depend on this order.
        total = 0.0
        px, py = verts[0]
        for qx, qy in verts[1:]:
            total += math.hypot(px - qx, py - qy)
            px, py = qx, qy
        return total + math.hypot(px - verts[0][0], py - verts[0][1])

    @property
    def connected(self) -> bool:
        return True


def _finite(points: Iterable[Point]) -> list[Point]:
    """The points as float pairs; raises GeometryError for a non-finite coordinate."""
    pts = []
    for x, y in points:
        x, y = float(x), float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise GeometryError(f"vertex coordinates must be finite, got ({x}, {y})")
        pts.append((x, y))
    return pts


def _polygon(verts: tuple[Point, ...], per: float | None) -> ConvexPolygon:
    """A polygon on a canonical loop and, when known, its perimeter, as ``_canonical_loop`` returns them."""
    poly = object.__new__(ConvexPolygon)
    object.__setattr__(poly, "vertices", verts)
    if per is not None:
        object.__setattr__(poly, "_perimeter", per)
    return poly


def _canonicalise(points: Sequence[Point], ccw: bool = False) -> ConvexPolygon:
    """The polygon on the ``_canonical_loop`` of ``points`` and, when that comes back, its perimeter."""
    return _polygon(*_canonical_loop(points, ccw))


@dataclass(frozen=True)
class CompactSet:
    """Finite union of convex polygons; ``connected`` is derived on construction."""

    pieces: tuple[ConvexPolygon, ...]
    connected: bool = field(init=False)

    def __post_init__(self) -> None:
        if len(self.pieces) == 0:
            raise GeometryError("compact set needs at least one piece")
        object.__setattr__(self, "connected", _is_connected(self.pieces))

    @classmethod
    def of(cls, *pieces: ConvexPolygon) -> CompactSet:
        return cls(tuple(pieces))


def _vertices_of(body: ConvexPolygon | CompactSet) -> list[Point]:
    return [v for piece in body.pieces for v in piece.vertices]


def _is_connected(pieces: Sequence[ConvexPolygon]) -> bool:
    n = len(pieces)
    if n == 1:
        return True
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if piece_distance(pieces[i], pieces[j]) <= EPS:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    root = find(0)
    return all(find(i) == root for i in range(n))


# ---------------------------------------------------------------------------
# Hull, clipping, intersection


def _half(seq: Sequence[Point]) -> list[Point]:
    """One monotone chain over sorted points: each point kept turns left from the two before it."""
    out: list[Point] = []
    for p in seq:
        while len(out) >= 2:
            o, a = out[-2], out[-1]
            if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0.0:
                out.pop()
            else:
                break
        out.append(p)
    return out


def convex_hull(points: Iterable[Point]) -> ConvexPolygon:
    """Minimal convex polygon containing the input points (monotone chain)."""
    pts = sorted(set(_finite(points)))
    if not pts:
        raise GeometryError("empty point set")
    if len(pts) == 1:
        return _canonicalise(pts)
    lower = _half(pts)
    upper = _half(pts[::-1])
    # The chain turns left at every vertex, each turn taken from differences
    # of nearby points, so its orientation is known.
    return _canonicalise(lower[:-1] + upper[:-1], ccw=True)


def _clip_loop(verts: Sequence[Point], s: Sequence[float], tol: float) -> list[Point]:
    """Clip a convex vertex loop to the side where the offsets ``s`` are >= 0.

    ``s[i]`` is vertex i's offset from the cutting line, positive on the
    kept side, and vertices within ``tol`` of the line are kept on both
    sides.
    """
    n = len(verts)
    lo = -tol
    loop: list[Point] = []
    si = s[0]
    for i in range(n):
        j = i + 1 if i + 1 < n else 0
        sj = s[j]
        if si >= lo:
            loop.append(verts[i])
        if (si > tol and sj < lo) or (si < lo and sj > tol):
            t = si / (si - sj)
            (xi, yi), (xj, yj) = verts[i], verts[j]
            loop.append((xi + t * (xj - xi), yi + t * (yj - yi)))
        si = sj
    return loop


def clip(poly: ConvexPolygon, plane: Hyperplane, side: str) -> ConvexPolygon | None:
    """Intersection of ``poly`` with the closed half-plane on ``side`` of ``plane``.

    Returns None when the intersection is empty or degenerates onto the
    cutting line (a sliver thinner than the tolerance).
    """
    if side not in ("plus", "minus"):
        raise GeometryError(f"side must be 'plus' or 'minus', got {side!r}")
    ux, uy, r = plane.u.x, plane.u.y, plane.r
    verts = poly.vertices
    # With no offset on the kept side above EPS the loop is empty or lies
    # within EPS of the line.
    sign = 1.0 if side == "plus" else -1.0
    s = [sign * (x * ux + y * uy - r) for x, y in verts]
    if max(s) <= EPS:
        return None
    return _canonicalise(_clip_loop(verts, s, EPS))


def polygon_intersection(poly: ConvexPolygon, window: ConvexPolygon) -> ConvexPolygon | None:
    """Intersection of a convex polygon (possibly degenerate) with a proper one."""
    if len(window.vertices) < 3:
        raise GeometryError("intersection window must have positive area")
    loop = list(poly.vertices)
    wv = window.vertices
    for i in range(len(wv)):
        a, b = wv[i], wv[(i + 1) % len(wv)]
        # The edge's inward normal has the edge's length, and so does the
        # tolerance on offsets along it: EPS in length units.
        nx, ny = a[1] - b[1], b[0] - a[0]
        c = a[0] * nx + a[1] * ny
        loop = _clip_loop(loop, [x * nx + y * ny - c for x, y in loop], EPS * math.hypot(nx, ny))
        if not loop:
            return None
    return ConvexPolygon(tuple(loop))


def clip_segment_to_polygon(
    a: Point, b: Point, window: ConvexPolygon
) -> tuple[Point, Point] | None:
    """Part of segment ``ab`` inside a proper convex polygon, or None."""
    t0, t1 = 0.0, 1.0
    dx, dy = b[0] - a[0], b[1] - a[1]
    wv = window.vertices
    for i in range(len(wv)):
        p, q = wv[i], wv[(i + 1) % len(wv)]
        nx, ny = p[1] - q[1], q[0] - p[0]
        c = p[0] * nx + p[1] * ny
        sa = a[0] * nx + a[1] * ny - c
        sd = dx * nx + dy * ny
        if abs(sd) < 1e-300:
            # n has the edge's length, and so has the tolerance on sa: EPS in length units.
            if sa < -EPS * math.hypot(nx, ny):
                return None
            continue
        t = -sa / sd
        if sd > 0:
            t0 = max(t0, t)
        else:
            t1 = min(t1, t)
        if t0 > t1:
            return None
    # Snap to the exact endpoints when the cut is only rounding noise.
    if t0 < 1e-12:
        t0 = 0.0
    if t1 > 1.0 - 1e-12:
        t1 = 1.0
    p0 = a if t0 == 0.0 else (a[0] + t0 * dx, a[1] + t0 * dy)
    p1 = b if t1 == 1.0 else (a[0] + t1 * dx, a[1] + t1 * dy)
    if _dist(p0, p1) <= EPS:
        return None
    return (p0, p1)


def chord(poly: ConvexPolygon, plane: Hyperplane) -> tuple[Point, Point] | None:
    """Segment in which the cutting line crosses the polygon, or None."""
    pts: list[Point] = []
    verts = poly.vertices
    n = len(verts)
    ux, uy, r = plane.u.x, plane.u.y, plane.r
    offs = [ux * x + uy * y - r for x, y in verts]
    si = offs[0]
    for i in range(n):
        j = i + 1 if i + 1 < n else 0
        sj = offs[j]
        if abs(si) <= EPS:
            pts.append(verts[i])
        if (si > EPS and sj < -EPS) or (si < -EPS and sj > EPS):
            t = si / (si - sj)
            (xi, yi), (xj, yj) = verts[i], verts[j]
            pts.append((xi + t * (xj - xi), yi + t * (yj - yi)))
        si = sj
    if len(pts) < 2:
        return None
    tx, ty = -uy, ux
    pts.sort(key=lambda p: p[0] * tx + p[1] * ty)
    if _dist(pts[0], pts[-1]) <= EPS:
        return None
    return (pts[0], pts[-1])


# ---------------------------------------------------------------------------
# Projection and hit predicates


def projection_bounds(verts: Sequence[Point], ux: float, uy: float) -> tuple[float, float]:
    """(min, max) of x * ux + y * uy over a non-empty vertex chain.

    The one projection of the package: the max is the support function
    h(u) of the hull of ``verts``, and a line (r, u) with r >= 0 hits that
    hull iff r lies in [lo, hi] (both ends may be negative).
    """
    lo = hi = verts[0][0] * ux + verts[0][1] * uy
    for x, y in verts:
        p = x * ux + y * uy
        if p < lo:
            lo = p
        elif p > hi:
            hi = p
    return lo, hi


def hits(plane: Hyperplane, body: ConvexPolygon | CompactSet) -> bool:
    """True iff the line meets some piece of the body (touching counts)."""
    u, r = plane.u, plane.r
    for piece in body.pieces:
        lo, hi = projection_bounds(piece.vertices, u.x, u.y)
        if lo - EPS <= r <= hi + EPS:
            return True
    return False


def separates(
    plane: Hyperplane, a: ConvexPolygon | CompactSet, b: ConvexPolygon | CompactSet
) -> bool:
    """True iff the line strictly separates the two sets (clearance > EPS)."""
    offs_a = [plane.offset(v) for v in _vertices_of(a)]
    offs_b = [plane.offset(v) for v in _vertices_of(b)]
    a_minus = all(o < -EPS for o in offs_a)
    a_plus = all(o > EPS for o in offs_a)
    b_minus = all(o < -EPS for o in offs_b)
    b_plus = all(o > EPS for o in offs_b)
    return (a_minus and b_plus) or (a_plus and b_minus)


# ---------------------------------------------------------------------------
# Metric quantities


def area(poly: ConvexPolygon) -> float:
    return 0.5 * _shoelace2(poly.vertices)


def perimeter(poly: ConvexPolygon) -> float:
    """Boundary length; a segment's boundary is traversed both ways (2L).

    Summed edge by edge from vertex 0, once per polygon. The canonicaliser
    forms this sum in its dedupe pass, and ``clip``, ``convex_hull`` and
    ``translate`` hand it to their polygon whenever the loop stays as deduped.
    """
    return poly._perimeter


def diameter(body: ConvexPolygon | CompactSet) -> float:
    verts = _vertices_of(body)
    if len(verts) == 1:
        return 0.0
    return max(
        _dist(verts[i], verts[j])
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
    )


# ---------------------------------------------------------------------------
# Distances and containment


def _point_segment_distance(p: Point, a: Point, b: Point) -> float:
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    l2 = dx * dx + dy * dy
    if l2 == 0.0:
        return _dist(p, a)
    t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / l2
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return _dist(p, (ax + t * dx, ay + t * dy))


def segment_segment_distance(p1: Point, p2: Point, q1: Point, q2: Point) -> float:
    """Distance between segments p1p2 and q1q2, to rounding (about 0 where they cross)."""
    ends = min(
        _point_segment_distance(p1, q1, q2),
        _point_segment_distance(p2, q1, q2),
        _point_segment_distance(q1, p1, p2),
        _point_segment_distance(q2, p1, p2),
    )
    d1 = (p2[0] - p1[0], p2[1] - p1[1])
    d2 = (q2[0] - q1[0], q2[1] - q1[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(denom) > 1e-300:
        rx, ry = q1[0] - p1[0], q1[1] - p1[1]
        t = (rx * d2[1] - ry * d2[0]) / denom
        s = (rx * d1[1] - ry * d1[0]) / denom
        if 0.0 <= t <= 1.0 and 0.0 <= s <= 1.0:
            # For nearly parallel segments denom is mostly rounding, and so
            # are t and s: no bare 0. The point at t lies on p1p2 whatever t
            # is, so its distance to q1q2 bounds theirs from above, and it is
            # rounding-small where they truly cross.
            crossing = (p1[0] + t * d1[0], p1[1] + t * d1[1])
            return min(ends, _point_segment_distance(crossing, q1, q2))
    return ends


def contains_point(poly: ConvexPolygon, p: Point, tol: float = EPS) -> bool:
    """True iff ``p`` lies in the polygon, within ``tol`` of its point set."""
    verts = poly.vertices
    n = len(verts)
    if n == 1:
        return _dist(p, verts[0]) <= tol
    if n == 2:
        return _point_segment_distance(p, verts[0], verts[1]) <= tol
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        ex, ey = b[0] - a[0], b[1] - a[1]
        ln = math.hypot(ex, ey)
        if (ex * (p[1] - a[1]) - ey * (p[0] - a[0])) / ln < -tol:
            return False
    return True


def interior_clearance(window: ConvexPolygon, points: Sequence[Point]) -> float:
    """Smallest signed distance from the points to the window's edge lines.

    Inside is positive; -inf when the window has no area. Each edge's terms
    are computed once, and the per-edge minimum of the cross products is
    divided by the edge length once: division by a positive number is
    monotone under rounding, so this is the minimum of the distances.
    """
    verts = window.vertices
    if len(verts) < 3:
        return -math.inf
    inf = math.inf
    best = inf
    for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
        ex, ey = bx - ax, by - ay
        low = inf
        for px, py in points:
            c = ex * (py - ay) - ey * (px - ax)
            if c < low:
                low = c
        low /= math.hypot(ex, ey)
        if low < best:
            best = low
    return best


def _boundary_edges(poly: ConvexPolygon) -> list[tuple[Point, Point]]:
    v = poly.vertices
    n = len(v)
    if n == 1:
        return [(v[0], v[0])]
    if n == 2:
        return [(v[0], v[1])]
    return [(v[i], v[(i + 1) % n]) for i in range(n)]


def piece_distance(p: ConvexPolygon, q: ConvexPolygon) -> float:
    """Distance between the point sets of two convex pieces (0 if they meet)."""
    if any(contains_point(p, v, 0.0) for v in q.vertices):
        return 0.0
    if any(contains_point(q, v, 0.0) for v in p.vertices):
        return 0.0
    best = math.inf
    for a1, a2 in _boundary_edges(p):
        for b1, b2 in _boundary_edges(q):
            best = min(best, segment_segment_distance(a1, a2, b1, b2))
            if best == 0.0:
                return 0.0
    return best


def segment_hits_body(a: Point, b: Point, body: ConvexPolygon | CompactSet) -> bool:
    """True iff segment ``ab`` comes within EPS of any piece of the body.

    For a point or a segment piece the tolerance is Euclidean. For a proper
    piece an endpoint counts when it lies within EPS of the inner side of
    every edge line (``contains_point``), so points up to EPS / sin(theta/2)
    past a vertex of interior angle theta count as well. ``hit_reach``
    bounds the region in which this can return True.
    """
    for piece in body.pieces:
        if contains_point(piece, a) or contains_point(piece, b):
            return True
        pv = piece.vertices
        n = len(pv)
        if n == 1:
            if _point_segment_distance(pv[0], a, b) <= EPS:
                return True
            continue
        for i in range(n if n > 2 else 1):
            if segment_segment_distance(a, b, pv[i], pv[(i + 1) % n]) <= EPS:
                return True
    return False


def hit_reach(piece: ConvexPolygon, scale: float) -> tuple[Point, ...] | None:
    """Reach of a piece: a convex CCW polygon that segment ``ab`` meets
    whenever ``segment_hits_body(a, b, piece)`` is True.

    A point or a segment reaches EPS around it (returned: the square or
    rectangle around that). A proper piece applies EPS per edge line, so
    its reach is the piece with every edge line pushed out; the corner at a
    vertex v with edge normals n1, n2 is v + EPS (n1 + n2) / (1 + n1 . n2),
    EPS / sin(theta/2) out for an interior angle theta. The offset is
    widened by 2^-16 EPS + 2^-44 scale (a few hundred ulps), ``scale``
    bounding the coordinates of the piece and of the segments tested, so
    that rounding in the predicate cannot leave the reach. None (unbounded)
    when some sin(theta/2) < 2^-20: such a corner cannot be placed that
    accurately.
    """
    d = EPS * (1.0 + 2.0**-16) + 2.0**-44 * scale
    verts = piece.vertices
    n = len(verts)
    if n == 1:
        x, y = verts[0]
        return ((x - d, y - d), (x + d, y - d), (x + d, y + d), (x - d, y + d))
    if n == 2:
        (ax, ay), (bx, by) = verts
        ln = math.hypot(bx - ax, by - ay)
        tx, ty = d * (bx - ax) / ln, d * (by - ay) / ln
        return (
            (ax - tx + ty, ay - ty - tx),
            (bx + tx + ty, by + ty - tx),
            (bx + tx - ty, by + ty + tx),
            (ax - tx - ty, ay - ty + tx),
        )
    out = []
    # Corner at q = verts[i]: n1 is the normal of the edge into q, n2 of the edge out.
    (px, py), (qx, qy) = verts[-1], verts[0]
    ln = math.hypot(qx - px, qy - py)
    n1x, n1y = (qy - py) / ln, (px - qx) / ln
    for rx, ry in verts[1:] + verts[:1]:
        ln = math.hypot(rx - qx, ry - qy)
        n2x, n2y = (ry - qy) / ln, (qx - rx) / ln
        sx, sy = n1x + n2x, n1y + n2y
        # |n1 + n2|^2 = 2 (1 + n1 . n2) = 4 sin^2(theta/2).
        s2 = sx * sx + sy * sy
        if s2 < 2.0**-38:
            return None
        k = 2.0 * d / s2
        out.append((qx + k * sx, qy + k * sy))
        qx, qy, n1x, n1y = rx, ry, n2x, n2y
    return tuple(out)


# ---------------------------------------------------------------------------
# Rigid motions, scaling, dilation


def translate(poly: ConvexPolygon, t: Point) -> ConvexPolygon:
    """The polygon moved by t, with the perimeter its canonical pass sums, as ``clip`` has."""
    tx, ty = t
    return _canonicalise(_finite((x + tx, y + ty) for x, y in poly.vertices))


def scale(poly: ConvexPolygon, s: float) -> ConvexPolygon:
    """The polygon scaled about the origin by s > 0.

    A power of two scales each coordinate exactly, as dividing back
    confirms (an under- or overflow fails it), so the loop keeps every
    vertex, features a shrink takes below EPS included. Other factors
    canonicalise the scaled loop again.
    """
    if not (s > 0.0):
        raise GeometryError("scale factor must be positive")
    verts = tuple((s * x, s * y) for x, y in poly.vertices)
    if math.frexp(s)[0] == 0.5 and all((x / s, y / s) == v for (x, y), v in zip(verts, poly.vertices)):
        return _polygon(verts, None)
    return ConvexPolygon(verts)


# Directions in which ``dilate`` pushes each vertex out.
DILATE_DIRS = 16


def dilate(body: ConvexPolygon | CompactSet, margin: float) -> ConvexPolygon:
    """Convex window containing the body with clearance ~``margin`` everywhere.

    Hull of the vertices pushed outward in ``DILATE_DIRS`` directions; the
    true clearance is at least margin * cos(pi / DILATE_DIRS).
    """
    if not (margin > 0.0):
        raise GeometryError("dilation margin must be positive")
    pts: list[Point] = []
    for v in _vertices_of(body):
        for k in range(DILATE_DIRS):
            t = 2.0 * math.pi * k / DILATE_DIRS
            pts.append((v[0] + margin * math.cos(t), v[1] + margin * math.sin(t)))
    return convex_hull(pts)


def _bounds(verts: Sequence[Point]) -> tuple[float, float, float, float]:
    """(x0, x1, y0, y1): the bounding box of the vertices."""
    xs = [x for x, _ in verts]
    ys = [y for _, y in verts]
    return min(xs), max(xs), min(ys), max(ys)


def hull_of(body: ConvexPolygon | CompactSet) -> ConvexPolygon:
    """Convex hull of all pieces."""
    if len(body.pieces) == 1:
        return body.pieces[0]
    return convex_hull(_vertices_of(body))


def _chains(verts: tuple[Point, ...]) -> tuple[tuple[Point, ...], tuple[Point, ...]]:
    """A canonical CCW loop split at its lexicographic minimum and maximum:
    the lower chain, ascending, and the upper chain, descending, each with both ends."""
    i, j = verts.index(min(verts)), verts.index(max(verts))
    loop = verts[i:] + verts[:i]
    k = (j - i) % len(verts)
    return loop[: k + 1], loop[k:] + loop[:1]


def _joint_hull(a: ConvexPolygon | CompactSet, b: ConvexPolygon | CompactSet) -> ConvexPolygon:
    """Convex hull of two bodies together, from the chains of their hulls, in O(n + m).

    Every vertex of the joint lower hull lies on one hull's lower chain, and
    likewise for the upper, so the monotone chain of ``convex_hull`` run
    over the two lower chains and over the two upper chains pops only the
    points it leaves out and builds the same loop. Each input is two
    sorted runs, which ``sorted`` merges in linear time.
    """
    la, ua = _chains(hull_of(a).vertices)
    lb, ub = _chains(hull_of(b).vertices)
    lower = _half(sorted(la + lb))
    upper = _half(sorted(ua + ub, reverse=True))
    return _canonicalise(lower[:-1] + upper[:-1], ccw=True)


# A vertex's (y, x): the lowest vertex is the first in this order, the highest the last.
_YX = itemgetter(1, 0)


def _difference_hull(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon:
    """Hull of {p - q : p in a, q in b}, the Minkowski sum of a and -b, in O(n + m).

    An edge merge: walk a's edges from its lowest vertex and -b's from its
    lowest (b's highest) in angular order, advancing the edge that turns
    first by the sign of their cross product (both when parallel), and
    emit the difference of the current vertices at each step. Points and
    segments are loops with zero-length or doubled-back edges, so they
    take the same walk. The at most n + m points include every vertex of
    the exact difference hull, and the result is ``convex_hull`` of them.

    Two edges that point the same way, with a cross product that puts the
    point between them within EPS / 2 of the chord, advance together: a
    translate's edges are parallel only up to rounding, and the
    canonicaliser would strip that point. The emitted loop, started at its
    lexicographic minimum, is the loop ``convex_hull`` builds when the
    canonicaliser hands it back whole and no left-out point is that
    minimum; otherwise, and when the loop has fewer than three points, the
    hull comes from ``convex_hull`` of every point, left out or not.
    """
    av, bv = a.vertices, b.vertices
    n, m = len(av), len(bv)
    k = av.index(min(av, key=_YX))
    av = av[k:] + av[: k + 1]
    k = bv.index(max(bv, key=_YX))
    bv = bv[k:] + bv[: k + 1]
    pts = []
    skipped = []
    tol = 0.25 * EPS * EPS
    i = j = 0
    while i < n or j < m:
        (px, py), (qx, qy) = av[i], bv[j]
        pts.append((px - qx, py - qy))
        if i == n:
            j += 1
        elif j == m:
            i += 1
        else:
            # a's edge times -b's edge (q - q_next): positive when a's turns first.
            (rx, ry), (sx, sy) = av[i + 1], bv[j + 1]
            ax, ay, bx, by = rx - px, ry - py, qx - sx, qy - sy
            cross = ax * by - ay * bx
            dot = ax * bx + ay * by
            if cross == 0.0:
                i += 1
                j += 1
            elif dot > 0.0 and cross * cross <= tol * (ax * ax + ay * ay + bx * bx + by * by + dot + dot):
                # The point between lies |cross| / |a's edge + -b's edge| from the chord.
                skipped.append((rx - qx, ry - qy) if cross > 0.0 else (px - sx, py - sy))
                i += 1
                j += 1
            elif cross > 0.0:
                i += 1
            else:
                j += 1
    start = min(pts)
    if len(pts) > 2 or not skipped:
        k = pts.index(start)
        loop = pts[k:] + pts[:k]
        try:
            verts, per = _canonical_loop(loop, ccw=True)
        except GeometryError:
            verts = ()
        if len(verts) == len(loop) and per is not None and not (skipped and min(skipped) < start):
            return _polygon(verts, per)
    return convex_hull(pts + skipped)


# ---------------------------------------------------------------------------
# Common shapes and JSON forms


def box(x0: float, y0: float, x1: float, y1: float) -> ConvexPolygon:
    return ConvexPolygon(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))


def regular_polygon(n: int, circumradius: float = 1.0, center: Point = (0.0, 0.0)) -> ConvexPolygon:
    return ConvexPolygon(
        tuple(
            (
                center[0] + circumradius * math.cos(2.0 * math.pi * k / n),
                center[1] + circumradius * math.sin(2.0 * math.pi * k / n),
            )
            for k in range(n)
        )
    )


def polygon_to_json(poly: ConvexPolygon) -> dict:
    return {"vertices": [[x, y] for x, y in poly.vertices]}


def polygon_from_json(obj: dict) -> ConvexPolygon:
    return ConvexPolygon(tuple((float(x), float(y)) for x, y in obj["vertices"]))


def compact_to_json(body: CompactSet) -> dict:
    return {"pieces": [polygon_to_json(p) for p in body.pieces]}


def compact_from_json(obj: dict) -> CompactSet:
    return CompactSet(tuple(polygon_from_json(p) for p in obj["pieces"]))
