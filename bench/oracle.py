"""Reference values the benchmark computes without calling stitlab.

Every check of a program output compares it with something built here from
vertex lists alone: shoelace areas, direction quadratures of
line masses, a vectorised segment-intersection test and exact binomial
tails. Nothing in this module imports the package under test.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

Point = tuple[float, float]

# Two-sided normal tail at the benchmark's stated z. Statistical checks fail
# only when the exact binomial tail of the observed count is below this.
Z = 4.5
TAIL = math.erfc(Z / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Polygons


def shoelace(verts: Sequence[Point]) -> float:
    """Signed area of a vertex loop (positive when counter-clockwise)."""
    n = len(verts)
    if n < 3:
        return 0.0
    return 0.5 * math.fsum(
        verts[i][0] * verts[(i + 1) % n][1] - verts[i][1] * verts[(i + 1) % n][0] for i in range(n)
    )


def regular_polygon_perimeter(n: int, circumradius: float) -> float:
    return 2.0 * n * circumradius * math.sin(math.pi / n)


def inside_convex(verts: Sequence[Point], pts: np.ndarray, tol: float) -> np.ndarray:
    """Which points lie in the closed CCW convex polygon, within ``tol``."""
    v = np.asarray(verts, dtype=float)
    e = np.roll(v, -1, axis=0) - v
    length = np.hypot(e[:, 0], e[:, 1])
    # Signed distance of every point from every edge line, inside positive.
    cross = e[None, :, 0] * (pts[:, None, 1] - v[None, :, 1]) - e[None, :, 1] * (
        pts[:, None, 0] - v[None, :, 0]
    )
    return np.all(cross / length[None, :] >= -tol, axis=1)


def convex_polygons_meet(p: Sequence[Point], q: Sequence[Point]) -> bool:
    """Separating-axis test for two convex vertex loops (segments allowed)."""
    pv = np.asarray(p, dtype=float)
    qv = np.asarray(q, dtype=float)
    axes = []
    for v in (pv, qv):
        e = np.roll(v, -1, axis=0) - v
        axes.append(np.stack([-e[:, 1], e[:, 0]], axis=1))
        if len(v) == 2:
            axes.append(e)
    normals = np.concatenate(axes)
    normals = normals[np.hypot(normals[:, 0], normals[:, 1]) > 0.0]
    a = pv @ normals.T
    b = qv @ normals.T
    return not bool(np.any((a.max(axis=0) < b.min(axis=0)) | (b.max(axis=0) < a.min(axis=0))))


# ---------------------------------------------------------------------------
# Segments


def segments_hit_polygon(chords: np.ndarray, verts: Sequence[Point], tol: float) -> np.ndarray:
    """For each chord (rows x0, y0, x1, y1): does it meet the convex body?

    A chord meets a convex body iff an endpoint lies inside it or it crosses
    one of the body's boundary edges; touching within ``tol`` counts.
    """
    v = np.asarray(verts, dtype=float)
    a = chords[:, 0:2]
    b = chords[:, 2:4]
    if len(v) >= 3:
        hit = inside_convex(v, a, tol) | inside_convex(v, b, tol)
        edges = [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]
    else:
        hit = np.zeros(len(chords), dtype=bool)
        edges = [(v[0], v[-1])]
    for p, q in edges:
        hit |= _segment_distance(a, b, p, q) <= tol
    return hit


def _point_segment_distance(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = b - a
    l2 = np.einsum("ij,ij->i", d, d)
    t = np.where(l2 > 0.0, np.einsum("ij,ij->i", pts - a, d) / np.where(l2 > 0.0, l2, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    foot = a + t[:, None] * d
    return np.hypot(*(pts - foot).T)


def _segment_distance(a: np.ndarray, b: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distance from each segment a[i]b[i] to the fixed segment pq."""
    n = len(a)
    P = np.broadcast_to(p, (n, 2))
    Q = np.broadcast_to(q, (n, 2))
    d1 = b - a
    d2 = Q - P
    denom = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    r = P - a
    safe = np.where(denom != 0.0, denom, 1.0)
    t = (r[:, 0] * d2[:, 1] - r[:, 1] * d2[:, 0]) / safe
    s = (r[:, 0] * d1[:, 1] - r[:, 1] * d1[:, 0]) / safe
    crossing = (denom != 0.0) & (t >= 0.0) & (t <= 1.0) & (s >= 0.0) & (s <= 1.0)
    dist = np.minimum.reduce(
        [
            _point_segment_distance(a, P, Q),
            _point_segment_distance(b, P, Q),
            _point_segment_distance(P, a, b),
            _point_segment_distance(Q, a, b),
        ]
    )
    return np.where(crossing, 0.0, dist)


def count_crossings(chords: np.ndarray, p: Point, q: Point) -> int:
    """Number of chords that properly cross the segment pq."""
    a = chords[:, 0:2]
    b = chords[:, 2:4]
    P = np.asarray(p, dtype=float)
    Q = np.asarray(q, dtype=float)

    def orient(u, v, w):
        return (v[..., 0] - u[..., 0]) * (w[..., 1] - u[..., 1]) - (v[..., 1] - u[..., 1]) * (
            w[..., 0] - u[..., 0]
        )

    o1 = orient(a, b, P)
    o2 = orient(a, b, Q)
    o3 = orient(P, Q, a)
    o4 = orient(P, Q, b)
    return int(np.count_nonzero((o1 * o2 < 0.0) & (o3 * o4 < 0.0)))


# ---------------------------------------------------------------------------
# Line masses


class Measure:
    """A directional measure as plain numbers: (angle, mass) atoms plus an
    isotropic part of total mass ``iso`` spread uniformly over the circle."""

    def __init__(self, atoms: Sequence[tuple[float, float]] = (), iso: float = 0.0):
        self.atoms = tuple(atoms)
        self.iso = iso


AXES = Measure(atoms=[(0.0, 0.5), (math.pi, 0.5), (0.5 * math.pi, 0.5), (1.5 * math.pi, 0.5)])
ISO = Measure(iso=2.0 * math.pi)
MIXED = Measure(atoms=AXES.atoms, iso=math.pi)

QUADRATURE_POINTS = 1 << 14


def _pos(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Length of the interval (lo, hi) cut to r >= 0; zero when empty."""
    return np.where(hi > lo, np.maximum(hi, 0.0) - np.maximum(lo, 0.0), 0.0)


def pair_masses(measure: Measure, a: Sequence[Point], b: Sequence[Point], shifts) -> list[dict[str, float]]:
    """For b translated by each shift: masses of lines hitting a, b, their
    joint hull, separating them, and hitting both.

    Lines are (r >= 0, u); a line hits a body iff r lies in the body's
    projection interval onto u, so every mass is an integral over u of
    interval lengths built from vertex projections. The isotropic part is a
    midpoint quadrature over the circle.
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)

    def masses(theta: np.ndarray, weight: np.ndarray) -> np.ndarray:
        u = np.stack([np.cos(theta), np.sin(theta)])
        pa = av @ u
        pb = bv @ u
        lo_a, hi_a = pa.min(axis=0), pa.max(axis=0)
        out = []
        for sx, sy in shifts:
            off = sx * u[0] + sy * u[1]
            lo_b, hi_b = pb.min(axis=0) + off, pb.max(axis=0) + off
            parts = (
                _pos(lo_a, hi_a),
                _pos(lo_b, hi_b),
                _pos(np.minimum(lo_a, lo_b), np.maximum(hi_a, hi_b)),
                _pos(hi_a, lo_b) + _pos(hi_b, lo_a),
                _pos(np.maximum(lo_a, lo_b), np.minimum(hi_a, hi_b)),
            )
            out.append([float(part @ weight) for part in parts])
        return np.array(out).reshape(len(shifts), 5)

    total = np.zeros((len(shifts), 5))
    if measure.atoms:
        total += masses(np.array([t for t, _ in measure.atoms]), np.array([w for _, w in measure.atoms]))
    if measure.iso > 0.0:
        n = QUADRATURE_POINTS
        theta = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
        total += masses(theta, np.full(n, measure.iso / n))
    keys = ("a", "b", "hull", "sep", "both")
    return [dict(zip(keys, map(float, row))) for row in total]


def closed_form_row(m: dict[str, float], time: float) -> dict[str, tuple[float, float]]:
    """The sweep's closed forms from pair masses (mixing module notation).

    Each value comes with the size of the terms it is made of, which sets
    the scale of its tolerance: ratio - 1 is a difference of two terms and
    crosses zero.
    """
    d = m["hull"] - m["a"] - m["b"]
    expm1_ratio = -math.expm1(-time * d) / d
    product = math.exp(-time * (m["a"] + m["b"]))
    joint = m["sep"] * product * expm1_ratio
    gap = math.exp(-time * d)
    return {
        "product_exact": (product, product),
        "joint_gamma_exact": (joint, joint),
        "ratio_minus_one": (m["both"] * expm1_ratio - gap, m["both"] * expm1_ratio + gap),
        "gamma_complement_bound": (math.exp(-time * m["hull"]), math.exp(-time * m["hull"])),
    }


# ---------------------------------------------------------------------------
# Statistics


def binomial_tail(k: int, n: int, p: float) -> float:
    """Two-sided exact tail: 2 min(P(X <= k), P(X >= k)), X ~ Binomial(n, p)."""
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0
    logs = [
        math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
        + i * math.log(p) + (n - i) * math.log1p(-p)
        for i in range(n + 1)
    ]
    peak = max(logs)
    w = [math.exp(x - peak) for x in logs]
    total = sum(w)
    lower = sum(w[: k + 1]) / total
    upper = sum(w[k:]) / total
    return min(1.0, 2.0 * min(lower, upper))


def binomial_ok(k: int, n: int, p: float) -> bool:
    """Whether k successes in n trials are consistent with rate p at the stated z."""
    return binomial_tail(k, n, p) >= TAIL
