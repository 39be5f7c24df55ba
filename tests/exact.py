"""Rational arithmetic for the kernel's predicates: the truth its floats are judged against."""

from __future__ import annotations

from fractions import Fraction


def _rational(p):
    return Fraction(p[0]), Fraction(p[1])


def orient(a, b, c) -> Fraction:
    """Twice the signed area of the triangle a, b, c: positive where a -> b -> c turns left."""
    (ax, ay), (bx, by), (cx, cy) = _rational(a), _rational(b), _rational(c)
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def area(loop) -> Fraction:
    """Signed area of a vertex loop, positive where it runs counter-clockwise."""
    pts = [_rational(p) for p in loop]
    total = Fraction(0)
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        total += x1 * y2 - y1 * x2
    return total / 2


def _segment_distance_squared(p, a, b) -> Fraction:
    (px, py), (ax, ay), (bx, by) = _rational(p), _rational(a), _rational(b)
    dx, dy = bx - ax, by - ay
    length2 = dx * dx + dy * dy
    t = Fraction(0) if length2 == 0 else min(max(((px - ax) * dx + (py - ay) * dy) / length2, Fraction(0)), Fraction(1))
    return (px - ax - t * dx) ** 2 + (py - ay - t * dy) ** 2


def distance_squared(p, loop) -> Fraction:
    """Squared distance from ``p`` to a counter-clockwise convex loop: a point, a segment or a polygon."""
    edges = list(zip(loop, loop[1:] + loop[:1]))
    if len(loop) >= 3 and all(orient(a, b, p) >= 0 for a, b in edges):
        return Fraction(0)
    return min(_segment_distance_squared(p, a, b) for a, b in edges)
