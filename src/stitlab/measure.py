"""Stationary line measures on the plane.

A translation-invariant measure on lines factorises as (Lebesgue on r >= 0)
x (finite even directional measure nu on the unit circle). Here nu is a list of
atoms plus an optional isotropic component, which covers both anisotropic
models and the isotropic one while keeping every derived quantity in closed
form: hitting mass of a convex body, separation rate between points, its
certified lower bound over all directions, the masses of lines separating
and of lines hitting both of two bodies, and exact sampling of lines hitting
a window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Protocol

import numpy as np

from .geometry import (
    CompactSet,
    ConvexPolygon,
    Direction,
    Hyperplane,
    _joint_hull,
    convex_hull,
    hull_of,
    perimeter,
    projection_bounds,
)

TWO_PI = 2.0 * math.pi

# Rules of a measure: directions closer than SPAN_EPS (by cross product) are
# parallel; directions within BALANCE_EPS per component are one direction,
# and masses within BALANCE_EPS (relative, or absolute below 1) are equal.
SPAN_EPS = 1e-9
BALANCE_EPS = 1e-12


class MeasureError(ValueError):
    """Raised for degenerate or invalid directional measures."""


def _cut(lo: float, hi: float) -> tuple[float, float]:
    """A projection range (lo, hi) cut to the lines' r >= 0: (max(0, lo), max(0, hi)).

    Every r-range of lines (r, u) in this module passes through here, so the
    oriented-line convention (r >= 0, u on the whole circle) lives in one place.
    Conditionals give the same floats as ``max`` (-0.0 and NaN map to 0.0)
    at less cost per call, and this runs for every atom of every cell.
    """
    return (lo if lo > 0.0 else 0.0), (hi if hi > 0.0 else 0.0)


@dataclass(frozen=True)
class DirectionalMeasure:
    """Directional measure: atoms on the circle plus an isotropic component.

    ``isotropic_mass`` is the total mass of the uniform part, spread over the
    whole circle. Construction raises MeasureError naming the failing rule:
    positive finite masses, normals spanning the plane unless there is an
    isotropic part, and antipodal balance (every direction carries the atom
    mass of its opposite, so the line measure is translation-invariant).
    """

    atoms: tuple[tuple[Direction, float], ...]
    isotropic_mass: float = 0.0

    def __post_init__(self) -> None:
        atoms = self.atoms
        for u, w in atoms:
            if not (w > 0.0) or not math.isfinite(w):
                raise MeasureError(f"atom mass must be positive, got {w}")
        if self.isotropic_mass < 0.0 or not math.isfinite(self.isotropic_mass):
            raise MeasureError("isotropic mass must be finite and >= 0")
        if self.total_mass <= 0.0:
            raise MeasureError("degenerate directional measure: total mass is zero")
        if self.isotropic_mass == 0.0 and all(abs(atoms[0][0].cross(v)) <= SPAN_EPS for v, _ in atoms):
            raise MeasureError(
                "degenerate directional measure: all atom directions are parallel,"
                " supported normals do not span the plane"
            )
        eps = BALANCE_EPS
        for u, _ in atoms:
            same, opposite = (
                sum(w for v, w in atoms if abs(v.x - s * u.x) <= eps and abs(v.y - s * u.y) <= eps)
                for s in (1.0, -1.0)
            )
            if abs(same - opposite) > eps * max(1.0, same, opposite):
                raise MeasureError(
                    f"atom set is not antipodally balanced: direction ({u.x:.6g}, {u.y:.6g})"
                    f" carries mass {same:.6g}, its opposite {opposite:.6g}"
                )

    @property
    def total_mass(self) -> float:
        return self.isotropic_mass + sum(w for _, w in self.atoms)

    def to_json(self) -> dict:
        return {
            "isotropic_mass": self.isotropic_mass,
            "atoms": [{"angle_radians": u.angle, "mass": w} for u, w in self.atoms],
        }

    @classmethod
    def from_json(cls, obj: dict) -> DirectionalMeasure:
        atoms = tuple(
            (Direction.from_angle(float(a["angle_radians"])), float(a["mass"]))
            for a in obj.get("atoms", [])
        )
        return cls(atoms=atoms, isotropic_mass=float(obj.get("isotropic_mass", 0.0)))


def isotropic_measure(total_mass: float = TWO_PI) -> DirectionalMeasure:
    """Uniform measure on the circle with the given total mass."""
    return DirectionalMeasure(atoms=(), isotropic_mass=total_mass)


def axis_measure(mass_per_atom: float = 0.5) -> DirectionalMeasure:
    """Atoms of equal mass on the four axis directions."""
    dirs = (Direction(1, 0), Direction(-1, 0), Direction(0, 1), Direction(0, -1))
    return DirectionalMeasure(atoms=tuple((u, mass_per_atom) for u in dirs))


def hit_mass(measure: DirectionalMeasure, body: ConvexPolygon | CompactSet) -> float:
    """Measure of all lines hitting the (connected) body.

    Hitting a connected body and hitting its convex hull coincide. The
    isotropic part is exact: integrating the r-interval length over all
    directions gives the hull's perimeter.
    """
    if not body.connected:
        raise MeasureError(
            "lambda_hit requires a connected set; use the Monte Carlo estimators"
        )
    return _hitting_law(measure, hull_of(body))[0]


def _hitting_law(measure: DirectionalMeasure, poly: ConvexPolygon) -> tuple:
    """(rate, perimeter, atoms): a convex polygon's law, computed once.

    ``rate`` is ``hit_mass``, the isotropic part first and then the atoms in
    order (seeded results depend on this order); ``sample_hitting``
    normalises by it. ``atoms`` holds (u, mass, lo, hi) per atom, with
    (lo, hi) its cut r-range. The perimeter is None when the measure has no
    isotropic part, which does not need it.
    """
    iso = measure.isotropic_mass
    per = perimeter(poly) if iso != 0.0 else None
    rate = 0.0 if per is None else iso / TWO_PI * per
    verts = poly.vertices
    atoms = []
    for u, w in measure.atoms:
        lo, hi = _cut(*projection_bounds(verts, u.x, u.y))
        mass = w * (hi - lo)
        atoms.append((u, mass, lo, hi))
        rate += mass
    return rate, per, atoms


def separation_rate(measure: DirectionalMeasure, u: Direction) -> float:
    """Measure of lines separating the origin from the unit point along ``u``.

    Equals half the nu-average of |<u, v>|; the isotropic component
    contributes exactly isotropic_mass / pi.
    """
    atom = 0.5 * sum(w * abs(u.dot((v.x, v.y))) for v, w in measure.atoms)
    return atom + measure.isotropic_mass / math.pi


def separation_rate_grid(measure: DirectionalMeasure, angles: np.ndarray) -> np.ndarray:
    """Vectorised separation rate over an array of direction angles."""
    out = np.full(angles.shape, measure.isotropic_mass / math.pi)
    for v, w in measure.atoms:
        out += 0.5 * w * np.abs(np.cos(angles - v.angle))
    return out


GRID_POINTS = 8192


def min_separation_rate(measure: DirectionalMeasure) -> float:
    """Certified lower bound on the separation rate over every direction.

    The rate is an even function of the direction, so a grid over half the
    circle covers it. Grid minimum minus the Lipschitz slack (constant
    nu-total / 2 in the Euclidean direction distance) is guaranteed to be at
    or below the true minimum.
    """
    angles = np.arange(GRID_POINTS) * (math.pi / GRID_POINTS)
    values = separation_rate_grid(measure, angles)
    spacing = math.pi / GRID_POINTS
    slack = (measure.total_mass / 2.0) * 2.0 * math.sin(spacing / 4.0)
    return float(values.min() - slack)


# ---------------------------------------------------------------------------
# Separating and double-hit masses


def _separating_atoms(measure: DirectionalMeasure, atoms_a: list, atoms_b: list) -> float:
    """The atoms' part of ``separating_mass``: the gaps between the hulls' cut r-ranges."""
    return sum(
        w * ((b_lo - a_hi if b_lo > a_hi else 0.0) + (a_lo - b_hi if a_lo > b_hi else 0.0))
        for (_, w), (_, _, a_lo, a_hi), (_, _, b_lo, b_hi) in zip(measure.atoms, atoms_a, atoms_b)
    )


# A vertex's (y, x): the lowest vertex is the first in this order, the highest the last.
_YX = itemgetter(1, 0)


def _difference_hull(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon:
    """Hull of {p - q : p in a, q in b}, the Minkowski sum of a and -b, in O(n + m).

    An edge merge: walk a's edges from its lowest vertex and -b's from its
    lowest (b's highest) in angular order, advancing the edge that turns
    first by the sign of their cross product (both when parallel), and
    emit the difference of the current vertices at each step. The at most
    n + m points include every vertex of the exact difference hull, and
    ``convex_hull`` picks the loop's start, orientation and collinear
    points from them as it would from all of them. Points and segments are
    loops with zero-length or doubled-back edges, so they take the same walk.
    """
    av, bv = a.vertices, b.vertices
    n, m = len(av), len(bv)
    k = av.index(min(av, key=_YX))
    av = av[k:] + av[: k + 1]
    k = bv.index(max(bv, key=_YX))
    bv = bv[k:] + bv[: k + 1]
    pts = []
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
            cross = (av[i + 1][0] - px) * (qy - bv[j + 1][1]) - (av[i + 1][1] - py) * (qx - bv[j + 1][0])
            if cross > 0.0:
                i += 1
            elif cross < 0.0:
                j += 1
            else:
                i += 1
                j += 1
    return convex_hull(pts)


def _separating_isotropic(measure: DirectionalMeasure, a: ConvexPolygon, b: ConvexPolygon) -> float:
    """The isotropic part of ``separating_mass``, from the hull of {p - q : p in a, q in b}."""
    return measure.isotropic_mass / TWO_PI * _negative_support_integral(_difference_hull(a, b))


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


def separating_mass(
    measure: DirectionalMeasure,
    a: ConvexPolygon | CompactSet,
    b: ConvexPolygon | CompactSet,
) -> float:
    """Measure of all lines strictly separating the two bodies.

    Zero when the hulls overlap (nothing separates). The isotropic part is
    integrated exactly: the signed gap along direction u is minus the support
    function of the Minkowski difference of the hulls, a piecewise sinusoid.
    """
    hull_a = hull_of(a)
    hull_b = hull_of(b)
    total = _separating_atoms(
        measure, _hitting_law(measure, hull_a)[2], _hitting_law(measure, hull_b)[2]
    )
    if measure.isotropic_mass > 0.0:
        total += _separating_isotropic(measure, hull_a, hull_b)
    return total


@dataclass(frozen=True)
class _PairTerms:
    """Hitting masses of two connected bodies and of ``hull``, their joint
    hull; ``sep``, the mass of lines separating them; and ``both`` (c*), the
    mass of lines hitting both. Every two-body closed form is a formula over these.
    """

    mass_a: float
    mass_b: float
    mass_hull: float
    sep: float
    both: float
    hull: ConvexPolygon


def _pair_terms(
    measure: DirectionalMeasure,
    a: ConvexPolygon | CompactSet,
    b: ConvexPolygon | CompactSet,
    law_a: tuple | None = None,
    hulls: tuple[ConvexPolygon, ConvexPolygon] | None = None,
) -> _PairTerms:
    """A pair's terms from one hitting law per hull (``law_a``, if given, is a's).

    ``hulls``, if given, are ``hull_of(a)`` and ``hull_of(b)``, already built.
    Atom lengths come from the laws' cut r-ranges. The isotropic part of c*
    is mass(a) + mass(b) - (mass(hull) - separating mass) from the laws'
    perimeters, with rounding error about 1e-16 times the hull's mass. Sums
    keep the order that seeded and pinned results depend on.
    """
    if not (a.connected and b.connected):
        raise MeasureError("closed forms of two bodies require connected bodies")
    hull_a, hull_b = hulls or (hull_of(a), hull_of(b))
    hull = _joint_hull(hull_a, hull_b)
    mass_a, per_a, atoms_a = law_a or _hitting_law(measure, hull_a)
    mass_b, per_b, atoms_b = _hitting_law(measure, hull_b)
    mass_hull, per, _ = _hitting_law(measure, hull)
    sep = _separating_atoms(measure, atoms_a, atoms_b)
    both = 0.0
    for (_, w), (_, _, a_lo, a_hi), (_, _, b_lo, b_hi) in zip(measure.atoms, atoms_a, atoms_b):
        lo = max(a_lo, b_lo)
        hi = min(a_hi, b_hi)
        both += w * (hi - lo if hi > lo else 0.0)
    iso = measure.isotropic_mass
    if iso > 0.0:
        sep_iso = _separating_isotropic(measure, hull_a, hull_b)
        sep += sep_iso
        both += iso / TWO_PI * per_a + iso / TWO_PI * per_b - (iso / TWO_PI * per - sep_iso)
    return _PairTerms(mass_a, mass_b, mass_hull, sep, both, hull)


def double_hit_mass(
    measure: DirectionalMeasure,
    a: ConvexPolygon | CompactSet,
    b: ConvexPolygon | CompactSet,
) -> float:
    """Measure of all lines hitting both (connected) bodies.

    Each atom contributes the overlap of the two projection intervals on
    r >= 0, so that part is exactly zero when the projections are disjoint.
    The isotropic part comes from inclusion-exclusion (``_pair_terms``).
    """
    return _pair_terms(measure, a, b).both


# ---------------------------------------------------------------------------
# Sampling


class RandomStream(Protocol):
    """Anything with uniform draws: numpy Generators or the simulator streams."""

    def random(self) -> float: ...

    def uniform(self, lo: float, hi: float) -> float: ...


def sample_hitting(
    measure: DirectionalMeasure, window: ConvexPolygon, rng: RandomStream
) -> Hyperplane:
    """Draw one line from the hitting measure of the window, normalised.

    Atom directions carry r uniform on their hit interval; the isotropic part
    uses rejection on the angle and then r uniform on the hit interval.
    """
    return _sample_line(measure, window, _hitting_law(measure, window), rng)


def _sample_line(
    measure: DirectionalMeasure, window: ConvexPolygon, law: tuple, rng: RandomStream
) -> Hyperplane:
    """``sample_hitting`` given the window's ``_hitting_law``."""
    rate, per, atoms = law
    if rate <= 0.0:
        raise MeasureError("degenerate window: no lines hit it under this measure")

    x = rng.random() * rate
    for u, w, lo, hi in atoms:
        if x < w:
            return Hyperplane(rng.uniform(lo, hi), u)
        x -= w
    if per is None:  # rounding left x past the last atom: take the last that hits
        u, _, lo, hi = next(a for a in reversed(atoms) if a[1] > 0.0)
        return Hyperplane(rng.uniform(lo, hi), u)

    # Interval lengths never exceed the width, which is at most perimeter / 2,
    # so acceptance is exactly 1/pi for every convex window.
    bound = 0.5 * per
    verts = window.vertices
    uniform, random, cos, sin = rng.uniform, rng.random, math.cos, math.sin
    while True:
        theta = uniform(0.0, TWO_PI)
        ux = cos(theta)
        uy = sin(theta)
        lo, hi = _cut(*projection_bounds(verts, ux, uy))
        if random() * bound < hi - lo:
            return Hyperplane(uniform(lo, hi), Direction(ux, uy))
