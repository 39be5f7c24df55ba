"""Stationary line measures on the plane.

A translation-invariant measure on lines factorises as (Lebesgue on r >= 0)
x (finite even directional measure nu on the unit circle). Here nu is a list of
atoms plus an optional isotropic component, which covers both anisotropic
models and the isotropic one while keeping every derived quantity in closed
form: hitting mass of a convex body, separation rate between points, its
exact minimum over all directions less a rounding bound, the masses of
lines separating and of lines hitting both of two bodies, and exact
sampling of lines hitting a window.

Float totals are plain left-to-right additions, never ``sum``: from Python
3.12 ``sum`` compensates floats, so it would round these closed forms
differently from one Python version to the next.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from .geometry import (
    CompactSet,
    ConvexPolygon,
    Direction,
    Hyperplane,
    _difference_hull,
    _joint_hull,
    _number,
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
            same = opposite = 0.0
            for v, w in atoms:
                if abs(v.x - u.x) <= eps and abs(v.y - u.y) <= eps:
                    same += w
                if abs(v.x + u.x) <= eps and abs(v.y + u.y) <= eps:
                    opposite += w
            if abs(same - opposite) > eps * max(1.0, same, opposite):
                raise MeasureError(
                    f"atom set is not antipodally balanced: direction ({u.x:.6g}, {u.y:.6g})"
                    f" carries mass {same:.6g}, its opposite {opposite:.6g}"
                )

    @property
    def total_mass(self) -> float:
        atoms = 0.0
        for _, w in self.atoms:
            atoms += w
        return self.isotropic_mass + atoms

    def to_json(self) -> dict:
        return {
            "isotropic_mass": self.isotropic_mass,
            "atoms": [{"angle_radians": u.angle, "mass": w} for u, w in self.atoms],
        }

    @classmethod
    def from_json(cls, obj: dict) -> DirectionalMeasure:
        """The measure of ``to_json``; every mass and angle is a JSON number."""
        fields = [("isotropic_mass", obj.get("isotropic_mass", 0.0))]
        for a in obj.get("atoms", []):
            fields += [("angle_radians", a["angle_radians"]), ("mass", a["mass"])]
        numbers = []
        for key, value in fields:
            try:
                numbers.append(_number(value))
            except (TypeError, OverflowError) as exc:
                raise MeasureError(f"{key!r} has a bad value {value!r}: {exc}") from None
        atoms = tuple((Direction.from_angle(t), m) for t, m in zip(numbers[1::2], numbers[2::2]))
        return cls(atoms=atoms, isotropic_mass=numbers[0])


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
    atom = 0.0
    for v, w in measure.atoms:
        atom += w * abs(u.dot((v.x, v.y)))
    return 0.5 * atom + measure.isotropic_mass / math.pi


def min_separation_rate(measure: DirectionalMeasure) -> float:
    """The minimum of ``separation_rate`` over every direction, less a rounding bound.

    Between consecutive directions perpendicular to an atom, each atom's
    term is a non-negative sinusoid over at most half a period and the
    isotropic part is constant, so the rate is concave there and its
    minimum lies at an atom's perpendicular. The rate is even, so one
    perpendicular per atom covers both; with no atoms every direction gives
    the same rate. The result is that minimum less (k + 2) * 2**-52 *
    total_mass for k atoms, at least twice the rounding error of one
    computed rate, so it stays at or below every computed rate.
    """
    atoms = measure.atoms
    directions = [v.perpendicular() for v, _ in atoms] or [Direction(1.0, 0.0)]
    lowest = min(separation_rate(measure, u) for u in directions)
    return lowest - (len(atoms) + 2) * 2.0**-52 * measure.total_mass


# ---------------------------------------------------------------------------
# Separating and double-hit masses


def _separating_atoms(measure: DirectionalMeasure, atoms_a: list, atoms_b: list) -> float:
    """The atoms' part of ``separating_mass``: the gaps between the hulls' cut r-ranges."""
    total = 0.0
    for (_, w), (_, _, a_lo, a_hi), (_, _, b_lo, b_hi) in zip(measure.atoms, atoms_a, atoms_b):
        total += w * ((b_lo - a_hi if b_lo > a_hi else 0.0) + (a_lo - b_hi if a_lo > b_hi else 0.0))
    return total


def _separating_isotropic(measure: DirectionalMeasure, a: ConvexPolygon, b: ConvexPolygon) -> float:
    """The isotropic part of ``separating_mass``, by Crofton's formula.

    A line separates a and b iff it separates the origin O from D, the hull
    of {p - q : p in a, q in b}: it hits conv(D + O) but misses D. So the
    mass is isotropic_mass / 2 pi times per(conv(D + O)) - per(D). On D's
    counter-clockwise loop that is the distance from O of the two ends of
    the chain of edges that O sees (lies strictly outside of), less the
    chain's length; for a point or a segment pq it is |p| + |q| - |pq|.
    Rounding can leave a few ulps below zero, which the cut at 0 removes.
    """
    verts = _difference_hull(a, b).vertices
    if len(verts) <= 2:
        (px, py), (qx, qy) = verts[0], verts[-1]
        ends = math.hypot(px, py) + math.hypot(qx, qy)
        chain = math.hypot(qx - px, qy - py)
    else:
        # Edge i runs from vertex i to i + 1; O sees it when their cross product is negative.
        nxt = verts[1:] + verts[:1]
        seen = [x0 * y1 - y0 * x1 < 0.0 for (x0, y0), (x1, y1) in zip(verts, nxt)]
        ends = chain = 0.0
        for i, ((x0, y0), (x1, y1)) in enumerate(zip(verts, nxt)):
            if seen[i] != seen[i - 1]:
                ends += math.hypot(x0, y0)
            if seen[i]:
                chain += math.hypot(x1 - x0, y1 - y0)
    gap = ends - chain
    return measure.isotropic_mass / TWO_PI * gap if gap > 0.0 else 0.0


def separating_mass(
    measure: DirectionalMeasure,
    a: ConvexPolygon | CompactSet,
    b: ConvexPolygon | CompactSet,
) -> float:
    """Measure of all lines strictly separating the two bodies.

    Zero when the hulls overlap (nothing separates). Each atom contributes
    the gap between the hulls' cut r-ranges. The isotropic part is exact by
    Crofton's formula: a perimeter difference over the difference hull
    (``_separating_isotropic``).
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
    perimeters, with rounding error about 1e-16 times the hull's mass; it
    is cut at 0, as the separating mass is, where that error leaves it
    below. Sums keep the order that seeded and pinned results depend on.
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
        shared = iso / TWO_PI * per_a + iso / TWO_PI * per_b - (iso / TWO_PI * per - sep_iso)
        both += shared if shared > 0.0 else 0.0
    return _PairTerms(mass_a, mass_b, mass_hull, sep, both, hull)


def double_hit_mass(
    measure: DirectionalMeasure,
    a: ConvexPolygon | CompactSet,
    b: ConvexPolygon | CompactSet,
) -> float:
    """Measure of all lines hitting both (connected) bodies.

    Each atom contributes the overlap of the two projection intervals on
    r >= 0, so that part is exactly zero when the projections are disjoint.
    The isotropic part comes from inclusion-exclusion (``_pair_terms``),
    cut at 0, so the mass is never negative.
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
