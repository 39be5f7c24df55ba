"""Named property suites behind the ``validate`` command.

The ``fast`` suite holds exact and deterministic checks (about a second);
the ``mc`` suite holds the statistical cross-checks between the simulator
and the closed forms (about ten seconds). Each check returns (ok, detail),
and exceptions count as failures, so the CLI can emit a machine-readable
report. These checks are the one definition of the properties they test:
pytest runs every one of them (``tests/test_checks.py``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Callable

import numpy as np

from .capacity import capacity_growth_bound, increment_check, mc_missing, missing_probability
from .geometry import (
    CompactSet,
    ConvexPolygon,
    Direction,
    Hyperplane,
    area,
    box,
    chord,
    clip,
    compact_from_json,
    compact_to_json,
    convex_hull,
    hits,
    hull_of,
    polygon_from_json,
    polygon_to_json,
    separates,
    translate,
)
from .measure import (
    DirectionalMeasure,
    axis_measure,
    double_hit_mass,
    hit_mass,
    isotropic_measure,
    min_separation_rate,
    sample_hitting,
    separating_mass,
    separation_rate,
)
from .mixing import MixingRow, closed_form_ratio_minus_one, fit_decay_exponent, joint_missing_closed_form, sweep, SweepConfig
from .stit import QueryBody, SimulationParams, cell_stream, hits_internal, mix_seed, nest, restrict, simulate
from .svg import render_svg

ISO = isotropic_measure()
AXES = axis_measure()
E1 = Direction(1.0, 0.0)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check; ``elapsed_s`` is reported but not compared."""

    name: str
    ok: bool
    detail: str
    elapsed_s: float = field(default=0.0, compare=False)


def random_convex_polygon(rng: np.random.Generator, scale: float = 1.0, max_pts: int = 10) -> ConvexPolygon:
    """Hull of 3 to max_pts uniform points in [-scale, scale]^2, moved by up to 2 scale."""
    n = int(rng.integers(3, max_pts + 1))
    pts = rng.uniform(-scale, scale, size=(n, 2))
    offset = rng.uniform(-2.0 * scale, 2.0 * scale, size=2)
    return convex_hull([(x + offset[0], y + offset[1]) for x, y in pts])


def random_direction(rng: np.random.Generator) -> Direction:
    return Direction.from_angle(float(rng.uniform(0.0, 2.0 * math.pi)))


# ---------------------------------------------------------------------------
# fast suite


def check_clip_partition() -> tuple[bool, str]:
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        p = random_convex_polygon(rng)
        plane = Hyperplane(float(rng.uniform(0.0, 3.0)), random_direction(rng))
        lo = clip(p, plane, "minus")
        hi = clip(p, plane, "plus")
        total = (area(lo) if lo else 0.0) + (area(hi) if hi else 0.0)
        worst = max(worst, abs(total - area(p)) / max(area(p), 1e-12))
    return worst <= 1e-9, f"worst relative area defect {worst:.2e}"


def check_hull_idempotent() -> tuple[bool, str]:
    rng = np.random.default_rng(103)
    for _ in range(200):
        p = random_convex_polygon(rng)
        if convex_hull(p.vertices).vertices != p.vertices:
            return False, f"hull not idempotent on {p.vertices}"
    return True, "200 random hulls"


def check_hits_matches_interval() -> tuple[bool, str]:
    rng = np.random.default_rng(5)
    slack = Fraction(1e-9)
    for _ in range(10_000):
        p = random_convex_polygon(rng)
        u = random_direction(rng)
        r = float(rng.uniform(0.0, 4.0))
        # Exact offsets of the vertices from the line, with no projection
        # shared with ``hits``: the line meets the hull iff they change sign.
        ux, uy, fr = Fraction(u.x), Fraction(u.y), Fraction(r)
        offsets = [Fraction(x) * ux + Fraction(y) * uy - fr for x, y in p.vertices]
        want = min(offsets) <= slack and max(offsets) >= -slack
        if hits(Hyperplane(r, u), p) != want:
            return False, f"predicate/interval mismatch at r={r}"
    return True, "10000 random cases"


def check_separates_consistent() -> tuple[bool, str]:
    rng = np.random.default_rng(23)
    found = 0
    for _ in range(2000):
        a = random_convex_polygon(rng, scale=0.5)
        b = random_convex_polygon(rng, scale=0.5)
        u = random_direction(rng)
        plane = Hyperplane(float(rng.uniform(0.0, 3.0)), u)
        if separates(plane, a, b):
            found += 1
            if hits(plane, a) or hits(plane, b):
                return False, "separating line reported as hitting"
            offs_a = [plane.offset(v) for v in a.vertices]
            offs_b = [plane.offset(v) for v in b.vertices]
            if not (max(offs_a) < 0 < min(offs_b) or max(offs_b) < 0 < min(offs_a)):
                return False, "separating line leaves a body on both sides"
    return found > 50, f"{found} separating configurations checked"


def check_measure_examples() -> tuple[bool, str]:
    sq = box(0, 0, 1, 1)
    rng = np.random.default_rng(53)
    values = [
        (hit_mass(ISO, sq), 4.0),
        (hit_mass(AXES, sq), 1.0),
        (separation_rate(AXES, E1), 0.5),
        (separation_rate(AXES, Direction(1.0, 1.0)), math.sqrt(2.0) / 2.0),
    ]
    values += [(separation_rate(ISO, random_direction(rng)), 2.0) for _ in range(50)]
    for got, want in values:
        if abs(got - want) > 1e-12:
            return False, f"expected {want}, got {got}"
    for point in (ConvexPolygon(((0.0, 0.0),)), ConvexPolygon(((3.0, -4.0),))):
        if hit_mass(ISO, point) != 0.0 or hit_mass(AXES, point) != 0.0:
            return False, f"point {point.vertices[0]} has non-zero hitting mass"
    return True, "hit masses, point masses, separation rates (50 isotropic directions)"


def check_kappa_certified() -> tuple[bool, str]:
    angles = np.linspace(0.0, 2.0 * math.pi, 20_001)
    for measure, hi in ((ISO, 2.0), (AXES, 0.5)):
        k = min_separation_rate(measure)
        # The rounding bound that min_separation_rate subtracts, for k atoms.
        lo = hi - (len(measure.atoms) + 2) * 2.0**-52 * measure.total_mass
        if not lo <= k <= hi:
            return False, f"kappa {k} outside [{lo}, {hi}]"
        rates = [separation_rate(measure, Direction.from_angle(t)) for t in angles]
        if min(rates) < k:
            return False, "kappa exceeds a grid value"
    return True, "both example measures, 20001-point grid"


def check_point_separation_identity() -> tuple[bool, str]:
    rng = np.random.default_rng(61)
    for measure in (ISO, AXES):
        for _ in range(1000):
            p = tuple(map(float, rng.uniform(-5, 5, size=2)))
            q = tuple(map(float, rng.uniform(-5, 5, size=2)))
            d = math.hypot(q[0] - p[0], q[1] - p[1])
            if d < 1e-6:
                continue
            u = Direction(q[0] - p[0], q[1] - p[1])
            want = d * separation_rate(measure, u)
            got = separating_mass(measure, ConvexPolygon((p,)), ConvexPolygon((q,)))
            if abs(got - want) > 1e-9 * max(want, 1e-12):
                return False, f"distance*rate {want} vs separating mass {got}"
    return True, "2000 random point pairs"


def check_separation_additivity() -> tuple[bool, str]:
    rng = np.random.default_rng(67)
    origin = ConvexPolygon(((0.0, 0.0),))
    for measure in (ISO, AXES):
        for _ in range(200):
            u = random_direction(rng)
            eps = float(rng.uniform(0.01, 2.0))
            n = int(rng.integers(1, 9))

            def sep(t: float) -> float:
                return separating_mass(measure, origin, ConvexPolygon(((t * u.x, t * u.y),)))

            lhs = sep((n + 1) * eps)
            rhs = sep(n * eps) + sep(eps)
            if abs(lhs - rhs) > 1e-9 * max(lhs, 1e-12):
                return False, f"additivity defect {abs(lhs - rhs):.2e}"
    return True, "400 random (direction, step, count) triples"


def check_rate_lipschitz() -> tuple[bool, str]:
    rng = np.random.default_rng(59)
    for measure in (ISO, AXES):
        const = measure.total_mass / 2.0
        for _ in range(10_000):
            u, v = random_direction(rng), random_direction(rng)
            lhs = abs(separation_rate(measure, u) - separation_rate(measure, v))
            if lhs > const * math.hypot(u.x - v.x, u.y - v.y) + 1e-12:
                return False, "Lipschitz bound violated"
    return True, "20000 random direction pairs"


def check_separation_sandwich() -> tuple[bool, str]:
    rng = np.random.default_rng(73)
    for _ in range(200):
        a = random_convex_polygon(rng, scale=0.7)
        b = translate(random_convex_polygon(rng, scale=0.7), tuple(map(float, rng.uniform(-8, 8, size=2))))
        hull = convex_hull(list(a.vertices) + list(b.vertices))
        for measure in (ISO, AXES):
            sep = separating_mass(measure, a, b)
            whole = hit_mass(measure, hull)
            if not (-1e-9 <= whole - sep <= hit_mass(measure, a) + hit_mass(measure, b) + 1e-9):
                return False, "sandwich inequality violated"
    return True, "200 random body pairs, both measures"


def check_translation_invariance() -> tuple[bool, str]:
    rng = np.random.default_rng(107)
    worst = 0.0
    for k in range(200):
        atoms = []
        for u in (random_direction(rng) for _ in range(int(rng.integers(2, 4)))):
            # Mass on u in two atoms, balanced by one atom on -u.
            w1, w2 = map(float, rng.uniform(0.1, 1.0, size=2))
            atoms += [(u, w1), (u, w2), (Direction(-u.x, -u.y), w1 + w2)]
        m = DirectionalMeasure(tuple(atoms), float(rng.uniform(0.5, 3.0)) if k % 2 else 0.0)
        a = random_convex_polygon(rng, scale=0.7)
        b = translate(random_convex_polygon(rng, scale=0.7), tuple(map(float, rng.uniform(-4, 4, size=2))))
        t = tuple(map(float, rng.uniform(-1e3, 1e3, size=2)))
        moved = translate(a, t), translate(b, t)
        hull_mass = hit_mass(m, convex_hull(list(a.vertices) + list(b.vertices)))
        for f in (separating_mass, double_hit_mass, lambda m, a, b: hit_mass(m, a)):
            worst = max(worst, abs(f(m, a, b) - f(m, *moved)) / hull_mass)
    return worst <= 1e-9, f"worst change {worst:.2e} of the pair's hull mass, 200 pairs moved by up to 1e3"


def check_simulator_determinism() -> tuple[bool, str]:
    p = SimulationParams(window=box(0, 0, 5, 5), time=1.0, measure=ISO, seed=1234)
    if simulate(p) != simulate(p):
        return False, "identical seeds gave different tessellations"
    return True, "bit-identical repeat run"


def check_area_partition() -> tuple[bool, str]:
    t = simulate(SimulationParams(window=box(0, 0, 10, 10), time=1.0, measure=ISO, seed=42))
    total = sum(area(c.polygon) for c in t.live_cells)
    defect = abs(total - 100.0) / 100.0
    ok = defect <= 1e-6 and len(t.live_cells) > 10
    return ok, f"relative area defect {defect:.2e} over {len(t.live_cells)} cells"


def check_restrict_identity() -> tuple[bool, str]:
    t = simulate(SimulationParams(window=box(0, 0, 4, 4), time=0.8, measure=ISO, seed=31))
    r = restrict(t, t.window)
    if [c.polygon for c in r.live_cells] != [c.polygon for c in t.live_cells]:
        return False, "cells changed under restriction to the full window"
    same = [(e.a, e.b) for e in r.internal_edges] == [(e.a, e.b) for e in t.internal_edges]
    return same, "restrict to the full window keeps cells and chords"


def check_prefix_coupling() -> tuple[bool, str]:
    w = box(0, 0, 3, 3)
    short = simulate(SimulationParams(window=w, time=0.6, measure=ISO, seed=77))
    long = simulate(SimulationParams(window=w, time=1.0, measure=ISO, seed=77))
    if abs(sum(area(c.polygon) for c in short.cells) - area(w)) > 1e-9 * area(w):
        return False, "time-0.6 cells do not tile the window"
    accounted = survivors = children = 0
    for c in short.cells:
        # The time-1.0 cells whose labels start with c's: c itself or its descendants.
        later = [d for d in long.cells if d.id >> max(0, d.id.bit_length() - c.id.bit_length()) == c.id]
        accounted += len(later)
        if c.death_time > 1.0:
            if later != [c]:
                return False, f"cell {c.id} lives past 1.0 but differs between horizons"
            survivors += 1
        elif abs(sum(area(d.polygon) for d in later) - area(c.polygon)) > 1e-9 * area(c.polygon):
            return False, f"cell {c.id} divided by 1.0 is not tiled by its descendants"
        for d in (d for d in later if d.id // 2 == c.id):
            if d.birth_time != c.death_time:
                return False, f"cell {d.id} born at {d.birth_time!r}, its parent died at {c.death_time!r}"
            children += 1
    if accounted != len(long.cells):
        return False, f"{len(long.cells) - accounted} time-1.0 cells descend from no time-0.6 cell"
    chords = sum(e.time > 0.6 for e in long.internal_edges)
    if len(long.cells) - len(short.cells) != chords:
        return False, f"{len(long.cells) - len(short.cells)} more cells at 1.0 for {chords} chords after 0.6"
    if sorted(short.internal_edges) != sorted(e for e in long.internal_edges if e.time <= 0.6):
        return False, "chords up to time 0.6 differ between horizons"
    return survivors > 0 and children > 0, f"{survivors} survivors and {children} children of the time-0.6 run checked"


def check_capacity_closed_forms() -> tuple[bool, str]:
    seg = ConvexPolygon(((0.0, 0.0), (1.0, 0.0)))
    sq = box(0, 0, 1, 1)
    values = (
        (missing_probability(seg, 1.0, ISO), math.exp(-2.0)),
        (missing_probability(sq, 1.0, ISO), math.exp(-4.0)),
        (capacity_growth_bound(sq, 1.0, ISO), 20.0 * math.exp(-4.0)),
    )
    for got, want in values:
        if abs(got - want) > 1e-12 * max(1.0, want):
            return False, f"expected {want}, got {got}"
    return True, "segment and square closed forms"


def simpson(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, n: int = 1 << 16) -> float:
    """Composite Simpson rule with n (even) intervals for a vectorised f on [lo, hi].

    On the closed-form check's integrands (rate gap times time up to ~34) the
    default n agrees with scipy's adaptive quad to ~1e-15 relative; 2^14
    intervals give only ~1e-13.
    """
    y = f(np.linspace(lo, hi, n + 1))
    return float((hi - lo) / n / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


def first_split_terms(a, b, time: float, measure: DirectionalMeasure) -> tuple[float, Callable]:
    """(sep, f): the joint missing probability on the first-split event is sep * int_0^time f.

    The first line to hit the joint hull separates the bodies, at time s,
    and neither body is hit in (s, time].
    """
    hull = convex_hull(list(hull_of(a).vertices) + list(hull_of(b).vertices))
    mass_a, mass_b, mass_w = (hit_mass(measure, x) for x in (a, b, hull))
    return separating_mass(measure, a, b), lambda s: np.exp(-s * mass_w) * np.exp(-(time - s) * (mass_a + mass_b))


def closed_form_configs() -> list[tuple[ConvexPolygon, ConvexPolygon, float, DirectionalMeasure]]:
    """100 random (a, b, time, measure) with a separating line, over three measures."""
    rng = np.random.default_rng(2718)
    mixed = DirectionalMeasure(atoms=((E1, 0.3), (Direction(-1.0, 0.0), 0.3)), isotropic_mass=1.5)
    configs = []
    while len(configs) < 100:
        a = random_convex_polygon(rng, scale=0.6)
        shift = (float(rng.uniform(3.0, 12.0)), float(rng.uniform(-2.0, 2.0)))
        b = translate(random_convex_polygon(rng, scale=0.6), shift)
        time = float(rng.uniform(0.1, 2.0))
        measure = (ISO, AXES, mixed)[len(configs) % 3]
        if separating_mass(measure, a, b) > 0.0:
            configs.append((a, b, time, measure))
    return configs


def check_joint_closed_form_quadrature() -> tuple[bool, str]:
    worst = 0.0
    for a, b, time, measure in closed_form_configs():
        sep, f = first_split_terms(a, b, time, measure)
        want = sep * simpson(f, 0.0, time)
        got = joint_missing_closed_form(a, b, time, measure)
        if abs(got - want) > 1e-10 * max(want, 1e-300):
            return False, f"closed form {got} vs quadrature {want}"
        worst = max(worst, abs(got - want) / max(want, 1e-300))
        ratio_want = want / math.exp(-time * (hit_mass(measure, a) + hit_mass(measure, b))) - 1.0
        ratio_got = closed_form_ratio_minus_one(a, b, time, measure)
        if abs(ratio_got - ratio_want) > 1e-9 * max(abs(ratio_want), 1e-3):
            return False, f"ratio - 1 {ratio_got} vs quadrature {ratio_want}"
    return True, f"100 random configurations, worst relative gap {worst:.1e}"


def check_fit_synthetic() -> tuple[bool, str]:
    hs = [25.0, 50.0, 100.0, 200.0, 400.0]
    rows = [
        MixingRow(
            h_norm=h,
            direction=E1,
            zeta=2.0,
            asymptote=1.0 / (2.0 * h),
            overlap=False,
            product_exact=0.5,
            joint_gamma_exact=0.5 * (1.0 + 0.7 / h),
            ratio_minus_one=0.7 / h,
            gamma_complement_bound=0.0,
            chi_bound=1.0,
        )
        for h in hs
    ]
    slope, intercept, residual = fit_decay_exponent(rows)
    ok = abs(slope + 1.0) <= 1e-12 and math.isclose(math.exp(intercept), 0.7, rel_tol=1e-9) and residual <= 1e-12
    return ok, f"synthetic 0.7/h rows fitted slope {slope:.3e}, constant {math.exp(intercept):.12g}"


def check_json_roundtrips() -> tuple[bool, str]:
    rng = np.random.default_rng(31)
    for _ in range(50):
        poly = random_convex_polygon(rng)
        if polygon_from_json(polygon_to_json(poly)) != poly:
            return False, f"polygon JSON round trip of {poly.vertices}"
    body = CompactSet.of(box(0, 0, 1, 1), box(2, 0, 3, 1))
    again = compact_from_json(compact_to_json(body))
    if again != body or again.connected != body.connected:
        return False, "compact set JSON round trip"
    measure = DirectionalMeasure.from_json(AXES.to_json())
    if measure.total_mass != AXES.total_mass or len(measure.atoms) != len(AXES.atoms):
        return False, "measure JSON round trip"
    return True, "50 polygons, compact set, measure"


def check_svg_renders() -> tuple[bool, str]:
    t = simulate(SimulationParams(window=box(0, 0, 2, 2), time=1.0, measure=ISO, seed=4))
    doc = render_svg(t)
    ok = doc.startswith("<svg") and doc.count("<polygon") >= len(t.live_cells)
    return ok, f"{len(t.live_cells)} cells rendered"


# ---------------------------------------------------------------------------
# mc suite


def check_mc_matches_analytic() -> tuple[bool, str]:
    sq = box(1, 1, 2, 2)
    est = mc_missing(sq, 1.0, ISO, 3000, seed=2025)
    target = math.exp(-4.0)
    z = abs(est.mean - target) / est.stderr
    return z <= 4.0, f"z = {z:.2f} against exp(-4)"


def window_tree_first_hits(body, time, measure, n, seed, window) -> list[float]:
    """First-hit times of the reference (window-tree) construction; inf for a miss.

    It has the law of ``simulate``'s construction. Run i draws from
    ``cell_stream(mix_seed(seed, i), cid)``; every cell dies at the window's
    rate and is cut by a line from the window's hitting law, and a line that
    misses the cell relabels it (child 2 cid or 2 cid + 1 is the whole cell).
    """
    rate = hit_mass(measure, window)
    query = QueryBody(body, window)

    def cell(run, cid, poly, birth):
        gen = cell_stream(run, cid)
        return (birth + gen.exponential(1.0 / rate), cid, poly, gen)

    taus = []
    for i in range(n):
        run = mix_seed(seed, i)
        heap = [cell(run, 1, window, 0.0)]
        tau = math.inf
        while heap[0][0] <= time:
            death, cid, poly, gen = heapq.heappop(heap)
            plane = sample_hitting(measure, window, gen)
            minus, plus = clip(poly, plane, "minus"), clip(poly, plane, "plus")
            if minus is None or plus is None:
                heapq.heappush(heap, cell(run, 2 * cid if plus is None else 2 * cid + 1, poly, death))
                continue
            cut = chord(poly, plane)
            if cut is not None and query.meets(*cut):
                tau = death
                break
            heapq.heappush(heap, cell(run, 2 * cid, minus, death))
            heapq.heappush(heap, cell(run, 2 * cid + 1, plus, death))
        taus.append(tau)
    return taus


def check_variant_equivalence() -> tuple[bool, str]:
    sq = box(1, 1, 2, 2)
    w = box(0.75, 0.75, 2.25, 2.25)
    n = 10_000
    p_cell = mc_missing(sq, 1.0, ISO, n, seed=15, window=w).mean
    p_tree = window_tree_first_hits(sq, 1.0, ISO, n, 16, w).count(math.inf) / n
    target = math.exp(-4.0)
    se = math.sqrt(2.0 * target * (1.0 - target) / n)
    z = abs(p_cell - p_tree) / se
    return z <= 3.0, f"cell-rate {p_cell:.4f} vs window-tree {p_tree:.4f}, z = {z:.2f}"


def check_restrict_consistency() -> tuple[bool, str]:
    k = box(1, 1, 2, 2)
    small = box(0.4, 0.4, 2.6, 2.6)
    big = box(0, 0, 4, 4)
    n = 3000
    direct = mc_missing(k, 0.8, ISO, n, seed=21, window=small).mean
    via = 0
    for i in range(n):
        t = simulate(SimulationParams(window=big, time=0.8, measure=ISO, seed=mix_seed(22, i)))
        if not hits_internal(restrict(t, small), k):
            via += 1
    p = math.exp(-0.8 * 4.0)
    se = math.sqrt(2.0 * p * (1.0 - p) / n)
    z = abs(direct - via / n) / se
    return z <= 4.0, f"direct {direct:.4f} vs restricted {via / n:.4f}, z = {z:.2f}"


def check_nest_stability() -> tuple[bool, str]:
    k = box(1, 1, 2, 2)
    w = box(0.4, 0.4, 2.6, 2.6)
    a = 0.4
    n = 3000
    miss = 0
    for i in range(n):
        t = simulate(SimulationParams(window=w, time=a, measure=ISO, seed=mix_seed(31, i)))
        if not hits_internal(nest(t, a, ISO, seed=mix_seed(32, i)), k):
            miss += 1
    target = math.exp(-2.0 * a * 4.0)
    se = math.sqrt(target * (1.0 - target) / n)
    z = abs(miss / n - target) / se
    return z <= 4.0, f"nested missing {miss / n:.4f} vs exp(-2a*4) = {target:.4f}, z = {z:.2f}"


def check_sampling_left_half() -> tuple[bool, str]:
    rng = np.random.default_rng(83)
    w = box(0, 0, 1, 1)
    left = box(0, 0, 0.5, 1)
    target = hit_mass(ISO, left) / hit_mass(ISO, w)
    if not math.isclose(target, 0.75):
        return False, f"hitting-mass ratio {target} is not 3/4"
    n = 100_000
    count = sum(1 for _ in range(n) if hits(sample_hitting(ISO, w, rng), left))
    se = math.sqrt(target * (1.0 - target) / n)
    z = abs(count / n - target) / se
    return z <= 3.0, f"left-half fraction {count / n:.4f} vs 0.75, z = {z:.2f}"


def check_increment_bound() -> tuple[bool, str]:
    rep = increment_check(box(0, 0, 1, 1), 1.0, 0.1, ISO, 2000, seed=51)
    if not math.isclose(rep.bound, 0.1 * 4.0 * 5.0 * math.exp(-4.0), rel_tol=1e-12):
        return False, f"bound {rep.bound} is not 0.1 * 20 exp(-4)"
    ok = rep.monotone and rep.within_bound
    return ok, f"increment {rep.increment:.4f} <= bound {rep.bound:.4f} + 3se"


def check_joint_mc_spot() -> tuple[bool, str]:
    seg = ConvexPolygon(((0.0, 0.0), (0.0, 1.0)))
    config = SweepConfig(body_a=seg, body_b=seg, direction=E1, distances=(4.0,), time=1.0, measure=AXES, seed=61, mc_n=2000)
    row = sweep(config)[0]
    gap = abs(row.joint_mc.mean - row.joint_gamma_exact)
    tol = row.gamma_complement_bound + 4.0 * row.joint_mc.stderr
    # Covariance bound: the joint estimate may sit above the product of the
    # marginals by no more than the mixing constant allows.
    budget = 4.0 * row.joint_mc.stderr + 1.1 * row.chi_bound / (row.h_norm * row.zeta)
    excess = abs(row.joint_mc.mean - row.product_exact)
    ok = gap <= tol and excess <= budget
    return ok, f"|mc - closed form| = {gap:.4f} <= {tol:.4f}, |mc - product| = {excess:.4f} <= {budget:.4f}"


FAST_CHECKS: dict[str, Callable[[], tuple[bool, str]]] = {
    "geometry.clip_partition": check_clip_partition,
    "geometry.hull_idempotent": check_hull_idempotent,
    "geometry.hits_matches_interval": check_hits_matches_interval,
    "geometry.separates_consistent": check_separates_consistent,
    "measure.example_values": check_measure_examples,
    "measure.kappa_certified": check_kappa_certified,
    "measure.point_separation_identity": check_point_separation_identity,
    "measure.separation_additivity": check_separation_additivity,
    "measure.rate_lipschitz": check_rate_lipschitz,
    "measure.separation_sandwich": check_separation_sandwich,
    "measure.translation_invariance": check_translation_invariance,
    "stit.determinism": check_simulator_determinism,
    "stit.area_partition": check_area_partition,
    "stit.restrict_identity": check_restrict_identity,
    "stit.prefix_coupling": check_prefix_coupling,
    "capacity.closed_forms": check_capacity_closed_forms,
    "mixing.closed_form_quadrature": check_joint_closed_form_quadrature,
    "mixing.fit_synthetic": check_fit_synthetic,
    "io.json_roundtrips": check_json_roundtrips,
    "io.svg_renders": check_svg_renders,
}

MC_CHECKS: dict[str, Callable[[], tuple[bool, str]]] = {
    "capacity.mc_matches_analytic": check_mc_matches_analytic,
    "stit.variant_equivalence": check_variant_equivalence,
    "stit.restrict_consistency": check_restrict_consistency,
    "stit.nest_stability": check_nest_stability,
    "measure.sampling_left_half": check_sampling_left_half,
    "capacity.increment_bound": check_increment_bound,
    "mixing.joint_mc_spot": check_joint_mc_spot,
}

SUITES: dict[str, dict[str, Callable[[], tuple[bool, str]]]] = {
    "fast": FAST_CHECKS,
    "mc": MC_CHECKS,
    "all": {**FAST_CHECKS, **MC_CHECKS},
}


def run_suite(suite: str) -> list[CheckResult]:
    """Execute every check in the named suite, capturing failures."""
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    results = []
    for name, fn in SUITES[suite].items():
        start = perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        results.append(CheckResult(name=name, ok=ok, detail=detail, elapsed_s=elapsed))
    return results
