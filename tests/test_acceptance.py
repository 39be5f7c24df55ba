"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s`` or in failure output) and asserts at the stated tolerance.
Sample sizes, seeds, and tolerances are fixed here.
"""

from __future__ import annotations

import json
import math

import numpy as np

from conftest import centroid
from stitlab.capacity import default_window, increment_check, mc_joint, mc_missing
from stitlab.cli import main as cli_main
from stitlab.geometry import (
    ConvexPolygon,
    Direction,
    box,
    convex_hull,
    interior_clearance,
    regular_polygon,
    translate,
)
from stitlab.measure import (
    axis_measure,
    hit_mass,
    isotropic_measure,
    min_separation_rate,
    separating_mass,
    separation_rate,
)
from stitlab.mixing import (
    SweepConfig,
    closed_form_error_bound,
    fit_decay_exponent,
    joint_missing_closed_form,
    sweep,
)
from stitlab.stit import SimulationParams, hits_internal, mix_seed, nest, restrict, simulate

ISO = isotropic_measure()
AXES = axis_measure()
E1 = Direction(1.0, 0.0)
UNIT_VSEG = ConvexPolygon(((0.0, -0.5), (0.0, 0.5)))


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_exponential_capacity():
    shapes = {
        "unit segment": ConvexPolygon(((0.0, 0.0), (1.0, 0.0))),
        "unit square": box(0, 0, 1, 1),
        "64-gon": regular_polygon(64, circumradius=1.0),
    }
    n = 10_000
    details = []
    ok = True
    for i, (name, body) in enumerate(shapes.items()):
        est = mc_missing(body, 1.0, ISO, n, seed=1101 + i)
        target = math.exp(-hit_mass(ISO, body))
        z = (est.mean - target) / est.stderr
        ok &= abs(z) <= 3.0
        details.append(f"{name}: mean {est.mean:.5f} vs {target:.5f} (z={z:+.2f})")
    assert report(1, ok, "; ".join(details))


def test_criterion_2_consistency_restriction():
    rng = np.random.default_rng(2222)
    n = 10_000
    a = 0.6
    details = []
    ok = True
    for config_index in range(3):
        pts = rng.uniform(0.0, 5.0, size=(8, 2))
        big = convex_hull([(float(x), float(y)) for x, y in pts])
        cx, cy = centroid(big)
        small = ConvexPolygon(
            tuple((cx + 0.55 * (x - cx), cy + 0.55 * (y - cy)) for x, y in big.vertices)
        )
        clearance = interior_clearance(small, [(cx, cy)])
        half = 0.3 * clearance
        body = box(cx - half, cy - half, cx + half, cy + half)

        direct_misses = 0
        restricted_misses = 0
        for i in range(n):
            t_small = simulate(
                SimulationParams(window=small, time=a, measure=ISO, seed=mix_seed(1201, config_index, i))
            )
            if not hits_internal(t_small, body):
                direct_misses += 1
            t_big = simulate(
                SimulationParams(window=big, time=a, measure=ISO, seed=mix_seed(1202, config_index, i))
            )
            if not hits_internal(restrict(t_big, small), body):
                restricted_misses += 1
        p1, p2 = direct_misses / n, restricted_misses / n
        pooled = (direct_misses + restricted_misses) / (2 * n)
        se = math.sqrt(2.0 * pooled * (1.0 - pooled) / n)
        z = (p1 - p2) / se if se > 0 else 0.0
        ok &= abs(z) <= 3.0
        details.append(f"config {config_index}: direct {p1:.4f} vs restricted {p2:.4f} (z={z:+.2f})")
    assert report(2, ok, "; ".join(details))


def test_criterion_3_iteration_stability():
    body = box(0, 0, 1, 1)
    window = default_window(body)
    a = 0.5
    n = 10_000
    misses = 0
    for i in range(n):
        t = simulate(SimulationParams(window=window, time=a, measure=ISO, seed=mix_seed(1301, i)))
        if not hits_internal(nest(t, a, ISO, seed=mix_seed(1302, i)), body):
            misses += 1
    mean = misses / n
    target = math.exp(-2.0 * a * hit_mass(ISO, body))
    se = math.sqrt(target * (1.0 - target) / n)
    z = (mean - target) / se
    assert report(3, abs(z) <= 3.0, f"nested missing {mean:.5f} vs exp(-2a*4) = {target:.5f} (z={z:+.2f})")


def test_criterion_4_point_separation_identity():
    rng = np.random.default_rng(1404)
    worst_identity = 0.0
    worst_additivity = 0.0
    for measure in (ISO, AXES):
        for _ in range(1000):
            p = tuple(map(float, rng.uniform(-10, 10, size=2)))
            q = tuple(map(float, rng.uniform(-10, 10, size=2)))
            d = math.hypot(q[0] - p[0], q[1] - p[1])
            if d < 1e-6:
                continue
            u = Direction(q[0] - p[0], q[1] - p[1])
            want = d * separation_rate(measure, u)
            got = separating_mass(measure, ConvexPolygon((p,)), ConvexPolygon((q,)))
            worst_identity = max(worst_identity, abs(got - want) / want)
        origin = ConvexPolygon(((0.0, 0.0),))
        for _ in range(200):
            u = Direction.from_angle(float(rng.uniform(0.0, 2.0 * math.pi)))
            eps = float(rng.uniform(0.01, 2.0))
            k = int(rng.integers(1, 9))

            def sep(t: float) -> float:
                return separating_mass(measure, origin, ConvexPolygon(((t * u.x, t * u.y),)))

            lhs = sep((k + 1) * eps)
            rhs = sep(k * eps) + sep(eps)
            worst_additivity = max(worst_additivity, abs(lhs - rhs) / lhs)
    ok = worst_identity <= 1e-9 and worst_additivity <= 1e-9
    assert report(
        4, ok, f"identity defect {worst_identity:.2e}, additivity defect {worst_additivity:.2e}"
    )


def test_criterion_5_rate_bounds():
    rng = np.random.default_rng(1505)
    details = []
    ok = True
    for name, measure in (("isotropic", ISO), ("axis", AXES)):
        kappa = min_separation_rate(measure)
        angles = np.linspace(0.0, 2.0 * math.pi, 8192, endpoint=False)
        rates = [separation_rate(measure, Direction.from_angle(t)) for t in angles]
        grid_ok = kappa > 0.0 and min(rates) >= kappa
        const = measure.total_mass / 2.0
        lipschitz_ok = True
        for _ in range(10_000):
            u = Direction.from_angle(float(rng.uniform(0.0, 2.0 * math.pi)))
            v = Direction.from_angle(float(rng.uniform(0.0, 2.0 * math.pi)))
            gap = abs(separation_rate(measure, u) - separation_rate(measure, v))
            if gap > const * math.hypot(u.x - v.x, u.y - v.y) + 1e-12:
                lipschitz_ok = False
                break
        ok &= grid_ok and lipschitz_ok
        details.append(f"{name}: kappa {kappa:.6f}, grid ok {grid_ok}, Lipschitz ok {lipschitz_ok}")
    assert report(5, ok, "; ".join(details))


def test_criterion_6_capacity_increment_bound():
    body = box(0, 0, 1, 1)
    n = 10_000
    details = []
    ok = True
    for a in (0.5, 1.0):
        for t in (0.05, 0.1, 0.2):
            rep = increment_check(body, a, t, ISO, n, seed=mix_seed(1606, round(100 * a), round(100 * t)))
            ok &= rep.monotone and rep.within_bound
            details.append(
                f"a={a} t={t}: inc {rep.increment:.4f} <= {rep.bound:.4f}+3se ({rep.within_bound})"
            )
    assert report(6, ok, "; ".join(details))


def test_criterion_7_mixing_rate_constants():
    # The closed form gives ratio - 1 = (c* - sep e^{-d}) / d at t = 1, where
    # d = mass(hull) - mass(A) - mass(B) and c* = sep - d is the mass of lines
    # hitting both bodies, so ratio - 1 ~ c* / (h zeta): the constant is
    # measured against c*(h), written out below for each sweep.
    distances = (5.0, 10.0, 25.0, 50.0, 100.0, 200.0, 400.0)

    # Isotropic, two vertical unit segments h apart: Sylvester's crossed belt
    # gives c* = 2 (sqrt(h^2 + 1) - h) -> 1 / h, and d = 2h - 2.
    def iso_c_star(h: float) -> float:
        return 2.0 / (math.sqrt(h * h + 1.0) + h)

    iso_rows = sweep(
        SweepConfig(
            body_a=UNIT_VSEG,
            body_b=UNIT_VSEG,
            direction=E1,
            distances=distances,
            time=1.0,
            measure=ISO,
        )
    )
    last = iso_rows[-1]
    constant = abs(last.ratio_minus_one) * last.h_norm * last.zeta / iso_c_star(last.h_norm)
    slope, _, _ = fit_decay_exponent(iso_rows)
    iso_ok = abs(constant - 1.0) <= 0.05 and -2.05 <= slope <= -1.95

    # Axis measure, same pair: horizontal lines cover the common unit range,
    # so c* = 1/2, and d = (h - 1) / 2.
    axis_e1_rows = sweep(
        SweepConfig(
            body_a=UNIT_VSEG,
            body_b=UNIT_VSEG,
            direction=E1,
            distances=distances,
            time=1.0,
            measure=AXES,
        )
    )
    last_e1 = axis_e1_rows[-1]
    constant_e1 = abs(last_e1.ratio_minus_one) * last_e1.h_norm * last_e1.zeta / 0.5
    slope_e1, _, _ = fit_decay_exponent(axis_e1_rows)
    e1_ok = abs(constant_e1 - 1.0) <= 0.05 and -1.05 <= slope_e1 <= -0.95

    # Axis measure, segments perpendicular to the diagonal moved along it: no
    # axis line hits both, so c* = 0 and d = (h - 1) / sqrt(2). There is no
    # 1/h law; ratio - 1 = -exp(-(h - 1) / sqrt(2)) exactly.
    diag = Direction(1.0, 1.0)
    perp = ConvexPolygon(((0.5 * -diag.y, 0.5 * diag.x), (-0.5 * -diag.y, -0.5 * diag.x)))
    axis_diag_rows = sweep(
        SweepConfig(
            body_a=perp,
            body_b=perp,
            direction=diag,
            distances=distances,
            time=1.0,
            measure=AXES,
        )
    )
    diag_defect = max(
        abs(r.ratio_minus_one / -math.exp(-(r.h_norm - 1.0) / math.sqrt(2.0)) - 1.0)
        for r in axis_diag_rows
    )
    diag_ok = diag_defect <= 1e-9

    ok = iso_ok and e1_ok and diag_ok
    assert report(
        7,
        ok,
        f"isotropic |ratio-1|*h*zeta/c* at h=400: {constant:.4f} (want 1 +/- 5%), "
        f"slope {slope:.3f} (want [-2.05, -1.95]); "
        f"axis e1 |ratio-1|*h*zeta/c* at h=400: {constant_e1:.4f} (want 1 +/- 5%), "
        f"slope {slope_e1:.3f} (want [-1.05, -0.95]); "
        f"axis diagonal worst relative defect from -exp(-(h-1)/sqrt 2): {diag_defect:.1e} "
        f"(want <= 1e-9)",
    )


def test_criterion_8_joint_mc_spot_check():
    body_a = UNIT_VSEG
    body_b = translate(UNIT_VSEG, (5.0, 0.0))
    a = 1.0
    n = 100_000
    hull = convex_hull(list(body_a.vertices) + list(body_b.vertices))
    window = default_window(hull)
    est = mc_joint(body_a, body_b, a, AXES, n, seed=1808, window=window)
    gamma = joint_missing_closed_form(body_a, body_b, a, AXES)
    bound = closed_form_error_bound(body_a, body_b, a, AXES)
    product = math.exp(-a * hit_mass(AXES, body_a)) * math.exp(-a * hit_mass(AXES, body_b))
    close_ok = abs(est.mean - gamma) <= bound + 3.0 * est.stderr
    z_cov = abs(est.mean - product) / est.stderr
    detect_ok = z_cov >= 3.0
    assert report(
        8,
        close_ok and detect_ok,
        f"|mc {est.mean:.5f} - closed form {gamma:.5f}| <= {bound:.5f}+3se ({close_ok}); "
        f"covariance detectability z = {z_cov:.1f} (>= 3: {detect_ok})",
    )


def test_criterion_9_byte_identical_cli_reruns(tmp_path):
    iso_json = {"isotropic_mass": 2.0 * math.pi, "atoms": []}
    shapes = ("unit_segment", "unit_square", "disc64")
    outputs = []
    for run in range(2):
        parts = []
        for i, shape in enumerate(shapes):
            cfg_path = tmp_path / f"c{run}_{i}.json"
            cfg_path.write_text(
                json.dumps(
                    {
                        "id": shape,
                        "measure": iso_json,
                        "set": shape,
                        "a": 1.0,
                        "n": 10_000,
                        "seed": 1101 + i,
                    }
                )
            )
            out_path = tmp_path / f"o{run}_{i}.csv"
            code = cli_main(
                ["capacity", "--config", str(cfg_path), "--no-timestamp", "--out", str(out_path)]
            )
            assert code == 0
            parts.append(out_path.read_bytes())
        outputs.append(b"".join(parts))
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    assert report(9, ok, f"two CLI reruns produced {len(outputs[0])} identical bytes: {ok}")
