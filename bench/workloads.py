"""The benchmark's three workloads.

Each workload builds its inputs from the package's public constructors
(that is the timed set-up), then runs rounds. A round issues a fixed list
of operations, one after another, each call made when the previous one has
returned; its random parts come from (workload seed, round index), so
repeated rounds are fresh draws and not cache hits. Every output is checked
against ``oracle``; statistical checks pool their counts over all rounds of
the run and are judged once at the end.

Operation kinds decide which rate an operation's time and work count
toward: ``mc`` (estimator replicates), ``closed`` (closed-form sweep rows),
``cells`` (live cells returned by ``simulate`` and ``nest``) and ``chord``
(``hits_internal`` / ``first_hit_time`` queries). Every other kind counts
toward the round's wall time only. Each call is followed by the machine-speed
probe (``probe.py``), whose scale the round's times are multiplied by.
"""

from __future__ import annotations

import io
import json
import math
from collections import Counter, defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle as O
from probe import Probe

RATE_KINDS = {
    "mc": "mc_replicates_per_s",
    "closed": "closed_form_rows_per_s",
    "cells": "tessellation_cells_per_s",
    "chord": "chord_queries_per_s",
}

# Relative tolerances: exact arithmetic against exact formulas, and program
# closed forms against the direction quadrature.
EXACT_TOL = 1e-9
QUADRATURE_TOL = 1e-4
# Positional tolerance (length units) for chords lying in their window.
POSITION_TOL = 1e-9


@dataclass
class Round:
    """Timing and counts of the operations of one round."""

    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    time: dict = field(default_factory=lambda: defaultdict(float))
    work: dict = field(default_factory=lambda: defaultdict(float))
    replicates: dict = field(default_factory=lambda: defaultdict(int))
    errors: Counter = field(default_factory=Counter)
    probe: Probe = field(default_factory=Probe)

    def scaled_wall(self) -> float:
        return self.wall * self.probe.scale

    def rates(self) -> dict[str, float]:
        """Work per probe-scaled second, for each kind the round timed."""
        return {
            metric: self.work[kind] / (self.time[kind] * self.probe.scale)
            for kind, metric in RATE_KINDS.items()
            if self.time[kind] > 0.0
        }


def rel_close(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol * max(abs(target), 1e-300)


class Workload:
    """Inputs, per-round operations and output checks of one workload."""

    name = ""

    def __init__(self, package, seed: int, workdir: Path):
        self.S = package
        self.seed = seed
        self.workdir = workdir
        self.failures: list[str] = []
        self.pooled: dict[str, list] = {}
        self.tracer = None
        self.current = Round()
        self.build()

    # -- hooks for the subclasses --------------------------------------------

    def build(self) -> None:
        """Construct inputs through the package (timed as set-up)."""

    def operations(self, r: int) -> list:
        """Issue round r's operations; return what the checks need."""
        raise NotImplementedError

    def check_round(self, r: int, results: list) -> None:
        raise NotImplementedError

    # -- running -------------------------------------------------------------

    def run_round(self, r: int, check: bool = True) -> Round:
        self.current = Round()
        results = self.operations(r)
        if check:
            self.check_round(r, results)
        return self.current

    def rng(self, r: int, salt: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, r, salt])

    def sub_seed(self, r: int, k: int) -> int:
        return (self.seed * 1_000_003 + r) * 1_009 + k

    def op(self, kind: str, call, work=1, replicates: int = 0, via: str = "capacity", query=()):
        """Time one program call; a raised exception counts as a failed operation."""
        rnd = self.current
        rnd.attempted += 1
        if self.tracer is not None:
            self.tracer.kind = kind
            self.tracer.query = [np.asarray(q, dtype=float) for q in query]
        t0 = perf_counter()
        try:
            result = call()
        except Exception as exc:  # the run goes on; the failure is counted and named
            dt = perf_counter() - t0
            rnd.wall += dt
            rnd.probe.after(dt)
            rnd.failed += 1
            rnd.errors[f"{type(exc).__name__}: {exc}"] += 1
            return None
        dt = perf_counter() - t0
        rnd.probe.after(dt)
        rnd.wall += dt
        rnd.time[kind] += dt
        rnd.work[kind] += work(result) if callable(work) else work
        rnd.replicates[via] += replicates
        return result

    def cli(self, argv: list[str], ok_codes=(0,)) -> str:
        """Run ``stitlab.cli.main`` in-process and return what it printed."""
        out = io.StringIO()
        with redirect_stdout(out):
            code = self.S.cli.main(argv)
        if code not in ok_codes:
            raise RuntimeError(f"stitlab {argv[0]} exited with {code}")
        return out.getvalue()

    def write_config(self, name: str, config: dict) -> str:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(config))
        return str(path)

    # -- checks --------------------------------------------------------------

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def pool(self, key: str, successes: int, n: int, low: float, high: float | None = None) -> None:
        """Add a binomial count whose rate must lie in [low, high]."""
        entry = self.pooled.setdefault(key, [0, 0, low, low if high is None else high])
        entry[0] += successes
        entry[1] += n

    def finish(self) -> None:
        """Judge the pooled counts: the rate must be consistent with [low, high]."""
        for key, (k, n, low, high) in sorted(self.pooled.items()):
            if low <= k / n <= high:
                continue
            p = low if k / n < low else high
            self.check(
                O.binomial_ok(k, n, p),
                f"{key}: {k}/{n} = {k / n:.5f} against {p:.5f} (exact binomial tail beyond z = {O.Z})",
            )

    def check_tessellation(self, label: str, tess, window_verts, scale: float = 1.0) -> None:
        """Live-cell areas partition the window; chords lie in the window."""
        areas = [O.shoelace(c.polygon.vertices) for c in tess.live_cells]
        target = O.shoelace(window_verts)
        # A cell may be a sliver whose area is below rounding; none may be
        # inverted by more than the partition tolerance.
        self.check(min(areas, default=0.0) >= -EXACT_TOL * target, f"{label}: a live cell has negative area")
        self.check(
            rel_close(math.fsum(areas), target, EXACT_TOL),
            f"{label}: live-cell areas sum to {math.fsum(areas)!r}, window area {target!r}",
        )
        if tess.internal_edges:
            ends = np.array([p for e in tess.internal_edges for p in (e.a, e.b)], dtype=float)
            inside = O.inside_convex(window_verts, ends, POSITION_TOL * max(1.0, scale))
            self.check(bool(inside.all()), f"{label}: {int((~inside).sum())} chord ends outside the window")

    def check_queries(self, label: str, tess, body_verts, hit: bool, tau: float) -> None:
        """``hits_internal`` and ``first_hit_time`` against a brute-force scan."""
        chords = chord_array(tess)
        meets = O.segments_hit_polygon(chords, body_verts, POSITION_TOL) if len(chords) else np.zeros(0, bool)
        self.check(hit == bool(meets.any()), f"{label}: hits_internal {hit}, brute force {bool(meets.any())}")
        times = np.array([e.time for e in tess.internal_edges])
        expected = float(times[meets].min()) if meets.any() else math.inf
        self.check(tau == expected, f"{label}: first_hit_time {tau!r}, brute force {expected!r}")

    def check_rows(self, label: str, rows, expected: list[dict], tol: float) -> None:
        """Each row field within tol times the size of the terms making it up."""
        self.check(len(rows) == len(expected), f"{label}: {len(rows)} rows, expected {len(expected)}")
        for row, want in zip(rows, expected):
            self.check(not row.overlap, f"{label}: h = {row.h_norm} flagged as overlapping")
            for key, (target, scale) in want.items():
                value = getattr(row, key)
                self.check(
                    value is not None and abs(value - target) <= tol * abs(scale),
                    f"{label}: h = {row.h_norm} {key} = {value!r}, expected {target!r}",
                )


def chord_array(tess) -> np.ndarray:
    return np.array([[e.a[0], e.a[1], e.b[0], e.b[1]] for e in tess.internal_edges], dtype=float).reshape(-1, 4)


def jittered(rng: np.random.Generator, lo: float, hi: float, count: int) -> tuple[float, ...]:
    """Increasing distances, log-spaced from lo to hi, each moved by a fifth
    of the spacing at most, so every round sweeps new values."""
    ratio = (hi / lo) ** (1.0 / (count - 1))
    base = np.geomspace(lo, hi, count)
    return tuple(float(h) for h in base * (1.0 + 0.2 * (ratio - 1.0) * rng.uniform(-1.0, 1.0, count)))


def sweep_expected(measure: O.Measure, body, direction, distances, time: float) -> list[dict]:
    """Closed-form rows for ``body`` and its translate by h * direction."""
    shifts = [(h * direction[0], h * direction[1]) for h in distances]
    return [O.closed_form_row(m, time) for m in O.pair_masses(measure, body.vertices, body.vertices, shifts)]


# ---------------------------------------------------------------------------


class CapacitySmall(Workload):
    """Capacity functional of small bodies: CLI ``capacity`` and ``iterate``,
    and ``increment_check``, where each replicate has about ten events and
    costs mostly per-replicate overhead."""

    name = "capacity-small"
    A = 1.0
    N = 100
    N_DISC = 40
    ITER_A = 0.5
    ITER_N = 100
    INC_A, INC_STEP, INC_N = 0.5, 0.25, 100
    SWEEP_ROWS = 200
    SIM_SEEDS = 20
    # Hitting masses the benchmark knows in closed form: isotropic perimeters
    # (a segment counts both ways) and, for the axis measure, the width sum.
    ISO_L = {"unit_segment": 2.0, "unit_square": 4.0, "disc64": O.regular_polygon_perimeter(64, 1.0)}
    AXIS_SQUARE_L = 1.0

    def build(self) -> None:
        S = self.S
        g = S.geometry
        self.iso = S.measure.isotropic_measure()
        self.axes = S.measure.axis_measure()
        self.bodies = {
            "unit_segment": g.ConvexPolygon(((0.0, 0.0), (1.0, 0.0))),
            "unit_square": g.box(0.0, 0.0, 1.0, 1.0),
            "disc64": g.regular_polygon(64, circumradius=1.0),
        }
        self.windows = {k: S.capacity.default_window(b) for k, b in self.bodies.items()}
        self.square = self.bodies["unit_square"]
        self.e1 = g.Direction(1.0, 0.0)
        iso_json = self.iso.to_json()
        self.capacity_runs = [
            (f"iso-{shape}", shape, self.ISO_L[shape], self.N_DISC if shape == "disc64" else self.N,
             self.write_config(f"iso-{shape}", {"id": shape, "measure": iso_json, "set": shape, "a": self.A, "n": 1}))
            for shape in ("unit_segment", "unit_square", "disc64")
        ]
        self.capacity_runs.append(
            ("axis-unit_square", "unit_square", self.AXIS_SQUARE_L, self.N,
             self.write_config("axis-unit_square", {"id": "axis", "measure": self.axes.to_json(), "set": "unit_square", "a": self.A, "n": 1}))
        )
        self.iterate_config = self.write_config(
            "iterate",
            {"measure": iso_json, "window": g.polygon_to_json(g.box(-0.5, -0.5, 1.5, 1.5)), "set": "unit_square",
             "a": self.ITER_A, "a2": self.ITER_A, "n": 1},
        )

    def operations(self, r: int) -> list:
        S = self.S
        out = []
        for k, (label, shape, _, n, path) in enumerate(self.capacity_runs):
            argv = ["capacity", "--config", path, "--seed", str(self.sub_seed(r, k)), "--n", str(n), "--no-timestamp"]
            out.append(self.op("mc", lambda: self.cli(argv), replicates=n, work=n, query=[self.bodies[shape].vertices]))
        argv = ["iterate", "--config", self.iterate_config, "--seed", str(self.sub_seed(r, 10)), "--n", str(self.ITER_N)]
        # iterate exits 1 when its own |z| exceeds 3; the report is complete
        # either way, and the benchmark judges the pooled count itself.
        out.append(self.op("mc", lambda: self.cli(argv, ok_codes=(0, 1)), replicates=self.ITER_N, work=self.ITER_N,
                           via="iterate", query=[self.square.vertices]))
        out.append(self.op(
            "mc",
            lambda: S.capacity.increment_check(self.square, self.INC_A, self.INC_STEP, self.iso, self.INC_N, self.sub_seed(r, 11)),
            replicates=self.INC_N, work=self.INC_N, query=[self.square.vertices],
        ))
        sweeps = []
        for k, (label, measure) in enumerate((("iso", self.iso), ("axis", self.axes))):
            config = S.mixing.SweepConfig(
                body_a=self.square, body_b=self.square, direction=self.e1,
                distances=jittered(self.rng(r, k), 1.5, 40.0, self.SWEEP_ROWS), time=self.A, measure=measure,
            )
            sweeps.append((label, config.distances, self.op("closed", lambda: S.mixing.sweep(config), work=len)))
        out.append(sweeps)
        sims = []
        for k, (shape, body) in enumerate(self.bodies.items()):
            for j in range(self.SIM_SEEDS):
                params = S.stit.SimulationParams(window=self.windows[shape], time=self.A, measure=self.iso,
                                                 seed=self.sub_seed(r, 100 + self.SIM_SEEDS * k + j))
                tess = self.op("cells", lambda: S.stit.simulate(params), work=lambda t: len(t.live_cells))
                hit = self.op("chord", lambda: S.stit.hits_internal(tess, body))
                tau = self.op("chord", lambda: S.stit.first_hit_time(tess, body))
                sims.append((shape, tess, hit, tau))
        out.append(sims)
        return out

    def check_round(self, r: int, results: list) -> None:
        *capacity, iterate, increment, sweeps, sims = results
        for (label, _, L, n, _), text in zip(self.capacity_runs, capacity):
            fields = text.strip().splitlines()[-1].split(",")
            mean, analytic = float(fields[3]), float(fields[5])
            self.check(int(fields[2]) == n, f"{label}: CSV n {fields[2]} != {n}")
            self.check(rel_close(analytic, math.exp(-self.A * L), EXACT_TOL), f"{label}: analytic {analytic!r}")
            self.pool(f"capacity {label} missing mean vs exp(-aL)", round(mean * n), n, math.exp(-self.A * L))
        report = json.loads(iterate)
        nested = math.exp(-2.0 * self.ITER_A * self.ISO_L["unit_square"])
        self.check(rel_close(report["analytic"], nested, EXACT_TOL), f"iterate: analytic {report['analytic']!r}")
        self.pool("iterate nested missing mean vs exp(-(a+a2)L)", round(report["mc_mean"] * self.ITER_N), self.ITER_N, nested)

        L = self.ISO_L["unit_square"]
        a, t = self.INC_A, self.INC_STEP
        bound = t * L * (1.0 + a * L) * math.exp(-a * L)
        self.check(rel_close(increment.bound, bound, EXACT_TOL), f"increment_check: bound {increment.bound!r}, expected {bound!r}")
        self.check(
            0.0 <= increment.increment <= bound + 3.0 * increment.stderr,
            f"increment_check: increment {increment.increment!r} outside [0, bound + 3 stderr]",
        )
        self.pool("increment_check vs exp(-aL) - exp(-(a+t)L)", round(increment.increment * self.INC_N), self.INC_N,
                  math.exp(-a * L) - math.exp(-(a + t) * L))

        for label, distances, rows in sweeps:
            want = sweep_expected(O.ISO if label == "iso" else O.AXES, self.square, (1.0, 0.0), distances, self.A)
            self.check_rows(f"unit-square {label} sweep", rows, want, QUADRATURE_TOL)

        for shape, tess, hit, tau in sims:
            self.check_tessellation(f"simulate {shape} window", tess, self.windows[shape].vertices)
            self.check_queries(f"queries {shape}", tess, self.bodies[shape].vertices, hit, tau)


class MixingFar(Workload):
    """Covariance decay: Monte Carlo joint sweeps of two unit segments far
    apart (phase 1), then closed-form-only sweeps (phase 2)."""

    name = "mixing-far"
    A = 1.0
    MC_DISTANCES = (5.0, 12.0, 25.0)
    MC_N = {"axis": 30, "iso": 8}
    CLOSED_ROWS = 40
    GON_ROWS = 6
    SIM_SEEDS = 4
    QUERY_XS = tuple(2.5 * k for k in range(11))

    def build(self) -> None:
        S = self.S
        g = S.geometry
        self.iso = S.measure.isotropic_measure()
        self.axes = S.measure.axis_measure()
        self.vseg = g.ConvexPolygon(((0.0, 0.0), (0.0, 1.0)))
        self.gon = g.regular_polygon(64, circumradius=1.0)
        self.e1 = g.Direction(1.0, 0.0)
        self.diag = g.Direction(1.0, 1.0)
        self.far = g.translate(self.vseg, (self.MC_DISTANCES[-1], 0.0))
        self.far_window = S.capacity.default_window(g.convex_hull(list(self.vseg.vertices) + list(self.far.vertices)))
        # The diagonal sweep moves a unit segment perpendicular to the diagonal.
        self.dseg = g.ConvexPolygon(((0.0, 0.0), (-math.sqrt(0.5), math.sqrt(0.5))))
        self.query_segments = [g.translate(self.vseg, (x, 0.0)) for x in self.QUERY_XS]

    def operations(self, r: int) -> list:
        S = self.S
        mx = S.mixing
        out = []
        for k, (label, measure) in enumerate((("axis", self.axes), ("iso", self.iso))):
            n = self.MC_N[label]
            config = mx.SweepConfig(body_a=self.vseg, body_b=self.vseg, direction=self.e1, distances=self.MC_DISTANCES,
                                    time=self.A, measure=measure, seed=self.sub_seed(r, k), mc_n=n)
            reps = n * len(self.MC_DISTANCES)
            out.append((label, self.op("mc", lambda: mx.sweep(config), replicates=reps, work=reps,
                                       query=[self.vseg.vertices, self.far.vertices])))
        closed = []
        for k, (label, body, direction, measure) in enumerate((
            ("iso-e1", self.vseg, self.e1, self.iso),
            ("axis-e1", self.vseg, self.e1, self.axes),
            ("axis-diagonal", self.dseg, self.diag, self.axes),
        )):
            config = mx.SweepConfig(body_a=body, body_b=body, direction=direction,
                                    distances=jittered(self.rng(r, k), 5.0, 400.0, self.CLOSED_ROWS), time=self.A, measure=measure)
            closed.append((label, config.distances, self.op("closed", lambda: mx.sweep(config), work=len)))
        config = mx.SweepConfig(body_a=self.gon, body_b=self.gon, direction=self.e1,
                                distances=jittered(self.rng(r, 3), 3.0, 30.0, self.GON_ROWS), time=self.A, measure=self.iso)
        closed.append(("64-gon iso", config.distances, self.op("closed", lambda: mx.sweep(config), work=len)))
        out.append(closed)
        sims = []
        for k, measure in enumerate((self.iso,) * self.SIM_SEEDS + (self.axes,) * self.SIM_SEEDS):
            params = S.stit.SimulationParams(window=self.far_window, time=self.A, measure=measure, seed=self.sub_seed(r, 10 + k))
            tess = self.op("cells", lambda: S.stit.simulate(params), work=lambda t: len(t.live_cells))
            for body in self.query_segments:
                hit = self.op("chord", lambda: S.stit.hits_internal(tess, body))
                tau = self.op("chord", lambda: S.stit.first_hit_time(tess, body))
                sims.append((tess, body, hit, tau))
        out.append(sims)
        return out

    def segment_formula(self, label: str, h: float) -> dict[str, tuple[float, float]]:
        """Criterion-7 rows from written-out c*(h), d(h) and body masses."""
        if label == "iso-e1":
            c_star, d, m = 2.0 / (math.sqrt(h * h + 1.0) + h), 2.0 * h - 2.0, 2.0
        elif label == "axis-e1":
            c_star, d, m = 0.5, 0.5 * (h - 1.0), 0.5
        else:
            c_star, d, m = 0.0, (h - 1.0) / math.sqrt(2.0), math.sqrt(0.5)
        t = self.A
        product = math.exp(-t * 2.0 * m)
        ratio = -math.expm1(-t * d) / d
        joint = (c_star + d) * product * ratio
        gap = math.exp(-t * d)
        return {
            "product_exact": (product, product),
            "joint_gamma_exact": (joint, joint),
            "ratio_minus_one": (c_star * ratio - gap, c_star * ratio + gap),
        }

    def check_round(self, r: int, results: list) -> None:
        *mc, closed, sims = results
        for label, rows in mc:
            measure = O.AXES if label == "axis" else O.ISO
            want = sweep_expected(measure, self.vseg, (1.0, 0.0), self.MC_DISTANCES, self.A)
            self.check_rows(f"mc sweep {label}", rows, want, QUADRATURE_TOL)
            for row, w in zip(rows, want):
                gamma, bound = w["joint_gamma_exact"][0], w["gamma_complement_bound"][0]
                est = row.joint_mc
                self.pool(f"mc_joint {label} h = {row.h_norm}: mean vs [gamma, gamma + bound]",
                          round(est.mean * est.n), est.n, gamma, min(1.0, gamma + bound))
        for label, distances, rows in closed:
            if label == "64-gon iso":
                self.check_rows(label, rows, sweep_expected(O.ISO, self.gon, (1.0, 0.0), distances, self.A), QUADRATURE_TOL)
            else:
                self.check_rows(label, rows, [self.segment_formula(label, h) for h in distances], EXACT_TOL)
        for tess, body, hit, tau in sims:
            self.check_tessellation("simulate joint-hull window", tess, self.far_window.vertices)
            self.check_queries("joint-hull queries", tess, body.vertices, hit, tau)


class TessellateLarge(Workload):
    """Full tessellations of large windows, with no query to prune."""

    name = "tessellate-large"
    OFFSET = 1e8
    OFFSET_SEEDS = (1, 2, 3, 4)
    # Query squares small enough (hit with probability 1 - exp(-2 * 0.004))
    # that almost every query scans every chord: a steady cost per query.
    QUERIES = 4
    QUERY_SIDE = 0.001
    # Fixed unit test segments: crossings by chords of an isotropic STIT at
    # time a are Poisson with mean a * 2 * length. Measured over 60 seeds the
    # variance of their sum was 1.16 times its mean; the check allows twice.
    CROSSING_VARIANCE_FACTOR = 2.0
    MC_N = 300
    SWEEP_ROWS = 100

    def build(self) -> None:
        S = self.S
        g = S.geometry
        m = S.measure
        self.iso = m.isotropic_measure()
        self.axes = m.axis_measure()
        self.mixed = m.DirectionalMeasure(atoms=self.axes.atoms, isotropic_mass=math.pi)
        self.square_window = g.box(0.0, 0.0, 20.0, 20.0)
        self.gon_window = g.regular_polygon(64, circumradius=10.0)
        self.axis_window = g.box(-25.0, -25.0, 25.0, 25.0)
        self.nest_window = g.box(0.0, 0.0, 8.0, 8.0)
        self.sub_window = g.box(5.0, 5.0, 15.0, 15.0)
        self.offset_window = g.box(self.OFFSET, self.OFFSET, self.OFFSET + 4.0, self.OFFSET + 4.0)
        self.unit_square = g.box(0.0, 0.0, 1.0, 1.0)
        self.diag = g.Direction(1.0, 1.0)
        self.tests = []
        for i in range(5):
            for j in range(8):
                cx, cy = 2.0 + 4.0 * i, 1.25 + 2.5 * j
                th = (5 * i + j) * math.pi / 7.0
                dx, dy = 0.5 * math.cos(th), 0.5 * math.sin(th)
                self.tests.append(((cx - dx, cy - dy), (cx + dx, cy + dy)))
        self.crossings = [0, 0]

    def simulate(self, window, a, measure, seed, kind="cells"):
        S = self.S
        params = S.stit.SimulationParams(window=window, time=a, measure=measure, seed=seed)
        return self.op(kind, lambda: S.stit.simulate(params), work=lambda t: len(t.live_cells))

    def operations(self, r: int) -> dict:
        S = self.S
        st = S.stit
        out = {}
        out["square"] = self.simulate(self.square_window, 2.0, self.iso, self.sub_seed(r, 0))
        out["gon"] = self.simulate(self.gon_window, 2.0, self.mixed, self.sub_seed(r, 1))
        out["axis"] = self.simulate(self.axis_window, 2.2, self.axes, self.sub_seed(r, 2))
        base = self.simulate(self.nest_window, 1.0, self.iso, self.sub_seed(r, 3))
        out["nested"] = self.op("cells", lambda: st.nest(base, 1.0, self.iso, self.sub_seed(r, 4)), work=lambda t: len(t.live_cells))
        square = out["square"]
        out["restricted"] = self.op("transform", lambda: st.restrict(square, self.sub_window))
        out["rescaled"] = self.op("transform", lambda: st.rescale(square, 0.5))
        corners = self.rng(r, 0).uniform(0.5, 19.5, size=(self.QUERIES, 2))
        bodies = [S.geometry.box(x, y, x + self.QUERY_SIDE, y + self.QUERY_SIDE) for x, y in corners]
        out["queries"] = [
            (body, self.op("chord", lambda: st.hits_internal(square, body)), self.op("chord", lambda: st.first_hit_time(square, body)))
            for body in bodies
        ]
        doc = self.op("io", lambda: st.tessellation_to_json(square))
        text = json.dumps(doc)
        out["json"] = self.op("io", lambda: st.tessellation_from_json(json.loads(text)))
        out["svg"] = self.op("io", lambda: S.svg.render_svg(square))
        # Known failure: counts toward wall time and failed operations only.
        out["offset"] = [self.simulate(self.offset_window, 1.0, self.iso, s, kind="offset") for s in self.OFFSET_SEEDS]
        out["mc"] = self.op(
            "mc", lambda: S.capacity.mc_missing(self.unit_square, 1.0, self.mixed, self.MC_N, self.sub_seed(r, 5)),
            replicates=self.MC_N, work=self.MC_N, query=[self.unit_square.vertices],
        )
        config = S.mixing.SweepConfig(
            body_a=self.unit_square, body_b=self.unit_square, direction=self.diag,
            distances=jittered(self.rng(r, 1), 2.0, 40.0, self.SWEEP_ROWS), time=1.0, measure=self.mixed,
        )
        out["sweep"] = (config.distances, self.op("closed", lambda: S.mixing.sweep(config), work=len))
        return out

    def check_round(self, r: int, out: dict) -> None:
        for key, window in (("square", self.square_window), ("gon", self.gon_window), ("axis", self.axis_window),
                            ("nested", self.nest_window), ("restricted", self.sub_window)):
            self.check_tessellation(f"{key} tessellation", out[key], window.vertices, scale=50.0)
        axis_chords = chord_array(out["axis"])
        flat = np.minimum(np.abs(axis_chords[:, 0] - axis_chords[:, 2]), np.abs(axis_chords[:, 1] - axis_chords[:, 3]))
        self.check(bool((flat <= POSITION_TOL * 50.0).all()), "axis tessellation: a chord is not axis-parallel")
        square = out["square"]
        self.check_rescaled(square, out["rescaled"], 0.5)
        self.check(out["json"] == square, "JSON round trip changed the tessellation")
        self.check(out["svg"].count("<polygon") == len(square.live_cells) + 1, "render_svg: polygon count != cells + window")
        for body, hit, tau in out["queries"]:
            self.check_queries("square queries", square, body.vertices, hit, tau)
        chords = chord_array(square)
        self.crossings[0] += sum(O.count_crossings(chords, p, q) for p, q in self.tests)
        self.crossings[1] += len(self.tests)
        for tess in out["offset"]:
            if tess is not None:
                self.check_tessellation("offset tessellation", tess, self.offset_window.vertices, scale=self.OFFSET)
        est = out["mc"]
        # Mixed measure on the unit square: isotropic perimeter 4 at half
        # density, plus axis widths 1 + 1 at 1/2.
        self.pool("mc_missing mixed unit square vs exp(-aL)", round(est.mean * est.n), est.n, math.exp(-3.0))
        distances, rows = out["sweep"]
        d = math.sqrt(0.5)
        self.check_rows("mixed diagonal sweep", rows, sweep_expected(O.MIXED, self.unit_square, (d, d), distances, 1.0), QUADRATURE_TOL)

    def check_rescaled(self, tess, rescaled, factor: float) -> None:
        """Rescaling partitions the scaled window, cell areas times factor^2."""
        window = [(factor * x, factor * y) for x, y in tess.window.vertices]
        self.check_tessellation("rescaled tessellation", rescaled, window, scale=50.0)
        before = [O.shoelace(c.polygon.vertices) for c in tess.live_cells]
        after = [O.shoelace(c.polygon.vertices) for c in rescaled.live_cells]
        self.check(
            len(before) == len(after)
            and all(rel_close(b, factor * factor * a, EXACT_TOL) for a, b in zip(before, after)),
            "rescale: a cell area is not factor^2 times the original",
        )

    def finish(self) -> None:
        super().finish()
        total, segments = self.crossings
        if segments:
            expected = 2.0 * 2.0 * segments
            z = abs(total - expected) / math.sqrt(self.CROSSING_VARIANCE_FACTOR * expected)
            self.check(z <= O.Z, f"chord crossings of unit test segments: {total / segments:.4f} per segment, expected 4 (z = {z:.2f})")


WORKLOADS = {w.name: w for w in (CapacitySmall, MixingFar, TessellateLarge)}
