"""Per-operation reference costs, one line per operation.

    python3 bench/reference.py [--seed 1]

Times single operations of the workloads in isolation (no tracing) and
prints a table: milliseconds per estimator replicate, the cost of one full
tessellation, and closed-form sweep rows per second. These are the figures
the README quotes; the end-to-end metrics come from run.py.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def timed(call):
    t0 = perf_counter()
    result = call()
    return result, perf_counter() - t0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    S = run.import_package()
    g, m, cap, mx, st = S.geometry, S.measure, S.capacity, S.mixing, S.stit
    iso, axes = m.isotropic_measure(), m.axis_measure()
    rows = []

    for label, body, n in (
        ("unit segment", g.ConvexPolygon(((0.0, 0.0), (1.0, 0.0))), 400),
        ("unit square", g.box(0.0, 0.0, 1.0, 1.0), 400),
        ("64-gon", g.regular_polygon(64, circumradius=1.0), 100),
    ):
        _, dt = timed(lambda: cap.mc_missing(body, 1.0, iso, n, seed))
        rows.append((f"isotropic mc_missing, {label}", f"{dt / n * 1e3:.2f} ms/replicate"))

    vseg = g.ConvexPolygon(((0.0, 0.0), (0.0, 1.0)))
    far = g.translate(vseg, (25.0, 0.0))
    for label, measure, n in (("axis measure", axes, 40), ("isotropic", iso, 10)):
        _, dt = timed(lambda: cap.mc_joint(vseg, far, 1.0, measure, n, seed))
        rows.append((f"mc_joint, unit segments 25 apart, {label}", f"{dt / n * 1e3:.1f} ms/replicate"))

    params = st.SimulationParams(window=g.box(0.0, 0.0, 20.0, 20.0), time=2.0, measure=iso, seed=seed)
    tess, dt = timed(lambda: st.simulate(params))
    events = len(tess.live_cells) - 1  # each event turns one live cell into two
    rows.append(("simulate, 20x20 window, a = 2", f"{len(tess.live_cells)} cells in {dt:.2f} s ({dt / events * 1e6:.0f} us per event)"))

    e1 = g.Direction(1.0, 0.0)
    for label, body, distances in (
        ("unit segments", vseg, tuple(5.0 * 1.05**k for k in range(90))),
        ("64-gons", g.regular_polygon(64, circumradius=1.0), tuple(3.0 + 3.0 * k for k in range(10))),
    ):
        config = mx.SweepConfig(body_a=body, body_b=body, direction=e1, distances=distances, time=1.0, measure=iso)
        out, dt = timed(lambda: mx.sweep(config))
        rows.append((f"closed-form sweep rows, {label}", f"{len(out) / dt:,.0f} rows/s"))

    width = max(len(a) for a, _ in rows)
    print(f"| {'operation':{width}s} | cost |")
    print(f"|{'-' * (width + 2)}|------|")
    for a, b in rows:
        print(f"| {a:{width}s} | {b} |")


if __name__ == "__main__":
    main()
