"""Benchmark of stitlab: one workload per run, or all three in turn.

    python3 bench/run.py --workload capacity-small --seed 1 --seconds 35 --trace 0

Imports the package from ``src/`` next to this directory, times its set-up,
then runs the workload's rounds in one process, each call issued when the
previous one has returned, until ``--seconds`` have passed (always at least
one whole round). With ``--trace 0`` it reports the end-to-end metrics, as
medians over rounds of times scaled by the machine-speed probe; with ``--trace 1`` it runs every round once untimed by
the tracer and once traced, and reports the per-layer metrics and the
tracing overhead. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Exit code 0 when every check
passed, 1 when one failed, 2 when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from probe import Probe  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import RATE_KINDS, WORKLOADS  # noqa: E402

SETUP_REPS = 9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "mc_replicates_per_s": "replicates/s",
    "closed_form_rows_per_s": "rows/s",
    "tessellation_cells_per_s": "cells/s",
    "chord_queries_per_s": "queries/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "stit.events": "count",
    "stit.events_per_replicate": "count",
    "stit.query_event_share": "share",
    "stit.simulate.self_us_per_event": "us",
    "stit.clip_calls_per_event": "count",
    "geometry.ConvexPolygon.calls": "count",
    "geometry.ConvexPolygon.us": "us",
    "geometry.clip.us": "us",
    "geometry.chord.us": "us",
    "measure.sample_hitting.us": "us",
    "measure.sample_hitting.draws_per_line": "count",
    "measure.hit_mass.calls": "count",
    "measure.hit_mass.us": "us",
    "geometry.segment_hits_body.us": "us",
    "stit.hits_internal.us": "us",
    "stit.first_hit_time.us": "us",
    "measure.separating_mass.us": "us",
    "measure.double_hit_mass.us": "us",
    "mixing.sweep.row_us": "us",
    "mixing.self_s": "s",
    "capacity.self_s": "s",
    "capacity.replicate_ms": "ms",
    "cli.main.self_ms": "ms",
    "stit.nest.s": "s",
    "stit.restrict.s": "s",
    "geometry.polygon_intersection.us": "us",
    "svg.render_svg.ms": "ms",
    "stit.tessellation_to_json.ms": "ms",
    "trace.overhead_s": "s",
}

CAPACITY_ESTIMATORS = ("capacity.mc_missing", "capacity.mc_joint", "capacity.increment_check")


def import_package():
    """Import a fresh copy of stitlab from ``src/`` (every submodule re-executed)."""
    for name in [m for m in sys.modules if m == "stitlab" or m.startswith("stitlab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("stitlab")
    importlib.import_module("stitlab.cli")
    src = (ROOT / "src").resolve()
    if src not in Path(package.__file__).resolve().parents:
        raise ImportError(f"stitlab was imported from {package.__file__}, not from {src}")
    return package


def set_up(name: str, seed: int, workdir: Path):
    """Import the package and build the workload's inputs, SETUP_REPS times.

    Returns the median probe-scaled time and the workload of the last
    repetition. The first repetition also pays for numpy's import, which the
    median drops.
    """
    times = []
    workload = None
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        package = import_package()
        workload = WORKLOADS[name](package, seed, workdir)
        dt = perf_counter() - t0
        probe = Probe()
        probe.after(dt)
        times.append(dt * probe.scale)
    return statistics.median(times), workload


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def layer_metrics(tracer: Tracer, rounds: list, overheads: list[float]) -> dict[str, float]:
    n_rounds = len(rounds)
    counts = tracer.counts
    events = sum(v for k, v in counts.items() if k.startswith("events."))
    mc_events = counts["events.mc"]
    replicates = sum(sum(r.replicates.values()) for r in rounds)
    via_capacity = sum(r.replicates["capacity"] for r in rounds)
    closed_rows = sum(r.work["closed"] for r in rounds)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "stit.events": ratio(events, n_rounds),
        "stit.events_per_replicate": ratio(mc_events, replicates),
        "stit.query_event_share": ratio(counts["query_events.mc"], mc_events),
        "stit.simulate.self_us_per_event": ratio(tracer.self_time("stit.simulate"), events) * 1e6,
        "stit.clip_calls_per_event": ratio(tracer.calls("geometry.clip"), events),
        "geometry.ConvexPolygon.calls": ratio(tracer.calls("geometry.ConvexPolygon"), n_rounds),
        "geometry.ConvexPolygon.us": tracer.mean("geometry.ConvexPolygon", 1e6),
        "geometry.clip.us": tracer.mean("geometry.clip", 1e6),
        "geometry.chord.us": tracer.mean("geometry.chord", 1e6),
        "measure.sample_hitting.us": tracer.mean("measure.sample_hitting", 1e6),
        "measure.sample_hitting.draws_per_line": ratio(counts["draws"], counts["lines"]),
        "measure.hit_mass.calls": ratio(tracer.calls("measure.hit_mass"), n_rounds),
        "measure.hit_mass.us": tracer.mean("measure.hit_mass", 1e6),
        "geometry.segment_hits_body.us": tracer.mean("geometry.segment_hits_body", 1e6),
        "stit.hits_internal.us": tracer.mean("stit.hits_internal", 1e6),
        "stit.first_hit_time.us": tracer.mean("stit.first_hit_time", 1e6),
        "measure.separating_mass.us": tracer.mean("measure.separating_mass", 1e6),
        "measure.double_hit_mass.us": tracer.mean("measure.double_hit_mass", 1e6),
        "mixing.sweep.row_us": ratio(tracer.total("mixing.sweep", ("closed",)), closed_rows) * 1e6,
        "mixing.self_s": ratio(tracer.layer_self_time("mixing"), n_rounds),
        "capacity.self_s": ratio(tracer.layer_self_time("capacity"), n_rounds),
        "capacity.replicate_ms": ratio(sum(tracer.total(s) for s in CAPACITY_ESTIMATORS), via_capacity) * 1e3,
        "cli.main.self_ms": ratio(tracer.self_time("cli.main"), tracer.calls("cli.main")) * 1e3,
        "stit.nest.s": tracer.mean("stit.nest", 1.0),
        "stit.restrict.s": tracer.mean("stit.restrict", 1.0),
        "geometry.polygon_intersection.us": tracer.mean("geometry.polygon_intersection", 1e6),
        "svg.render_svg.ms": tracer.mean("svg.render_svg", 1e3),
        "stit.tessellation_to_json.ms": tracer.mean("stit.tessellation_to_json", 1e3),
        "trace.overhead_s": statistics.median(overheads),
    }


def write_trace(path: Path, workload, tracer: Tracer, rounds: int) -> None:
    doc = {
        "workload": workload.name,
        "seed": workload.seed,
        "traced_rounds": rounds,
        "skipped": tracer.skipped,
        "spans": [
            {"span": s, "kind": k, "calls": v[0], "total_s": v[1], "self_s": v[2]}
            for (s, k), v in sorted(tracer.totals.items())
        ],
        "counts": dict(tracer.counts),
        "first_round_spans": [
            {"span": s, "kind": k, "start": a, "end": b, "parent": p} for s, k, a, b, p in tracer.sample_spans
        ],
    }
    path.write_text(json.dumps(doc))


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, workload = set_up(name, seed, workdir)
        tracer = Tracer(workload.S) if trace else None
        rounds, traced, overheads = [], [], []
        deadline = perf_counter() + seconds
        r = 0
        while True:
            rounds.append(workload.run_round(r))
            if tracer is not None:
                tracer.install()
                workload.tracer = tracer
                try:
                    traced.append(workload.run_round(r, check=False))
                finally:
                    workload.tracer = None
                    tracer.uninstall()
                tracer.fold_round(keep_sample=(r == 0))
                overheads.append(traced[-1].wall - rounds[-1].wall)
            r += 1
            if perf_counter() >= deadline:
                break
        workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        metrics = layer_metrics(tracer, traced, overheads)
        units = PER_LAYER
        trace_path = out_dir / f"trace-{name}-seed{seed}.json"
        write_trace(trace_path, workload, tracer, len(traced))
        if tracer.skipped:
            print(f"{name}: not wrapped (removed from the package): {', '.join(tracer.skipped)}", file=sys.stderr)
        print(f"{name}: spans written to {trace_path.relative_to(ROOT)}", file=sys.stderr)
    else:
        per_round = [rnd.rates() for rnd in rounds]
        metrics = {"setup_s": setup_s, "wall_s": statistics.median(rnd.scaled_wall() for rnd in rounds)}
        for metric in RATE_KINDS.values():
            values = [rates[metric] for rates in per_round if metric in rates]
            if values:
                metrics[metric] = statistics.median(values)
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = END_TO_END

    for message in workload.failures:
        print(f"{name}: CHECK FAILED: {message}", file=sys.stderr)
    errors = sum((rnd.errors for rnd in rounds), Counter())
    for message, count in errors.items():
        print(f"{name}: {count} operations failed with {message}", file=sys.stderr)
    scales = [rnd.probe.scale for rnd in rounds]
    print(f"{name}: seed {seed}, {len(rounds)} rounds, unscaled median wall "
          f"{statistics.median(rnd.wall for rnd in rounds):.4f} s, probe scale "
          f"{min(scales):.3f} to {max(scales):.3f}", file=sys.stderr)
    for key, value in metrics.items():
        print(f"  {key:40s} {value:14.6g} {units[key]}", file=sys.stderr)
    return {
        "correct": not workload.failures,
        "attempted": sum(rnd.attempted for rnd in rounds),
        "failed": sum(rnd.failed for rnd in rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Run each workload in its own interpreter, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit(f"{name}: benchmark exited with {proc.returncode}")
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import stitlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
