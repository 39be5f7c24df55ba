"""Command-line front end.

Subcommands: measure | simulate | capacity | mixing | iterate | validate.
Configuration comes from JSON files; seeds must be present in the file or
given with --seed (there is no wall-clock default, so every run is
reproducible). Exit codes: 0 success, 1 validation or property failure,
2 bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

from .capacity import _bernoulli, mc_missing, missing_probability
from .geometry import (
    CompactSet,
    ConvexPolygon,
    Direction,
    box,
    compact_from_json,
    polygon_from_json,
    regular_polygon,
)
from .measure import (
    DirectionalMeasure,
    hit_mass,
    min_separation_rate,
    separation_rate,
)
from .mixing import SweepConfig, sweep, sweep_to_csv
from .stit import (
    HitQuery,
    SimulationParams,
    mix_seed,
    simulate,
    tessellation_to_json,
)
from .svg import render_svg

BUILTIN_SHAPES = {
    "unit_square": lambda: box(0.0, 0.0, 1.0, 1.0),
    "unit_segment": lambda: ConvexPolygon(((0.0, 0.0), (1.0, 0.0))),
    "disc64": lambda: regular_polygon(64, circumradius=1.0),
}


class BadInput(ValueError):
    """Configuration or argument problem: exit code 2."""


def _load_config(path: str | None) -> dict:
    if path is None:
        raise BadInput("--config PATH is required for this command")
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise BadInput(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise BadInput(f"config is not valid JSON: {exc}")


def _require(config: dict, key: str):
    if key not in config:
        raise BadInput(f"config is missing required key {key!r}")
    return config[key]


def _parse(config: dict, key: str, kind):
    """``kind(config[key])``, where a value of the wrong type is bad input naming the key."""
    value = _require(config, key)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadInput(f"config key {key!r} has a bad value {value!r}: {exc}")


def _integer(value) -> int:
    """A JSON integer as it is; a float, a string or a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("not a JSON integer")
    return value


def _number(value) -> float:
    """A JSON number as a float; a string or a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("not a JSON number")
    return float(value)


def parse_body(obj) -> ConvexPolygon | CompactSet:
    """A body is a builtin shape name, a polygon, or a compact set."""
    if isinstance(obj, str):
        if obj not in BUILTIN_SHAPES:
            raise BadInput(f"unknown shape {obj!r}; builtins: {sorted(BUILTIN_SHAPES)}")
        return BUILTIN_SHAPES[obj]()
    if isinstance(obj, dict):
        try:
            if "pieces" in obj:
                return compact_from_json(obj)
            if "vertices" in obj:
                return polygon_from_json(obj)
            if "shape" in obj:
                return parse_body(obj["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise BadInput(f"bad body specification: {exc}")
    raise BadInput("a body needs 'vertices', 'pieces', or a builtin 'shape' name")


def parse_window(obj) -> ConvexPolygon:
    """A simulation window: a convex polygon with positive area."""
    window = parse_body(obj)
    if isinstance(window, CompactSet) or len(window.vertices) < 3:
        raise BadInput("window must be a convex polygon with positive area")
    return window


def parse_measure(obj) -> DirectionalMeasure:
    try:
        return DirectionalMeasure.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise BadInput(f"bad measure: {exc}")


def _resolve_seed(config: dict, args) -> int:
    if args.seed is not None:
        return args.seed
    if "seed" not in config:
        raise BadInput("seed must be given in the config file or with --seed")
    return _parse(config, "seed", _integer)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _csv_header_lines(config: dict, no_timestamp: bool) -> list[str]:
    lines = [f"# config: {json.dumps(config, sort_keys=True)}"]
    if not no_timestamp:
        lines.append(f"# timestamp: {datetime.now(timezone.utc).isoformat()}")
    return lines


def cmd_measure(args) -> int:
    config = _load_config(args.config)
    measure = parse_measure(_require(config, "measure"))
    body = parse_body(_require(config, "set"))
    grid = [k * math.pi / 8.0 for k in range(16)]
    report = {
        "config": config,
        "total_mass": measure.total_mass,
        "lambda_hit": hit_mass(measure, body),
        "kappa": min_separation_rate(measure),
        "zeta": [
            {"angle_radians": t, "value": separation_rate(measure, Direction.from_angle(t))}
            for t in grid
        ],
    }
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    measure = parse_measure(_require(config, "measure"))
    window = parse_window(_require(config, "window"))
    seed = _resolve_seed(config, args)
    tess = simulate(
        SimulationParams(
            window=window, time=_parse(config, "a", _number), measure=measure, seed=seed
        )
    )
    doc = {"config": {**config, "seed": seed}, "tessellation": tessellation_to_json(tess)}
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    if args.svg is not None:
        Path(args.svg).write_text(render_svg(tess))
    return 0


def cmd_capacity(args) -> int:
    config = _load_config(args.config)
    measure = parse_measure(_require(config, "measure"))
    body = parse_body(_require(config, "set"))
    seed = _resolve_seed(config, args)
    n = args.n if args.n is not None else _parse(config, "n", _integer)
    a = _parse(config, "a", _number)
    window = parse_window(config["window"]) if "window" in config else None
    query_id = str(config.get("id", "query"))
    if any(c in query_id for c in ',"\r\n'):
        raise BadInput(f"config key 'id' has a bad value {query_id!r}: a CSV field holds no comma, quote or line break")
    est = mc_missing(body, a, measure, n, seed, window=window)
    analytic = missing_probability(body, a, measure) if body.connected else None
    resolved = {**config, "seed": seed, "n": n}
    lines = _csv_header_lines(resolved, args.no_timestamp)
    lines.append("query_id,a,n,mean,stderr,analytic,seed")
    lines.append(
        ",".join(
            [
                query_id,
                repr(a),
                str(n),
                repr(est.mean),
                repr(est.stderr),
                "" if analytic is None else repr(analytic),
                str(seed),
            ]
        )
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_mixing(args) -> int:
    config = _load_config(args.config)
    measure = parse_measure(_require(config, "measure"))
    seed = _resolve_seed(config, args)
    mc_n = args.n
    if mc_n is None and config.get("mc_n") is not None:
        mc_n = _parse(config, "mc_n", _integer)
    sweep_config = SweepConfig(
        body_a=parse_body(_require(config, "A")),
        body_b=parse_body(_require(config, "B")),
        direction=_parse(config, "direction", lambda v: Direction(*(_number(c) for c in v))),
        distances=_parse(config, "distances", lambda v: tuple(_number(h) for h in v)),
        time=_parse(config, "a", _number),
        measure=measure,
        seed=seed,
        mc_n=mc_n,
    )
    rows = sweep(sweep_config)
    resolved = {**config, "seed": seed}
    lines = _csv_header_lines(resolved, args.no_timestamp)
    text = "\n".join(lines) + "\n" + sweep_to_csv(rows)
    _emit(text, args.out)
    return 0


def cmd_iterate(args) -> int:
    config = _load_config(args.config)
    measure = parse_measure(_require(config, "measure"))
    window = parse_window(_require(config, "window"))
    body = parse_body(_require(config, "set"))
    seed = _resolve_seed(config, args)
    n = args.n if args.n is not None else _parse(config, "n", _integer)
    a = _parse(config, "a", _number)
    a2 = _parse(config, "a2", _number)
    if n < 1:
        raise BadInput("need at least one replication")
    query = HitQuery(window, [body])
    misses = sum(
        query.first_hit_nested(a, a2, measure, mix_seed(seed, 2 * i), mix_seed(seed, 2 * i + 1)) == math.inf
        for i in range(n)
    )
    est = _bernoulli(misses, n, seed)
    analytic = missing_probability(body, a + a2, measure) if body.connected else None
    report = {
        "config": {**config, "seed": seed, "n": n},
        "mc_mean": est.mean,
        "mc_stderr": est.stderr,
        "analytic": analytic,
        "z": None if analytic is None or est.stderr == 0.0 else (est.mean - analytic) / est.stderr,
    }
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    if report["z"] is not None and abs(report["z"]) > 3.0:
        return 1
    return 0


def cmd_validate(args) -> int:
    # Imported here: the suite and numpy, which only it needs, stay off every other command's path.
    try:
        from .checks import run_suite
    except ModuleNotFoundError as exc:
        raise BadInput(f"validate needs numpy, and importing it failed: {exc}")
    try:
        results = run_suite(args.suite)
    except KeyError as exc:
        raise BadInput(str(exc))
    report = {
        "suite": args.suite,
        "passed": sum(r.ok for r in results),
        "failed": sum(not r.ok for r in results),
        "checks": [asdict(r) for r in results],
    }
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["failed"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stitlab",
        description="Simulation and verification workbench for iteration-stable planar tessellations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "measure": (cmd_measure, "closed-form measure quantities for a body"),
        "simulate": (cmd_simulate, "simulate one tessellation (JSON, optional SVG)"),
        "capacity": (cmd_capacity, "Monte Carlo missing probability as a CSV row"),
        "mixing": (cmd_mixing, "translation sweep of the joint-missing closed forms"),
        "iterate": (cmd_iterate, "nesting stability check against the closed form"),
        "validate": (cmd_validate, "run a named property suite"),
    }
    # Each subcommand registers only the flags it reads, so a flag it would
    # ignore is a usage error (exit code 2).
    for name, (fn, help_text) in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        if name == "validate":
            p.add_argument("suite", nargs="?", default="fast", help="fast, mc, or all")
        else:
            p.add_argument("--config", help="JSON configuration file")
        if name not in ("measure", "validate"):
            p.add_argument("--seed", type=int, help="override the config seed")
        if name in ("capacity", "mixing", "iterate"):
            p.add_argument("--n", type=int, help="override the sample count")
        p.add_argument("--out", help="output path (default stdout)")
        if name == "simulate":
            p.add_argument("--svg", help="also render an SVG here")
        if name in ("capacity", "mixing"):
            p.add_argument(
                "--no-timestamp", action="store_true", help="suppress the timestamp header line"
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # GeometryError, MeasureError and BadInput too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
