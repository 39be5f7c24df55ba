"""Spans at stitlab's module boundaries, recorded from outside the package.

``Tracer.install`` replaces every function a stitlab module imports from
another stitlab module (``stitlab.stit.clip``, ``stitlab.capacity.simulate``,
...) with a wrapper that records a span, and does the same for the entry
points the benchmark calls and for ``ConvexPolygon.__post_init__``.
``uninstall`` puts every original back. Spans live in flat lists in memory
and are folded into per-name totals at the end of each round; the caller
writes the totals out when the run ends.

Two wrappers also count: the one on the simulator's ``chord`` call counts
division events (``simulate`` calls ``chord`` once per event), and the one on
``sample_hitting`` hands the sampler a stream proxy that counts its draws.
"""

from __future__ import annotations

import inspect
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

from oracle import convex_polygons_meet

# Layers, in the order the README lists them.
MODULES = ("cli", "capacity", "mixing", "stit", "measure", "geometry", "svg")

# Functions the benchmark calls directly; wrapped where they are defined, so
# that calls inside their own module (``nest`` -> ``simulate``) are seen too.
ENTRY_POINTS = (
    "cli.main",
    "capacity.mc_missing",
    "capacity.increment_check",
    "mixing.sweep",
    "stit.simulate",
    "stit.nest",
    "stit.restrict",
    "stit.rescale",
    "stit.hits_internal",
    "stit.first_hit_time",
    "stit.tessellation_to_json",
    "stit.tessellation_from_json",
    "svg.render_svg",
)

# Imported names the per-layer metrics are computed from. Any that a
# refactor has removed is reported as skipped and its metrics read 0.
REQUIRED_IMPORTS = (
    "stit.chord",
    "stit.clip",
    "stit.sample_hitting",
    "stit.hit_mass",
    "stit.segment_hits_body",
    "stit.polygon_intersection",
    "capacity.simulate",
    "mixing.mc_joint",
    "mixing.separating_mass",
    "mixing.double_hit_mass",
)

EVENT_SPAN = "geometry.chord"
SAMPLER_SPAN = "measure.sample_hitting"
HOOK_SPAN = "bench.hook"
POLYGON_HOOK = "geometry.ConvexPolygon.__post_init__"


class CountingStream:
    """Delegates to a random stream and counts every draw taken from it."""

    def __init__(self, inner, tracer: "Tracer"):
        self._inner = inner
        self._tracer = tracer

    def random(self) -> float:
        self._tracer.draws += 1
        return self._inner.random()

    def uniform(self, lo: float, hi: float) -> float:
        self._tracer.draws += 1
        return self._inner.uniform(lo, hi)

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if callable(attr):
            def counted(*args, **kwargs):
                self._tracer.draws += 1
                return attr(*args, **kwargs)

            return counted
        return attr


class Tracer:
    """Installs span wrappers on a freshly imported ``stitlab`` package."""

    def __init__(self, package: types.ModuleType):
        self.package = package
        self.modules = {m: getattr(package, m) for m in MODULES}
        self.saved: list[tuple[object, str, object]] = []
        self.skipped: list[str] = []
        # Set by the benchmark around each operation it issues.
        self.kind = "other"
        self.query: list[np.ndarray] = []
        self._reset_round()
        self.totals: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.sample_spans: list[tuple[str, str, float, float, int]] = []

    # -- installation ------------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self.saved)

    def targets(self) -> list[tuple[object, str, str, str]]:
        """(owner, attribute, where, span name) for every name the tracer wraps.

        ``where`` names the patched attribute (``stit.clip``); the span is
        named after the function's home (``geometry.clip``).
        """
        out = []
        prefix = self.package.__name__ + "."
        for short, mod in self.modules.items():
            for attr, obj in sorted(vars(mod).items()):
                home = getattr(obj, "__module__", None) or ""
                if inspect.isfunction(obj) and home.startswith(prefix) and home != mod.__name__:
                    out.append((mod, attr, f"{short}.{attr}", f"{home[len(prefix):]}.{obj.__name__}"))
        for entry in ENTRY_POINTS:
            short, attr = entry.split(".")
            if inspect.isfunction(getattr(self.modules[short], attr, None)):
                out.append((self.modules[short], attr, entry, entry))
        polygon = getattr(self.modules["geometry"], "ConvexPolygon", None)
        if polygon is not None and "__post_init__" in vars(polygon):
            out.append((polygon, "__post_init__", POLYGON_HOOK, "geometry.ConvexPolygon"))
        return out

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        targets = self.targets()
        present = {where for _, _, where, _ in targets}
        wanted = REQUIRED_IMPORTS + ENTRY_POINTS + (POLYGON_HOOK,)
        self.skipped = [w for w in wanted if w not in present]
        for owner, attr, _, span in targets:
            original = getattr(owner, attr)
            self.saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()

    # -- spans -------------------------------------------------------------

    def _reset_round(self) -> None:
        self.names: list[str] = []
        self.kinds: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.draws = 0

    def _open(self, span: str) -> int:
        idx = len(self.starts)
        self.names.append(span)
        self.kinds.append(self.kind)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self.stack.pop()

    def _wrap(self, fn, span: str):
        tracer = self

        if span == SAMPLER_SPAN:
            def sampler(measure, window, rng, *args, **kwargs):
                counted = CountingStream(rng, tracer)
                idx = tracer._open(span)
                try:
                    return fn(measure, window, counted, *args, **kwargs)
                finally:
                    tracer._close(idx)
                    tracer.counts["lines"] += 1

            return sampler

        if span == EVENT_SPAN:
            def event(poly, *args, **kwargs):
                idx = tracer._open(span)
                try:
                    return fn(poly, *args, **kwargs)
                finally:
                    tracer._close(idx)
                    tracer._count_event(poly)

            return event

        def wrapper(*args, **kwargs):
            idx = tracer._open(span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    def _count_event(self, poly) -> None:
        """Count one division event, and whether its cell meets a query hull.

        The test runs inside its own span so that it comes off the caller's
        self time.
        """
        self.counts[f"events.{self.kind}"] += 1
        if not self.query:
            return
        idx = self._open(HOOK_SPAN)
        try:
            if any(convex_polygons_meet(poly.vertices, q) for q in self.query):
                self.counts[f"query_events.{self.kind}"] += 1
        finally:
            self._close(idx)

    def fold_round(self, keep_sample: bool = False) -> None:
        """Fold this round's spans into per-(name, kind) calls, total and self time."""
        n = len(self.starts)
        self.counts["draws"] += self.draws
        if n:
            dur = np.asarray(self.ends) - np.asarray(self.starts)
            parents = np.asarray(self.parents)
            has_parent = parents >= 0
            child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
            self_time = dur - child
            groups: dict[tuple[str, str], list[int]] = defaultdict(list)
            for i, key in enumerate(zip(self.names, self.kinds)):
                groups[key].append(i)
            for key, idx in groups.items():
                t = self.totals[key]
                t[0] += len(idx)
                t[1] += float(dur[idx].sum())
                t[2] += float(self_time[idx].sum())
            if keep_sample:
                limit = min(n, 20_000)
                self.sample_spans = [
                    (self.names[i], self.kinds[i], self.starts[i], self.ends[i], self.parents[i])
                    for i in range(limit)
                ]
        self._reset_round()

    # -- aggregates ----------------------------------------------------------

    def calls(self, span: str, kinds: tuple[str, ...] | None = None) -> int:
        return int(sum(v[0] for (s, k), v in self.totals.items() if s == span and (kinds is None or k in kinds)))

    def total(self, span: str, kinds: tuple[str, ...] | None = None) -> float:
        return sum(v[1] for (s, k), v in self.totals.items() if s == span and (kinds is None or k in kinds))

    def self_time(self, span: str) -> float:
        return sum(v[2] for (s, _), v in self.totals.items() if s == span)

    def layer_self_time(self, layer: str) -> float:
        return sum(v[2] for (s, _), v in self.totals.items() if s.startswith(layer + "."))

    def mean(self, span: str, scale: float, kinds: tuple[str, ...] | None = None) -> float:
        calls = self.calls(span, kinds)
        return self.total(span, kinds) / calls * scale if calls else 0.0
