"""Self-tests of the benchmark: its checks reject wrong outputs, the tracer
puts back everything it wraps, and a timed run wraps nothing.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle as O  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture(scope="module")
def package():
    return run.import_package()


@pytest.fixture
def shrunk(monkeypatch):
    """Workload sizes cut down so that one round takes a fraction of a second."""
    for name, value in {"N": 4, "N_DISC": 4, "ITER_N": 4, "INC_N": 4, "SIM_SEEDS": 1}.items():
        monkeypatch.setattr(W.CapacitySmall, name, value)


def make(cls, package, tmp_path, seed=7):
    return cls(package, seed, tmp_path)


@pytest.fixture
def small_tess(package):
    S = package
    window = S.geometry.box(0.0, 0.0, 4.0, 4.0)
    params = S.stit.SimulationParams(window=window, time=1.5, measure=S.measure.isotropic_measure(), seed=11)
    return S.stit.simulate(params)


# -- output checks reject wrong values ----------------------------------------


def test_tessellation_check_accepts_program_output(package, tmp_path, small_tess):
    wl = make(W.TessellateLarge, package, tmp_path)
    wl.check_tessellation("t", small_tess, small_tess.window.vertices)
    assert wl.failures == []


def test_tessellation_check_rejects_dropped_cell(package, tmp_path, small_tess):
    wl = make(W.TessellateLarge, package, tmp_path)
    live = small_tess.live_cells
    dropped = dataclasses.replace(small_tess, cells=tuple(c for c in small_tess.cells if c is not live[0]))
    wl.check_tessellation("t", dropped, small_tess.window.vertices)
    assert any("areas sum" in f for f in wl.failures)


def test_tessellation_check_rejects_chord_outside_window(package, tmp_path, small_tess):
    wl = make(W.TessellateLarge, package, tmp_path)
    e = small_tess.internal_edges[0]
    moved = dataclasses.replace(e, a=(e.a[0] + 10.0, e.a[1]), b=(e.b[0] + 10.0, e.b[1]))
    tess = dataclasses.replace(small_tess, internal_edges=(moved,) + small_tess.internal_edges[1:])
    wl.check_tessellation("t", tess, small_tess.window.vertices)
    assert any("outside the window" in f for f in wl.failures)


def test_query_checks_reject_wrong_answers(package, tmp_path, small_tess):
    S = package
    wl = make(W.TessellateLarge, package, tmp_path)
    body = S.geometry.box(1.0, 1.0, 1.5, 1.5)
    hit = S.stit.hits_internal(small_tess, body)
    tau = S.stit.first_hit_time(small_tess, body)
    wl.check_queries("q", small_tess, body.vertices, hit, tau)
    assert wl.failures == []
    wl.check_queries("q", small_tess, body.vertices, not hit, tau)
    assert len(wl.failures) == 1
    wl.check_queries("q", small_tess, body.vertices, hit, tau * 1.5 if math.isfinite(tau) else 0.5)
    assert len(wl.failures) == 2


def test_rescale_check_rejects_wrong_factor(package, tmp_path, small_tess):
    S = package
    wl = make(W.TessellateLarge, package, tmp_path)
    wl.check_rescaled(small_tess, S.stit.rescale(small_tess, 0.5), 0.5)
    assert wl.failures == []
    wl.check_rescaled(small_tess, S.stit.rescale(small_tess, 0.5), 0.6)
    assert wl.failures


def test_pooled_mean_shifted_by_five_stderr_is_rejected(package, tmp_path):
    wl = make(W.CapacitySmall, package, tmp_path)
    n, p = 10_000, 0.3
    stderr = math.sqrt(p * (1.0 - p) / n)
    wl.pool("exact", round(p * n), n, p)
    wl.pool("high", round((p + 5.0 * stderr) * n), n, p)
    wl.pool("low", round((p - 5.0 * stderr) * n), n, p)
    wl.pool("interval", round(0.35 * n), n, 0.3, 0.4)
    wl.finish()
    assert sorted(f.split(":")[0] for f in wl.failures) == ["high", "low"]


def test_sweep_row_check_rejects_perturbed_row(package, tmp_path):
    S = package
    wl = make(W.MixingFar, package, tmp_path)
    config = S.mixing.SweepConfig(body_a=wl.vseg, body_b=wl.vseg, direction=wl.e1, distances=(5.0, 50.0),
                                  time=1.0, measure=wl.iso)
    rows = S.mixing.sweep(config)
    want = [wl.segment_formula("iso-e1", h) for h in config.distances]
    wl.check_rows("iso", rows, want, W.EXACT_TOL)
    assert wl.failures == []
    bad = [dataclasses.replace(rows[0], ratio_minus_one=rows[0].ratio_minus_one * (1.0 + 1e-6))] + rows[1:]
    wl.check_rows("iso", bad, want, W.EXACT_TOL)
    assert len(wl.failures) == 1


def test_quadrature_matches_written_out_segment_masses():
    h = 7.0
    [m] = O.pair_masses(O.ISO, [(0.0, 0.0), (0.0, 1.0)], [(0.0, 0.0), (0.0, 1.0)], [(h, 0.0)])
    assert m["both"] == pytest.approx(2.0 * (math.sqrt(h * h + 1.0) - h), rel=1e-5)
    assert m["hull"] - m["a"] - m["b"] == pytest.approx(2.0 * h - 2.0, rel=1e-6)
    [axes] = O.pair_masses(O.AXES, [(0.0, 0.0), (0.0, 1.0)], [(0.0, 0.0), (0.0, 1.0)], [(h, 0.0)])
    assert axes["both"] == pytest.approx(0.5) and axes["a"] == pytest.approx(0.5)


def test_crossing_check_rejects_wrong_intensity(package, tmp_path):
    wl = make(W.TessellateLarge, package, tmp_path)
    wl.crossings = [4 * 400, 400]
    wl.finish()
    assert wl.failures == []
    wl.crossings = [5 * 400, 400]
    wl.finish()
    assert wl.failures


# -- tracing ------------------------------------------------------------------


def test_traced_run_restores_every_wrapped_name(package):
    tracer = spans.Tracer(package)
    targets = tracer.targets()
    before = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    assert any(where == "stit.clip" for _, _, where, _ in targets)
    tracer.install()
    try:
        assert tracer.skipped == []
        assert all(getattr(owner, attr) is not original for owner, attr, original in before)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in before)
    assert not tracer.installed


def test_timed_run_installs_no_wrapper(package, tmp_path, shrunk, monkeypatch):
    wl = make(W.CapacitySmall, package, tmp_path)
    targets = spans.Tracer(package).targets()
    seen = []
    original_op = W.Workload.op

    def watching(self, *args, **kwargs):
        seen.append([getattr(owner, attr).__module__ for owner, attr, _, _ in targets])
        return original_op(self, *args, **kwargs)

    monkeypatch.setattr(W.Workload, "op", watching)
    wl.run_round(0)
    assert seen and all(spans.__name__ not in modules for modules in seen)
    assert wl.failures == []


def test_traced_round_reports_every_layer_metric(package, tmp_path, shrunk):
    wl = make(W.CapacitySmall, package, tmp_path)
    plain = wl.run_round(0)
    tracer = spans.Tracer(package)
    tracer.install()
    wl.tracer = tracer
    try:
        traced = wl.run_round(0, check=False)
    finally:
        wl.tracer = None
        tracer.uninstall()
    tracer.fold_round()
    metrics = run.layer_metrics(tracer, [traced], [traced.wall - plain.wall])
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["stit.events"] > 0 and metrics["stit.clip_calls_per_event"] >= 2.0
    assert 0.0 < metrics["stit.query_event_share"] <= 1.0


# -- the command ----------------------------------------------------------------


def test_command_without_sources_fails_without_a_result(tmp_path):
    """Holding only the benchmark, the command exits non-zero and prints no result."""
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "capacity-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert all(m["unit"] == run.END_TO_END[m["name"]] for m in spec["end_to_end"])
    assert all(m["unit"] == run.PER_LAYER[m["name"]] for m in spec["per_layer"])
