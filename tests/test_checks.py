"""The ``stitlab validate`` checks, run by pytest: one test per check."""

from __future__ import annotations

import json

import pytest

from conftest import assert_check
import stitlab.checks as checks
from stitlab.cli import main


@pytest.mark.parametrize("name", list(checks.SUITES["all"]))
def test_check(name):
    assert_check(name)


def test_failing_and_raising_checks_are_reported(tmp_path, monkeypatch):
    def raises():
        raise ZeroDivisionError("no rate")

    suite = {"demo.fails": lambda: (False, "wrong value"), "demo.raises": raises}
    monkeypatch.setitem(checks.SUITES, "fast", suite)
    results = checks.run_suite("fast")
    assert [(r.name, r.ok, r.detail) for r in results] == [
        ("demo.fails", False, "wrong value"),
        ("demo.raises", False, "ZeroDivisionError: no rate"),
    ]
    out = tmp_path / "v.json"
    assert main(["validate", "fast", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert (report["passed"], report["failed"]) == (0, 2)
    assert report["checks"][1]["detail"].startswith("ZeroDivisionError")
