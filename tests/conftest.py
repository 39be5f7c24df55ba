from __future__ import annotations

import pytest

from stitlab.checks import SUITES, random_convex_polygon, random_direction  # noqa: F401 (shared with tests)
from stitlab.geometry import box
from stitlab.measure import axis_measure, isotropic_measure


@pytest.fixture
def iso():
    """Isotropic directional measure of total mass 2*pi (unit density)."""
    return isotropic_measure()


@pytest.fixture
def axes():
    """Four axis atoms of mass 1/2 each."""
    return axis_measure()


@pytest.fixture
def unit_square():
    return box(0.0, 0.0, 1.0, 1.0)


def assert_check(name: str) -> None:
    """Run one ``stitlab validate`` check; its detail is the failure message."""
    ok, detail = SUITES["all"][name]()
    assert ok, detail
