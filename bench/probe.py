"""Machine-speed probe: a fixed pure-Python kernel timed between program calls.

The shared host this benchmark was written on runs the same code at speeds
differing by up to a factor 1.5 for tens of seconds at a time, and process
CPU time slows with it, so neither medians over rounds nor CPU time take
that out of a 35 s run. The probe does: after every timed program call the
benchmark runs this kernel for about 5% of the call's duration (at least
``MIN_ITERS`` iterations), and a round's ``scale``, the kernel's nominal
time per iteration over its measured one, multiplies every time of that
round. Reported times are thus seconds on a machine where one iteration
takes ``NOMINAL_ITER_S``. Over 153 rounds of capacity-small the probe's
speed and the round's wall time correlated at 0.96.

The kernel clips a 12-gon of float tuples by a turning line, the kind of
interpreter work the package does, and calls nothing in the package, so a
change to the package cannot move it.
"""

from __future__ import annotations

import math
from time import perf_counter

NOMINAL_ITER_S = 6e-6
DUTY = 0.05
MIN_ITERS = 10

_BASE = tuple((math.cos(2.0 * math.pi * k / 12), math.sin(2.0 * math.pi * k / 12)) for k in range(12))


def _clip(poly, nx: float, ny: float, c: float) -> list:
    out = []
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        s0 = x0 * nx + y0 * ny - c
        s1 = x1 * nx + y1 * ny - c
        if s0 >= 0.0:
            out.append((x0, y0))
        if (s0 > 0.0 and s1 < 0.0) or (s0 < 0.0 and s1 > 0.0):
            t = s0 / (s0 - s1)
            out.append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    return out


def kernel(iters: int) -> float:
    acc = 0.0
    for i in range(iters):
        theta = 0.37 * i
        poly = _clip(_BASE, math.cos(theta), math.sin(theta), 0.1 * (i % 7) - 0.3)
        acc += len(poly) + math.hypot(*poly[0])
    return acc


class Probe:
    """Accumulates probe time over one round (or one set-up)."""

    def __init__(self) -> None:
        self.time = 0.0
        self.iters = 0

    def after(self, seconds: float) -> None:
        """Run the kernel for about DUTY times the call that just took ``seconds``."""
        iters = max(MIN_ITERS, int(seconds * DUTY / NOMINAL_ITER_S))
        t0 = perf_counter()
        kernel(iters)
        self.time += perf_counter() - t0
        self.iters += iters

    @property
    def scale(self) -> float:
        """Nominal over measured probe time: below 1 while the machine is slow."""
        return NOMINAL_ITER_S * self.iters / self.time if self.time > 0.0 else 1.0
