"""Hitting/missing probability calculators.

Closed form for connected compacts (the missing probability is exponential
in the hitting mass), the Lipschitz-in-time bound on the capacity
functional, and seeded Monte Carlo estimators with Bernoulli standard
errors for everything else. Replications are coupled through per-replicate
seeds derived from (seed, index), so estimates are reproducible and
mergeable.

Every estimator runs through one replication loop, ``replicate_first_hits``.
Each replicate asks only when a division chord first meets the query
bodies, so it expands only the cells that meet them and stops at the first
hitting chord (``stit.HitQuery``). Per seed, the result is bit-identical to
simulating the whole tessellation of the window and scanning its chords.
The reference (window-tree) construction, which has the same law, is not
here: it lives with the property checks, in ``checks.window_tree_first_hits``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .geometry import CompactSet, ConvexPolygon, _joint_hull, diameter, dilate, hull_of
from .measure import DirectionalMeasure, hit_mass
from .stit import HitQuery, mix_seed

Body = ConvexPolygon | CompactSet


@dataclass(frozen=True)
class Estimate:
    """Bernoulli Monte Carlo estimate."""

    mean: float
    stderr: float
    n: int
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean <= 1.0:
            raise ValueError("estimate mean must lie in [0, 1]")


def _bernoulli(successes: int, n: int, seed: int) -> Estimate:
    mean = successes / n
    return Estimate(mean, math.sqrt(mean * (1.0 - mean) / n), n, seed)


def pool(estimates: Sequence[Estimate]) -> Estimate:
    """Merge independent estimates by pooling counts (order-independent)."""
    if not estimates:
        raise ValueError("need at least one estimate")
    n = sum(e.n for e in estimates)
    successes = round(sum(e.mean * e.n for e in estimates))
    return _bernoulli(successes, n, mix_seed(*sorted(e.seed for e in estimates)))


def _missing(mass: float, time: float) -> float:
    """exp(-t * mass): the missing probability of a body of that hitting mass."""
    if not (time >= 0.0):
        raise ValueError("time must be >= 0")
    return math.exp(-time * mass)


def _growth_bound(mass: float, time: float) -> float:
    """``capacity_growth_bound`` of a body of that hitting mass."""
    return mass * (1.0 + time * mass) * _missing(mass, time)


def missing_probability(body: Body, time: float, measure: DirectionalMeasure) -> float:
    """P(a connected compact is untouched at the given time): exp(-t * mass)."""
    return _missing(hit_mass(measure, body), time)


def capacity_growth_bound(body: Body, time: float, measure: DirectionalMeasure) -> float:
    """Lipschitz-in-time constant for the capacity functional.

    Lambda([conv K]) * (1 + t * Lambda([conv K])) * (missing probability at t).
    The last factor is the closed form, so a disconnected body raises
    MeasureError (``hit_mass``).
    """
    return _growth_bound(hit_mass(measure, body), time)


def default_window(body: Body) -> ConvexPolygon:
    """Simulation window: the convex hull dilated by 10% of its diameter."""
    hull = hull_of(body)
    d = diameter(hull)
    return dilate(hull, 0.1 * d if d > 0.0 else 1.0)


def replicate_first_hits(
    bodies: Sequence[Body],
    time: float,
    measure: DirectionalMeasure,
    n: int,
    seed: int,
    window: ConvexPolygon,
) -> list[float]:
    """When a division chord first meets any of the bodies, in each of n runs.

    Run i has seed mix_seed(seed, i); a run in which no chord meets a body
    by the time parameter gives inf. The bodies are checked once to lie in
    the window's interior (``stit.HitQuery``), and each run expands only the
    cells that meet them and stops at the first hitting chord.
    """
    if n < 1:
        raise ValueError("need at least one replication")
    query = HitQuery(window, bodies)
    return [query.first_hit(time, measure, mix_seed(seed, i)) for i in range(n)]


def mc_missing(
    body: Body,
    time: float,
    measure: DirectionalMeasure,
    n: int,
    seed: int,
    window: ConvexPolygon | None = None,
) -> Estimate:
    """Fraction of independent runs in which the body is untouched."""
    if window is None:
        window = default_window(body)
    taus = replicate_first_hits([body], time, measure, n, seed, window)
    return _bernoulli(taus.count(math.inf), n, seed)


def mc_joint(
    body_a: Body,
    body_b: Body,
    time: float,
    measure: DirectionalMeasure,
    n: int,
    seed: int,
    window: ConvexPolygon | None = None,
) -> Estimate:
    """Fraction of runs in which both bodies are untouched simultaneously."""
    if window is None:
        window = default_window(_joint_hull(body_a, body_b))
    taus = replicate_first_hits([body_a, body_b], time, measure, n, seed, window)
    return _bernoulli(taus.count(math.inf), n, seed)


@dataclass(frozen=True)
class IncrementReport:
    """Coupled estimate of the capacity increment over (a, a + t]."""

    time_a: float
    time_step: float
    increment: float
    stderr: float
    bound: float
    rate_ratio: float
    n: int
    seed: int

    @property
    def monotone(self) -> bool:
        return self.increment >= 0.0

    @property
    def within_bound(self) -> bool:
        return self.increment <= self.bound + 3.0 * self.stderr


def increment_check(
    body: Body,
    time_a: float,
    time_step: float,
    measure: DirectionalMeasure,
    n: int,
    seed: int,
    window: ConvexPolygon | None = None,
) -> IncrementReport:
    """Estimate T(a + t) - T(a) with coupled horizons.

    Each replicate runs the process once to a + t; the per-cell streams make
    the time-a tessellation an exact prefix, so the first-hit time yields both
    indicators and the sampled increment is non-negative by construction.
    The bound column is t times the capacity growth bound at time a.
    """
    if time_step < 0.0:
        raise ValueError("time step must be >= 0")
    if window is None:
        window = default_window(body)
    horizon = time_a + time_step
    taus = replicate_first_hits([body], horizon, measure, n, seed, window)
    est = _bernoulli(sum(time_a < tau <= horizon for tau in taus), n, seed)
    bound = time_step * capacity_growth_bound(body, time_a, measure)
    rate = est.mean / time_step if time_step > 0.0 else 0.0
    return IncrementReport(
        time_a=time_a,
        time_step=time_step,
        increment=est.mean,
        stderr=est.stderr,
        bound=bound,
        rate_ratio=rate,
        n=n,
        seed=seed,
    )
