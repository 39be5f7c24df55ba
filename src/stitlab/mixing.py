"""Closed-form joint-missing machinery and the decay-rate experiment.

For connected bodies the joint missing probability restricted to the event
"the first line dividing the joint hull separates the two bodies" has an
exact closed form; its complement is controlled by the probability that the
hull is never divided. The sweep translates one body away from the other,
tabulates the closed forms against the product of the marginals, optionally
spot-checks them by Monte Carlo, and fits the decay exponent of the
covariance ratio.

Notation used below: mass_a, mass_b and mass_hull are the hitting masses of
the two bodies and of their joint hull, sep the separating mass,
d = mass_hull - mass_a - mass_b, and c* = sep - d the mass of lines hitting
both bodies. One record, ``measure._pair_terms``, computes these five terms
of a body pair once, with one hitting law per hull; every two-body closed
form here, and ``measure.double_hit_mass``, is a formula over it, and a
sweep builds one record per row. The closed form gives joint / product - 1 =
(c* - sep exp(-t d)) / d; adding back the omitted never-divided term
exp(-t mass_hull) gives the full covariance ratio minus one exactly,
c* (1 - exp(-t d)) / d. Far apart, both tend to c* / d, so the decay law
depends on how c* itself decays: like 1 / h for atoms whose lines hit both
bodies at every distance, like 1 / h^2 for the isotropic measure, and not at
all as a power law when c* = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import Estimate, _growth_bound, _missing, default_window, mc_joint
from .geometry import EPS, CompactSet, ConvexPolygon, Direction, _bounds, hull_of, piece_distance, translate
from .measure import DirectionalMeasure, _hitting_law, _pair_terms, _PairTerms, separation_rate
from .stit import mix_seed

Body = ConvexPolygon | CompactSet


def translate_body(body: Body, t: tuple[float, float]) -> Body:
    """The body moved by t, piece by piece; a polygon (its own only piece) stays a polygon."""
    moved = tuple(translate(piece, t) for piece in body.pieces)
    return moved[0] if body.pieces[0] is body else CompactSet(moved)


def _expm1_ratio(time: float, rate_gap: float) -> float:
    """(1 - exp(-t * d)) / d, with the small-argument series for stability."""
    x = time * rate_gap
    if abs(x) < 1e-6:
        return time * (1.0 - x / 2.0 + x * x / 6.0)
    return -math.expm1(-x) / rate_gap


def _closed_forms(pair: _PairTerms, time: float) -> dict[str, float]:
    """A sweep row's closed-form fields, each a formula over one pair record.

    ``ratio_minus_one`` is c* (1 - exp(-t d)) / d - exp(-t d) with c* the
    record's double-hit mass. Subtracting one from the ratio would instead
    leave c* as the difference of masses of size ~h and return rounding
    noise once the exact value falls below ~1e-16.
    """
    mass_a, mass_b = pair.mass_a, pair.mass_b
    gap = pair.mass_hull - mass_a - mass_b
    ratio = _expm1_ratio(time, gap)
    return {
        "product_exact": _missing(mass_a, time) * _missing(mass_b, time),
        "joint_gamma_exact": pair.sep * math.exp(-time * (mass_a + mass_b)) * ratio,
        "ratio_minus_one": pair.both * ratio - math.exp(-time * gap),
        "gamma_complement_bound": math.exp(-time * pair.mass_hull),
        "chi_bound": _growth_bound(mass_a, time) + _growth_bound(mass_b, time) + mass_a + mass_b,
    }


def joint_missing_closed_form(
    body_a: Body, body_b: Body, time: float, measure: DirectionalMeasure
) -> float:
    """Joint missing probability on the first-split-separates event.

    Exact for connected bodies: separating mass times
    exp(-t (mass_a + mass_b)) times (1 - exp(-t d)) / d, where d is the hull
    mass minus the two body masses. Touching hulls give zero (no line
    separates them).
    """
    return _closed_forms(_pair_terms(measure, body_a, body_b), time)["joint_gamma_exact"]


def closed_form_ratio_minus_one(
    body_a: Body, body_b: Body, time: float, measure: DirectionalMeasure
) -> float:
    """joint_missing_closed_form / product of the marginals, minus one.

    Equals (c* - sep exp(-t d)) / d (notation in the module docstring),
    evaluated without cancellation as c* (1 - exp(-t d)) / d - exp(-t d).
    """
    return _closed_forms(_pair_terms(measure, body_a, body_b), time)["ratio_minus_one"]


def closed_form_error_bound(
    body_a: Body, body_b: Body, time: float, measure: DirectionalMeasure
) -> float:
    """Bound on what the closed form omits: P(the joint hull is never divided)."""
    return _closed_forms(_pair_terms(measure, body_a, body_b), time)["gamma_complement_bound"]


def mixing_constant(
    body_a: Body, body_b: Body, time: float, measure: DirectionalMeasure
) -> float:
    """Motion-invariant constant in the covariance upper bound."""
    return _closed_forms(_pair_terms(measure, body_a, body_b), time)["chi_bound"]


@dataclass(frozen=True)
class MixingRow:
    """One sweep distance: closed forms, bound, and optional Monte Carlo.

    ``ratio_minus_one`` is joint_gamma_exact / product_exact - 1, computed
    without cancellation as (c* - sep exp(-t d)) / d (notation in the module
    docstring); the full covariance ratio minus one is c* (1 - exp(-t d)) / d.
    ``asymptote`` = 1 / (h zeta) is the reference rate of the covariance
    upper bound chi_bound / (h zeta), not the limit of ``ratio_minus_one``,
    which is c* / (h zeta) to leading order.
    """

    h_norm: float
    direction: Direction
    zeta: float
    asymptote: float
    overlap: bool
    product_exact: float | None = None
    joint_gamma_exact: float | None = None
    ratio_minus_one: float | None = None
    gamma_complement_bound: float | None = None
    chi_bound: float | None = None
    joint_mc: Estimate | None = None


@dataclass(frozen=True)
class SweepConfig:
    """Translation sweep: body_b drifts along ``direction`` through ``distances``."""

    body_a: Body
    body_b: Body
    direction: Direction
    distances: tuple[float, ...]
    time: float
    measure: DirectionalMeasure
    seed: int = 0
    mc_n: int | None = None

    def __post_init__(self) -> None:
        if not all(math.isfinite(h) and h > 0.0 for h in self.distances):
            raise ValueError("sweep distances must be finite and > 0")
        if any(b <= a for a, b in zip(self.distances, self.distances[1:])):
            raise ValueError("sweep distances must be strictly increasing")
        if self.time <= 0.0:
            raise ValueError("sweep time parameter must be positive")


def sweep(config: SweepConfig) -> list[MixingRow]:
    """Evaluate the closed forms (and optional Monte Carlo) over the sweep.

    Each row builds one pair record (``measure._pair_terms``), reusing body
    A's hitting law, and takes every closed-form field from it, as the
    per-pair functions do. Its ``ratio_minus_one`` is
    (c* - sep exp(-t d)) / d, whose full-covariance counterpart is
    c* (1 - exp(-t d)) / d. Rows where the translated body overlaps the fixed
    one are flagged and carry no probabilities: the hulls lie within EPS of
    each other (``piece_distance``). Hulls whose bounding boxes are more than
    EPS apart are farther apart than that, so they skip the distance.
    """
    measure, time = config.measure, config.time
    zeta = separation_rate(measure, config.direction)
    hull_a = hull_of(config.body_a)
    law_a = _hitting_law(measure, hull_a)
    ax0, ax1, ay0, ay1 = _bounds(hull_a.vertices)
    rows: list[MixingRow] = []
    for index, h in enumerate(config.distances):
        shift = (h * config.direction.x, h * config.direction.y)
        body_b = translate_body(config.body_b, shift)
        row = {"h_norm": h, "direction": config.direction, "zeta": zeta, "asymptote": 1.0 / (h * zeta)}
        hull_b = hull_of(body_b)
        bx0, bx1, by0, by1 = _bounds(hull_b.vertices)
        apart = max(bx0 - ax1, ax0 - bx1, by0 - ay1, ay0 - by1) > EPS
        if not apart and piece_distance(hull_a, hull_b) <= EPS:
            rows.append(MixingRow(**row, overlap=True))
            continue
        pair = _pair_terms(measure, config.body_a, body_b, law_a)
        mc = None
        if config.mc_n is not None:
            mc = mc_joint(
                config.body_a,
                body_b,
                time,
                measure,
                config.mc_n,
                mix_seed(config.seed, index),
                window=default_window(pair.hull),
            )
        rows.append(MixingRow(**row, overlap=False, **_closed_forms(pair, time), joint_mc=mc))
    return rows


class NoPowerLawError(ValueError):
    """The far half of a sweep has a row with ratio - 1 <= 0: no power law to fit."""


def fit_decay_exponent(rows: list[MixingRow]) -> tuple[float, float, float]:
    """Least-squares slope of log(ratio - 1) against log h on the far half.

    Fits a power law ratio - 1 ~ C h^slope to the rows at or beyond the
    median distance among those whose ratio is available. Returns (slope,
    intercept, root-mean-square residual). Raises NoPowerLawError when a
    far-half row has ratio - 1 <= 0. That happens when c* = 0 (no line hits
    both bodies), where ratio - 1 = -exp(-t d) decays exponentially, and
    when exp(-t d) still outweighs c* (1 - exp(-t d)) / d; in neither case
    does a power law describe the rows.
    """
    usable = [r for r in rows if not r.overlap and r.ratio_minus_one is not None]
    if len(usable) < 2:
        raise ValueError("need at least two usable rows to fit a decay exponent")
    median_h = float(np.median([r.h_norm for r in usable]))
    tail = [r for r in usable if r.h_norm >= median_h]
    bad = [r.h_norm for r in tail if r.ratio_minus_one <= 0.0]
    if bad:
        raise NoPowerLawError(
            f"ratio - 1 <= 0 at h = {bad[0]!r} in the far half: no power-law decay to fit"
        )
    x = np.log([r.h_norm for r in tail])
    y = np.log([r.ratio_minus_one for r in tail])
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(slope), float(intercept), residual


SWEEP_CSV_HEADER = (
    "h_norm,zeta,product_exact,joint_gamma_exact,ratio_minus_one,"
    "asymptote,gamma_complement_bound,joint_mc_mean,joint_mc_stderr,chi_bound"
)


def sweep_to_csv(rows: list[MixingRow]) -> str:
    """Render sweep rows in the fixed column layout, full double precision."""

    def cell(value: float | None) -> str:
        return "" if value is None else repr(value)

    lines = [SWEEP_CSV_HEADER]
    for r in rows:
        mc_mean = r.joint_mc.mean if r.joint_mc is not None else None
        mc_stderr = r.joint_mc.stderr if r.joint_mc is not None else None
        lines.append(
            ",".join(
                [
                    repr(r.h_norm),
                    repr(r.zeta),
                    cell(r.product_exact),
                    cell(r.joint_gamma_exact),
                    cell(r.ratio_minus_one),
                    repr(r.asymptote),
                    cell(r.gamma_complement_bound),
                    cell(mc_mean),
                    cell(mc_stderr),
                    cell(r.chi_bound),
                ]
            )
        )
    return "\n".join(lines) + "\n"
