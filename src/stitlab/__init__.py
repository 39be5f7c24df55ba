"""stitlab: iteration-stable random tessellations of the plane.

Simulation by recursive cell division, closed-form line-measure quantities
(hitting mass, separation rates, separating mass), capacity-functional
estimators, and the covariance-decay experiment, all seeded and
reproducible.
"""

from .capacity import (
    Estimate,
    IncrementReport,
    capacity_growth_bound,
    default_window,
    increment_check,
    mc_joint,
    mc_missing,
    missing_probability,
    pool,
    replicate_first_hits,
)
from .geometry import (
    CompactSet,
    ConvexPolygon,
    Direction,
    GeometryError,
    Hyperplane,
    area,
    box,
    clip,
    convex_hull,
    diameter,
    dilate,
    hits,
    perimeter,
    regular_polygon,
    separates,
)
from .measure import (
    DirectionalMeasure,
    MeasureError,
    axis_measure,
    hit_mass,
    isotropic_measure,
    min_separation_rate,
    sample_hitting,
    separating_mass,
    separation_rate,
)
from .mixing import (
    MixingRow,
    NoPowerLawError,
    SweepConfig,
    closed_form_error_bound,
    fit_decay_exponent,
    joint_missing_closed_form,
    mixing_constant,
    sweep,
)
from .stit import (
    Cell,
    Edge,
    HitQuery,
    SimulationParams,
    Tessellation,
    first_hit_time,
    hits_internal,
    mix_seed,
    nest,
    require_interior,
    rescale,
    restrict,
    simulate,
    tessellation_from_json,
    tessellation_to_json,
)
from .svg import render_svg

__version__ = "0.1.0"
