"""Conformal deformation of boundary-marked metric graphs.

The package deforms the metric of a graph-sampled domain by a weight of the
distance to the boundary, attaches a point at infinity when the weight is
dyadically summable, synthesizes candidate uniform curves in the deformed
metric, and numerically checks the quantitative inequalities governing the
construction.
"""

from .curves import Curve, uniformity_constant
from .deform import DeformedDomain, InfinityEstimate, deform
from .domain import (
    BoundaryDistanceField,
    DomainError,
    MetricDomain,
    boundary_distance,
    estimate_metric_constants,
    generate_domain,
    half_plane,
    load_domain,
    shell_index,
    slit_plane,
    strip,
)
from .synthesis import SynthesisResult, predicted_vs_measured, synthesize, uniform_curve_d
from .verify import aggregate_report, run_all_checks
from .weight import ConstantsBundle, WeightError, WeightFunction, derive_constants

__version__ = "0.1.0"

__all__ = [
    "BoundaryDistanceField",
    "ConstantsBundle",
    "Curve",
    "DeformedDomain",
    "DomainError",
    "InfinityEstimate",
    "MetricDomain",
    "SynthesisResult",
    "WeightError",
    "WeightFunction",
    "aggregate_report",
    "boundary_distance",
    "deform",
    "derive_constants",
    "estimate_metric_constants",
    "generate_domain",
    "half_plane",
    "load_domain",
    "predicted_vs_measured",
    "run_all_checks",
    "shell_index",
    "slit_plane",
    "strip",
    "synthesize",
    "uniform_curve_d",
    "uniformity_constant",
]
