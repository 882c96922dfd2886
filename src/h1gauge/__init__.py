"""Gauge-deformed metrics and dilatation limits on the first Heisenberg group.

Group arithmetic lives in heisenberg, convex gauges and their profile inverse
in gauges, the three distances and the verify battery in metrics,
the dilatation families and the flattening conjugation in dilatations, limit
probes and trace classification in limits, and the command-line front end in
cli.  Every operation is an array kernel on (n, 3) point arrays (the *_array
functions of each module).  The names here that compute at one point, mul,
the three distances and rescaled_product, are each one row of a kernel, and
g_eval is one element of g_array and g_inverse_eval one element of the
profile; invert_g is the scalar bisection reference.
"""

from .dilatations import rescaled_product
from .gauges import (
    Gauge,
    GaugeConstructionError,
    check_gauge,
    gauge_from_spec,
    gauge_to_spec,
    g_eval,
    g_inverse_eval,
    invert_g,
    linear_gauge,
    load_gauge,
    oscillatory_gauge,
    piecewise_gauge,
    verified_gauge,
)
from .heisenberg import H1Point, identity, mul, point, symplectic_area
from .limits import (
    Classification,
    ConvergenceTrace,
    EpsGrid,
    MetricDiffReport,
    NonConvergentLimitError,
    PointClassification,
    classify_limit,
    default_direction_grid,
    id_derivability_probe,
    limit_equivalence_check,
    metric_diff_probe,
    metric_differential,
    rescaled_product_probe,
    uniform_probe,
    vertical_limit_probe,
)
from .metrics import SampleBox, flat_dist, gauge_dist, intrinsic_dist
from .report import PropertyCheck, VerificationReport

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "ConvergenceTrace",
    "EpsGrid",
    "Gauge",
    "GaugeConstructionError",
    "H1Point",
    "MetricDiffReport",
    "NonConvergentLimitError",
    "PointClassification",
    "PropertyCheck",
    "SampleBox",
    "VerificationReport",
    "check_gauge",
    "classify_limit",
    "default_direction_grid",
    "flat_dist",
    "g_eval",
    "g_inverse_eval",
    "gauge_dist",
    "gauge_from_spec",
    "gauge_to_spec",
    "identity",
    "id_derivability_probe",
    "intrinsic_dist",
    "invert_g",
    "limit_equivalence_check",
    "linear_gauge",
    "load_gauge",
    "metric_diff_probe",
    "metric_differential",
    "mul",
    "oscillatory_gauge",
    "piecewise_gauge",
    "point",
    "rescaled_product",
    "rescaled_product_probe",
    "symplectic_area",
    "uniform_probe",
    "verified_gauge",
    "vertical_limit_probe",
]
