"""Poincare-Lyapunov compactification of planar polynomial vector fields,
adapted to the Newton polytope.

The pipeline: parse a field with rational coefficients, build its Newton
polytope, complete the upper-boundary normals to a simple fan, compactify
in directional and fan charts, classify the singularities on the divisor at
infinity, and compare the field with its upper principal part — plus a
return-map test for periodic orbits near infinity and an SVG portrait of
the disk.
"""

from .analysis import (
    Analysis,
    EquivalenceReport,
    ReturnMapResult,
    SingularityRecord,
    approximate,
    check_no_singularity_curve,
    check_nondegenerate,
    divisor_singularities,
    equivalence_verdict,
    return_map_test,
    singularity_inventory,
)
from .charts import (
    ChartField,
    PolarField,
    directional_plc,
    fan_chart_field,
    polar_field,
)
from .fans import SimpleFan, build_fan, chart_maps, complete_fan
from .fields import (
    AdmissibilityError,
    FieldError,
    InternalConsistencyError,
    ParseError,
    PlanarField,
    WeightVector,
    format_field,
    make_favorable,
    parse_field,
    shear,
)
from .polytope import (
    Polytope,
    Segment,
    build_polytope,
    plc_weight,
    upper_principal_part,
)
from .portrait import PortraitSpec, render_portrait
from .trig import QuadratureError, TrigTable, build_trig

__all__ = [
    "AdmissibilityError",
    "Analysis",
    "ChartField",
    "EquivalenceReport",
    "FieldError",
    "InternalConsistencyError",
    "ParseError",
    "PlanarField",
    "PolarField",
    "Polytope",
    "PortraitSpec",
    "QuadratureError",
    "ReturnMapResult",
    "Segment",
    "SimpleFan",
    "SingularityRecord",
    "TrigTable",
    "WeightVector",
    "approximate",
    "build_fan",
    "build_polytope",
    "build_trig",
    "chart_maps",
    "check_no_singularity_curve",
    "check_nondegenerate",
    "complete_fan",
    "directional_plc",
    "divisor_singularities",
    "equivalence_verdict",
    "fan_chart_field",
    "format_field",
    "make_favorable",
    "parse_field",
    "plc_weight",
    "polar_field",
    "render_portrait",
    "return_map_test",
    "shear",
    "singularity_inventory",
    "upper_principal_part",
]

__version__ = "0.1.0"
