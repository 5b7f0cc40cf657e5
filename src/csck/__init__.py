"""Exact computation of the cscK obstruction polynomial F(x, y, z) for the
projectivized bundle P(H_m (+) H_n) over CP^m x CP^n, with three independent
computation routes and a zero-locus explorer for the Kahler cone."""

from .character import (
    CharacterPolys,
    Dims,
    FixedComponent,
    InvariantViolation,
    KahlerClass,
    alternating_power_sum,
    anticanonical_class,
    assemble_from_localization,
    compute_obstruction,
    fixed_components,
    localized_component_poly,
    localized_sum_poly,
    localized_sum_poly_direct,
    slope,
)
from .cone import (
    ScanRow,
    SegmentReport,
    in_kahler_triangle,
    isolate_on_segment,
    ke_check,
    limit_l1,
    limit_l2,
    sample_face,
    scan_pair,
    scan_range,
    sign_at,
    vertex_c,
)
from .exact import binomial, factorial, parse_rational
from .polynomials import (
    IsolationResult,
    MultiPoly3,
    RootInterval,
    TruncSeries2,
    UniPoly,
    sturm_isolate,
)

__version__ = "0.1.0"

__all__ = [
    "CharacterPolys",
    "Dims",
    "FixedComponent",
    "InvariantViolation",
    "IsolationResult",
    "KahlerClass",
    "MultiPoly3",
    "RootInterval",
    "ScanRow",
    "SegmentReport",
    "TruncSeries2",
    "UniPoly",
    "alternating_power_sum",
    "anticanonical_class",
    "assemble_from_localization",
    "binomial",
    "compute_obstruction",
    "factorial",
    "fixed_components",
    "in_kahler_triangle",
    "isolate_on_segment",
    "ke_check",
    "limit_l1",
    "limit_l2",
    "localized_component_poly",
    "localized_sum_poly",
    "localized_sum_poly_direct",
    "parse_rational",
    "sample_face",
    "scan_pair",
    "scan_range",
    "sign_at",
    "slope",
    "sturm_isolate",
    "vertex_c",
]
