"""cclab: exact curvature and limit-cycle analysis for planar polynomial fields.

The package computes the scalar curvature induced by a diagonal
Jacobian-energy metric on planar polynomial vector fields as an exact
rational function, certifies where it diverges, locates limit cycles by
independent exact and numeric means, and compares integer growth rates of
cycle-count bounds.
"""

from .analysis import AnalysisReport, analyze, render_report, report_dict
from .catalogue import (
    CATALOGUE_KEYS,
    CatalogueEntry,
    load_catalogue,
    load_references,
)
from .curvature import (
    CurvatureData,
    DegenerateMetricError,
    PointValue,
    RationalFunction,
    metric_components,
    numeric_curvature_probe,
    scalar_curvature,
)
from .dynamics import (
    Cycle,
    LimitCycleReport,
    detect_radial_form,
    exact_radial_cycles,
    find_cycles_numeric,
    poincare_return,
)
from .factcheck import CheckResult, render_results, run_paper_check
from .growth import (
    GrowthRow,
    claimed_quadratic_bound,
    comparison_rows,
    constructed_cycle_count,
    contradiction_threshold,
    log_bound_crossover,
    render_comparison,
)
from .parsing import ParseError, parse_expression, parse_rational, parse_system
from .polynomials import Poly2, UniPoly, format_poly2, format_unipoly
from .singularity import (
    AssertionReport,
    EquilibriumCertificate,
    SingularLocusReport,
    assertion_report,
    find_equilibria,
    singular_locus,
    verify_equilibrium,
)
from .systems import PlanarSystem, transform_system

__all__ = [
    "AnalysisReport",
    "AssertionReport",
    "CATALOGUE_KEYS",
    "CatalogueEntry",
    "CheckResult",
    "CurvatureData",
    "Cycle",
    "DegenerateMetricError",
    "EquilibriumCertificate",
    "GrowthRow",
    "LimitCycleReport",
    "ParseError",
    "PlanarSystem",
    "PointValue",
    "Poly2",
    "RationalFunction",
    "SingularLocusReport",
    "UniPoly",
    "analyze",
    "assertion_report",
    "claimed_quadratic_bound",
    "comparison_rows",
    "constructed_cycle_count",
    "contradiction_threshold",
    "detect_radial_form",
    "exact_radial_cycles",
    "find_cycles_numeric",
    "find_equilibria",
    "format_poly2",
    "format_unipoly",
    "load_catalogue",
    "load_references",
    "log_bound_crossover",
    "metric_components",
    "numeric_curvature_probe",
    "parse_expression",
    "parse_rational",
    "parse_system",
    "poincare_return",
    "render_comparison",
    "render_report",
    "render_results",
    "report_dict",
    "run_paper_check",
    "scalar_curvature",
    "singular_locus",
    "transform_system",
    "verify_equilibrium",
]

__version__ = "0.1.0"
