"""Multigraded local cohomology of monomial quotient rings.

The package computes the graded pieces of H^i_m(R/I) for a monomial
ideal I in a polynomial ring R = k[x_1..x_d] through the homology of
degree complexes, tracks how the initial degree behaves over powers
I^n, and certifies the finite-length dichotomy per computed power.

The heavy kernels (membership boxes, the pattern scan and exact ranks)
are vectorised numpy in ``monocoh._kernels``.
"""

from .errors import (
    IdealSyntaxError,
    InternalConsistencyError,
    ResourceCapError,
    UnitIdealError,
)
from .monomial_core import (
    MAX_VARIABLES,
    Monomial,
    MonomialIdeal,
    VarDegreeBounds,
    contains,
    krull_dimension,
    parse_ideal,
    power,
    project,
    radical,
    saturate_irrelevant,
    var_degree_bounds,
)
from .simplicial import (
    HomologyProfile,
    SimplicialComplex,
    from_facets,
    reduced_homology_dims,
    stanley_reisner_complex,
    stanley_reisner_ideal,
)
from .takayama import (
    DEFAULT_PATTERN_CAP,
    CohomologyTable,
    DegreePattern,
    ExtendedDegree,
    cohomology_dim_at,
    cohomology_table,
    degree_complex,
    indeg,
    is_finite_length,
    regularity,
    table_indeg,
    table_topdeg,
    topdeg,
)
from .asymptotics import (
    DichotomyVerdict,
    PowerRow,
    PowerSequenceReport,
    dichotomy_report,
    power_sequence,
    ratio_summary,
    regularity_linear_fit,
)

__version__ = "0.1.0"

__all__ = [
    "IdealSyntaxError",
    "InternalConsistencyError",
    "ResourceCapError",
    "UnitIdealError",
    "MAX_VARIABLES",
    "Monomial",
    "MonomialIdeal",
    "VarDegreeBounds",
    "contains",
    "krull_dimension",
    "parse_ideal",
    "power",
    "project",
    "radical",
    "saturate_irrelevant",
    "var_degree_bounds",
    "HomologyProfile",
    "SimplicialComplex",
    "from_facets",
    "reduced_homology_dims",
    "stanley_reisner_complex",
    "stanley_reisner_ideal",
    "DEFAULT_PATTERN_CAP",
    "CohomologyTable",
    "DegreePattern",
    "ExtendedDegree",
    "cohomology_dim_at",
    "cohomology_table",
    "degree_complex",
    "indeg",
    "is_finite_length",
    "regularity",
    "table_indeg",
    "table_topdeg",
    "topdeg",
    "DichotomyVerdict",
    "PowerRow",
    "PowerSequenceReport",
    "dichotomy_report",
    "power_sequence",
    "ratio_summary",
    "regularity_linear_fit",
    "__version__",
]
