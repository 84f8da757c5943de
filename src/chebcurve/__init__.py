"""Exact toolkit for Chebyshev plane curves and rational curve arrangements.

Constructs the curves and their node grids symbolically, computes Milnor
(Jacobian) algebras, Hilbert series and syzygy profiles with exact
arithmetic, and certifies whether a nodal plane curve is an arrangement of
rational curves.
"""

from .numberfield import (
    AlgNum,
    FieldSpec,
    SelfCheckError,
    cos_multiple,
    critical_point,
    cyclotomic,
    real_cyclotomic_field,
)
from .polyring import (
    InexactDivisionError,
    MPoly,
    ParseError,
    dehomogenize,
    exact_div,
    homogenize,
    monomial_basis,
    parse,
    partials,
    to_string,
)
from .groebner import GroebnerBasis, buchberger, leading_ideal, normal_form
from .hilbert import (
    HilbertData,
    MilnorProfile,
    chebyshev_milnor_numerator,
    expected_node_count,
    hilbert_numerator,
    milnor_profile,
    series_dims,
)
from .chebyshev import (
    ChebData,
    NodeVerification,
    build,
    chebyshev_T,
    conic_intersections,
    curve_affine,
    curve_polynomial,
    factor_curve,
    minus_conics,
    verify_nodes,
)
from .interp import (
    evaluation_kernel_dim,
    evaluation_thresholds,
    node_evaluation_surjective,
)
from .syzygy import (
    nontrivial_syzygy,
    syzygy_dim,
    syzygy_dim_from_hilbert,
    verify_resolution,
)
from .arrangement import (
    CurveReport,
    SingularLocusError,
    count_distinct_singular_points,
    is_nodal,
    is_reduced,
    rationality_test,
)

__all__ = [
    "AlgNum",
    "FieldSpec",
    "SelfCheckError",
    "cos_multiple",
    "critical_point",
    "cyclotomic",
    "real_cyclotomic_field",
    "InexactDivisionError",
    "MPoly",
    "ParseError",
    "dehomogenize",
    "exact_div",
    "homogenize",
    "monomial_basis",
    "parse",
    "partials",
    "to_string",
    "GroebnerBasis",
    "buchberger",
    "leading_ideal",
    "normal_form",
    "HilbertData",
    "MilnorProfile",
    "chebyshev_milnor_numerator",
    "expected_node_count",
    "hilbert_numerator",
    "milnor_profile",
    "series_dims",
    "ChebData",
    "NodeVerification",
    "build",
    "chebyshev_T",
    "conic_intersections",
    "curve_affine",
    "curve_polynomial",
    "factor_curve",
    "minus_conics",
    "verify_nodes",
    "evaluation_kernel_dim",
    "evaluation_thresholds",
    "node_evaluation_surjective",
    "nontrivial_syzygy",
    "syzygy_dim",
    "syzygy_dim_from_hilbert",
    "verify_resolution",
    "CurveReport",
    "SingularLocusError",
    "count_distinct_singular_points",
    "is_nodal",
    "is_reduced",
    "rationality_test",
]
