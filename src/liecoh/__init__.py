"""Exact-arithmetic Lie algebra cohomology and filtration toolkit.

Every rational the API takes or returns is a `fractions.Fraction`; the
eliminations, cochain builders and PBW straightening work on Python ints
inside.  There is no floating point anywhere and no tolerance in any
comparison.
"""

from .checker import TheoremReport, check, check_catalog, random_solvable_algebra, verify_report
from .cohomology import (
    ActionOnCohomology,
    CochainComplex,
    CohomologyResult,
    E2Page,
    InflationReport,
    action_on_cohomology,
    ce_complex,
    cohomology,
    cohomology_of,
    hs_e2_page,
    inflation_map,
    inflation_on_cohomology,
)
from .lie import (
    AdaptedBasis,
    IdealChain,
    LieAlgebra,
    Quotient,
    ValidationReport,
    adapted_basis,
    bracket,
    bracket_span,
    derived_series,
    is_ideal,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    nil_quotient,
    power_filtration,
    quotient,
    reorder_basis,
    subalgebra,
    validate,
)
from .linalg import QMatrix, Subspace, image, kernel, quotient_basis, rank
from .pbw import (
    ReesLayerTable,
    UEAElement,
    ipower_bruteforce,
    ipower_predicted,
    ipower_checks,
    is_rees_noetherian,
    monoid_generator_check,
    monomials,
    multiply,
    pbw_normal_form,
    rees_layer_table,
    straightening_order,
)
from .rep import (
    Character,
    LieModule,
    adjoint_module,
    dual,
    exterior_power,
    has_trivial_subquotient,
    invariants,
    one_dim_module,
    restrict,
    submodule,
    trivial_module,
)

__version__ = "0.1.0"
