"""Exact computer algebra for finite-dimensional quadratic Lie superalgebras.

The engine represents a Lie superalgebra by rational structure
constants over a graded basis, validates the defining identities,
attaches invariant bilinear forms, and computes in the super-exterior
algebra: wedge products, contractions, the differential, the associated
3-form, the super Z x Z2-Poisson bracket, and exact cohomology.
"""

from .algebra import (
    GradedBasis,
    LieSuperalgebra,
    Subspace,
    ValidationReport,
    Violation,
    center,
    derived_series,
    diagonal_weights,
    is_solvable,
    validate_grading_and_skew,
    validate_lie_superalgebra,
    validate_super_jacobi,
)
from .catalog import (
    CatalogEntry,
    OneDimExtensionRecipe,
    ParameterSpec,
    build,
    catalog_keys,
    default_params,
    get_entry,
    reconstruction_datum,
)
from .cochains import (
    Cochain,
    Monomial,
    associated_three_form,
    differential_direct,
    differential_via_poisson,
    monomials_of_degree,
    poisson_bracket,
    wedge,
)
from .cohomology import (
    CochainBasis,
    CohomologyResult,
    DifferentialMatrix,
    betti_table,
    class_vector,
    cochain_basis,
    cochain_dimension,
    cohomology,
    cohomology_report,
    differential_matrix,
    is_coboundary,
    is_cocycle,
)
from .errors import EngineError, InputError, ResourceLimitError
from .extensions import (
    ExtensionDatum,
    Superderivation,
    ad_superderivation,
    central_reduction,
    double_extension,
    is_skew_superderivation,
    is_superderivation,
    one_dim_double_extension,
    skew_superderivation_space,
    validate_extension_datum,
)
from .linalg import Rat, rat, rat_str
from .quadratic import (
    BilinearForm,
    QuadraticLieSuperalgebra,
    find_nondegenerate_central_line,
    orthogonal_complement,
    reorder_quadratic,
    validate_quadratic,
)
from .serialization import (
    algebra_from_dict,
    algebra_to_dict,
    load,
    loads,
    save,
)
from .sp2 import (
    H,
    Sp2Element,
    X,
    Y,
    classify,
    commutator,
    normal_form,
    rational_sqrt,
)

__version__ = "0.1.0"
