"""Exact classification and construction of finite-dimensional simple Poisson
modules over affine Poisson algebras.

The pipeline: locate Poisson maximal ideals (singular points), linearize the
bracket to the Lie algebra g(J) = J/J^2, classify g(J), and lift its simple
modules back to simple Poisson modules; every arithmetic step is exact over
the rationals or a single quadratic extension.
"""

from .scalars import Scalar, scalar_sqrt
from .poly import LaurentPoly, PointP, VarSet, divides
from .linalg import Matrix, eigen_small, kernel_basis
from .brackets import (
    Exact,
    PoissonPresentation,
    Scaled,
    SubstitutionMap,
    Table,
    bracket,
    verify_jacobi,
    verify_poisson_map,
)
from .ideals import (
    SearchBox,
    find_poisson_maximal,
    is_poisson_maximal,
    leaf_report,
    relation_in_J_squared,
)
from .lie import (
    InvariantPresentation,
    LieAlgebra,
    lie_from_invariants,
    lie_from_point,
    verify_invariance,
)
from .classify import (
    LieRecognition,
    Sl2Triple,
    find_sl2_triple,
    homogeneity_report,
    recognize,
    recognize_points,
)
from .modules import (
    ActionTable,
    LieRep,
    PoissonModule,
    analyze_submodules,
    composition_series,
    is_simple_module,
    lie_reps_isomorphic,
    lift_module,
    module_from_table,
    poisson_modules_isomorphic,
    restrict_to_lie,
    restrict_to_subalgebra,
    sl2_irrep,
    solvable_character_module,
    twist,
    verify_poisson_axioms,
)
from .catalog import CatalogEntry, get_entry, run_entry, run_all, catalog_names
from .presfile import parse_presentation, serialize_presentation

__version__ = "0.1.0"
