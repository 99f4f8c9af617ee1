"""Exact classification and construction of finite-dimensional simple Poisson
modules over affine Poisson algebras.

The pipeline: locate Poisson maximal ideals (singular points), linearize the
bracket to the Lie algebra g(J) = J/J^2, classify g(J), and lift its simple
modules back to simple Poisson modules; every arithmetic step is exact over
the rationals or a single quadratic extension.

Importing the package loads no submodule: a submodule loads on first use of
one of its names below (PEP 562), and the CLI loads the catalog only for its
`catalog` subcommand.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "scalars": ("Scalar", "scalar_sqrt"),
    "poly": ("LaurentPoly", "PointP", "VarSet", "divides"),
    "linalg": ("Matrix", "eigen_small", "kernel_basis"),
    "brackets": (
        "Exact", "PoissonPresentation", "Scaled", "SubstitutionMap", "Table",
        "bracket", "verify_jacobi", "verify_poisson_map",
    ),
    "ideals": (
        "SearchBox", "find_poisson_maximal", "is_poisson_maximal", "leaf_report",
        "relation_in_J_squared",
    ),
    "lie": (
        "InvariantPresentation", "LieAlgebra", "lie_from_invariants", "lie_from_point",
        "verify_invariance",
    ),
    "classify": (
        "LieRecognition", "Sl2Triple", "find_sl2_triple", "homogeneity_report",
        "recognize", "recognize_points",
    ),
    "modules": (
        "ActionTable", "LieRep", "PoissonModule", "analyze_submodules",
        "composition_series", "is_simple_module", "lie_reps_isomorphic", "lift_module",
        "module_from_table", "poisson_modules_isomorphic", "restrict_to_lie",
        "restrict_to_subalgebra", "sl2_irrep", "solvable_character_module", "twist",
        "verify_poisson_axioms",
    ),
    "catalog": ("CatalogEntry", "get_entry", "run_entry", "catalog_names"),
    "presfile": ("parse_presentation", "serialize_presentation"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _OWNER.keys())
