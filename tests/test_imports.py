"""The package loads its layers on demand: `import poisson_atlas` runs no
submodule, reading a file loads only the reader's modules, and only the CLI's
`catalog` subcommand loads the catalog; every public name still resolves to
its submodule's object."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import poisson_atlas

ROOT = Path(__file__).resolve().parents[1]
INPUTS = ROOT / "perfbench" / "inputs"

# the names the package re-exported eagerly before it loaded on demand
PUBLIC = [
    "ActionTable", "CatalogEntry", "Exact", "InvariantPresentation", "LaurentPoly",
    "LieAlgebra", "LieRecognition", "LieRep", "Matrix", "PointP", "PoissonModule",
    "PoissonPresentation", "Scalar", "Scaled", "SearchBox", "Sl2Triple",
    "SubstitutionMap", "Table", "VarSet", "analyze_submodules", "bracket",
    "catalog_names", "composition_series", "divides", "eigen_small",
    "find_poisson_maximal", "find_sl2_triple", "get_entry", "homogeneity_report",
    "is_poisson_maximal", "is_simple_module", "kernel_basis", "leaf_report",
    "lie_from_invariants", "lie_from_point", "lie_reps_isomorphic", "lift_module",
    "module_from_table", "parse_presentation", "poisson_modules_isomorphic",
    "recognize", "recognize_points", "relation_in_J_squared", "restrict_to_lie",
    "restrict_to_subalgebra", "run_entry", "scalar_sqrt", "serialize_presentation",
    "sl2_irrep", "solvable_character_module", "twist", "verify_invariance",
    "verify_jacobi", "verify_poisson_axioms", "verify_poisson_map",
]
READER = ["brackets", "errors", "poly", "presfile", "scalars"]


def _loaded_after(code: str):
    """The `poisson_atlas` submodules a fresh interpreter holds after `code`,
    by short name, sorted."""
    script = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m.split('.', 1)[1] for m in sys.modules"
        " if m.startswith('poisson_atlas.'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert _loaded_after("import poisson_atlas") == []


def test_reading_a_file_loads_only_the_reader():
    code = (
        "from poisson_atlas.presfile import parse_presentation\n"
        f"parse_presentation(open({str(INPUTS / 'kleinian-a1.pa')!r}, encoding='utf-8').read())\n"
    )
    assert _loaded_after(code) == READER


@pytest.mark.parametrize(
    "argv, loads_catalog",
    [
        (["classify", "kleinian-a1.pa"], False),
        (["verify", "torus-so3.pa", "--point", "(2, 2, 2)", "--dim", "3"], False),
        (["catalog", "run", "kleinian-a1"], True),
    ],
)
def test_only_catalog_subcommand_loads_catalog(argv, loads_catalog):
    argv = [str(INPUTS / a) if a.endswith(".pa") else a for a in argv]
    code = (
        "import contextlib, io\n"
        "from poisson_atlas import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
    )
    assert ("catalog" in _loaded_after(code)) is loads_catalog


def test_public_names_resolve_to_their_submodule():
    assert sorted(poisson_atlas.__all__) == PUBLIC
    listed = dir(poisson_atlas)
    for name in PUBLIC:
        assert name in listed
        value = getattr(poisson_atlas, name)
        owner = importlib.import_module(value.__module__)
        assert getattr(owner, name) is value


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from poisson_atlas import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'poisson_atlas' has no attribute 'no_such_name'"):
        poisson_atlas.no_such_name
