import argparse
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest
from conftest import PERFBENCH_FILES, token_mutants

from poisson_atlas.catalog import catalog_names
from poisson_atlas.classify import recognize
from poisson_atlas.cli import HEADER, build_parser, main
from poisson_atlas.errors import LieStructureError, ParseError
from poisson_atlas.ideals import SearchBox, find_poisson_maximal
from poisson_atlas.lie import lie_from_point
from poisson_atlas.modules import DEFAULT_SEED, DEFAULT_TRIALS
from poisson_atlas.presfile import parse_presentation

ROOT = Path(__file__).resolve().parents[1]
INPUTS = ROOT / "perfbench" / "inputs"
# machine reports of `restrict`, `twist` and `classify` on the committed catalog files
PINNED = json.loads((ROOT / "tests" / "pinned_reports.json").read_text(encoding="utf-8"))
PINNED_CLASSIFY = [c for c in PINNED if c["argv"][0] == "classify"]
PINNED_MODULE = [c for c in PINNED if c["argv"][0] == "module"]
# `leaves` in both formats and one report of every other subcommand in the
# default text format, on the committed catalog files
PINNED_CLI = json.loads((ROOT / "tests" / "pinned_cli_reports.json").read_text(encoding="utf-8"))

TORUS = """
vars x, y, z;
bracket exact f = x*y*z - x^2 - y^2 - z^2 + 4;
relation f;
auto theta_x { x -> x; y -> -y; z -> -z; };
"""

A1 = """
vars x, y, z;
bracket exact f = z^2 - x*y;
relation f;
embed pi4(u, v, w) { bracket exact F = w^4/4 - u*v; relation F;
  u -> x^2/8; v -> y^2/8; w -> z/2; };
"""


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "torus.pat"
    path.write_text(TORUS)
    return str(path)


@pytest.fixture
def a1_file(tmp_path):
    path = tmp_path / "a1.pat"
    path.write_text(A1)
    return str(path)


def run(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_ideals_machine(torus_file):
    code, out = run(["ideals", torus_file, "--format", "machine"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == HEADER
    assert "ideal.count = 5" in lines
    assert "ideal.5.point = (2, 2, 2)" in lines
    assert lines[-1] == "status = ok"


def test_output_determinism(torus_file):
    first = run(["classify", torus_file, "--format", "machine"])
    second = run(["classify", torus_file, "--format", "machine"])
    assert first == second


def test_homogeneity_with_relation(torus_file):
    code, out = run(
        ["homogeneity", torus_file, "--relation", "f", "--format", "machine"]
    )
    assert code == 0
    assert "verdict = 4-homogeneous" in out
    code, out = run(
        ["homogeneity", torus_file, "--relation", "f - 4", "--format", "machine"]
    )
    assert "verdict = 1-homogeneous" in out
    code, out = run(["homogeneity", torus_file, "--format", "machine"])
    assert "verdict = 5-homogeneous" in out


def test_lie_and_module_commands(torus_file):
    code, out = run(["lie", torus_file, "--point", "(2,2,2)"])
    assert code == 0 and "bracket.[x,y]: 2*x + 2*y - 2*z" in out
    code, out = run(
        ["module", torus_file, "--point", "(0,0,0)", "--dim", "2", "--format", "machine"]
    )
    assert code == 0 and "simple = True" in out


def test_verify_command(torus_file):
    code, out = run(
        ["verify", torus_file, "--point", "(2,2,2)", "--dim", "3", "--trials", "8"]
    )
    assert code == 0 and "axioms: pass" in out


def test_twist_command(torus_file):
    code, out = run(
        ["twist", torus_file, "--auto", "theta_x", "--point", "(2,2,2)", "--dim", "2"]
    )
    assert code == 0
    assert "twisted.point: (2, -2, -2)" in out


def test_restrict_command(a1_file):
    code, out = run(
        [
            "restrict", a1_file, "--embed", "pi4",
            "--point", "(0,0,0)", "--dim", "3", "--format", "machine",
        ]
    )
    assert code == 0
    assert "sub.point = (0, 0, 0)" in out
    assert "semisimple = yes, summand dims [1, 1, 1]" in out


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.pat"
    bad.write_text("vars x; bracket exact f = x;")
    code, out = run(["ideals", str(bad)])
    assert code == 2


def test_bad_embed_head_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.pat"
    bad.write_text("vars x, y; bracket table { [x,y] = x; }; embed e(u, u) { u -> x; };")
    code, out = run(["ideals", str(bad)])
    assert code == 2
    assert "parse error: line 1, col 48: duplicate variable names" in capsys.readouterr().err


def test_a_syntax_error_after_an_embed_table_that_fails_jacobi_exits_2(tmp_path, capsys):
    path = tmp_path / "embedjacobi.pat"
    path.write_text(
        "vars x, y;\nbracket table { [x,y] = x; };\n"
        "embed e(u, v, w) { bracket table { [u,v] = w; [v,w] = u; [u,w] = u; }; "
        "u -> x; v -> y; w -> x; };\npoint (1, 2, 3);\n"
    )
    code, out = run(["ideals", str(path)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "parse error: line 4, col 15: point arity mismatch\n"


def test_restrict_along_an_embed_without_a_bracket_is_an_error(tmp_path, capsys):
    """The file parses, so an embed block with no bracket clause is an error
    (exit 1) that names the embedding, not a parse error without a line."""
    path = tmp_path / "nobracket.pat"
    path.write_text("vars x, y, z; bracket exact f = x*y*z; embed e(u) { u -> x; };")
    code, out = run(["restrict", str(path), "--embed", "e", "--point", "(0,0,0)", "--dim", "1"])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err == "error: embedding 'e' carries no sub-presentation bracket\n"
    assert "Traceback" not in err


def test_restrict_along_a_reserialized_table_embed(tmp_path):
    from poisson_atlas import parse_presentation, serialize_presentation

    text = (
        "vars x, y; bracket table { [x,y] = x; }; point (0, 0);"
        "embed e(u, v) { bracket table { [u,v] = u; }; u -> x; v -> y; };"
    )
    path = tmp_path / "table.pat"
    path.write_text(serialize_presentation(parse_presentation(text)))
    code, out = run(
        ["restrict", str(path), "--embed", "e", "--point", "(0,0)", "--dim", "1",
         "--character", "0, 1", "--format", "machine"]
    )
    assert code == 0
    assert "sub.point = (0, 0)" in out


def test_solvable_point_needs_dim_one(tmp_path):
    path = tmp_path / "an3.pat"
    path.write_text("vars x, y, z; bracket exact f = z^3 - x*y;")
    code, out = run(["module", str(path), "--point", "(0,0,0)", "--dim", "2"])
    assert code == 1
    code, out = run(
        ["module", str(path), "--point", "(0,0,0)", "--dim", "1",
         "--character", "0, 0, 7"]
    )
    assert code == 0 and "action.z: [(7)]" in out


# Kirillov-Kostant presentations of three Lie algebras outside the catalog
SL2_SL2 = """vars e1, h1, f1, e2, h2, f2;
bracket table { [h1,e1] = 2*e1; [h1,f1] = -2*f1; [e1,f1] = h1;
  [h2,e2] = 2*e2; [h2,f2] = -2*f2; [e2,f2] = h2; };
"""
GL2 = """vars e, h, f, z;
bracket table { [h,e] = 2*e; [h,f] = -2*f; [e,f] = h; };
"""
SL2_V2_V2 = """vars e, h, f, a1, a2, b1, b2;
bracket table { [h,e] = 2*e; [h,f] = -2*f; [e,f] = h;
  [e,a2] = a1; [f,a1] = a2; [h,a1] = a1; [h,a2] = -a2;
  [e,b2] = b1; [f,b1] = b2; [h,b1] = b1; [h,b2] = -b2; };
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _box_1(command, path):
    code, out = run([command, path, "--box-num", "1", "--box-den", "1", "--format", "machine"])
    assert code == 0
    return out.splitlines()[3:-1]  # after the header, command and file lines


def test_sl2_plus_sl2_reports_count_divisors(tmp_path):
    path = _write(tmp_path, "sl2sl2.pat", SL2_SL2)
    assert _box_1("classify", path) == [
        "ideal.count = 1",
        "ideal.1.point = (0, 0, 0, 0, 0, 0)",
        "ideal.1.recognition = reductive(s=6, k=0)",
        "ideal.1.derived_dims = [6, 6]",
        "ideal.1.simple_modules = tau(d) classes in dimension d >= 1",
    ]
    assert _box_1("homogeneity", path) == [
        "ideals.considered = 1",
        "ideal.1 = (0, 0, 0, 0, 0, 0) [reductive(s=6, k=0)]",
        "classes.d >= 1 = tau(d)",
        "verdict = not t-homogeneous (tau(d) classes in dimension d)",
    ]


def test_gl2_reports_a_continuum_in_every_dimension(tmp_path):
    path = _write(tmp_path, "gl2.pat", GL2)
    points = ["(0, 0, 0, -1)", "(0, 0, 0, 0)", "(0, 0, 0, 1)"]
    assert _box_1("classify", path) == ["ideal.count = 3"] + [
        line
        for k, point in enumerate(points, 1)
        for line in (
            f"ideal.{k}.point = {point}",
            f"ideal.{k}.recognition = reductive(s=3, k=1)",
            f"ideal.{k}.derived_dims = [4, 3, 3]",
            f"ideal.{k}.simple_modules = one 1-parameter family per dimension d >= 1",
        )
    ]
    assert _box_1("homogeneity", path) == ["ideals.considered = 3"] + [
        f"ideal.{k} = {point} [reductive(s=3, k=1)]" for k, point in enumerate(points, 1)
    ] + [
        "classes.d >= 1 = 0 + continuum",
        "verdict = not t-homogeneous (continuum of classes in every dimension)",
    ]


def test_sl2_on_two_planes_is_1_homogeneous(tmp_path):
    path = _write(tmp_path, "sl2v2v2.pat", SL2_V2_V2)
    assert _box_1("classify", path) == [
        "ideal.count = 1",
        "ideal.1.point = (0, 0, 0, 0, 0, 0, 0)",
        "ideal.1.recognition = sl2_semidirect(4)",
        "ideal.1.derived_dims = [7, 7]",
        "ideal.1.simple_modules = one class per dimension d >= 1",
    ]
    assert _box_1("homogeneity", path) == [
        "ideals.considered = 1",
        "ideal.1 = (0, 0, 0, 0, 0, 0, 0) [sl2_semidirect(4)]",
        "classes.d >= 1 = 1",
        "verdict = 1-homogeneous",
    ]


def test_module_with_an_sl2_levi_factor_and_characters(tmp_path):
    # gl2 = sl2 + center: the center acts by zero on the sl2 irrep, a simple module
    path = _write(tmp_path, "gl2.pat", GL2)
    code, out = run(["module", path, "--point", "(0,0,0,1)", "--dim", "2", "--format", "machine"])
    assert code == 0
    assert "recognition = reductive(s=3, k=1)" in out.splitlines()
    assert "action.z = [(0, 0); (0, 0)]" in out.splitlines()
    assert "simple = True" in out.splitlines()
    code, out = run(["verify", path, "--point", "(0,0,0,1)", "--dim", "3", "--format", "machine"])
    assert code == 0 and "axioms = pass" in out.splitlines()


# sl2 on C^2 in a basis that hides the Levi subalgebra: a = v1 + e, b = v2
HIDDEN_LEVI = """
vars e, h, f, a, b;
bracket table { [e,h] = -2*e; [e,f] = h; [e,b] = -e + a; [h,f] = -2*f; [h,a] = e + a;
  [h,b] = -b; [f,a] = -h + b; [a,b] = -e + a; };
"""


def test_modules_where_no_basis_vectors_span_a_levi_subalgebra(tmp_path):
    path = _write(tmp_path, "hidden.pat", HIDDEN_LEVI)
    assert _box_1("classify", path)[2:] == [
        "ideal.1.recognition = sl2_semidirect(2)",
        "ideal.1.derived_dims = [5, 5]",
        "ideal.1.simple_modules = one class per dimension d >= 1",
    ]
    point = ["--point", "(0,0,0,0,0)", "--format", "machine"]
    code, out = run(["verify", path, "--dim", "3", *point])
    assert code == 0 and "axioms = pass" in out.splitlines()
    for d in (2, 4):
        code, out = run(["module", path, "--dim", str(d), *point])
        assert code == 0 and "simple = True" in out.splitlines()
    code, out = run(["module", path, "--dim", "2", *point])
    assert "action.b = [(0, 0); (0, 0)]" in out.splitlines()  # the radical acts as zero


def test_module_at_a_solvable_point_is_a_character(tmp_path):
    path = _write(tmp_path, "line.pat", "vars x, y, z;\nbracket table { [x,y] = x*z; };\n")
    code, out = run(["module", path, "--point", "(0,0,1)", "--dim", "1",
                     "--character", "0, 3, 0", "--format", "machine"])
    assert code == 0
    assert "recognition = solvable" in out.splitlines()
    assert "action.y = [(3)]" in out.splitlines()


def test_module_with_another_levi_factor_is_refused(tmp_path, capsys):
    path = _write(tmp_path, "sl2sl2.pat", SL2_SL2)
    code, out = run(["module", path, "--point", "(0,0,0,0,0,0)", "--dim", "2"])
    assert (code, out) == (1, "")
    assert "g(J) is reductive(s=6, k=0)" in capsys.readouterr().err


def test_catalog_list_and_run():
    code, out = run(["catalog", "list", "--format", "machine"])
    assert code == 0 and "entry = torus-so3" in out
    code, out = run(["catalog", "run", "weyl-a2", "--trials", "4"])
    assert code == 0
    assert "pass [example 5.1]" in out
    assert "proposition 5.2" in out


def test_catalog_file_round_trip(tmp_path):
    code, out = run(["catalog", "file", "kleinian-a1"])
    assert code == 0
    path = tmp_path / "a1.pat"
    path.write_text(out)
    code2, out2 = run(["ideals", str(path), "--format", "machine"])
    assert code2 == 0 and "ideal.count = 1" in out2


def test_extension_error_maps_to_exit_3(monkeypatch, torus_file):
    from poisson_atlas import cli
    from poisson_atlas.errors import ExtensionRequiredError

    def boom(args):
        raise ExtensionRequiredError("extension beyond quadratic required")

    monkeypatch.setattr(cli, "cmd_ideals", boom)
    parser = cli.build_parser()
    args = parser.parse_args(["ideals", torus_file])
    # rebuild dispatch through main with the patched command
    monkeypatch.setattr(
        cli.argparse.ArgumentParser, "parse_args", lambda self, argv=None: args
    )
    args.fn = boom
    assert cli.main(["ideals", torus_file]) == 3


def test_run_all_failure_propagates(monkeypatch):
    import poisson_atlas.catalog as catalog

    broken = catalog.CatalogEntry("broken", "nowhere")
    broken.checks = [("always", "nowhere", lambda ctx, cfg: (False, "by design"))]
    # `cmd_catalog` imports these from the catalog module when it runs
    monkeypatch.setattr(catalog, "catalog_names", lambda: ["broken"])
    monkeypatch.setattr(catalog, "get_entry", lambda name: broken)
    code, out = run(["catalog", "run-all", "--format", "machine"])
    assert code == 1
    assert "status = fail" in out
    assert "broken.always = FAIL" in out


def test_non_jacobi_table_exits_1(tmp_path):
    bad = tmp_path / "nonjacobi.pat"
    bad.write_text(
        "vars x, y, z; bracket table { [x,y] = z; [y,z] = y^2; };"
    )
    code, out = run(["ideals", str(bad)])
    assert code == 1


def test_module_entry_point(torus_file):
    import subprocess, sys

    proc = subprocess.run(
        [sys.executable, "-m", "poisson_atlas", "ideals", torus_file,
         "--format", "machine"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == HEADER


@pytest.mark.parametrize("command", ["ideals", "leaves", "classify", "homogeneity"])
def test_box_bounds_below_1_are_usage_errors(command, torus_file):
    """A box bound of 0 is refused by the argument parser, with a usage
    message naming the flag, and never reaches the box as a traceback."""
    import subprocess, sys

    for flag in ("--box-num", "--box-den"):
        proc = subprocess.run(
            [sys.executable, "-m", "poisson_atlas", command, torus_file, flag, "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        assert f"argument {flag}: expected an integer >= 1, got '0'" in proc.stderr


def test_a_deeply_nested_file_exits_2_at_one_location(tmp_path, capsys):
    """Nesting past the reader's bound is a located parse error, not a
    RecursionError: exit 2 with the same message in process, under the test
    runner's deeper stack, and from a fresh interpreter."""
    import subprocess

    path = _write(tmp_path, "deep.pa",
                  "vars x, y, z;\nbracket exact f = " + "(" * 400 + "x" + ")" * 400 + ";\n")
    message = "parse error: line 2, col 119: parentheses nested deeper than 100\n"
    assert run(["ideals", path]) == (2, "")
    assert capsys.readouterr().err == message
    proc = subprocess.run([sys.executable, "-m", "poisson_atlas", "ideals", path],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


@pytest.mark.parametrize(
    "name", ["abelian(3)", "kirillov-kostant-sl2", "weyl-a2", "weyl-b2", "weyl-g2"])
def test_leaves_refuses_a_bracket_without_a_potential(name, capsys):
    """The leaf partition is read off a potential, so `leaves` on a table or
    Kirillov-Kostant bracket is an error (exit 1) before any scan, not a traceback."""
    assert run(["leaves", str(INPUTS / f"{name}.pa")]) == (1, "")
    err = capsys.readouterr().err
    assert err == "error: leaves needs an exact or scaled bracket (one with a potential)\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["module", "verify", "twist", "restrict"])
def test_module_dims_below_1_are_usage_errors(command):
    """A module dimension of 0 or below is refused by the argument parser, as
    a box bound is, and never reaches the module builder as a traceback."""
    import subprocess, sys

    name, extra = ("kleinian-a1", ["--embed", "pi4"]) if command == "restrict" else (
        "torus-so3", ["--auto", "theta_x"] if command == "twist" else [])
    for dim in ("0", "-1"):
        proc = subprocess.run(
            [sys.executable, "-m", "poisson_atlas", command, str(INPUTS / f"{name}.pa"),
             *extra, "--point", "(0, 0, 0)", "--dim", dim],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert f"argument --dim: expected an integer >= 1, got '{dim}'" in proc.stderr


@pytest.mark.parametrize("flag, text", [
    ("--dim", "٢"), ("--dim", "+2"), ("--box-num", "1_0"), ("--box-den", " 1 "),
    ("--box-num", "１"),
], ids=["arabic-indic", "plus", "underscore", "blanks", "fullwidth"])
def test_an_integer_flag_reads_ascii_digits_only(flag, text, capsys):
    """`int()` also reads other scripts' digits, '_' and surrounding blanks;
    a count or a bound, like the file grammar, is ASCII digits after an
    optional '-'."""
    torus = str(INPUTS / "torus-so3.pa")
    argv = ["module", torus, "--point", "(2, 2, 2)"] if flag == "--dim" else ["classify", torus]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, text])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "Traceback" not in err
    assert f"argument {flag}: expected an integer >= 1, got {text!r}" in err


@pytest.mark.parametrize(
    "text", ["\u0662", "\uff12", "1_0", " 7 ", "7 ", "+7", "07", "0x", "", "seven"])
def test_a_seed_reads_ascii_int_literals_only(text, capsys):
    """`int(s, 0)` also reads other scripts' digits, '_', '+' and blanks; a
    seed is what it reads from ASCII letters and digits after an optional '-'."""
    torus = str(INPUTS / "torus-so3.pa")
    with pytest.raises(SystemExit) as exc:
        main(["verify", torus, "--point", "(2, 2, 2)", "--dim", "2", "--seed", text])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "Traceback" not in err
    assert f"argument --seed: expected an integer, got {text!r}" in err


@pytest.mark.parametrize("text, seed", [("17", 17), ("-3", -3), ("0x11", 17), ("-0X1f", -31),
                                        ("0o17", 15), ("0b101", 5), ("0", 0)])
def test_a_seed_keeps_negative_and_prefixed_literals(text, seed):
    torus = str(INPUTS / "torus-so3.pa")
    code, out = run(["verify", torus, "--point", "(2, 2, 2)", "--dim", "2", "--trials", "1",
                     f"--seed={text}", "--format", "machine"])  # '-0X1f' alone reads as a flag
    assert code == 0 and f"seed = {seed}" in out.splitlines()


@pytest.mark.parametrize("argv", [
    ["verify", str(INPUTS / "torus-so3.pa"), "--point", "(2, 2, 2)", "--dim", "2"],
    ["catalog", "run", "kleinian-a1"],
], ids=["verify", "catalog"])
def test_negative_trials_are_usage_errors(argv):
    """A trial count below 0 is refused by the argument parser, as a module
    dimension of 0 is, and runs no axiom check that would read `pass`."""
    import subprocess, sys

    proc = subprocess.run(
        [sys.executable, "-m", "poisson_atlas", *argv, "--trials", "-3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "argument --trials: expected an integer >= 0, got '-3'" in proc.stderr


def test_a_character_of_the_wrong_length_is_an_error(capsys):
    """whitney has three generators, so a character takes three values; two
    or four are refused with both counts named, not a traceback."""
    for character, given in (("5,0", 2), ("5,0,0,7", 4)):
        code, out = run(["module", str(INPUTS / "whitney.pa"), "--point", "(1, 0, 0)",
                         "--dim", "1", "--character", character])
        assert (code, out) == (1, "")
        assert f"takes 3 values, one per generator, not {given}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["homogeneity", "weyl-a2", "--relation", "x"],
     "parse error: --relation, col 1: unknown variable 'x'"),
    (["homogeneity", "weyl-a2", "--relation", "a1 a1"],
     "parse error: --relation, col 4: unexpected token 'a1'"),
    (["module", "torus-so3", "--point", "(2,2,q)", "--dim", "2"],
     "parse error: --point, col 6: unknown variable 'q'"),
    (["lie", "torus-so3", "--point", " (2, 2, 2"],
     "parse error: --point, col 10: expected ')', found ''"),
    (["module", "whitney", "--point", "(1, 0, 0)", "--dim", "1", "--character", "1,q,3"],
     "parse error: --character, col 3: unknown variable 'q'"),
    (["module", "whitney", "--point", "(1, 0, 0)", "--dim", "1", "--character", "1, x, 3"],
     "parse error: --character, col 4: expected a scalar value"),
    (["lie", "torus-so3", "--point", "(1,2)"], "parse error: --point, col 5: point arity mismatch"),
    (["lie", "torus-so3", "--point", "(" + "(" * 250 + "2" + ")" * 250 + ", 2, 2)"],
     "parse error: --point, col 102: parentheses nested deeper than 100"),
], ids=["relation", "relation-trailing", "point", "point-unclosed", "character",
        "character-not-scalar", "point-arity", "point-nested"])
def test_a_flag_value_error_names_the_flag(argv, message, capsys):
    """A flag's text is parsed with the file's parser, but its errors name the
    flag and a column of the flag's text, not a line of the file."""
    argv = [argv[0], str(INPUTS / f"{argv[1]}.pa"), *argv[2:]]
    assert run(argv) == (2, "")
    assert capsys.readouterr().err == message + "\n"


def test_a_character_is_refused_where_the_levi_factor_is_nonzero(tmp_path, capsys):
    """A character is a module of a solvable g(J) only; at an sl2 point, or
    one with another Levi factor, the flag is refused with exit 2, not ignored."""
    argv = ["module", str(INPUTS / "torus-so3.pa"), "--point", "(2,2,2)", "--dim", "2",
            "--character", "1,2,3"]
    assert run(argv) == (2, "")
    assert capsys.readouterr().err == (
        "parse error: --character needs a solvable g(J), and g(J) is sl2\n")
    path = _write(tmp_path, "sl2sl2.pat", SL2_SL2)
    code, out = run(["module", path, "--point", "(0,0,0,0,0,0)", "--dim", "1",
                     "--character", "0,0,0,0,0,0"])
    assert (code, out) == (2, "")
    assert "--character needs a solvable g(J)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case", [c for c in PINNED if c["argv"][0] in ("restrict", "twist")],
    ids=lambda c: f"{c['argv'][0]}-{c['argv'][3]}-d{c['argv'][7]}",
)
def test_restrict_and_twist_reports_are_pinned(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run(case["argv"]) == (0, case["report"])


@pytest.mark.parametrize(
    "case", PINNED_CLASSIFY,
    ids=lambda c: f"{Path(c['argv'][1]).stem}-{c['argv'][3]}-{c['argv'][5]}",
)
def test_classify_reports_are_pinned(case, monkeypatch):
    # boxes larger than the benchmark's, with a Laurent axis and sqrt(-1) candidates
    monkeypatch.chdir(ROOT)
    assert run(case["argv"]) == (0, case["report"])


@pytest.mark.parametrize(
    "case", PINNED_MODULE, ids=lambda c: f"{Path(c['argv'][1]).stem}-d{c['argv'][5]}"
)
def test_module_reports_are_pinned(case, monkeypatch):
    # dimensions where the density hull took seconds; recorded before the
    # weight-vector certificate
    monkeypatch.chdir(ROOT)
    assert run(case["argv"]) == (0, case["report"])


@pytest.mark.parametrize(
    "case", PINNED_CLI, ids=lambda c: "-".join(
        [c["argv"][0], Path(c["argv"][1]).stem, "machine" if "machine" in c["argv"] else "text"]),
)
def test_cli_reports_are_pinned(case, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert run(case["argv"]) == (0, case["report"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("point", ["(2, 2, 2)", "(2, -2, -2)"])
def test_c_theta_restricts_from_a_file(point, tmp_path):
    """Section 4.7 from a file: the torus presentation with c-theta's `theta`
    embedding, the text the catalog reads, restricts the 2-dimensional J2- and
    J3-modules to simple C^theta-modules killed by I1 = (2, 2, 2)."""
    from poisson_atlas.catalog import get_entry
    from poisson_atlas.presfile import PresentationFile, serialize_presentation

    pf = PresentationFile(get_entry("torus-so3").presentation, {},
                          embeds=get_entry("c-theta").embeds)
    path = tmp_path / "torus-theta.pa"
    path.write_text(serialize_presentation(pf))
    code, out = run(["restrict", str(path), "--embed", "theta", "--point", point,
                     "--dim", "2", "--format", "machine"])
    lines = out.splitlines()
    assert code == 0
    assert "sub.point = (2, 2, 2)" in lines and "simple = True" in lines


def test_a_verify_violation_fails_the_report(monkeypatch, capsys):
    """A failed axiom check is a report with its violations and status
    `fail`, and `main` exits 1 for it."""
    from poisson_atlas import cli
    from poisson_atlas.modules import AxiomReport

    failures = [("Leibniz", "a = x, b = y"), ("Jacobi", "a = y, b = z")]
    monkeypatch.setattr(cli, "verify_poisson_axioms", lambda *args: AxiomReport(False, failures, 7))
    code, out = run(["verify", str(INPUTS / "torus-so3.pa"), "--point", "(2, 2, 2)",
                     "--dim", "2", "--format", "machine"])
    assert code == 1
    assert out.splitlines()[-4:] == [
        "checks = 7",
        "violation = Leibniz: a = x, b = y",
        "violation = Jacobi: a = y, b = z",
        "status = fail",
    ]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, message", [
    (["catalog", "run"], "catalog run needs an entry name"),
    (["catalog", "file"], "catalog file needs an entry name"),
    (["twist", str(INPUTS / "torus-so3.pa"), "--auto", "nosuch", "--point", "(2, 2, 2)",
      "--dim", "2"], "no automorphism named 'nosuch' in the file"),
    (["restrict", str(INPUTS / "kleinian-a1.pa"), "--embed", "nosuch", "--point", "(0,0,0)",
      "--dim", "2"], "no embedding named 'nosuch' in the file"),
], ids=["catalog-run", "catalog-file", "twist", "restrict"])
def test_a_refused_request_prints_only_its_error(argv, message, capsys):
    assert run(argv) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("action", ["list", "run-all"])
def test_a_catalog_action_over_every_entry_refuses_a_name(action, capsys):
    assert run(["catalog", action, "whitney"]) == (1, "")
    assert capsys.readouterr().err == f"error: catalog {action} takes no entry name\n"


def test_an_embed_table_failing_jacobi_is_refused_by_every_command(tmp_path, capsys):
    own = tmp_path / "own.pat"
    own.write_text("vars u, v, w; bracket table { [u,v] = w; [v,w] = v^2; };")
    assert run(["ideals", str(own)]) == (1, "")
    message = capsys.readouterr().err
    assert message.startswith("error: bracket fails Jacobi at ('u', 'v', 'w'): ")
    path = tmp_path / "embed.pat"
    path.write_text(
        "vars x, y, z; bracket exact f = x*y*z;\n"
        "embed e(u, v, w) { bracket table { [u,v] = w; [v,w] = v^2; }; u -> x; v -> y; w -> z; };"
    )
    for argv in (["ideals", str(path)], ["lie", str(path), "--point", "(0, 0, 0)"],
                 ["module", str(path), "--point", "(0, 0, 0)", "--dim", "1"]):
        assert run(argv) == (1, "")
        assert capsys.readouterr().err == message


# The sl2-type points of the catalog files: `classify` recognizes sl2 there.
SL2_POINTS = (
    ("kirillov-kostant-sl2", "(0, 0, 0)"), ("kleinian-a1", "(0, 0, 0)"),
    ("kleinian-an(2)", "(0, 0, 0)"), ("laurent-inv", "(0, 0, -2)"),
    ("laurent-inv", "(0, 0, 2)"), ("torus-so3", "(-2, -2, 2)"),
    ("torus-so3", "(-2, 2, -2)"), ("torus-so3", "(0, 0, 0)"),
    ("torus-so3", "(2, -2, -2)"), ("torus-so3", "(2, 2, 2)"),
    ("uqsl2-4hom", "(0, 0, -sqrt(-1))"), ("uqsl2-4hom", "(0, 0, sqrt(-1))"),
    ("uqsl2-4hom", "(0, 0, -1)"), ("uqsl2-4hom", "(0, 0, 1)"),
    ("uqsl2-equitable", "(-1, -1, -1)"), ("uqsl2-equitable", "(1, 1, 1)"),
    ("uqsl2", "(0, 0, -1)"), ("uqsl2", "(0, 0, 1)"),
)


def test_weight_vectors_decide_simplicity_at_every_sl2_point(monkeypatch):
    def no_hull(mats, dim):
        raise AssertionError("the density hull ran")

    monkeypatch.setattr("poisson_atlas.linalg.associative_hull_is_full", no_hull)
    for name, point in SL2_POINTS:
        code, out = run(["module", str(INPUTS / f"{name}.pa"), "--point", point,
                         "--dim", "16", "--format", "machine"])
        assert code == 0
        assert "recognition = sl2" in out and "simple = True" in out, (name, point)


def _classify_reference(path, num, den):
    """The machine report of `classify`, built point by point from lie_from_point."""
    pf = parse_presentation(Path(path).read_text(encoding="utf-8"))
    pres = pf.presentation
    ideals = find_poisson_maximal(pres, SearchBox(num, den, tuple(pf.points)))
    lines = [HEADER, "command = classify", f"file = {path}", f"ideal.count = {len(ideals)}"]
    for k, ideal in enumerate(ideals, 1):
        lie = lie_from_point(pres, ideal)
        rec = recognize(lie)
        lines += [f"ideal.{k}.point = {ideal}",
                  f"ideal.{k}.recognition = {rec.describe()}",
                  f"ideal.{k}.derived_dims = {rec.derived_dims}",
                  f"ideal.{k}.simple_modules = {rec.simple_modules()}"]
    return "\n".join(lines + ["status = ok"]) + "\n"


def test_classify_keeps_each_points_own_classification(tmp_path):
    # {x,y} = xz vanishes where x = 0 or z = 0: 15 points of the 1/1 box, where
    # g(J) is abelian (x = z = 0), Heisenberg (z = 0 only) or solvable (z != 0)
    path = tmp_path / "mixed.pat"
    path.write_text("vars x, y, z;\nbracket table { [x,y] = x*z; };\n")
    code, out = run(["classify", str(path), "--box-num", "1", "--box-den", "1",
                     "--format", "machine"])
    assert (code, out) == (0, _classify_reference(str(path), 1, 1))
    records = dict(line.split(" = ", 1) for line in out.splitlines()[1:])
    assert records["ideal.count"] == "15"
    for k in range(1, 16):
        x, _, z = records[f"ideal.{k}.point"].strip("()").split(", ")
        want = "solvable" if z != "0" else "abelian" if x == "0" else "heisenberg"
        assert records[f"ideal.{k}.recognition"] == want


def test_classify_separates_points_that_differ_only_in_value(tmp_path):
    # {x,z} = x + y and {y,z} = (x + y)y vanish on the line x = -y; z acts on
    # span(x, y) by [[1, 1], [y, y]]: nilpotent at y = -1 (Heisenberg), not at
    # y = 1 (solvable), with the same zero pattern and the same x row there
    path = tmp_path / "line.pat"
    path.write_text("vars x, y, z;\nbracket table { [x,z] = x + y; [y,z] = x*y + y^2; };\n")
    code, out = run(["classify", str(path), "--box-num", "1", "--box-den", "1",
                     "--format", "machine"])
    assert (code, out) == (0, _classify_reference(str(path), 1, 1))
    records = dict(line.split(" = ", 1) for line in out.splitlines()[1:])
    assert records["ideal.count"] == "9"
    for k in range(1, 10):
        y = records[f"ideal.{k}.point"].strip("()").split(", ")[1]
        assert records[f"ideal.{k}.recognition"] == ("heisenberg" if y == "-1" else "solvable")


@pytest.mark.parametrize("name", catalog_names())
def test_classify_matches_the_point_by_point_reference(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    path = f"perfbench/inputs/{name}.pa"
    try:
        want = (0, _classify_reference(path, 4, 2))
    except ParseError:  # c-theta and d-phi: `catalog file` writes what the parser rejects
        want = (2, "")
    assert run(["classify", path, "--format", "machine"]) == want


def test_restrict_above_the_eigen_cap():
    code, out = run(
        ["restrict", str(INPUTS / "kleinian-a1.pa"), "--embed", "pi4",
         "--point", "(0,0,0)", "--dim", "13", "--format", "machine"]
    )
    assert code == 0
    assert f"semisimple = yes, summand dims {[1] * 13}" in out


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_file_matches_the_committed_input(name):
    code, out = run(["catalog", "file", name])
    assert code == 0
    assert out.encode("utf-8") == (INPUTS / f"{name}.pa").read_bytes()


def test_module_subcommands_keep_their_flags():
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )

    def flags(command):
        return {
            a.dest: (a.required, a.default)
            for a in sub.choices[command]._actions
            if a.option_strings and a.dest != "help"
        }

    common = {
        "format": (False, "text"),
        "point": (True, None), "dim": (True, None), "character": (False, None),
    }
    assert flags("module") == common
    assert flags("verify") == {
        **common, "trials": (False, DEFAULT_TRIALS), "seed": (False, DEFAULT_SEED)
    }
    assert flags("twist") == {**common, "auto": (True, None)}
    assert flags("restrict") == {**common, "embed": (True, None)}
    assert flags("catalog") == {
        "format": (False, "text"),
        "trials": (False, DEFAULT_TRIALS), "seed": (False, DEFAULT_SEED),
    }
    assert flags("lie") == {"format": (False, "text"), "point": (True, None)}
    box = {"format": (False, "text"), "box_num": (False, 4), "box_den": (False, 2)}
    for command in ("ideals", "leaves", "classify"):
        assert flags(command) == box
    assert flags("homogeneity") == {**box, "relation": (False, None)}


def _transcript(argvs, capsys):
    """(exit code, stdout, stderr) of each `main` call in turn."""
    out = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


def test_one_parser_serves_every_call(torus_file, tmp_path, capsys, monkeypatch):
    from poisson_atlas import cli

    bad = tmp_path / "bad.pat"
    bad.write_text("vars x, x;\n")
    argvs = [
        ["lie", torus_file, "--point", "(2,2,2)"],
        ["module", torus_file, "--dim", "2"],
        ["ideals", str(bad)],
        ["module", torus_file, "--point", "(0,0,0)", "--dim", "2", "--format", "machine"],
        ["verify", torus_file, "--point", "(2,2,2)", "--dim", "2", "--trials", "4",
         "--seed", "0x11"],
        ["catalog", "--help"],
        ["lie", torus_file, "--point", "(2,2,2)", "--format", "machine"],
    ]
    assert cli._parser() is cli._parser()
    shared = _transcript(argvs, capsys)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per call
    assert _transcript(argvs, capsys) == shared
    assert [code for code, _, _ in shared] == [0, ("exit", 2), 2, 0, 0, ("exit", 0), 0]
    assert "parse error" in shared[2][2]


def test_restrict_builds_one_weight_graph_and_no_eigensolve(monkeypatch):
    """`restrict` reads simplicity and semisimplicity off one submodule
    analysis, which builds one weight graph from the module's own matrices,
    with no cache.  Here u and v act as zero and w is diagonal with
    distinct entries: one graph on the 6 x 6 matrices, and no
    eigendecomposition."""
    import poisson_atlas.linalg as linalg
    import poisson_atlas.modules as modules

    sizes, built = [], []
    original = linalg.eigen_small

    def counted(m):
        sizes.append(m.nrows)
        return original(m)

    def graph(mats, dim, original=linalg.weight_graph):
        built.append(dim)
        return original(mats, dim)

    monkeypatch.setattr(linalg, "eigen_small", counted)
    monkeypatch.setattr(linalg, "weight_graph", graph)
    monkeypatch.setattr(modules, "weight_graph", graph)
    code, out = run(["restrict", str(INPUTS / "kleinian-a1.pa"), "--embed", "pi4",
                     "--point", "(0,0,0)", "--dim", "6", "--format", "machine"])
    assert code == 0 and "simple = False" in out
    assert "semisimple = yes, summand dims [1, 1, 1, 1, 1, 1]" in out
    assert built.count(6) == 1
    assert sizes == []


# `restrict` along u -> y - x, whose image acts by e + f in the irrep basis: no
# combination of the action matrices is diagonal there
EIGEN_ROUTE_ARGV = ["restrict", "tests/kleinian-a1-eigen.pa", "--embed", "s", "--point",
                    "(0,0,0)", "--dim", "4", "--format", "machine"]
EIGEN_ROUTE_REPORT = """poisson-atlas-report v1
command = restrict
embed = s
point = (0, 0, 0)
sub.point = (0)
action.u = [(0, 3, 0, 0); (1, 0, 4, 0); (0, 1, 0, 3); (0, 0, 1, 0)]
simple = False
semisimple = yes, summand dims [1, 1, 1, 1]
status = ok
"""


def test_restrict_along_a_grading_off_the_basis_takes_the_eigen_route(monkeypatch):
    """The weight graph refuses the restricted module, so the eigenvectors of
    its one action matrix seed the closures: one eigensolve of the 4 x 4
    matrix, and the report recorded before the submodule analysis decided
    simplicity."""
    import poisson_atlas.linalg as linalg
    import poisson_atlas.modules as modules

    graphs, sizes = [], []

    def graph(mats, dim, original=linalg.weight_graph):
        graphs.append(original(mats, dim))
        return graphs[-1]

    def counted(m, original=linalg.eigen_small):
        sizes.append(m.nrows)
        return original(m)

    monkeypatch.setattr(modules, "weight_graph", graph)
    monkeypatch.setattr(linalg, "eigen_small", counted)
    monkeypatch.chdir(ROOT)
    assert run(EIGEN_ROUTE_ARGV) == (0, EIGEN_ROUTE_REPORT)
    assert graphs == [None]
    assert sizes == [4]


def _count_calls(monkeypatch, *names):
    """Counters of calls to the named `ideals`/`lie`/`classify` functions,
    through every poisson_atlas module that binds them."""
    import poisson_atlas.classify as classify
    import poisson_atlas.ideals as ideals
    import poisson_atlas.lie as lie

    counts = dict.fromkeys(names, 0)
    for name in names:
        original = next(getattr(m, name) for m in (ideals, lie, classify) if hasattr(m, name))

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        for module in [m for k, m in sys.modules.items() if k.startswith("poisson_atlas")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize(
    "argv, checks",
    [
        (["module"], 1),
        (["verify"], 1),
        (["twist", "--auto", "theta_x"], 2),  # the second at the twisted point
        (["restrict", "--embed", "pi4"], 2),  # the second at the pulled-back point
    ],
    ids=lambda v: v[0] if isinstance(v, list) else str(v),
)
def test_a_module_request_checks_its_point_once(argv, checks, monkeypatch):
    """One `pair_gradients` pass per request at the point itself, and no
    `is_poisson_maximal`: `lie_from_point` certifies the point and keeps
    g(J) on it, so `lift_module` and `PoissonModule` read it again without
    a second pass.  A pullback checks the point it pulls back to, in the
    other presentation."""
    name, point = ("kleinian-a1", "(0, 0, 0)") if argv[0] == "restrict" else (
        "torus-so3", "(2, 2, 2)")
    counts = _count_calls(monkeypatch, "is_poisson_maximal", "pair_gradients")
    code, out = run([argv[0], str(INPUTS / f"{name}.pa"), *argv[1:], "--point", point,
                     "--dim", "3", "--format", "machine"])
    assert code == 0 and "status = ok" in out
    assert counts == {"is_poisson_maximal": 0, "pair_gradients": checks}


def test_classify_linearizes_no_zero_bracket(monkeypatch):
    """Every pair bracket of abelian(3) is 0, so its 2,197 points are linearized
    without one `LaurentPoly.linear_part` call, and the report keeps the bytes
    recorded in the benchmark golden."""
    from poisson_atlas.poly import LaurentPoly

    calls = []
    original = LaurentPoly.linear_part

    def counted(self, *args):
        calls.append(self)
        return original(self, *args)

    monkeypatch.setattr(LaurentPoly, "linear_part", counted)
    monkeypatch.chdir(ROOT)
    code, out = run(["classify", "perfbench/inputs/abelian(3).pa", "--box-num", "4",
                     "--box-den", "2", "--format", "machine"])
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
    recorded = golden["scan"]["requests"]["classify abelian(3) 4/2"]
    assert (code, recorded["rc"]) == (0, 0)
    assert hashlib.sha256(f"rc=0\n{out}\0".encode("utf-8")).hexdigest() == recorded["sha256"]
    assert "ideal.count = 2197" in out.splitlines()
    assert calls == []


def test_module_requests_at_every_sl2_point_solve_no_eigenproblem(monkeypatch):
    """At every sl2 point of the catalog files the lifted module's unit vectors
    are weight vectors and the triple comes from the Killing square, so no
    request eigensolves or builds the density hull."""
    def refuse(*args):
        raise AssertionError("an eigensolve or the density hull ran")

    monkeypatch.setattr("poisson_atlas.linalg.eigen_small", refuse)
    monkeypatch.setattr("poisson_atlas.linalg.associative_hull_is_full", refuse)
    for name, point in SL2_POINTS:
        for command in ("module", "verify"):
            for dim in ("2", "5"):
                code, out = run([command, str(INPUTS / f"{name}.pa"), "--point", point,
                                 "--dim", dim, "--format", "machine"])
                assert code == 0 and "status = ok" in out, (command, name, point, dim)


def test_a_box_with_one_g_recognizes_it_once(monkeypatch):
    """g(J) is abelian at all 2,197 points of abelian(3) in the 4/2 box: one
    recognition serves every point, and the report keeps its recorded bytes."""
    counts = _count_calls(monkeypatch, "recognize")
    monkeypatch.chdir(ROOT)
    code, out = run(["homogeneity", "perfbench/inputs/abelian(3).pa", "--box-num", "4",
                     "--box-den", "2", "--format", "machine"])
    assert code == 0 and "ideals.considered = 2197" in out.splitlines()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "968e84aee716a42aab9fed084a2c587248efa1d8bf05d4da603e3580b63a9140")
    assert counts == {"recognize": 1}


@pytest.mark.parametrize("command", ["classify", "homogeneity"])
def test_distinct_g_are_each_recognized(command, monkeypatch):
    """The five sl2 points of torus-so3 have five different linearizations,
    so each is recognized on its own."""
    counts = _count_calls(monkeypatch, "recognize")
    code, out = run([command, str(INPUTS / "torus-so3.pa"), "--format", "machine"])
    assert code == 0 and out.count("sl2") == 5
    assert counts == {"recognize": 5}


def test_classify_takes_one_gradient_pass_per_point(monkeypatch):
    """`recognize_points` builds each new g(J) from the gradients it keyed the
    point by, so the five points of torus-so3 take one `pair_gradients` pass
    each."""
    counts = _count_calls(monkeypatch, "pair_gradients")
    code, out = run(["classify", str(INPUTS / "torus-so3.pa"), "--box-num", "4",
                     "--box-den", "2", "--format", "machine"])
    assert code == 0 and "ideal.count = 5" in out.splitlines()
    assert counts == {"pair_gradients": 5}


def test_a_solvable_g_builds_no_killing_matrix(monkeypatch):
    """Every point of whitney's line in the 6/3 box has a solvable g(J), which
    its derived series recognizes, so no Killing form is built."""
    from poisson_atlas.lie import LieAlgebra

    counts = {"killing_form": 0}
    original = LieAlgebra.killing_form

    def counted(self):
        counts["killing_form"] += 1
        return original(self)

    monkeypatch.setattr(LieAlgebra, "killing_form", counted)
    monkeypatch.chdir(ROOT)
    code, out = run(["classify", "perfbench/inputs/whitney.pa", "--box-num", "6",
                     "--box-den", "3", "--format", "machine"])
    assert code == 0 and "ideal.count = 27" in out.splitlines()
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
    recorded = golden["scan"]["requests"]["classify whitney 6/3"]["sha256"]
    assert hashlib.sha256(f"rc=0\n{out}\0".encode("utf-8")).hexdigest() == recorded
    assert counts == {"killing_form": 0}


def test_classify_linearizes_each_pair_bracket_once_per_point(monkeypatch):
    """At each of the five points of torus-so3, each of its three nonzero pair
    brackets gives its value and gradient in one `linear_part`, and no pair
    bracket is evaluated."""
    from poisson_atlas.poly import LaurentPoly

    path = INPUTS / "torus-so3.pa"
    pres = parse_presentation(path.read_text(encoding="utf-8")).presentation
    pairs = [poly for poly in pres.bracket_spec.pairs.values() if not poly.is_zero]
    calls = {"linear_part": 0, "evaluate": 0}
    for method in calls:
        original = getattr(LaurentPoly, method)

        def counted(self, *args, method=method, original=original):
            calls[method] += self in pairs
            return original(self, *args)

        monkeypatch.setattr(LaurentPoly, method, counted)
    code, out = run(["classify", str(path), "--box-num", "4", "--box-den", "2",
                     "--format", "machine"])
    assert code == 0 and "ideal.count = 5" in out.splitlines()
    assert len(pairs) == 3 and calls == {"linear_part": 15, "evaluate": 0}


def test_a_sqrt_point_is_read_as_its_value():
    torus = str(INPUTS / "torus-so3.pa")
    plain = run(["lie", torus, "--point", "(2, 2, 2)", "--format", "machine"])
    assert plain[0] == 0
    assert run(["lie", torus, "--point", "(sqrt(4), sqrt(4), sqrt(4))",
                "--format", "machine"]) == plain


def test_a_non_ascii_digit_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.pa"
    bad.write_text("vars x, y, z;\nbracket exact f = x^² - y*z;\n", encoding="utf-8")
    code, _ = run(["ideals", str(bad)])
    assert code == 2
    assert "line 2, col 21: unexpected character" in capsys.readouterr().err


def test_token_mutants_of_the_perfbench_inputs_are_read_or_refused_cleanly(tmp_path, capsys):
    """Each of 3,000 mutants, one token of a perfbench input deleted, inserted,
    replaced or copied, parses, raises a located ParseError or fails Jacobi.
    Each one that parses runs through classify, homogeneity and leaves at box
    1/1 to exit 0 or 1, with at most one `error:` line on stderr."""
    parsed = 0
    for i, text in enumerate(token_mutants(PERFBENCH_FILES, 1, 3000)):
        try:
            parse_presentation(text)
        except ParseError as exc:
            assert exc.line is not None, text
            continue
        except LieStructureError:
            continue
        parsed += 1
        path = tmp_path / f"mutant{i}.pa"
        path.write_text(text, encoding="utf-8")
        for command in ("classify", "homogeneity", "leaves"):
            code = main([command, str(path), "--box-num", "1", "--box-den", "1"])
            err = capsys.readouterr().err
            assert code in (0, 1), (command, text)
            assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err
    assert parsed > 100
