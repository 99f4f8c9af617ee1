import hashlib

import pytest
from conftest import PA_FILES, REPO, character_mutants, token_mutants, tokenize_reference
from many_points import many_points

from poisson_atlas import (
    LaurentPoly,
    PoissonPresentation,
    Scaled,
    VarSet,
    catalog_names,
    get_entry,
    parse_presentation,
    serialize_presentation,
)
from poisson_atlas.brackets import Exact, SubstitutionMap
from poisson_atlas.errors import LieStructureError, ParseError
from poisson_atlas import presfile
from poisson_atlas.cli import _flag_value, main
from poisson_atlas.presfile import (
    MAX_NESTING,
    MAX_POWER_TERMS,
    PresentationFile,
    _Parser,
    _is_name,
)
from poisson_atlas.scalars import Scalar

UQSL2 = """
# U_q(sl2) Poisson presentation
vars x, y, z laurent(z);
bracket scaled a = 2*z; f = x*y + z + z^(-1);
relation f - 2;
point (0, 0, 1);
point (0, 0, -1);
auto phi { x -> x; y -> -y; z -> -z; };
grading z;
"""


def test_parse_uqsl2():
    pf = parse_presentation(UQSL2)
    assert pf.varset.names == ("x", "y", "z")
    assert pf.varset.laurent == (False, False, True)
    assert isinstance(pf.presentation.bracket_spec, Scaled)
    assert len(pf.points) == 2
    assert "phi" in pf.autos
    assert pf.grading is not None
    assert len(pf.presentation.relations) == 1


def test_exact_needs_three_variables():
    with pytest.raises(ParseError):
        parse_presentation("vars x; bracket exact f = x;")


def test_unknown_variable_reports_location():
    with pytest.raises(ParseError) as err:
        parse_presentation("vars x, y, z;\nbracket exact f = z^2 - x*w;")
    assert err.value.line == 2


def test_laurent_violation_rejected():
    with pytest.raises(ParseError):
        parse_presentation("vars x, y, z; bracket exact f = z^(-1) + x*y;")


def test_point_with_sqrt_literal():
    pf = parse_presentation(
        "vars x, y, z laurent(z);"
        "bracket scaled a = 2*z; f = x*y + z^2 + z^(-2);"
        "point (0, 0, sqrt(-1));"
    )
    assert pf.points[0].values[2] == Scalar(0, 1, -1)


def test_rationals_and_negative_exponents():
    pf = parse_presentation(
        "vars u, v, w; bracket exact F = w^4/4 - u*v; relation F - 1/2;"
    )
    assert isinstance(pf.presentation.bracket_spec, Exact)


def test_table_bracket():
    pf = parse_presentation(
        "vars x1, x2 laurent(x1, x2);"
        "bracket table { [x1,x2] = x1*x2; };"
    )
    pair = pf.presentation.bracket_spec.pairs[0, 1]
    assert str(pair) == "x1*x2"


@pytest.mark.parametrize(
    "entries",
    ["[x,y] = x;\n  [y,x] = y;", "[x,y] = x;\n  [x,y] = y;"],
    ids=["reversed", "repeated"],
)
def test_table_bracket_pair_given_twice(entries):
    with pytest.raises(ParseError) as err:
        parse_presentation(f"vars x, y;\nbracket table {{\n  {entries}\n}};")
    assert (err.value.line, err.value.column) == (4, 3)
    assert "given twice" in str(err.value)


def test_embed_with_sub_presentation():
    text = (
        "vars x, y, z; bracket exact f = z^2 - x*y; relation f;"
        "embed sub(u, v, w) { bracket exact F = w^4/4 - u*v; relation F;"
        " u -> x^2/8; v -> y^2/8; w -> z/2; };"
    )
    pf = parse_presentation(text)
    _, sp = pf.embeds["sub"]
    assert sp.varset.names == ("u", "v", "w")
    assert len(sp.relations) == 1


def test_serialize_round_trip():
    pf = parse_presentation(UQSL2)
    text = serialize_presentation(pf)
    pf2 = parse_presentation(text)
    assert pf2.varset == pf.varset
    assert pf2.presentation == pf.presentation
    assert pf2.points == pf.points
    assert pf2.autos == pf.autos
    assert pf2.grading == pf.grading


def test_catalog_entries_serialize_and_reparse():
    for name in ("torus-so3", "kleinian-a1", "uqsl2", "whitney"):
        entry = get_entry(name)
        pf = entry.presentation_file()
        text = serialize_presentation(pf)
        pf2 = parse_presentation(text)
        assert pf2.varset == pf.varset
        assert pf2.presentation == pf.presentation
        assert pf2.points == pf.points
        assert pf2.autos == pf.autos
        assert pf2.embeds == pf.embeds


WRONG_RING = pytest.mark.xfail(
    strict=True, raises=ParseError, reason="ROADMAP item 1: embed written in the wrong ring"
)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(n, marks=WRONG_RING) if n in ("c-theta", "d-phi") else n
        for n in catalog_names()
    ],
)
def test_every_catalog_entry_round_trips(name):
    pf = get_entry(name).presentation_file()
    text = serialize_presentation(pf)
    pf2 = parse_presentation(text)
    assert serialize_presentation(pf2) == text
    assert pf2.varset == pf.varset
    assert pf2.presentation == pf.presentation
    assert pf2.presentation.bracket_spec.pairs == pf.presentation.bracket_spec.pairs
    assert pf2.points == pf.points
    assert pf2.autos == pf.autos
    assert pf2.embeds == pf.embeds


TABLE_EMBED = """vars x, y;
bracket table { [x,y] = x; };
point (0, 0);
embed e(u, v) { bracket table { [u,v] = u; }; u -> x; v -> y; };
"""


def test_embed_table_bracket_round_trip():
    pf = parse_presentation(TABLE_EMBED)
    text = serialize_presentation(pf)
    pf2 = parse_presentation(text)
    assert serialize_presentation(pf2) == text
    assert pf2.embeds == pf.embeds
    emb, sub = pf2.embeds["e"]
    assert sub.bracket_spec.pairs == {(0, 1): LaurentPoly.variable(emb.source, "u")}


@pytest.mark.parametrize("name", ["kleinian-a1", "torus-so3"])
def test_a_parsed_catalog_file_holds_the_catalog_objects(name):
    entry = get_entry(name)
    pf = parse_presentation(serialize_presentation(entry.presentation_file()))
    assert pf.presentation == entry.presentation
    assert pf.embeds == entry.embeds
    assert pf.autos == entry.automorphisms


def test_an_embed_relation_needs_a_bracket_in_its_block():
    text = "vars x, y;\nbracket table { [x,y] = x; };\nembed e(u, v) { relation u; u -> x; v -> y; };"
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert (err.value.line, err.value.column) == (3, 17)
    assert err.value.message == "relation in embed e needs a bracket clause"


def test_an_embed_relation_may_precede_the_bracket_of_its_block():
    pf = parse_presentation(
        "vars x, y; bracket table { [x,y] = x; };"
        "embed e(u, v) { relation u; bracket table { [u,v] = u; }; u -> x; v -> y; };"
    )
    emb, sub = pf.embeds["e"]
    assert sub.relations == (LaurentPoly.variable(emb.source, "u"),)


def test_an_embed_table_is_checked_for_jacobi_when_parsed():
    text = (
        "vars x, y, z; bracket exact f = x*y*z;"
        "embed e(u, v, w) { bracket table { [u,v] = w; [v,w] = v^2; }; u -> x; v -> y; w -> z; };"
    )
    with pytest.raises(LieStructureError, match="bracket fails Jacobi at"):
        parse_presentation(text)


EMBED_FAILS_JACOBI_THEN_BAD_POINT = (
    "vars x, y;\n"
    "bracket table { [x,y] = x; };\n"
    "embed e(u, v, w) { bracket table { [u,v] = w; [v,w] = u; [u,w] = u; }; "
    "u -> x; v -> y; w -> x; };\n"
    "point (1, 2, 3);\n"
)


def test_a_located_parse_error_wins_over_an_embed_table_that_fails_jacobi():
    with pytest.raises(ParseError) as err:
        parse_presentation(EMBED_FAILS_JACOBI_THEN_BAD_POINT)
    assert (err.value.line, err.value.column) == (4, 15)
    assert err.value.message == "point arity mismatch"


def test_the_file_table_is_checked_for_jacobi_before_an_embed_table():
    text = (
        "vars x, y, z; bracket table { [x,y] = z; [y,z] = x; [x,z] = x; };"
        "embed e(u, v, w) { bracket table { [u,v] = w; [v,w] = u; [u,w] = u; }; "
        "u -> x; v -> y; w -> z; };"
    )
    with pytest.raises(LieStructureError, match=r"Jacobi at \('x', 'y', 'z'\)"):
        parse_presentation(text)


@pytest.mark.parametrize(
    "head, message",
    [("e(u, u)", "duplicate variable names"), ("e(u, v) laurent(w)", "unknown variables")],
    ids=["repeated", "unknown-laurent"],
)
def test_bad_embed_head_is_located(head, message):
    text = f"vars x, y;\nbracket table {{ [x,y] = x; }};\nembed {head} {{ u -> x; v -> y; }};"
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert (err.value.line, err.value.column) == (3, 7)
    assert message in str(err.value)


def test_missing_embed_image_points_at_the_embed_name():
    text = "vars x, y;\nbracket table { [x,y] = x; };\n  embed e(u, v) { u -> x; };"
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert (err.value.line, err.value.column) == (3, 9)
    assert "misses images for ['v']" in str(err.value)


def test_repeated_variable_is_located():
    with pytest.raises(ParseError) as err:
        parse_presentation("vars x, x;")
    assert (err.value.line, err.value.column) == (1, 1)


def test_missing_bracket_clause():
    with pytest.raises(ParseError):
        parse_presentation("vars x, y, z; relation x;")


def test_syntax_error_location():
    with pytest.raises(ParseError) as err:
        parse_presentation("vars x, y z;")
    assert err.value.line == 1


HEAD = "vars x, y;\nbracket table { [x,y] = x; };\n"


@pytest.mark.parametrize(
    "block, where, message",
    [
        ("auto a {\n  w -> x; };", (4, 3), "unknown variable 'w'"),
        ("auto a { x -> x; };", (3, 6), "auto a misses images for ['y']"),
        ("auto a { x -> x; x -> -x; y -> y; };", (3, 18), "image of 'x' given twice"),
        ("embed e(u) { u -> x; u -> y; };", (3, 22), "image of 'u' given twice"),
        ("embed e(u) {\n  w -> x; };", (4, 3), "unknown name 'w' in embed block"),
        ("auto a { x -> x; y -> y; };\nauto a { x -> y; y -> x; };", (4, 6),
         "auto a given twice"),
        ("embed e(u) { u -> x; };\nembed e(u) { u -> y; };", (4, 7), "embed e given twice"),
        ("embed e(u, v) {\n  bracket table { [u,v] = u; };\n  bracket table { [u,v] = v; };\n"
         "  u -> x; v -> y; };", (5, 3), "bracket clause given twice"),
    ],
    ids=["auto-unknown", "auto-missing", "auto-repeated", "embed-repeated", "embed-unknown",
         "auto-twice", "embed-twice", "embed-bracket-twice"],
)
def test_image_block_errors_are_located(block, where, message):
    with pytest.raises(ParseError) as err:
        parse_presentation(HEAD + block)
    assert (err.value.line, err.value.column) == where
    assert message in str(err.value)


@pytest.mark.parametrize(
    "text, where, message",
    [
        ("vars x, y;\nbracket table {\n  [x,x] = 1;\n};", (3, 3), "diagonal bracket [x,x]"),
        (HEAD + "embed e(u, v) {\n  bracket table { [v,v] = 1; };\n  u -> x; v -> y; };",
         (4, 19), "diagonal bracket [v,v]"),
        ("vars x, y;\nbracket table {\n  [x,q] = 1;\n};", (3, 6), "unknown variable 'q'"),
        ("vars x, y, z;\nbracket table { [x,y] = z; };\npoint (0, 0);", (3, 12),
         "point arity mismatch"),
        ("vars x, y, z;\nbracket table { [x,y] = z; [y,z] = x; [z,x] = y; };\n"
         "bracket exact f = x;", (3, 1), "bracket clause given twice"),
    ],
    ids=["diagonal", "embed-diagonal", "unknown-variable", "point-arity", "bracket-twice"],
)
def test_bad_table_entries_and_points_are_located(text, where, message):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert (err.value.line, err.value.column) == where
    assert err.value.message == message


@pytest.mark.parametrize(
    "expr, message",
    [
        ("x^y", "line 3, col 12: expected an integer exponent"),
        ("x^(-y)", "line 3, col 14: expected an integer exponent"),
        ("x^(y)", "line 3, col 13: expected an integer exponent"),
        ("x^--1", "line 3, col 13: expected an integer exponent"),
        ("x^(1", "line 3, col 14: expected ')', found ';'"),
        ("x^(-1 + y", "line 3, col 16: expected ')', found '+'"),
        ("sqrt(y)*x", "line 3, col 15: expected sqrt of an integer"),
        ("sqrt(-y)", "line 3, col 16: expected sqrt of an integer"),
        ("sqrt(--3)", "line 3, col 16: expected sqrt of an integer"),
        ("sqrt(3", "line 3, col 16: expected ')', found ';'"),
    ],
)
def test_signed_integer_errors_are_located(expr, message):
    # exponents and sqrt arguments read an optional `-` and an integer alike
    with pytest.raises(ParseError) as err:
        parse_presentation(f"vars x, y;\nbracket table {{ [x,y] = x; }};\nrelation {expr};\n")
    assert str(err.value) == message


def _nested(depth):
    return "(" * depth + "x" + ")" * depth


def test_nesting_past_the_bound_is_a_located_parse_error():
    """The reader spends four frames per parenthesis, so nesting past
    MAX_NESTING stops at the `(` that crosses the bound instead of in a
    RecursionError; nesting up to the bound, and any number of parentheses
    side by side, still parse."""
    head = "vars x, y, z;\nbracket exact f = "
    x = LaurentPoly.variable(VarSet(("x", "y", "z")), "x")
    for text, power in ((_nested(MAX_NESTING), 1), ("*".join([_nested(MAX_NESTING)] * 3), 3)):
        assert parse_presentation(head + text + ";\n").presentation.bracket_spec.potential == (
            x**power)
    where = f"line 2, col {19 + MAX_NESTING}"  # the first "(" is at col 19
    for depth in (MAX_NESTING + 1, 250):
        with pytest.raises(ParseError) as err:
            parse_presentation(head + _nested(depth) + ";\n")
        assert str(err.value) == f"{where}: parentheses nested deeper than {MAX_NESTING}"


def test_a_power_past_the_term_bound_is_a_located_parse_error(monkeypatch, tmp_path, capsys):
    """A power of a t-term base may have C(e + t - 1, t - 1) terms.  Past
    MAX_POWER_TERMS it is a ParseError at its `^`, before any power is
    expanded: a file exits 2, and a flag's error names the flag.  A power
    within the bound, and any power of one term, still parse."""
    head = "vars x, y, z;\nbracket exact f = "
    potential = lambda text: parse_presentation(head + text + ";\n").presentation.bracket_spec.potential
    assert MAX_POWER_TERMS == 1000
    assert len(potential("(x + y + z + 1)^16").terms) == 969  # C(19, 3)
    assert len(potential("(x + 1)^999").terms) == 1000
    assert potential("(2*x*y)^1500") == LaurentPoly(VarSet(("x", "y", "z")), {(1500, 1500, 0): Scalar(2**1500)})
    assert potential("(x^2 + y^2 + z^2 + x*y + y*z + 1)^1") == potential("x^2 + y^2 + z^2 + x*y + y*z + 1")
    real, powers = LaurentPoly.__pow__, []
    monkeypatch.setattr(LaurentPoly, "__pow__", lambda p, e: powers.append(e) or real(p, e))
    for text, col in (("(x + y + z + 1)^17", 34), ("(x + y + z + 1)^45", 34),
                      ("(x + 1)^1000", 26), ("x*(y - z)^(10000000000000000000000)", 28)):
        with pytest.raises(ParseError) as err:
            potential(text)
        assert str(err.value) == f"line 2, col {col}: power may expand past 1000 terms"
    assert powers == []
    path = tmp_path / "power.pa"
    path.write_text(head + "(x + y + z + 1)^45;\n", encoding="utf-8")
    assert main(["ideals", str(path)]) == 2
    assert capsys.readouterr().err == "parse error: line 2, col 34: power may expand past 1000 terms\n"
    path.write_text(head + "x*y*z;\n", encoding="utf-8")
    assert main(["homogeneity", str(path), "--box-num", "1", "--box-den", "1",
                 "--relation", "(x + y + z + 1)^45"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "parse error: --relation, col 16: power may expand past 1000 terms\n")


def test_sqrt_takes_the_square_part_out():
    head = "vars x, y;\nbracket table { [x,y] = x; };\n"  # one quadratic field per file
    real = parse_presentation(head + "relation sqrt(8)*x;\nrelation sqrt(9) + sqrt(0);\n")
    gaussian = parse_presentation(head + "relation sqrt(-4)*x + sqrt(-1)*x;\n")
    x = LaurentPoly.variable(real.varset, "x")
    assert real.presentation.relations + gaussian.presentation.relations == (
        Scalar(0, 2, 2) * x, LaurentPoly.const(real.varset, 3), Scalar(0, 3, -1) * x)


@pytest.mark.parametrize(
    "text, message",
    [
        ("vars x, y, z;\nbracket exact f = x^² - y*z;\n", "line 2, col 21: unexpected character '²'"),
        ("vars x, y;\nbracket table { [x,y] = x; };\nrelation ٣*x;\n",
         "line 3, col 10: unexpected character '٣'"),
    ],
)
def test_only_ascii_digits_make_integers(text, message):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert str(err.value) == message


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_arithmetic_across_two_quadratic_fields_is_located_at_its_operator(op):
    head = "vars x, y;\nbracket table { [x,y] = x; };\n"
    for relation, fields in ((f"x + (sqrt(2) {op} sqrt(-3))", "sqrt(2) with sqrt(-3)"),
                             (f"sqrt(-1) * x {op} sqrt(5) * x", "sqrt(-1) with sqrt(5)")):
        with pytest.raises(ParseError) as err:
            parse_presentation(f"{head}relation {relation};\n")
        assert str(err.value) == f"line 3, col 23: cannot mix {fields}"


@pytest.mark.parametrize(
    "body, message",
    [("bracket table { [x,y] = sqrt(2)*x + sqrt(3)*y; };\n",
      "line 2, col 37: cannot mix sqrt(2) with sqrt(3)"),
     ("bracket table { [x,y] = x; };\nrelation sqrt(8)*x;\nrelation sqrt(-1)*y;\n"
      "relation sqrt(2)*y;\n", "line 4, col 10: cannot mix sqrt(2) with sqrt(-1)"),
     ("bracket table { [x,y] = sqrt(-4)*x; };\npoint (sqrt(4), sqrt(-1));\n"
      "embed e(u) { u -> sqrt(5)*x; };\n", "line 4, col 19: cannot mix sqrt(-1) with sqrt(5)")],
    ids=["table", "relations", "embed"],
)
def test_a_second_quadratic_field_is_located_at_its_first_sqrt(body, message):
    """A file's scalars lie in one quadratic field, even where no operator
    combines two of them: the second field is refused at the `sqrt` that first
    brings it in.  sqrt(8) lies in Q(sqrt(2)) and sqrt(4) in Q."""
    with pytest.raises(ParseError) as err:
        parse_presentation(f"vars x, y;\n{body}")
    assert str(err.value) == message


def test_one_field_in_several_sqrt_forms_parses():
    pf = parse_presentation("vars x, y;\nbracket table { [x,y] = sqrt(8)*x - sqrt(2)*y; };\n"
                            "relation sqrt(4)*x + sqrt(18);\n")
    x = LaurentPoly.variable(pf.varset, "x")
    assert pf.presentation.relations == (Scalar(2) * x + LaurentPoly.const(pf.varset, Scalar(0, 3, 2)),)


@pytest.mark.parametrize("expr, col", [("1/0", 11), ("x/(y - y)", 11), ("(1 + 1/0)*x", 16)])
def test_a_division_by_zero_is_named_at_its_slash(expr, col):
    with pytest.raises(ParseError) as err:
        parse_presentation(f"vars x, y;\nbracket table {{ [x,y] = x; }};\nrelation {expr};\n")
    assert str(err.value) == f"line 3, col {col}: division by zero"


def _scanned(text):
    """The (kind, text, line, col) tokens of `text`, the last one eof, each
    located by the parser's own `error`, or the ParseError text."""
    try:
        parser = _Parser(text)
    except ParseError as exc:
        return str(exc)
    located = []
    for i, t in enumerate(parser.tokens[:parser.tokens.index("") + 1]):
        kind = "eof" if not t else "int" if t.isdigit() else "name" if _is_name(t) else "sym"
        at = parser.error("", i)
        located.append((kind, t, at.line, at.column))
    return located


def _scanned_by_reference(text):
    try:
        return tokenize_reference(text)
    except ParseError as exc:
        return str(exc)


EDGE_TEXTS = ["", "x", "x  \t", "x\r\n", "vars x; # c", "# c\n", "a#b\nc", "x²", "²x", "x½",
              "½", "Ⅷ", "xⅧ", "x٣", "٣x", "3٣", "3x", "x3", "_1", "1_", "é9", "->-", "- >", "-\n>",
              "x\n  \t", "\n\n y", "(a,b)->{c};", "x ^ 2 # c\r\n y"]


@pytest.mark.parametrize("seed", [1, 2])
def test_the_scanner_matches_the_character_loop_reference(seed):
    texts = [*character_mutants(PA_FILES, seed, 3000), *token_mutants(PA_FILES, seed, 1000),
             *(p.read_text(encoding="utf-8") for p in PA_FILES), *EDGE_TEXTS]
    for text in texts:
        assert _scanned(text) == _scanned_by_reference(text), text


@pytest.mark.parametrize("char", ["²", "½", "Ⅷ", "٣"])
def test_a_name_starts_with_a_letter_or_an_underscore(char):
    # each of these may go on a name, as str.isalnum() says, but may not start one
    head = "vars x, y;\nbracket table { [x,y] = x; };\n"
    with pytest.raises(ParseError) as err:
        parse_presentation(f"{head}relation {char}x;\n")
    assert str(err.value) == f"line 3, col 10: unexpected character {char!r}"
    with pytest.raises(ParseError) as err:
        parse_presentation(f"{head}relation x{char};\n")
    assert str(err.value) == f"line 3, col 10: unknown variable 'x{char}'"
    pf = parse_presentation(f"vars _{char}, y; bracket table {{ [_{char},y] = y; }};")
    assert pf.varset.names == (f"_{char}", "y")


@pytest.mark.parametrize("tail", [" ", "\t", "  \t ", "\r", "\n \t"])
def test_a_text_may_end_in_blanks_with_no_newline(tail):
    pf = parse_presentation("vars x, y; bracket table { [x,y] = x; };" + tail)
    assert pf.varset.names == ("x", "y")
    with pytest.raises(ParseError) as err:
        parse_presentation("vars x, y;" + tail)
    line = 1 + tail.count("\n")
    col = len(tail.rsplit("\n", 1)[-1]) + (1 if "\n" in tail else 11)
    assert (err.value.line, err.value.column, err.value.message) == (
        line, col, "missing bracket clause")


@pytest.mark.parametrize("text, where", [("vars x; # c", (1, 9)), ("vars x;  # c", (1, 10)),
                                         ("vars x;\n# c", (2, 1)), ("vars x; # c\n", (2, 1))])
def test_the_end_of_a_text_is_located_where_its_last_comment_starts(text, where):
    # a comment does not advance the column, so the end of the text is at its `#`
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert (err.value.line, err.value.column, err.value.message) == (
        *where, "missing bracket clause")


@pytest.mark.parametrize(
    "text, where",
    [("vars x, y, z; bracket exact x = y*z + z^2; relation x - 1;", (1, 29)),
     ("vars x, y, z;\nbracket scaled z = 2; f = x*y*z;", (2, 16)),
     ("vars x, y, z;\nbracket scaled a = 2*z; a = x*y*z;", (2, 25)),
     ("vars x, y;\nbracket table { [x,y] = x; };\n"
      "embed e(u, v, w) { bracket exact w = u*v; u -> x; v -> y; w -> x; };", (3, 34))],
    ids=["exact-variable", "scaled-variable", "scaled-twice", "embed-variable"],
)
def test_a_bound_name_may_not_shadow_a_variable_or_another_binding(text, where):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert (err.value.line, err.value.column) == where
    assert err.value.message.endswith("is a variable or bound already")


def _round_trip(pres):
    pf = PresentationFile(pres, {})
    return parse_presentation(serialize_presentation(pf)).presentation


def test_a_scaled_bracket_over_a_variable_named_a_round_trips():
    vs = VarSet(("a", "b", "c"))
    a, b, c = (LaurentPoly.variable(vs, n) for n in vs.names)
    pres = PoissonPresentation(Scaled(2 * c, a * b + c))
    assert _round_trip(pres) == pres


def test_an_exact_bracket_over_a_variable_named_f_round_trips():
    vs = VarSet(("f", "x", "y"))
    f, x, y = (LaurentPoly.variable(vs, n) for n in vs.names)
    pres = PoissonPresentation(Exact(f * x * y + f * f), (f - 1,))
    assert _round_trip(pres) == pres


def test_an_embedded_bracket_binds_a_name_off_its_variables():
    vs = VarSet(("x", "y", "z"))
    sub_vs = VarSet(("F", "A", "A_"))
    F, A, A_ = (LaurentPoly.variable(sub_vs, n) for n in sub_vs.names)
    x, y, z = (LaurentPoly.variable(vs, n) for n in vs.names)
    sub = PoissonPresentation(Scaled(2 * A_, F * A + A_), (F - A,))
    pf = PresentationFile(PoissonPresentation(Exact(x * y * z)), {},
                          embeds={"e": (SubstitutionMap(sub_vs, (x, y, z)), sub)})
    assert parse_presentation(serialize_presentation(pf)).embeds == pf.embeds


@pytest.mark.parametrize(
    "text, where",
    [("vars x, y laurent(x, x);", (1, 1)),
     ("vars x, y;\nbracket table { [x,y] = x; };\nembed e(u, v) laurent(v, v) { u -> x; v -> y; };",
      (3, 7))],
    ids=["vars", "embed"],
)
def test_a_repeated_laurent_flag_is_refused_and_located(text, where):
    with pytest.raises(ParseError) as err:
        parse_presentation(text)
    assert (err.value.line, err.value.column) == where
    assert "duplicate Laurent flags" in err.value.message


FLAG_TEXTS = [
    ("--point", _Parser.parse_point, text)
    for text in ["(2, 2, 2)", "(-2, -2, 2)", "(sqrt(4), sqrt(4), sqrt(4))", "(1/2, 0, -3/4)",
                 "(sqrt(-1), 0, 0)", "(2, 2)", "(2, 2, 2, 2)", "(2, 2, 2) x", "2, 2, 2", "(2, 2, 2",
                 "(x, 0, 0)", "(f - 4, 0, 0)", "(2; 2, 2)", "(2, 2, 2²)", "(2,2,2) # c", "",
                 "(1/0, 0, 0)", "(2, 2, 2))"]
] + [
    ("--character", _Parser.scalar_list, text)
    for text in ["1, 2, 3", "1/2", "sqrt(2), -1", "1,", ",1", "x", "1 2", "", "f - 4", "(1)"]
] + [
    ("--relation", _Parser.parse_expr, text)
    for text in ["x", "x*y*z - x^2 - y^2 - z^2 + 4", "f - 4", "x +", "y^(-1)", "x ->", "(x",
                 "w", "2*x # c", "x^2/2 ٣"]
]


def _outcome(run) -> str:
    """What `run()` gives as text, or its error's class name and message."""
    try:
        return run()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _value_text(value) -> str:
    return ", ".join(map(str, value)) if isinstance(value, list) else str(value)


PARSE_OUTCOMES_SHA256 = "df596bb1cadbc9a31f09015d68e0861a854746ae664c45b1b9fc30354d97e40b"


def test_parse_outcomes_are_pinned():
    # one outcome per text: the serialized presentation, or the error; any
    # change to what the parser accepts, builds or reports moves the digest
    texts = [text for seed in (1, 2) for text in (*character_mutants(PA_FILES, seed, 3000),
                                                  *token_mutants(PA_FILES, seed, 2000))]
    torus = REPO / "perfbench" / "inputs" / "torus-so3.pa"
    pf = parse_presentation(torus.read_text(encoding="utf-8"))
    digest = hashlib.sha256()
    for text in texts:
        digest.update(_outcome(lambda: serialize_presentation(parse_presentation(text))).encode())
        digest.update(b"\0")
    for flag, read, text in FLAG_TEXTS:
        digest.update(_outcome(lambda: _value_text(_flag_value(pf, flag, text, read))).encode())
        digest.update(b"\0")
    assert digest.hexdigest() == PARSE_OUTCOMES_SHA256


def _parses(text) -> bool:
    try:
        parse_presentation(text)
    except ParseError:
        return False
    return True


def test_a_location_is_computed_only_for_an_error(monkeypatch):
    texts = [text for text in (p.read_text(encoding="utf-8") for p in PA_FILES) if _parses(text)]
    assert len(texts) == len(PA_FILES) - 2  # c-theta and d-phi fail to parse (known defect)

    def located(text, at):
        raise AssertionError(f"located offset {at} of a text with no error")

    monkeypatch.setattr(presfile, "_location", located)
    for text in texts:
        parse_presentation(text)
    for name in catalog_names():
        get_entry(name)
    with pytest.raises(AssertionError, match="located offset 8"):
        parse_presentation("vars x; !")


def test_a_syntax_error_at_the_end_of_a_long_file_is_located_once(monkeypatch):
    located, locate = [], presfile._location

    def counted(text, at):
        located.append(at)
        return locate(text, at)

    monkeypatch.setattr(presfile, "_location", counted)
    with pytest.raises(ParseError) as err:
        parse_presentation(many_points(20000, bad_last=True))
    assert str(err.value) == "line 20004, col 16: expected ')', found '4'"
    assert len(located) == 1
