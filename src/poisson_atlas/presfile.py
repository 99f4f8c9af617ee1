"""Parse and serialize the presentation file format.

The grammar, one clause per statement, each ending in `;`:

    vars x, y, z laurent(z);
    bracket exact f = z^2 - x*y;
    bracket scaled a = 2*z; f = x*y + z + z^-1;
    bracket table { [x,y] = x*y; [y,z] = y*z - 2*x; };
    relation f - 4;
    point (0, 0, 1);
    auto phi { x -> x; y -> -y; z -> -z; };
    embed sub(u, v, w) { u -> x^2/8; v -> y^2/8; w -> z/2; };
    grading z;

Tokens are names (a letter or `_`, then letters, digits or `_`), integers of
ASCII digits and the symbols `->` and `(){}[],;=+-*/^`; blanks (space, tab,
carriage return) separate them, and comments run from `#` to end of line.
Scalars may be integers, rationals `p/q`, or `sqrt(d)` combinations.  Names
bound in a bracket clause (f, a), which may not be variables, are usable in
later expressions.  A Kirillov-Kostant bracket is a table with linear entries.
An embed block may carry its own `bracket` clause and, with it, `relation`
clauses describing the sub-presentation.  A second bracket clause, in the file
or in one embed block, a second auto or embed under one name and an embed
relation with no bracket are ParseErrors there, and win over a failing Jacobi
check: presentations are built after the last clause.  Serialization is the
file dialect of poly's writer (`LaurentPoly.text`).
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass, field
from math import comb

from .brackets import (
    Exact,
    PoissonPresentation,
    Scaled,
    SubstitutionMap,
    Table,
)
from .errors import LaurentViolationError, ParseError, VarSetMismatchError
from .poly import LaurentPoly, PointP, VarSet, report_coeff, signed_sum, term_text
from .scalars import Scalar, format_scalar, scalar_sqrt


_Token = namedtuple("_Token", "kind text line col")  # kind: name, int, sym or eof

# The expression reader spends four frames per parenthesis, so a bound far
# inside the interpreter's recursion limit turns deep nesting into a ParseError.
MAX_NESTING = 100

# A power of a t-term base has at most C(e + t - 1, t - 1) terms, and its time
# grows with them: a power whose bound passes this one is not expanded.
MAX_POWER_TERMS = 1000

_TOKEN = re.compile(r"""[ \t\r]* (?P<at>) (?:\#[^\n]*)?
    (?: (?P<newline>\n) | (?P<int>[0-9]+)  # ASCII digits only: int() reads others too
      | (?P<name>\w+) | (?P<sym>->|[(){}\[\],;=+\-*/^]) | (?P<bad>.) | (?P<eof>\Z))""", re.VERBOSE)


def _tokenize(text: str):
    """The tokens of `text`, the last one eof.  A comment does not advance the
    column; a digit such as `²` may go on a name but not start one."""
    tokens, line, line_start = [], 1, 0
    for m in _TOKEN.finditer(text):
        kind, col = m.lastgroup, m.start("at") - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad" or kind == "name" and not (m[kind][0].isalpha() or m[kind][0] == "_"):
            raise ParseError(f"unexpected character {m[kind][0]!r}", line, col)
        else:
            tokens.append(_Token(kind, m[kind], line, col))
            if kind == "eof":
                return tokens


@dataclass
class PresentationFile:
    """Parsed form of one presentation file: its presentation, a table checked
    for Jacobi, and each embed as a (SubstitutionMap, sub-presentation or None)
    pair, as in `CatalogEntry.embeds`."""

    presentation: PoissonPresentation
    bound: dict  # names bound in the bracket clause, e.g. f and a
    points: list = field(default_factory=list)
    autos: dict = field(default_factory=dict)
    embeds: dict = field(default_factory=dict)
    grading: LaurentPoly | None = None

    @property
    def varset(self) -> VarSet:
        return self.presentation.varset


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # parentheses open in the expression being read

    # -- token helpers ---------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def expect_name(self, names=None) -> _Token:
        """The next token, a name, and one of `names` when they are given."""
        tok = self.next()
        if tok.kind != "name":
            raise ParseError(f"expected a name, found {tok.text!r}", tok.line, tok.col)
        if names is not None and tok.text not in names:
            raise ParseError(f"unknown variable {tok.text!r}", tok.line, tok.col)
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text

    # -- expressions -----------------------------------------------------------

    def parse_expr(self, varset: VarSet, env: dict) -> LaurentPoly:
        out = self._term(varset, env)
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self._term(varset, env)
            out = out + rhs if op == "+" else out - rhs
        return out

    def _term(self, varset, env):
        out = self._factor(varset, env)
        while self.peek().text in ("*", "/"):
            op = self.next().text
            rhs = self._factor(varset, env)
            if op == "*":
                out = out * rhs
            else:
                tok = self.peek()
                try:
                    out = out * rhs._unit_inverse()
                except LaurentViolationError:
                    raise ParseError(
                        "division only by scalars or unit monomials", tok.line, tok.col
                    ) from None
        return out

    def _factor(self, varset, env):
        sign = 1
        while self.peek().text == "-":
            self.next()
            sign = -sign
        out = self._atom(varset, env)
        if self.at("^"):
            caret, e, t = self.next(), self._exponent(), len(out.terms)
            # for t > 1 the bound is at least e + 1, so a huge e is refused uncomputed
            if t > 1 and e > 1 and (e >= MAX_POWER_TERMS or comb(e + t - 1, e) > MAX_POWER_TERMS):
                raise ParseError(f"power may expand past {MAX_POWER_TERMS} terms",
                                 caret.line, caret.col)
            try:
                out = out**e
            except LaurentViolationError as exc:
                tok = self.peek()
                raise ParseError(str(exc), tok.line, tok.col) from None
        return out if sign == 1 else -out

    def _signed_int(self, message) -> int:
        """An integer with an optional `-`; ParseError(message) at the token
        where the integer should be."""
        tok = self.next()
        sign = 1
        if tok.text == "-":
            sign, tok = -1, self.next()
        if tok.kind != "int":
            raise ParseError(message, tok.line, tok.col)
        return sign * int(tok.text)

    def _exponent(self) -> int:
        """`n`, `-n`, `(n)` or `(-n)`."""
        if not self.at("("):
            return self._signed_int("expected an integer exponent")
        self.next()
        e = self._signed_int("expected an integer exponent")
        self.expect(")")
        return e

    def _atom(self, varset, env):
        tok = self.next()
        if tok.kind == "int":
            return LaurentPoly.const(varset, int(tok.text))
        if tok.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", tok.line, tok.col)
            self.depth += 1
            out = self.parse_expr(varset, env)
            self.depth -= 1
            self.expect(")")
            return out
        if tok.kind == "name":
            if tok.text == "sqrt":
                self.expect("(")
                d = self._signed_int("expected sqrt of an integer")
                self.expect(")")
                return LaurentPoly.const(varset, scalar_sqrt(d))
            if tok.text in env:
                return env[tok.text]
            if tok.text in varset.names:
                return LaurentPoly.variable(varset, tok.text)
            raise ParseError(f"unknown variable {tok.text!r}", tok.line, tok.col)
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)

    def scalar_expr(self, varset, env) -> Scalar:
        tok = self.peek()
        poly = self.parse_expr(varset, env)
        try:
            return poly.constant_value()
        except ValueError:
            raise ParseError("expected a scalar value", tok.line, tok.col) from None

    # -- clauses -----------------------------------------------------------------

    def comma_list(self, read) -> list:
        """`read()`, and again after each `,`."""
        items = [read()]
        while self.at(","):
            self.next()
            items.append(read())
        return items

    def name_list(self):
        return self.comma_list(lambda: self.expect_name().text)

    def parse_varset(self, names, tok) -> VarSet:
        """`names` with the optional `laurent(...)` list that follows them; a
        repeated or unknown name is reported at `tok`."""
        laurent = []
        if self.at("laurent"):
            self.next()
            self.expect("(")
            laurent = self.name_list()
            self.expect(")")
        try:
            return VarSet(tuple(names), tuple(laurent))
        except ValueError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None

    def _bind(self, varset, env) -> LaurentPoly:
        """`name = expr`: the expression, bound in `env` to a new name, not a variable."""
        tok = self.expect_name()
        if tok.text in varset.names or tok.text in env:
            raise ParseError(f"{tok.text!r} is a variable or bound already", tok.line, tok.col)
        self.expect("=")
        env[tok.text] = self.parse_expr(varset, env)
        return env[tok.text]

    def parse_bracket(self, varset, env):
        tok = self.peek()
        kind = self.expect_name().text
        if kind in ("exact", "scaled") and len(varset) != 3:
            raise ParseError(
                f"{kind} brackets need exactly 3 variables", tok.line, tok.col
            )
        if kind == "exact":
            return Exact(self._bind(varset, env))
        if kind == "scaled":
            mult = self._bind(varset, env)
            self.expect(";")
            return Scaled(mult, self._bind(varset, env))
        if kind == "table":
            self.expect("{")
            mapping = {}
            while not self.at("}"):
                tok = self.expect("[")
                a = self.expect_name(varset.names).text
                self.expect(",")
                b = self.expect_name(varset.names).text
                self.expect("]")
                if a == b:
                    raise ParseError(f"diagonal bracket [{a},{b}]", tok.line, tok.col)
                if (a, b) in mapping or (b, a) in mapping:
                    raise ParseError(
                        f"bracket [{a},{b}] given twice", tok.line, tok.col
                    )
                self.expect("=")
                mapping[(a, b)] = self.parse_expr(varset, env)
                self.expect(";")
            self.expect("}")
            return Table.from_dict(varset, mapping)
        tok = self.peek()
        raise ParseError(f"unknown bracket kind {kind!r}", tok.line, tok.col)

    def scalar_list(self, varset, env) -> list:
        return self.comma_list(lambda: self.scalar_expr(varset, env))

    def parse_point(self, varset, env) -> PointP:
        self.expect("(")
        values = self.scalar_list(varset, env)
        tok = self.expect(")")
        try:
            return PointP(varset, values)
        except (LaurentViolationError, VarSetMismatchError) as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None

    def parse_file(self) -> PresentationFile:
        tok = self.next()
        if tok.text != "vars":
            raise ParseError("file must start with a vars clause", tok.line, tok.col)
        varset = self.parse_varset(self.name_list(), tok)
        self.expect(";")
        env: dict = {}
        spec = None
        relations, points = [], []
        autos, embeds = {}, {}
        grading = None
        while not self.at(""):
            tok = self.peek()
            word = self.expect_name().text
            if word == "bracket":
                if spec is not None:
                    raise ParseError("bracket clause given twice", tok.line, tok.col)
                spec = self.parse_bracket(varset, env)
            elif word == "relation":
                relations.append(self.parse_expr(varset, env))
            elif word == "point":
                points.append(self.parse_point(varset, env))
            elif word in ("auto", "embed"):
                named = autos if word == "auto" else embeds
                name_tok = self.expect_name()
                if name_tok.text in named:
                    raise ParseError(f"{word} {name_tok.text} given twice",
                                     name_tok.line, name_tok.col)
                if word == "auto":
                    images = self.parse_images("auto", name_tok, varset.names, varset, env)
                    named[name_tok.text] = SubstitutionMap.from_dict(varset, images)
                else:
                    named[name_tok.text] = self.parse_embed(name_tok, varset, env)
            elif word == "grading":
                grading = self.parse_expr(varset, env)
            else:
                raise ParseError(f"unknown clause {word!r}", tok.line, tok.col)
            self.expect(";")
        if spec is None:
            tok = self.peek()
            raise ParseError("missing bracket clause", tok.line, tok.col)
        pres = PoissonPresentation(spec, tuple(relations))
        embeds = {name: (emb, None if sub is None else PoissonPresentation(*sub))
                  for name, (emb, sub) in embeds.items()}
        return PresentationFile(pres, env, points, autos, embeds, grading)

    def parse_images(self, kind, name_tok, names, varset, env, other=None) -> dict:
        """The `{ name -> expr; ... }` block of the `kind` clause named at
        `name_tok`: one image over `varset` per name in `names`.  Another word
        goes to `other(tok)` when given.  An unknown or repeated name is a
        ParseError at that name, a missing one at `name_tok`."""
        self.expect("{")
        images = {}
        while not self.at("}"):
            tok = self.expect_name(None if other else names)
            if tok.text not in names:
                other(tok)
                continue
            if tok.text in images:
                raise ParseError(f"image of {tok.text!r} given twice", tok.line, tok.col)
            self.expect("->")
            images[tok.text] = self.parse_expr(varset, env)
            self.expect(";")
        self.expect("}")
        missing = [n for n in names if n not in images]
        if missing:
            raise ParseError(
                f"{kind} {name_tok.text} misses images for {missing}",
                name_tok.line,
                name_tok.col,
            )
        return images

    def parse_embed(self, name_tok, varset, env) -> tuple:
        """An embed block's SubstitutionMap and (bracket spec, relations), or None."""
        self.expect("(")
        sub_names = self.name_list()
        self.expect(")")
        sub_varset = self.parse_varset(sub_names, name_tok)
        sub_bracket, sub_relations, sub_env = None, [], {}
        first_relation = None

        def sub_clause(tok):
            nonlocal sub_bracket, first_relation
            if tok.text == "bracket":
                if sub_bracket is not None:
                    raise ParseError("bracket clause given twice", tok.line, tok.col)
                sub_bracket = self.parse_bracket(sub_varset, sub_env)
            elif tok.text == "relation":
                first_relation = first_relation or tok
                sub_relations.append(self.parse_expr(sub_varset, sub_env))
            else:
                raise ParseError(f"unknown name {tok.text!r} in embed block", tok.line, tok.col)
            self.expect(";")

        images = self.parse_images("embed", name_tok, sub_names, varset, env, sub_clause)
        emb = SubstitutionMap.from_dict(sub_varset, images)
        if sub_bracket is not None:
            return emb, (sub_bracket, tuple(sub_relations))
        if first_relation is not None:
            raise ParseError(f"relation in embed {name_tok.text} needs a bracket clause",
                             first_relation.line, first_relation.col)
        return emb, None


def parse_presentation(text: str) -> PresentationFile:
    return _Parser(text).parse_file()


# -- serialization ----------------------------------------------------------------


def lincomb_text(labels, row) -> str:
    """Render a sparse {index: coeff} combination over labels as `2*x - 3*y`."""
    return signed_sum([term_text(report_coeff(row[k]), labels[k]) for k in sorted(row)])


def poly_text(p: LaurentPoly) -> str:
    """Expression text that parses back to the same polynomial."""
    return p.text(
        lambda c, alone: _scalar_text(c),
        lambda name, e: f"{name}^({e})" if e < 0 else f"{name}^{e}",
    )


def _scalar_text(s: Scalar) -> str:
    """`format_scalar`'s text; an irrational other than a positive multiple of
    the root goes in parentheses, with a spaced sign before the root."""
    text = format_scalar(s)
    if s.is_rational or (s.a == 0 and s.b > 0):
        return text
    if s.a != 0:
        a = format_scalar(Scalar(s.a))
        text = f"{a} {text[len(a)]} {text[len(a) + 1:]}"
    return f"({text})"


def _bracket_clause(spec, embed=False) -> str:
    """The bracket clause of `spec`: in a file it binds f and a and writes a
    table one row per line, in an embed it binds F and A on one line.  A name
    that is a variable gets `_` added until it is not."""
    f, a = ("F", "A") if embed else ("f", "a")
    while f in spec.varset.names:
        f += "_"
    while a in spec.varset.names:
        a += "_"
    if isinstance(spec, Exact):
        return f"bracket exact {f} = {poly_text(spec.potential)};"
    if isinstance(spec, Scaled):
        return (
            f"bracket scaled {a} = {poly_text(spec.multiplier)}; "
            f"{f} = {poly_text(spec.potential)};"
        )
    names = spec.varset.names
    rows = [
        f"[{names[i]},{names[j]}] = {poly_text(poly)};"
        for i, j, poly in spec.entries
        if not poly.is_zero
    ]
    if embed:
        return " ".join(["bracket table {", *rows, "};"])
    return "\n  ".join(["bracket table {", *rows]) + "\n};"


def serialize_presentation(pf: PresentationFile) -> str:
    """Render a PresentationFile back to clause text (round-trips by parse)."""
    lines = []
    lines.append(f"vars {', '.join(pf.varset.names)}{pf.varset.laurent_suffix()};")
    lines.append(_bracket_clause(pf.presentation.bracket_spec))
    for r in pf.presentation.relations:
        lines.append(f"relation {poly_text(r)};")
    for pt in pf.points:
        coords = ", ".join(_scalar_text(v) for v in pt.values)
        lines.append(f"point ({coords});")
    for name, auto in pf.autos.items():
        body = " ".join(
            f"{v} -> {poly_text(img)};" for v, img in zip(auto.source.names, auto.images)
        )
        lines.append(f"auto {name} {{ {body} }};")
    for name, (emb, sub) in pf.embeds.items():
        head = f"embed {name}({', '.join(emb.source.names)}){emb.source.laurent_suffix()}"
        body = []
        if sub is not None:
            body.append(_bracket_clause(sub.bracket_spec, embed=True))
            for r in sub.relations:
                body.append(f"relation {poly_text(r)};")
        for v, img in zip(emb.source.names, emb.images):
            body.append(f"{v} -> {poly_text(img)};")
        lines.append(head + " { " + " ".join(body) + " };")
    if pf.grading is not None:
        lines.append(f"grading {poly_text(pf.grading)};")
    return "\n".join(lines) + "\n"
