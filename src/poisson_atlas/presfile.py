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

Comments run from `#` to end of line.  Scalars may be integers, rationals
`p/q`, or `sqrt(d)` combinations.  Names bound in a bracket clause (f, a)
are usable in later expressions.  An embed block may optionally carry its
own `bracket` and `relation` clauses describing the sub-presentation.
Serialization is the file dialect of poly's writer (`LaurentPoly.text`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .brackets import (
    Exact,
    PoissonPresentation,
    Scaled,
    SubstitutionMap,
    Table,
)
from .errors import LaurentViolationError, ParseError
from .poly import LaurentPoly, PointP, VarSet, report_coeff, signed_sum, term_text
from .scalars import Scalar, format_scalar


@dataclass
class _Token:
    kind: str  # "name" | "int" | "sym" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if text.startswith("->", i):
            tokens.append(_Token("sym", "->", line, col))
            i += 2
            col += 2
            continue
        if c in "(){}[],;=+-*/^":
            tokens.append(_Token("sym", c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


@dataclass
class EmbedClause:
    """An embedding of a named sub-presentation, generator by generator."""

    name: str
    sub_varset: VarSet
    images: dict  # sub variable name -> LaurentPoly over the ambient varset
    sub_bracket: object = None  # optional BracketSpec over the sub varset
    sub_relations: tuple = ()

    def substitution(self) -> SubstitutionMap:
        return SubstitutionMap.from_dict(self.sub_varset, self.images)

    def sub_presentation(self, name="") -> PoissonPresentation:
        if self.sub_bracket is None:
            raise ParseError(f"embed {self.name} carries no sub-presentation bracket")
        return PoissonPresentation(
            self.sub_varset, self.sub_bracket, self.sub_relations, name or self.name
        )


@dataclass
class PresentationFile:
    """Parsed form of one presentation file."""

    varset: VarSet
    bracket_spec: object
    bound: dict  # names bound in the bracket clause, e.g. f and a
    relations: list = field(default_factory=list)
    points: list = field(default_factory=list)
    autos: dict = field(default_factory=dict)
    embeds: dict = field(default_factory=dict)
    grading: LaurentPoly | None = None

    def presentation(self, name="") -> PoissonPresentation:
        """Semantic validation (Jacobi) happens in the constructor."""
        return PoissonPresentation(
            self.varset, self.bracket_spec, tuple(self.relations), name
        )


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

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

    def expect_name(self) -> _Token:
        tok = self.next()
        if tok.kind != "name":
            raise ParseError(f"expected a name, found {tok.text!r}", tok.line, tok.col)
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
            self.next()
            e = self._exponent()
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
            out = self.parse_expr(varset, env)
            self.expect(")")
            return out
        if tok.kind == "name":
            if tok.text == "sqrt":
                self.expect("(")
                d = self._signed_int("expected sqrt of an integer")
                self.expect(")")
                if d in (0, 1):
                    return LaurentPoly.const(varset, Scalar(1) if d else Scalar(0))
                return LaurentPoly.const(varset, Scalar(0, 1, d))
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

    def name_list(self):
        names = [self.expect_name().text]
        while self.at(","):
            self.next()
            names.append(self.expect_name().text)
        return names

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

    def parse_bracket(self, varset, env):
        tok = self.peek()
        kind = self.expect_name().text
        if kind in ("exact", "scaled") and len(varset) != 3:
            raise ParseError(
                f"{kind} brackets need exactly 3 variables", tok.line, tok.col
            )
        if kind == "exact":
            name = self.expect_name().text
            self.expect("=")
            poly = self.parse_expr(varset, env)
            env[name] = poly
            return Exact(poly)
        if kind == "scaled":
            name_a = self.expect_name().text
            self.expect("=")
            mult = self.parse_expr(varset, env)
            env[name_a] = mult
            self.expect(";")
            name_f = self.expect_name().text
            self.expect("=")
            poly = self.parse_expr(varset, env)
            env[name_f] = poly
            return Scaled(mult, poly)
        if kind == "table":
            self.expect("{")
            mapping = {}
            while not self.at("}"):
                tok = self.expect("[")
                a = self.expect_name().text
                self.expect(",")
                b = self.expect_name().text
                self.expect("]")
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

    def parse_point(self, varset, env) -> PointP:
        self.expect("(")
        values = [self.scalar_expr(varset, env)]
        while self.at(","):
            self.next()
            values.append(self.scalar_expr(varset, env))
        tok = self.expect(")")
        try:
            return PointP(varset, values)
        except LaurentViolationError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None

    def parse_file(self) -> PresentationFile:
        tok = self.peek()
        if tok.text != "vars":
            raise ParseError("file must start with a vars clause", tok.line, tok.col)
        self.next()
        varset = self.parse_varset(self.name_list(), tok)
        self.expect(";")
        env: dict = {}
        spec = None
        relations, points = [], []
        autos, embeds = {}, {}
        grading = None
        while not self.at(""):
            tok = self.peek()
            if tok.kind == "eof":
                break
            word = self.expect_name().text
            if word == "bracket":
                spec = self.parse_bracket(varset, env)
                self.expect(";")
            elif word == "relation":
                relations.append(self.parse_expr(varset, env))
                self.expect(";")
            elif word == "point":
                points.append(self.parse_point(varset, env))
                self.expect(";")
            elif word == "auto":
                name_tok = self.expect_name()
                images = self.parse_images("auto", name_tok, varset.names, varset, env)
                self.expect(";")
                autos[name_tok.text] = SubstitutionMap.from_dict(varset, images)
            elif word == "embed":
                embed = self.parse_embed(varset, env)
                embeds[embed.name] = embed
                self.expect(";")
            elif word == "grading":
                grading = self.parse_expr(varset, env)
                self.expect(";")
            else:
                raise ParseError(f"unknown clause {word!r}", tok.line, tok.col)
        if spec is None:
            tok = self.peek()
            raise ParseError("missing bracket clause", tok.line, tok.col)
        return PresentationFile(
            varset, spec, env, relations, points, autos, embeds, grading
        )

    def parse_images(self, kind, name_tok, names, varset, env, other=None) -> dict:
        """The `{ name -> expr; ... }` block of the `kind` clause named at
        `name_tok`: one image over `varset` per name in `names`.  Another word
        goes to `other(tok)` when given.  An unknown or repeated name is a
        ParseError at that name, a missing one at `name_tok`."""
        self.expect("{")
        images = {}
        while not self.at("}"):
            tok = self.expect_name()
            if tok.text not in names:
                if other is None:
                    raise ParseError(f"unknown variable {tok.text!r}", tok.line, tok.col)
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

    def parse_embed(self, varset, env) -> EmbedClause:
        name_tok = self.expect_name()
        self.expect("(")
        sub_names = self.name_list()
        self.expect(")")
        sub_varset = self.parse_varset(sub_names, name_tok)
        sub_bracket, sub_relations, sub_env = None, [], {}

        def sub_clause(tok):
            nonlocal sub_bracket
            if tok.text == "bracket":
                sub_bracket = self.parse_bracket(sub_varset, sub_env)
            elif tok.text == "relation":
                sub_relations.append(self.parse_expr(sub_varset, sub_env))
            else:
                raise ParseError(f"unknown name {tok.text!r} in embed block", tok.line, tok.col)
            self.expect(";")

        images = self.parse_images("embed", name_tok, sub_names, varset, env, sub_clause)
        return EmbedClause(name_tok.text, sub_varset, images, sub_bracket, tuple(sub_relations))


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


def _bracket_clause(spec, varset, embed=False) -> str:
    """The bracket clause of `spec`: in a file it binds f and a and writes a
    table one row per line, in an embed it binds F and A on one line.  A spec
    other than exact, scaled or table is written as the table of its
    generator brackets."""
    f, a = ("F", "A") if embed else ("f", "a")
    if isinstance(spec, Exact):
        return f"bracket exact {f} = {poly_text(spec.potential)};"
    if isinstance(spec, Scaled):
        return (
            f"bracket scaled {a} = {poly_text(spec.multiplier)}; "
            f"{f} = {poly_text(spec.potential)};"
        )
    n, names = len(varset), varset.names
    entries = spec.entries if isinstance(spec, Table) else [
        (i, j, spec.pair(varset, i, j)) for i in range(n) for j in range(i + 1, n)
    ]
    rows = [
        f"[{names[i]},{names[j]}] = {poly_text(poly)};"
        for i, j, poly in entries
        if not poly.is_zero
    ]
    if embed:
        return " ".join(["bracket table {", *rows, "};"])
    return "\n  ".join(["bracket table {", *rows]) + "\n};"


def serialize_presentation(pf: PresentationFile) -> str:
    """Render a PresentationFile back to clause text (round-trips by parse)."""
    lines = []
    lines.append(f"vars {', '.join(pf.varset.names)}{pf.varset.laurent_suffix()};")
    lines.append(_bracket_clause(pf.bracket_spec, pf.varset))
    for r in pf.relations:
        lines.append(f"relation {poly_text(r)};")
    for pt in pf.points:
        coords = ", ".join(_scalar_text(v) for v in pt.values)
        lines.append(f"point ({coords});")
    for name, auto in pf.autos.items():
        body = " ".join(
            f"{v} -> {poly_text(img)};" for v, img in zip(auto.source.names, auto.images)
        )
        lines.append(f"auto {name} {{ {body} }};")
    for name, embed in pf.embeds.items():
        sub = embed.sub_varset
        head = f"embed {name}({', '.join(sub.names)}){sub.laurent_suffix()}"
        body = []
        if embed.sub_bracket is not None:
            body.append(_bracket_clause(embed.sub_bracket, embed.sub_varset, embed=True))
        for r in embed.sub_relations:
            body.append(f"relation {poly_text(r)};")
        for v in embed.sub_varset.names:
            body.append(f"{v} -> {poly_text(embed.images[v])};")
        lines.append(head + " { " + " ".join(body) + " };")
    if pf.grading is not None:
        lines.append(f"grading {poly_text(pf.grading)};")
    return "\n".join(lines) + "\n"
