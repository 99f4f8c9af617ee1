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
The parser reads the token texts from one `findall` of one pattern and keeps
token indices: a token's line and column are computed only for an error.
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
from dataclasses import dataclass, field
from itertools import islice
from math import comb

from .brackets import (
    Exact,
    PoissonPresentation,
    Scaled,
    SubstitutionMap,
    Table,
)
from .errors import LaurentViolationError, ParseError, ScalarDomainError, VarSetMismatchError
from .poly import LaurentPoly, PointP, VarSet, report_coeff, signed_sum, term_text
from .scalars import Scalar, _mixed, format_scalar, scalar_sqrt


# The expression reader spends four frames per parenthesis, so a bound far
# inside the interpreter's recursion limit turns deep nesting into a ParseError.
MAX_NESTING = 100

# A power of a t-term base has at most C(e + t - 1, t - 1) terms, and its time
# grows with them: a power whose bound passes this one is not expanded.
MAX_POWER_TERMS = 1000

# One token text per match, after blanks, newlines and comments: an integer of
# ASCII digits (int() reads others too), a word, `->`, any other character or
# "" at the end.  The skip always reaches a token or the end, so no match
# starts inside a comment, and after the first "" every text is "".
_TOKEN = re.compile(r"[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*([0-9]+|\w+|->|.|\Z)")


def _is_name(text: str) -> bool:
    return text[:1].isalpha() or text[:1] == "_"


def _location(text: str, at: int):
    """The line and column of offset `at` in `text`.  A comment does not
    advance the column, so the end of a text that ends in one is at its `#`."""
    start = text.rfind("\n", 0, at) + 1
    comment = text.find("#", start, at)
    return text.count("\n", 0, at) + 1, (at if comment < 0 else comment) - start + 1


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
    """A reader over the token texts of `text`, the first "" its end.  An error
    names a token by its index, and only then is its line and column found."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.pos = 0
        self.depth = 0  # parentheses open in the expression being read
        self.fields = {}  # each quadratic field's d -> the first `sqrt` token that brings it in
        # `.` reads a character that starts no token, `\w+` a word such as `²x`
        bad = [t for t in set(self.tokens)
               if not (_is_name(t) or t[:1] in "0123456789(){}[],;=+-*/^")]
        if bad:
            i = min(map(self.tokens.index, bad))
            raise self.error(f"unexpected character {self.tokens[i][0]!r}", i)

    def error(self, message: str, index: int) -> ParseError:
        """A ParseError at token `index`, located by scanning the text up to it."""
        m = next(islice(_TOKEN.finditer(self.text), index, None))
        return ParseError(message, *_location(self.text, m.start(1)))

    # -- token helpers ---------------------------------------------------------

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, text: str) -> int:
        """The index of the next token, which must be `text`."""
        tok = self.next()
        if tok != text:
            raise self.error(f"expected {text!r}, found {tok!r}", self.pos - 1)
        return self.pos - 1

    def expect_name(self, names=None) -> str:
        """The next token, a name, and one of `names` when they are given."""
        tok = self.next()
        if not _is_name(tok):
            raise self.error(f"expected a name, found {tok!r}", self.pos - 1)
        if names is not None and tok not in names:
            raise self.error(f"unknown variable {tok!r}", self.pos - 1)
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos] == text

    # -- expressions -----------------------------------------------------------

    def parse_expr(self, varset: VarSet, env: dict) -> LaurentPoly:
        """A sum of terms.  The scalars an operator combines must lie in one
        quadratic field; where they do not, the error names the operator."""
        out = self._term(varset, env)
        while self.peek() in ("+", "-"):
            at, op = self.pos, self.next()
            rhs = self._term(varset, env)
            try:
                out = out + rhs if op == "+" else out - rhs
            except ScalarDomainError as exc:
                raise self.error(str(exc), at) from None
        return out

    def _term(self, varset, env):
        out = self._factor(varset, env)
        while self.peek() in ("*", "/"):
            at, op = self.pos, self.next()
            rhs = self._factor(varset, env)
            if op == "/" and rhs.is_zero:
                raise self.error("division by zero", at)
            try:
                out = out * (rhs if op == "*" else rhs._unit_inverse())
            except LaurentViolationError:
                raise self.error("division only by scalars or unit monomials", self.pos) from None
            except ScalarDomainError as exc:
                raise self.error(str(exc), at) from None
        return out

    def _factor(self, varset, env):
        sign = 1
        while self.at("-"):
            self.next()
            sign = -sign
        out = self._atom(varset, env)
        if self.at("^"):
            caret, e, t = self.expect("^"), self._exponent(), len(out.terms)
            # for t > 1 the bound is at least e + 1, so a huge e is refused uncomputed
            if t > 1 and e > 1 and (e >= MAX_POWER_TERMS or comb(e + t - 1, e) > MAX_POWER_TERMS):
                raise self.error(f"power may expand past {MAX_POWER_TERMS} terms", caret)
            try:
                out = out**e
            except LaurentViolationError as exc:
                raise self.error(str(exc), self.pos) from None
        return out if sign == 1 else -out

    def _signed_int(self, message) -> int:
        """An integer with an optional `-`; ParseError(message) at the token
        where the integer should be."""
        tok = self.next()
        sign = 1
        if tok == "-":
            sign, tok = -1, self.next()
        if not tok.isdigit():
            raise self.error(message, self.pos - 1)
        return sign * int(tok)

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
        if tok.isdigit():
            return LaurentPoly.const(varset, int(tok))
        if tok == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nested deeper than {MAX_NESTING}", self.pos - 1)
            self.depth += 1
            out = self.parse_expr(varset, env)
            self.depth -= 1
            self.expect(")")
            return out
        if _is_name(tok):
            if tok == "sqrt":
                at = self.pos - 1
                self.expect("(")
                root = scalar_sqrt(self._signed_int("expected sqrt of an integer"))
                self.expect(")")
                if root.d:
                    self.fields.setdefault(root.d, at)
                return LaurentPoly.const(varset, root)
            if tok in env:
                return env[tok]
            if tok in varset.names:
                return LaurentPoly.variable(varset, tok)
            raise self.error(f"unknown variable {tok!r}", self.pos - 1)
        raise self.error(f"unexpected token {tok!r}", self.pos - 1)

    def scalar_expr(self, varset, env) -> Scalar:
        start = self.pos
        poly = self.parse_expr(varset, env)
        try:
            return poly.constant_value()
        except ValueError:
            raise self.error("expected a scalar value", start) from None

    # -- clauses -----------------------------------------------------------------

    def comma_list(self, read) -> list:
        """`read()`, and again after each `,`."""
        items = [read()]
        while self.at(","):
            self.next()
            items.append(read())
        return items

    def name_list(self):
        return self.comma_list(self.expect_name)

    def parse_varset(self, names, where) -> VarSet:
        """`names` with the optional `laurent(...)` list that follows them; a
        repeated or unknown name is reported at token `where`."""
        laurent = []
        if self.at("laurent"):
            self.next()
            self.expect("(")
            laurent = self.name_list()
            self.expect(")")
        try:
            return VarSet(tuple(names), tuple(laurent))
        except ValueError as exc:
            raise self.error(str(exc), where) from None

    def _bind(self, varset, env) -> LaurentPoly:
        """`name = expr`: the expression, bound in `env` to a new name, not a variable."""
        name = self.expect_name()
        if name in varset.names or name in env:
            raise self.error(f"{name!r} is a variable or bound already", self.pos - 1)
        self.expect("=")
        env[name] = self.parse_expr(varset, env)
        return env[name]

    def parse_bracket(self, varset, env):
        kind = self.expect_name()
        if kind in ("exact", "scaled") and len(varset) != 3:
            raise self.error(f"{kind} brackets need exactly 3 variables", self.pos - 1)
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
                where = self.expect("[")
                a = self.expect_name(varset.names)
                self.expect(",")
                b = self.expect_name(varset.names)
                self.expect("]")
                if a == b:
                    raise self.error(f"diagonal bracket [{a},{b}]", where)
                if (a, b) in mapping or (b, a) in mapping:
                    raise self.error(f"bracket [{a},{b}] given twice", where)
                self.expect("=")
                mapping[(a, b)] = self.parse_expr(varset, env)
                self.expect(";")
            self.expect("}")
            return Table.from_dict(varset, mapping)
        raise self.error(f"unknown bracket kind {kind!r}", self.pos)

    def scalar_list(self, varset, env) -> list:
        return self.comma_list(lambda: self.scalar_expr(varset, env))

    def parse_point(self, varset, env) -> PointP:
        self.expect("(")
        values = self.scalar_list(varset, env)
        where = self.expect(")")
        try:
            return PointP(varset, values)
        except (LaurentViolationError, VarSetMismatchError) as exc:
            raise self.error(str(exc), where) from None

    def parse_file(self) -> PresentationFile:
        if self.next() != "vars":
            raise self.error("file must start with a vars clause", 0)
        varset = self.parse_varset(self.name_list(), 0)
        self.expect(";")
        env: dict = {}
        spec = None
        relations, points = [], []
        autos, embeds = {}, {}
        grading = None
        while not self.at(""):
            where = self.pos
            word = self.expect_name()
            if word == "bracket":
                if spec is not None:
                    raise self.error("bracket clause given twice", where)
                spec = self.parse_bracket(varset, env)
            elif word == "relation":
                relations.append(self.parse_expr(varset, env))
            elif word == "point":
                points.append(self.parse_point(varset, env))
            elif word in ("auto", "embed"):
                named = autos if word == "auto" else embeds
                name_at = self.pos
                name = self.expect_name()
                if name in named:
                    raise self.error(f"{word} {name} given twice", name_at)
                if word == "auto":
                    images = self.parse_images("auto", name_at, varset.names, varset, env)
                    named[name] = SubstitutionMap.from_dict(varset, images)
                else:
                    named[name] = self.parse_embed(name_at, varset, env)
            elif word == "grading":
                grading = self.parse_expr(varset, env)
            else:
                raise self.error(f"unknown clause {word!r}", where)
            self.expect(";")
        if spec is None:
            raise self.error("missing bracket clause", self.pos)
        pres = PoissonPresentation(spec, tuple(relations))
        embeds = {name: (emb, None if sub is None else PoissonPresentation(*sub))
                  for name, (emb, sub) in embeds.items()}
        if len(self.fields) > 1:  # one quadratic field per file
            (d1, _), (d2, at) = islice(self.fields.items(), 2)
            raise self.error(str(_mixed(d1, d2)), at)
        return PresentationFile(pres, env, points, autos, embeds, grading)

    def parse_images(self, kind, name_at, names, varset, env, other=None) -> dict:
        """The `{ name -> expr; ... }` block of the `kind` clause whose name is
        token `name_at`: one image over `varset` per name in `names`.  Another
        word goes to `other(index)` when given.  An unknown or repeated name
        is a ParseError at that name, a missing one at `name_at`."""
        self.expect("{")
        images = {}
        while not self.at("}"):
            tok = self.expect_name(None if other else names)
            if tok not in names:
                other(self.pos - 1)
                continue
            if tok in images:
                raise self.error(f"image of {tok!r} given twice", self.pos - 1)
            self.expect("->")
            images[tok] = self.parse_expr(varset, env)
            self.expect(";")
        self.expect("}")
        missing = [n for n in names if n not in images]
        if missing:
            raise self.error(f"{kind} {self.tokens[name_at]} misses images for {missing}", name_at)
        return images

    def parse_embed(self, name_at, varset, env) -> tuple:
        """An embed block's SubstitutionMap and (bracket spec, relations), or None."""
        self.expect("(")
        sub_names = self.name_list()
        self.expect(")")
        sub_varset = self.parse_varset(sub_names, name_at)
        sub_bracket, sub_relations, sub_env = None, [], {}
        first_relation = None

        def sub_clause(where):
            nonlocal sub_bracket, first_relation
            word = self.tokens[where]
            if word == "bracket":
                if sub_bracket is not None:
                    raise self.error("bracket clause given twice", where)
                sub_bracket = self.parse_bracket(sub_varset, sub_env)
            elif word == "relation":
                first_relation = where if first_relation is None else first_relation
                sub_relations.append(self.parse_expr(sub_varset, sub_env))
            else:
                raise self.error(f"unknown name {word!r} in embed block", where)
            self.expect(";")

        images = self.parse_images("embed", name_at, sub_names, varset, env, sub_clause)
        emb = SubstitutionMap.from_dict(sub_varset, images)
        if sub_bracket is not None:
            return emb, (sub_bracket, tuple(sub_relations))
        if first_relation is not None:
            raise self.error(f"relation in embed {self.tokens[name_at]} needs a bracket clause",
                             first_relation)
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
