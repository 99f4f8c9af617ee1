"""Poisson brackets on a presentation: evaluation, Jacobi, maps, centrality.

A bracket is specified on the generators and extended to arbitrary elements as
a biderivation:

    {p, q} = sum_{i<j} (dp/dx_i dq/dx_j - dp/dx_j dq/dx_i) * {x_i, x_j}.

It is evaluated one pair of terms at a time: c*x^a in p and d*x^b in q add
c*d*(a_i b_j - a_j b_i) * x^(a+b-e_i-e_j) * {x_i, x_j} for each i < j.

Exact brackets on three variables admit a second, independent evaluation route
through the Jacobian determinant of (f, p, q); both are exposed and the test
suite cross-validates them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import LieStructureError, VarSetMismatchError
from .poly import LaurentPoly, PointP, VarSet, divides
from .scalars import Scalar


@dataclass(frozen=True)
class BracketSpec:
    """Base class; a concrete spec computes one generator bracket in `_pair`.

    `pairs` computes every generator bracket on first use and keeps the table
    per variable set in `_pairs`, a field outside `==`, `hash` and `repr`.
    """

    _pairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def pairs(self, varset: VarSet):
        """All generator brackets {x_i, x_j} for i < j, as a read-only mapping."""
        table = self._pairs.get(varset)
        if table is None:
            n = len(varset)
            table = self._pairs[varset] = MappingProxyType({
                (i, j): self._pair(varset, i, j) for i in range(n) for j in range(i + 1, n)
            })
        return table

    def shifted(self, varset: VarSet) -> tuple:
        """The nonzero generator brackets as (i, j, ((t - e_i - e_j, c), ...)), one
        entry per term c*x^t of {x_i, x_j}; kept in `_pairs` beside `pairs`."""
        key = (varset, "shifted")
        if key not in self._pairs:
            self._pairs[key] = tuple(
                (i, j, tuple((tuple(e - (k in (i, j)) for k, e in enumerate(t)), c)
                             for t, c in poly.terms.items()))
                for (i, j), poly in self.pairs(varset).items() if not poly.is_zero)
        return self._pairs[key]

    def pair(self, varset: VarSet, i: int, j: int) -> LaurentPoly:
        """{x_i, x_j} for i < j, read from the table."""
        return self.pairs(varset)[(i, j)]

    def _pair(self, varset: VarSet, i: int, j: int) -> LaurentPoly:
        raise NotImplementedError


@dataclass(frozen=True)
class _PotentialSpec(BracketSpec):
    """A bracket from a potential f on three variables: {x,y} = df/dz,
    {y,z} = df/dx, {z,x} = df/dy."""

    def _pair(self, varset, i, j):
        partial = self.potential.partial(varset.names[3 - i - j])  # the third variable
        return -partial if (i, j) == (0, 2) else partial


@dataclass(frozen=True)
class Exact(_PotentialSpec):
    """{x,y} = df/dz, {y,z} = df/dx, {z,x} = df/dy; f is Poisson-central."""

    potential: LaurentPoly


@dataclass(frozen=True)
class Scaled(_PotentialSpec):
    """a * {-, -}_f; still a Poisson bracket on three variables."""

    multiplier: LaurentPoly
    potential: LaurentPoly

    def _pair(self, varset, i, j):
        return self.multiplier * super()._pair(varset, i, j)


@dataclass(frozen=True)
class Table(BracketSpec):
    """Explicit antisymmetric table; stored on pairs i < j only."""

    entries: tuple  # ((i, j, LaurentPoly), ...) with i < j

    @staticmethod
    def from_dict(varset: VarSet, mapping) -> "Table":
        entries = []
        for (a, b), poly in mapping.items():
            i, j = varset.index(a), varset.index(b)
            if i == j:
                raise ValueError(f"diagonal bracket {{{a},{b}}}")
            if i > j:
                i, j, poly = j, i, -poly
            entries.append((i, j, poly))
        entries.sort(key=lambda t: (t[0], t[1]))
        return Table(tuple(entries))

    def _pair(self, varset, i, j):
        for a, b, poly in self.entries:
            if (a, b) == (i, j):
                return poly
        return LaurentPoly.zero(varset)


@dataclass(frozen=True)
class KirillovKostant(BracketSpec):
    """{x_i, x_j} = sum_k c^k_ij x_k from Lie structure constants."""

    constants: tuple  # constants[i][j][k] as Scalars, antisymmetric in (i, j)

    def _pair(self, varset, i, j):
        terms = {}
        for k, c in enumerate(self.constants[i][j]):
            c = Scalar.coerce(c)
            if not c.is_zero:
                exps = [0] * len(varset)
                exps[k] = 1
                terms[tuple(exps)] = c
        return LaurentPoly(varset, terms)


@dataclass(frozen=True)
class PoissonPresentation:
    """A variable set, a bracket spec, and optional relations (e.g. f - lambda).

    Relations are carried for membership filters and map verification; no
    normal-form rewriting happens in the ambient ring.
    """

    varset: VarSet
    bracket_spec: BracketSpec
    relations: tuple = ()
    name: str = ""

    def __post_init__(self):
        if isinstance(self.bracket_spec, (Exact, Scaled)) and len(self.varset) != 3:
            raise ValueError("exact/scaled brackets need exactly 3 variables")
        for r in self.relations:
            if r.varset != self.varset:
                raise VarSetMismatchError("relation over a different variable set")
        report = verify_jacobi(self.bracket_spec, self.varset)
        if not report.ok:
            raise LieStructureError(
                f"bracket fails Jacobi at {report.witness}: {report.jacobiator}"
            )

    def gen(self, name: str) -> LaurentPoly:
        return LaurentPoly.variable(self.varset, name)

    def pair_table(self):
        """All generator brackets {x_i, x_j} for i < j, as a read-only mapping:
        the bracket spec's own table, built once."""
        return self.bracket_spec.pairs(self.varset)

    def bracket(self, p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
        return bracket(self.bracket_spec, p, q)


def bracket(spec: BracketSpec, p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """{p, q} by biderivation extension of the generator table, in one pass over
    the term pairs: c*x^a in p and d*x^b in q add c*d*(a_i b_j - a_j b_i) *
    x^(a+b-e_i-e_j) * {x_i, x_j} for each i < j.  No derivative or product is built."""
    if p.varset != q.varset:
        raise VarSetMismatchError("bracket operands over different variable sets")
    shifted, coerce, out = spec.shifted(p.varset), Scalar.coerce, {}
    for a, c in p.terms.items():
        for b, d in q.terms.items():
            cd, ab = c * d, tuple(map(int.__add__, a, b))
            for i, j, entry in shifted:
                w = a[i] * b[j] - a[j] * b[i]
                if w:
                    k = cd * coerce(w)
                    for s, e in entry:
                        exps = tuple(map(int.__add__, ab, s))
                        acc = out.get(exps)
                        out[exps] = k * e if acc is None else acc + k * e
    return LaurentPoly._raw(p.varset, {m: v for m, v in out.items() if not v.is_zero})


def bracket_via_jacobian(spec, p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Independent route for Exact/Scaled: det of the Jacobian of (f, p, q)."""
    if isinstance(spec, Exact):
        f, mult = spec.potential, None
    elif isinstance(spec, Scaled):
        f, mult = spec.potential, spec.multiplier
    else:
        raise TypeError("jacobian route applies to Exact/Scaled only")
    names = p.varset.names
    rows = [[g.partial(n) for n in names] for g in (f, p, q)]
    det = (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )
    return det if mult is None else mult * det


@dataclass
class JacobiReport:
    ok: bool
    witness: tuple | None = None
    jacobiator: LaurentPoly | None = None


def verify_jacobi(spec: BracketSpec, varset: VarSet) -> JacobiReport:
    """Check the Jacobiator on generator triples.

    The Jacobiator of a biderivation-extended bracket is a triderivation, so
    vanishing on generator triples implies the full Jacobi identity.
    """
    n = len(varset)
    gens = [LaurentPoly.variable(varset, name) for name in varset.names]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                jac = (
                    bracket(spec, bracket(spec, gens[i], gens[j]), gens[k])
                    + bracket(spec, bracket(spec, gens[j], gens[k]), gens[i])
                    + bracket(spec, bracket(spec, gens[k], gens[i]), gens[j])
                )
                if not jac.is_zero:
                    names = varset.names
                    return JacobiReport(False, (names[i], names[j], names[k]), jac)
    return JacobiReport(True)


@dataclass(frozen=True)
class SubstitutionMap:
    """Per-variable image polynomials from a source varset into a target ring.

    `verify_poisson_map` keeps its report per (source, target) presentation
    pair in `_reports`, a field outside `==`, `hash` and `repr`, so a map is
    checked once however many modules are pulled back along it.
    """

    source: VarSet
    images: tuple  # LaurentPoly per source variable, all over the target varset
    _reports: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.images) != len(self.source):
            raise VarSetMismatchError("one image per source variable required")

    @staticmethod
    def from_dict(source: VarSet, mapping) -> "SubstitutionMap":
        return SubstitutionMap(source, tuple(mapping[n] for n in source.names))

    @property
    def target(self) -> VarSet:
        return self.images[0].varset

    def apply(self, p: LaurentPoly) -> LaurentPoly:
        if p.varset != self.source:
            raise VarSetMismatchError("map applied to a foreign polynomial")
        return p.substitute(dict(zip(self.source.names, self.images)))

    def pull_point(self, pt: PointP) -> PointP:
        """The point p with a(p) = self(a)(pt): ideal(p) is self^-1(ideal(pt))."""
        return PointP(self.source, [img.evaluate(pt) for img in self.images])

    def compose(self, inner: "SubstitutionMap") -> "SubstitutionMap":
        """self o inner (apply inner first)."""
        return SubstitutionMap(inner.source, tuple(self.apply(img) for img in inner.images))


@dataclass
class MapReport:
    ok: bool
    failures: list = field(default_factory=list)


def _zero_modulo(p: LaurentPoly, relations) -> bool:
    if p.is_zero:
        return True
    for r in relations:
        if not r.is_zero and divides(r, p) is not None:
            return True
    return False


def verify_poisson_map(
    m: SubstitutionMap, source: PoissonPresentation, target: PoissonPresentation
) -> MapReport:
    """m({x_i,x_j}_src) == {m(x_i), m(x_j)}_tgt, modulo a single target relation.

    Source relations must also map to zero modulo the target relations.  The
    report is computed on the first call for (source, target) and kept in
    `m._reports`; later calls return that same report.
    """
    if m.source != source.varset or m.target != target.varset:
        raise VarSetMismatchError("map endpoints do not match the presentations")
    key = (source, target)
    if key not in m._reports:
        failures = []
        n = len(source.varset)
        for i in range(n):
            for j in range(i + 1, n):
                lhs = m.apply(source.bracket_spec.pair(source.varset, i, j))
                rhs = bracket(target.bracket_spec, m.images[i], m.images[j])
                if not _zero_modulo(lhs - rhs, target.relations):
                    failures.append(
                        ("pair", source.varset.names[i], source.varset.names[j], lhs - rhs)
                    )
        for r in source.relations:
            image = m.apply(r)
            if not _zero_modulo(image, target.relations):
                failures.append(("relation", r, image))
        m._reports[key] = MapReport(not failures, failures)
    return m._reports[key]


def is_poisson_central(spec: BracketSpec, p: LaurentPoly) -> bool:
    varset = p.varset
    return all(
        bracket(spec, LaurentPoly.variable(varset, n), p).is_zero
        for n in varset.names
    )


def hamiltonian(spec: BracketSpec, a: LaurentPoly) -> dict:
    """The derivation {a, -} materialized on generators: name -> {a, x_k}."""
    varset = a.varset
    return {
        n: bracket(spec, a, LaurentPoly.variable(varset, n)) for n in varset.names
    }
