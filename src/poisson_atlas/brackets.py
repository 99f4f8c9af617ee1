"""Poisson brackets on a presentation: evaluation, Jacobi and Poisson maps.

A bracket is specified on the generators and extended to arbitrary elements as
a biderivation:

    {p, q} = sum_{i<j} (dp/dx_i dq/dx_j - dp/dx_j dq/dx_i) * {x_i, x_j}.

It is evaluated one pair of terms at a time: c*x^a in p and d*x^b in q add
c*d*(a_i b_j - a_j b_i) * x^(a+b-e_i-e_j) * {x_i, x_j} for each i < j.

On three variables an exact bracket is also the Jacobian determinant
det d(f, p, q)/d(x, y, z), a second route that the test suite checks this one
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from operator import add
from types import MappingProxyType

from .errors import LieStructureError, VarSetMismatchError
from .poly import LaurentPoly, PointP, VarSet, divides
from .scalars import muladd


class BracketSpec:
    """Base class; a concrete spec has a variable set `varset` and computes one
    generator bracket in `_pair`.

    `pairs`, `nonzero` and `shifted` are tables of the spec's own generator
    brackets, each built on first use and kept on the spec.
    """

    @cached_property
    def pairs(self):
        """All generator brackets {x_i, x_j} for i < j, as a read-only mapping."""
        n = len(self.varset)
        return MappingProxyType(
            {(i, j): self._pair(i, j) for i in range(n) for j in range(i + 1, n)})

    @cached_property
    def nonzero(self) -> tuple:
        """The generator brackets that are not identically 0, as ((i, j), {x_i, x_j})
        in pair order."""
        return tuple((ij, poly) for ij, poly in self.pairs.items() if not poly.is_zero)

    @cached_property
    def shifted(self) -> tuple:
        """The nonzero generator brackets as (i, j, ((t - e_i - e_j, c), ...)), one
        entry per term c*x^t of {x_i, x_j}."""
        return tuple(
            (i, j, tuple((tuple(e - (k in (i, j)) for k, e in enumerate(t)), c)
                         for t, c in poly.terms.items()))
            for (i, j), poly in self.nonzero)

    def _pair(self, i: int, j: int) -> LaurentPoly:
        raise NotImplementedError


@dataclass(frozen=True)
class _PotentialSpec(BracketSpec):
    """A bracket from a potential f on three variables: {x,y} = df/dz,
    {y,z} = df/dx, {z,x} = df/dy."""

    @property
    def varset(self) -> VarSet:
        return self.potential.varset

    def _pair(self, i, j):
        partial = self.potential.partial(self.varset.names[3 - i - j])  # the third variable
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

    def _pair(self, i, j):
        return self.multiplier * super()._pair(i, j)


@dataclass(frozen=True)
class Table(BracketSpec):
    """Explicit antisymmetric table, stored on pairs i < j only; with linear
    entries it is the Kirillov-Kostant bracket of a Lie algebra."""

    varset: VarSet
    entries: tuple  # ((i, j, LaurentPoly), ...) with i < j

    @staticmethod
    def from_dict(varset: VarSet, mapping) -> "Table":
        """Each pair once, in either order; ValueError on a diagonal or repeated pair."""
        entries = {}
        for (a, b), poly in mapping.items():
            i, j = varset.index(a), varset.index(b)
            if i == j:
                raise ValueError(f"diagonal bracket {{{a},{b}}}")
            if i > j:
                i, j, poly = j, i, -poly
            if (i, j) in entries:
                raise ValueError(f"bracket {{{a},{b}}} given twice")
            entries[i, j] = poly
        return Table(varset, tuple((i, j, poly) for (i, j), poly in sorted(entries.items())))

    def _pair(self, i, j):
        for a, b, poly in self.entries:
            if (a, b) == (i, j):
                return poly
        return LaurentPoly.zero(self.varset)


@dataclass(frozen=True)
class PoissonPresentation:
    """A bracket spec and optional relations (e.g. f - lambda) over the spec's
    variable set; two presentations are equal when both are.

    Relations are carried for membership filters and map verification; no
    normal-form rewriting happens in the ambient ring.  What is decided once
    per point or per g(J) is kept here, outside `==`, `hash` and `repr`, and
    filled on first use: g(J) by point value in `_lies`
    (`lie.lie_from_point`), the axiom obligations by (point, trials, seed) in
    `_obligations` (`modules._point_obligations`), and one recognition per
    g(J) in `_recognitions` (`classify.recognize_points`).
    """

    bracket_spec: BracketSpec
    relations: tuple = ()
    _lies: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _obligations: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _recognitions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def varset(self) -> VarSet:
        return self.bracket_spec.varset

    def __post_init__(self):
        """Refuse a potential off three variables, a relation over other
        variables and a table that fails Jacobi.

        An exact or scaled bracket needs no check.  On three variables the
        bracket a*{-,-}_f is dual to the 1-form w = a*df, and its Jacobi
        identity is w ^ dw = 0; here w ^ dw = a*df ^ (da ^ df) = 0 for every a
        and f, Laurent ones included, as df appears twice.
        """
        potential = isinstance(self.bracket_spec, (Exact, Scaled))
        if potential and len(self.varset) != 3:
            raise ValueError("exact/scaled brackets need exactly 3 variables")
        for r in self.relations:
            if r.varset != self.varset:
                raise VarSetMismatchError("relation over a different variable set")
        if potential:
            return
        report = verify_jacobi(self.bracket_spec)
        if not report.ok:
            raise LieStructureError(
                f"bracket fails Jacobi at {report.witness}: {report.jacobiator}"
            )

    def gen(self, name: str) -> LaurentPoly:
        return LaurentPoly.variable(self.varset, name)


def bracket(spec: BracketSpec, p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """{p, q} by biderivation extension of the generator table, in one pass over
    the term pairs: c*x^a in p and d*x^b in q add c*d*(a_i b_j - a_j b_i) *
    x^(a+b-e_i-e_j) * {x_i, x_j} for each i < j.  No derivative or product is built."""
    if not p.varset == q.varset == spec.varset:
        raise VarSetMismatchError("bracket operands over a variable set other than the spec's")
    shifted, out, pairs = spec.shifted, {}, q.terms.items()
    for a, c in p.terms.items():
        for b, d in pairs:
            cd, ab = c * d, tuple(map(add, a, b))
            for i, j, entry in shifted:
                w = a[i] * b[j] - a[j] * b[i]
                if w:
                    k = cd * w
                    for s, e in entry:
                        exps = tuple(map(add, ab, s))
                        acc = out.get(exps)
                        out[exps] = k * e if acc is None else muladd(acc, k, e)
    return LaurentPoly._raw(p.varset, {m: v for m, v in out.items() if not v.is_zero})


@dataclass
class JacobiReport:
    ok: bool
    witness: tuple | None = None
    jacobiator: LaurentPoly | None = None


def verify_jacobi(spec: BracketSpec) -> JacobiReport:
    """Check the Jacobiator on generator triples.

    The Jacobiator of a biderivation-extended bracket is a triderivation, so
    vanishing on generator triples implies the full Jacobi identity.  The
    inner brackets are read from the spec's table, {x_k, x_i} as -{x_i, x_k}.
    """
    varset, pair = spec.varset, spec.pairs
    gens = [LaurentPoly.variable(varset, name) for name in varset.names]
    for i, j, k in combinations(range(len(varset)), 3):
        jac = (
            bracket(spec, pair[i, j], gens[k])
            + bracket(spec, pair[j, k], gens[i])
            - bracket(spec, pair[i, k], gens[j])
        )
        if not jac.is_zero:
            names = varset.names
            return JacobiReport(False, (names[i], names[j], names[k]), jac)
    return JacobiReport(True)


@dataclass(frozen=True)
class SubstitutionMap:
    """Per-variable image polynomials from a source varset into a target ring.

    `verify_poisson_map` keeps its report per (source, target) presentation
    pair in `_reports`, outside `==`, `hash` and `repr`, so a map is checked
    once however many modules are pulled back along it.
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
        return PointP(self.source, tuple(img.evaluate(pt) for img in self.images))

    def compose(self, inner: "SubstitutionMap") -> "SubstitutionMap":
        """self o inner (apply inner first)."""
        return SubstitutionMap(inner.source, tuple(self.apply(img) for img in inner.images))


@dataclass
class CheckReport:
    """The verdict of a check and its failures, the first failure first."""

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
) -> CheckReport:
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
        for (i, j), poly in source.bracket_spec.pairs.items():
            lhs = m.apply(poly)
            rhs = bracket(target.bracket_spec, m.images[i], m.images[j])
            if not _zero_modulo(lhs - rhs, target.relations):
                failures.append(
                    ("pair", source.varset.names[i], source.varset.names[j], lhs - rhs)
                )
        for r in source.relations:
            image = m.apply(r)
            if not _zero_modulo(image, target.relations):
                failures.append(("relation", r, image))
        m._reports[key] = CheckReport(not failures, failures)
    return m._reports[key]

