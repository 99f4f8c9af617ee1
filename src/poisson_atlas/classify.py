"""Analyze a Lie algebra from its brackets and classify its simple modules.

One rule holds for every finite-dimensional Lie algebra g in characteristic 0
(Bourbaki, Lie Groups and Lie Algebras I 5; Jacobson, Lie Algebras II-III):
rad g is the Killing-orthogonal of [g,g], [g, rad g] acts by zero on every
simple module, and so the simple g-modules are those of the Levi factor
s = g / rad g tensored with the characters of g, a family of dimension
k = dim rad g - dim [g, rad g].  Recognition records (dim s, k); dim s names s
only for 0, sl2 and sl2 + sl2, and any other s leaves the counts undetermined.
The Killing form is `LieAlgebra.killing_form`, read off the nonzero structure
constants with no ad matrix.  A 3-dimensional g is read off the rank of its
three pair rows alone, with no Killing form and no derived series.
Explicit sl2-triples come from a deterministic candidate search in s, built on
basis vectors, so results are reproducible byte for byte; each candidate's
eigenvalues come from its Killing square, read off the Killing form of s, with
no eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExtensionRequiredError, AtlasError
from .lie import LieAlgebra, pair_gradients
from .linalg import (
    IncrementalSpan,
    Matrix,
    coordinates,
    kernel_basis,
    rank,
    row_space_basis,
)
from .scalars import Scalar, ZERO, ONE, common_domain, sqrt_in_field


def _bracket_span(lie: LieAlgebra, span):
    """Basis of [span, span], read off each unordered pair once: [v, u] = -[u, v]
    and [u, u] = 0 add nothing to it."""
    vectors = [lie.bracket(u, v) for a, u in enumerate(span) for v in span[a + 1 :]]
    return list(row_space_basis(vectors))


def _derived_spans(lie: LieAlgebra):
    """Canonical bases of L >= [L,L] >= ... until zero or stable."""
    spans = [[lie.basis_vector(i) for i in range(lie.dim)]]
    while True:
        nxt = _bracket_span(lie, spans[-1])
        spans.append(nxt)
        if len(nxt) == 0 or len(nxt) == len(spans[-2]):
            return spans


# The Levi factors that dim s names: N_s(d), the simple s-modules of dimension d,
# as report text (None for s = 0: only the trivial module), then the simple
# g-modules for k = 0 and for k > 0.  sl2 has one simple module V_d in each
# dimension d, and sl2 + sl2 has the V_a (x) V_b with ab = d.
LEVI_FACTORS = {
    0: (None, "characters only ({k}-parameter family)", "characters only ({k}-parameter family)"),
    3: ("1", "one class per dimension d >= 1", "one {k}-parameter family per dimension d >= 1"),
    6: ("tau(d)", "tau(d) classes in dimension d >= 1",
        "tau(d) {k}-parameter families in dimension d >= 1"),
}


@dataclass
class LieRecognition:
    """The classification of g: the pair (dim s, k), its printed tag, the
    witnesses, and the simple g-modules it counts.

    s = g / rad g is the Levi factor, and k = dim g - dim [g,g] is the
    dimension of rad g / [g, rad g], the characters of g.
    """

    tag: str  # abelian | heisenberg | solvable | sl2 | sl2_semidirect | reductive
    derived_dims: list
    levi_dim: int  # dim s
    k: int
    radical_basis: tuple = ()  # rad g when s != 0 (for s = 0, rad g = g)

    @property
    def radical_dim(self) -> int:
        return len(self.radical_basis)

    @property
    def is_sl2_type(self) -> bool:
        return (self.levi_dim, self.k) == (3, 0)

    @property
    def is_solvable_type(self) -> bool:
        return self.levi_dim == 0

    def describe(self) -> str:
        if self.tag == "sl2_semidirect":
            return f"sl2_semidirect({self.radical_dim})"
        if self.tag == "reductive":
            return f"reductive(s={self.levi_dim}, k={self.k})"
        return self.tag

    def simple_modules(self) -> str:
        """The simple g-modules: those of s, each tensored with k-parameter characters."""
        if self.levi_dim not in LEVI_FACTORS:
            return f"undetermined (Levi factor of dimension {self.levi_dim})"
        _, rigid, family = LEVI_FACTORS[self.levi_dim]
        return (family if self.k else rigid).format(k=self.k)


_PAIRS = ((0, 1), (0, 2), (1, 2))  # the pairs i < j of a 3-dimensional g

# The five recognitions a 3-dimensional g can have, by tag and r = dim [g,g]:
# `_recognize_rows` returns these values themselves, so no caller changes one.
_RECOGNITIONS_3 = {
    ("sl2", 3): LieRecognition("sl2", [3, 3], 3, 0),
    ("abelian", 0): LieRecognition("abelian", [3, 0], 0, 3),
    ("heisenberg", 1): LieRecognition("heisenberg", [3, 1, 0], 0, 2),
    ("solvable", 1): LieRecognition("solvable", [3, 1, 0], 0, 2),
    ("solvable", 2): LieRecognition("solvable", [3, 2, 0], 0, 1),
}


def _recognize_rows(rows) -> LieRecognition:
    """The recognition of a 3-dimensional g from its pair rows alone, one of the
    five shared `_RECOGNITIONS_3`: `rows` maps (i, j), i < j, to [e_i, e_j] as
    three scalars, and a pair left out is 0.  r = dim [g,g] is the rank of the
    rows (Jacobson, Lie Algebras I 4), with no Killing form or derived series:
    - r = 3: g is perfect, so not solvable, and its Levi factor, nonzero
      semisimple and so of dimension 3 or more, is all of g: g is simple,
      sl2 over the closure, with [3, 3], dim s = 3, k = 0 and rad g = 0.
    - r <= 2: g is not perfect, so it is solvable, and [g,g] is nilpotent of
      dimension <= 2, so abelian: the derived dims are [3, r, 0], or [3, 0]
      when r = 0, and k = 3 - r.  r = 0 is abelian and r = 2 solvable;
      r = 1 is heisenberg when [g,[g,g]] = 0 and solvable otherwise.
    """
    nonzero = [row for row in rows.values() if not all(c.is_zero for c in row)]
    r = rank(nonzero)
    tag = "sl2" if r == 3 else "abelian" if r == 0 else "solvable"
    if r == 1:  # [g,g] is spanned by a nonzero row d, and [g,[g,g]] = 0 when d is central
        d = nonzero[0]
        r01, r02, r12 = (rows.get(ij, (ZERO,) * 3) for ij in _PAIRS)
        # [e_i, d] = sum over k of d_k [e_i, e_k], for i = 0, 1, 2
        ads = ((d[1], r01, d[2], r02), (-d[0], r01, d[2], r12), (-d[0], r02, -d[1], r12))
        if all((a * u + b * v).is_zero for a, us, b, vs in ads for u, v in zip(us, vs)):
            tag = "heisenberg"
    return _RECOGNITIONS_3[tag, r]


def recognize(lie: LieAlgebra) -> LieRecognition:
    """The pair (dim s, k) of g = `lie`, with its tag and witnesses.

    rad g is the Killing-orthogonal of [g,g], s = g / rad g, and by the Levi
    decomposition [g,g] = s + [g, rad g], so k = dim rad g - dim [g, rad g]
    = dim g - dim [g,g].  The Killing form is `lie.killing_form()`, read off
    the structure constants, so no ad matrix is built.  A solvable g is its
    own radical, so when the derived series reaches 0 the series alone
    settles s = 0, and no Killing form is built.  A 3-dimensional g is read
    off its pair rows by `_recognize_rows`, the one rule for dimension 3,
    which `recognize_points` applies to gradients alone (J/J^2 is Lie).
    """
    if lie.dim == 3:
        rows = lie.structure_table().items()
        return _recognize_rows({ij: tuple(row.get(k, ZERO) for k in range(3)) for ij, row in rows})
    spans = _derived_spans(lie)
    dims = [len(span) for span in spans]
    derived = spans[1]
    k = lie.dim - len(derived)
    if not spans[-1]:  # solvable: the derived series reaches 0
        return LieRecognition("solvable" if derived else "abelian", dims, 0, k)
    killing = lie.killing_form()
    radical = list(row_space_basis(kernel_basis([list(killing.apply(w)) for w in derived])))
    levi_dim = lie.dim - len(radical)
    tag = "reductive" if (levi_dim, k) != (3, 0) else "sl2_semidirect" if radical else "sl2"
    return LieRecognition(tag, dims, levi_dim, k, tuple(radical))


def _rows_key(rows) -> tuple:
    """The pair rows `rows` as one flat tuple of ints, in order: each pair (i, j),
    then the (n, m, q, d) of each scalar.  Scalars are canonical and rows of one
    length, so keys are equal exactly when rows are, and hash as ints alone."""
    key = []
    for ij, row in rows.items():
        key += ij
        for c in row:
            key += c.n, c.m, c.q, c.d
    return tuple(key)


def recognize_points(pres, points):
    """The recognition of g(J) at each point, in order.  The rows of
    `pair_gradients` at a point (whose pass refuses a non-Poisson point) are
    the brackets of g(J), so equal rows mean equal g(J): only new rows are
    recognized, each kept in `pres._recognitions` under the rows' int key
    (`_rows_key`) for later calls.  J/J^2 is a Lie algebra for every Poisson
    ideal J, Jacobi as the bracket is (`PoissonPresentation`), so on three
    variables `_recognize_rows` reads the rows into one of its five shared
    recognitions, with no g(J) built; else g(J) is built, recognized, dropped."""
    names, kept = pres.varset.names, pres._recognitions
    for pt in points:
        rows = pair_gradients(pres, pt)
        key = _rows_key(rows)
        rec = kept.get(key)
        if rec is None:
            rec = kept[key] = (_recognize_rows(rows) if len(names) == 3
                               else recognize(LieAlgebra(names, rows)))
        yield rec


@dataclass(frozen=True)
class Sl2Triple:
    """(e, h, f) with [h,e] = 2e, [h,f] = -2f, [e,f] = h modulo rad g, as
    L-coordinates.

    `find_sl2_triple` lifts the triple from g / rad g along basis vectors, so
    the relations hold exactly when those vectors span a subalgebra, a Levi
    complement to rad g; `verify` checks them exactly.
    """

    e: tuple
    h: tuple
    f: tuple
    discriminant: int = 0  # 0 when the triple is rational

    def verify(self, lie: LieAlgebra) -> bool:
        two_e = tuple(Scalar(2) * c for c in self.e)
        minus_two_f = tuple(Scalar(-2) * c for c in self.f)
        return (
            lie.bracket(self.h, self.e) == two_e
            and lie.bracket(self.h, self.f) == minus_two_f
            and lie.bracket(self.e, self.f) == self.h
        )


def _candidate_elements(n: int):
    """Fixed candidate order: basis vectors, then pairwise sums/differences."""
    for i in range(n):
        yield {i: ONE}
    for i in range(n):
        for j in range(i + 1, n):
            yield {i: ONE, j: ONE}
            yield {i: ONE, j: Scalar(-1)}


def _canonical_eigvec(vec):
    lead = next((c for c in vec if not c.is_zero), None)
    if lead is None:
        return vec
    inv = lead.inverse()
    return tuple(c * inv for c in vec)


def find_sl2_triple(lie: LieAlgebra, recognition: LieRecognition | None = None) -> Sl2Triple:
    """Deterministic explicit sl2-triple modulo rad g, for a Levi factor sl2.

    The search runs in s = g / rad g (g itself when rad g = 0), built on the
    first basis vectors independent modulo rad g, its brackets the first three
    `coordinates` in those vectors and rad g, and the triple found there is
    lifted back along them.  In s, ad x has the eigenvalues 0 and +-lam with
    lam^2 = kappa(x, x) / 2, kappa the Killing form of s, built once before
    the search, so a candidate x of Killing square 0 is ad-nilpotent and
    skipped with no ad matrix; otherwise lam is an exact square root in the
    field of ad x (over Q it may lie in one Q(sqrt m)), its sign made
    canonical, h = 2x / lam, and e and f are the eigenvectors of ad x for
    lam and -lam, one kernel solve each.  A candidate whose lam lies outside
    that field is skipped; none giving a triple raises ExtensionRequiredError.
    """
    rec = recognition or recognize(lie)
    if rec.levi_dim != 3:
        raise AtlasError(f"no sl2-triple for a {rec.describe()} algebra")
    quotient, lift = lie, tuple  # rad g = 0: s is g itself, and lifting is the identity
    if rec.radical_basis:
        rad = IncrementalSpan(rec.radical_basis)
        section = [i for i in range(lie.dim) if rad.add(lie.basis_vector(i))]
        sec_vecs = [lie.basis_vector(i) for i in section]
        coords = coordinates(sec_vecs + list(rec.radical_basis),
                             [lie.bracket(sec_vecs[a], sec_vecs[b]) for a, b in _PAIRS])
        quotient = LieAlgebra([lie.labels[i] for i in section],
                              {ab: c[:3] for ab, c in zip(_PAIRS, coords)})
        lift = Matrix(list(zip(*sec_vecs))).apply

    killing = quotient.killing_form()
    last_error = None
    for combo in _candidate_elements(3):
        cand = tuple(combo.get(k, ZERO) for k in range(3))
        kappa = sum((c * w for c, w in zip(cand, killing.apply(cand))), ZERO)
        if kappa.is_zero:
            continue
        ad = quotient.ad_matrix(cand)
        lam = sqrt_in_field(kappa / 2, common_domain(ad.flat()))
        if lam is None:
            last_error = ExtensionRequiredError("extension beyond quadratic required")
            continue
        if (lam.b, lam.a) < (ZERO.b, ZERO.a):  # canonical sign: b > 0, else a > 0
            lam = -lam
        h = tuple(c * (Scalar(2) / lam) for c in cand)
        e, f0 = _root_vectors(ad, lam)
        k = next(k for k, c in enumerate(h) if not c.is_zero)
        gamma = quotient.bracket(e, f0)[k] / h[k]  # verify refuses [e, f0] not along h
        if gamma.is_zero:
            continue
        f = tuple(c / gamma for c in f0)
        if Sl2Triple(e, h, f).verify(quotient):
            return Sl2Triple(lift(e), lift(h), lift(f), common_domain(e + h + f))
    if last_error is not None:
        raise last_error
    raise AtlasError("no candidate worked for the sl2-triple search")


def _root_vectors(ad: Matrix, lam: Scalar):
    """The eigenvectors of ad for lam and for -lam, each from one kernel solve
    and scaled to lead with 1."""
    return tuple(
        _canonical_eigvec(kernel_basis([list(r) for r in ad.shift(-v).rows])[0])
        for v in (lam, -lam)
    )


@dataclass
class HomogeneityReport:
    """Simple-module counts per dimension, symbolically in d.

    A point with pair (dim s, k) has N_s(d) classes in dimension d, each a
    k-parameter family; t-homogeneous (t classes in every dimension) needs
    every point to be of sl2 type.
    """

    ideals: list  # the Poisson points counted, each the maximal ideal J
    tags: list

    @property
    def unidentified(self) -> list:
        return sorted({t.levi_dim for t in self.tags} - LEVI_FACTORS.keys())

    @property
    def verdict(self) -> str:
        if self.unidentified:
            dims = ", ".join(str(s) for s in self.unidentified)
            return f"undetermined (unidentified Levi factor of dimension {dims})"
        if all(t.is_sl2_type for t in self.tags):
            return f"{len(self.tags)}-homogeneous"
        if any(t.k and t.levi_dim for t in self.tags):
            reason = "continuum of classes in every dimension"
        elif any(t.k for t in self.tags):
            reason = "continuum of 1-dimensional classes"
        else:
            reason = f"{self.count_formula()['d >= 1']} classes in dimension d"
        return f"not t-homogeneous ({reason})"

    def count_formula(self):
        """The classes in dimension d over the points: each Levi factor's N_s(d)
        times its points with k = 0 (an int when each such N_s(d) is 1), then
        the continuum from the points with k > 0, in dimension 1 alone for s = 0.
        Each s counted has one class in dimension 1, the trivial module."""
        if self.unidentified:
            return {"d >= 1": "undetermined"}
        rigid = [t.levi_dim for t in self.tags if not t.k]
        counted = [(c, n) for s, (c, _, _) in LEVI_FACTORS.items() if c and (n := rigid.count(s))]
        terms = [n if c == "1" else c if n == 1 else f"{n}*{c}" for c, n in counted]
        finite = terms[0] if len(terms) == 1 else " + ".join(map(str, terms)) or 0
        if any(t.k and t.levi_dim for t in self.tags):
            return {"d >= 1": f"{finite} + continuum"}
        if any(t.k for t in self.tags):
            return {"d >= 2": finite, "d = 1": f"{sum(n for _, n in counted)} + continuum"}
        return {"d >= 1": finite}


def homogeneity_report(pres, points, relation=None) -> HomogeneityReport:
    """Count simple Poisson module classes per dimension over the given points.

    With a relation r, only points where r vanishes (J contains r) are counted, which
    is the A_lambda convention: simple modules of the quotient are the simple
    modules annihilated by ideals through the relation's zero locus.  A point
    with k > 0 contributes a continuum: of one-dimensional classes when its
    Levi factor is 0, in every dimension otherwise.  The verdict is
    undetermined when some Levi factor is not identified by its dimension.
    """
    kept = [pt for pt in points if relation is None or relation.evaluate(pt).is_zero]
    return HomogeneityReport(kept, list(recognize_points(pres, kept)))
