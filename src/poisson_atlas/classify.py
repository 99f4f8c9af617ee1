"""Analyze a structure-constant Lie algebra and classify its simple modules.

One rule holds for every finite-dimensional Lie algebra g in characteristic 0
(Bourbaki, Lie Groups and Lie Algebras I 5; Jacobson, Lie Algebras II-III):
rad g is the Killing-orthogonal of [g,g], [g, rad g] acts by zero on every
simple module, and so the simple g-modules are those of the Levi factor
s = g / rad g tensored with the characters of g, a family of dimension
k = dim rad g - dim [g, rad g].  Recognition records (dim s, k); dim s names s
only for 0, sl2 and sl2 + sl2, and any other s leaves the counts undetermined.
Explicit sl2-triples come from a deterministic candidate search in s, built on
basis vectors, so results are reproducible byte for byte; each candidate's
eigenvalues come from its Killing square, with no eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExtensionRequiredError, AtlasError
from .lie import LieAlgebra, linearization
from .linalg import (
    IncrementalSpan,
    Matrix,
    coordinates,
    kernel_basis,
    row_space_basis,
    trace_product,
)
from .scalars import Scalar, ZERO, ONE, common_domain, sqrt_in_field


def _bracket_span(lie: LieAlgebra, left, right):
    """Basis of span{[u, v] : u in left, v in right}."""
    vectors = [lie.bracket(u, v) for u in left for v in right]
    return list(row_space_basis(vectors))


def _derived_spans(lie: LieAlgebra):
    """Canonical bases of L >= [L,L] >= ... until zero or stable."""
    spans = [[lie.basis_vector(i) for i in range(lie.dim)]]
    while True:
        nxt = _bracket_span(lie, spans[-1], spans[-1])
        spans.append(nxt)
        if len(nxt) == 0 or len(nxt) == len(spans[-2]):
            return spans


def derived_series(lie: LieAlgebra):
    """Dimensions L >= [L,L] >= ... until zero or stable."""
    return [len(span) for span in _derived_spans(lie)]


def is_solvable(lie: LieAlgebra) -> bool:
    return derived_series(lie)[-1] == 0


def derived_subalgebra(lie: LieAlgebra):
    basis = [lie.basis_vector(i) for i in range(lie.dim)]
    return _bracket_span(lie, basis, basis)


def killing_matrix(ads) -> Matrix:
    """The Killing form tr(ad_i ad_j) from the ad matrices of a basis."""
    n = len(ads)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = trace_product(ads[i], ads[j])
    return Matrix(rows)


# the dimensions that name the semisimple Levi factor s: 0, sl2 and sl2 + sl2
IDENTIFIED_LEVI_DIMS = (0, 3, 6)


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

    def count_in_dimension(self, d: int):
        """N_s(d) classes, 'continuum' when k > 0, 'undetermined' for an unidentified s.

        N_0(d) is 1 at d = 1 and 0 otherwise, N_sl2(d) = 1, and
        N_{sl2+sl2}(d) = tau(d), from the modules V_a (x) V_b with ab = d."""
        if self.levi_dim not in IDENTIFIED_LEVI_DIMS:
            return "undetermined"
        tau = sum(1 for a in range(1, d + 1) if d % a == 0)
        count = {0: int(d == 1), 3: 1, 6: tau}[self.levi_dim]
        return "continuum" if count and self.k else count

    def simple_modules(self) -> str:
        """The simple g-modules: those of s, each tensored with k-parameter characters."""
        k = self.k
        if self.levi_dim == 0:
            return f"characters only ({k}-parameter family)"
        if self.levi_dim == 3:
            per_d = f"one {k}-parameter family" if k else "one class"
            return f"{per_d} per dimension d >= 1"
        if self.levi_dim == 6:
            per_d = f"tau(d) {k}-parameter families" if k else "tau(d) classes"
            return f"{per_d} in dimension d >= 1"
        return f"undetermined (Levi factor of dimension {self.levi_dim})"


def recognize(lie: LieAlgebra) -> LieRecognition:
    """The pair (dim s, k) of g = `lie`, with its tag and witnesses.

    rad g is the Killing-orthogonal of [g,g], s = g / rad g, and by the Levi
    decomposition [g,g] = s + [g, rad g], so k = dim rad g - dim [g, rad g]
    = dim g - dim [g,g].
    """
    spans = _derived_spans(lie)
    dims = [len(span) for span in spans]
    basis, derived = spans[0], spans[1]
    k = lie.dim - len(derived)
    if not derived:
        return LieRecognition("abelian", dims, 0, k)
    killing = killing_matrix([lie.ad_matrix(u) for u in basis])
    radical = list(row_space_basis(kernel_basis([list(killing.apply(w)) for w in derived])))
    levi_dim = lie.dim - len(radical)
    if levi_dim == 0:
        heisenberg = lie.dim == 3 and len(derived) == 1 and not _bracket_span(lie, basis, derived)
        return LieRecognition("heisenberg" if heisenberg else "solvable", dims, 0, k)
    tag = "reductive" if (levi_dim, k) != (3, 0) else "sl2_semidirect" if radical else "sl2"
    return LieRecognition(tag, dims, levi_dim, k, tuple(radical))


def recognize_points(pres, points):
    """The recognition of g(J) at each point, in order; points whose
    linearizations have equal structure constants share one recognition."""
    names = pres.varset.names
    by_sc = {}
    for pt in points:
        sc = linearization(pres, pt)
        rec = by_sc.get(sc)
        if rec is None:
            rec = by_sc[sc] = recognize(LieAlgebra(names, sc))
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
    first basis vectors that are independent modulo rad g, and the triple
    found there is lifted back along those vectors.  In s, ad x has the
    eigenvalues 0 and +-lam with lam^2 = kappa(x, x) / 2, so a candidate x
    of Killing square 0 is ad-nilpotent and skipped; otherwise lam is an
    exact square root in the field of ad x (over Q it may lie in one
    Q(sqrt m)), its sign made canonical, h = 2x / lam, and e and f are the
    eigenvectors of ad x for lam and -lam, one kernel solve each.  A
    candidate whose lam lies outside that field is skipped, and
    ExtensionRequiredError is raised when no candidate gives a triple.
    """
    rec = recognition or recognize(lie)
    if rec.levi_dim != 3:
        raise AtlasError(f"no sl2-triple for a {rec.describe()} algebra")
    quotient, lift = lie, tuple  # rad g = 0: s is g itself, and lifting is the identity
    if rec.radical_basis:
        rad = IncrementalSpan(rec.radical_basis)
        section = [i for i in range(lie.dim) if rad.add(lie.basis_vector(i))]
        sec_vecs = [lie.basis_vector(i) for i in section]
        # [u, v] modulo rad g, in the coordinates of the section vectors
        brackets = [lie.bracket(u, v) for u in sec_vecs for v in sec_vecs]
        coords = [c[:3] for c in coordinates(sec_vecs + list(rec.radical_basis), brackets)]
        sc = [coords[3 * i : 3 * i + 3] for i in range(3)]
        quotient = LieAlgebra([lie.labels[i] for i in section], sc)
        lift = Matrix(list(zip(*sec_vecs))).apply

    last_error = None
    for combo in _candidate_elements(3):
        cand = tuple(combo.get(k, ZERO) for k in range(3))
        ad = quotient.ad_matrix(cand)
        kappa = trace_product(ad, ad)
        if kappa.is_zero:
            continue
        lam = sqrt_in_field(kappa / 2, common_domain(ad.flat()))
        if lam is None:
            last_error = ExtensionRequiredError("extension beyond quadratic required")
            continue
        if (lam.b, lam.a) < (ZERO.b, ZERO.a):  # canonical sign: b > 0, else a > 0
            lam = -lam
        h = tuple(c * (Scalar(2) / lam) for c in cand)
        e, f0 = _root_vectors(ad, lam)
        gamma = _proportionality(quotient.bracket(e, f0), h)
        if gamma is None or gamma.is_zero:
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
    identity = Matrix.identity(ad.nrows)
    return tuple(
        _canonical_eigvec(kernel_basis([list(r) for r in (ad - identity.scale(v)).rows])[0])
        for v in (lam, -lam)
    )


def _proportionality(vec, ref):
    """Scalar c with vec == c * ref, or None."""
    c = None
    for a, b in zip(vec, ref):
        if b.is_zero:
            if not a.is_zero:
                return None
        else:
            ratio = a / b
            if c is None:
                c = ratio
            elif c != ratio:
                return None
    return c if c is not None else ZERO


@dataclass
class HomogeneityReport:
    """Simple-module counts per dimension, symbolically in d.

    A point with pair (dim s, k) has N_s(d) classes in dimension d, each a
    k-parameter family; t-homogeneous (t classes in every dimension) needs
    every point to be (3, 0).
    """

    ideals: list
    tags: list

    @property
    def unidentified(self) -> list:
        return sorted({t.levi_dim for t in self.tags} - set(IDENTIFIED_LEVI_DIMS))

    @property
    def is_homogeneous(self):
        """True or False; None when some Levi factor is unidentified."""
        return None if self.unidentified else all(t.is_sl2_type for t in self.tags)

    @property
    def verdict(self) -> str:
        if self.unidentified:
            dims = ", ".join(str(s) for s in self.unidentified)
            return f"undetermined (unidentified Levi factor of dimension {dims})"
        if self.is_homogeneous:
            return f"{len(self.tags)}-homogeneous"
        if any(t.k and t.levi_dim for t in self.tags):
            reason = "continuum of classes in every dimension"
        elif any(t.k for t in self.tags):
            reason = "continuum of 1-dimensional classes"
        else:
            reason = f"{self.count_formula()['d >= 1']} classes in dimension d"
        return f"not t-homogeneous ({reason})"

    def count_formula(self):
        if self.unidentified:
            return {"d >= 1": "undetermined"}
        pairs = [(t.levi_dim, t.k) for t in self.tags]
        t, b = pairs.count((3, 0)), pairs.count((6, 0))  # sl2 and sl2 + sl2 points
        tau = "tau(d)" if b == 1 else f"{b}*tau(d)"
        finite = (f"{t} + {tau}" if t else tau) if b else t
        if any(s and k for s, k in pairs):
            return {"d >= 1": f"{finite} + continuum"}
        if any(k for _, k in pairs):
            return {"d >= 2": finite, "d = 1": f"{t + b} + continuum"}
        return {"d >= 1": finite}


def homogeneity_report(pres, ideals, relation=None, recognitions=None) -> HomogeneityReport:
    """Count simple Poisson module classes per dimension over the given ideals.

    With a relation r, only ideals containing r (r(pt) = 0) are counted, which
    is the A_lambda convention: simple modules of the quotient are the simple
    modules annihilated by ideals through the relation's zero locus.  A point
    with k > 0 contributes a continuum: of one-dimensional classes when its
    Levi factor is 0, in every dimension otherwise.  The verdict is
    undetermined when some Levi factor is not identified by its dimension.
    """
    kept = [i for i in ideals if relation is None or relation.evaluate(i.point).is_zero]
    if recognitions is None:
        tags = list(recognize_points(pres, [ideal.point for ideal in kept]))
    else:
        tags = [recognitions[ideal.point] for ideal in kept]
    return HomogeneityReport(kept, tags)
