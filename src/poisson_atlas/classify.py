"""Analyze a structure-constant Lie algebra and classify its simple modules.

Recognition covers exactly the shapes occurring in the catalog: abelian,
Heisenberg, solvable, sl2, and sl2 acting on a simple abelian radical.  sl2
means perfect of dimension 3, which pins the complex isomorphism type; the
radical of a perfect algebra is the kernel of its Killing form, computed
exactly, and an algebra of dimension 3 + dim radical with an abelian radical
is sl2_semidirect when the radical is a simple module, which linalg's
`is_simple` certifies by weight vectors of a grading among the radical's own
action matrices (the density hull decides only without one).  Explicit
sl2-triples are found by a deterministic candidate search so results are
reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExtensionRequiredError, AtlasError
from .lie import LieAlgebra, lie_from_point
from .linalg import (
    IncrementalSpan,
    Matrix,
    coordinates,
    eigen_small,
    is_simple,
    kernel_basis,
    restrict_action,
    row_space_basis,
    trace_product,
)
from .scalars import Scalar, ZERO, ONE, common_domain


def _bracket_span(lie: LieAlgebra, left, right):
    """Basis of span{[u, v] : u in left, v in right}."""
    vectors = [lie.bracket(u, v) for u in left for v in right]
    return list(row_space_basis(vectors))


def derived_series(lie: LieAlgebra):
    """Dimensions L >= [L,L] >= ... until zero or stable."""
    current = [lie.basis_vector(i) for i in range(lie.dim)]
    dims = [lie.dim]
    while True:
        nxt = _bracket_span(lie, current, current)
        dims.append(len(nxt))
        if len(nxt) == 0 or len(nxt) == len(current):
            return dims
        current = nxt


def lower_central_series(lie: LieAlgebra):
    full = [lie.basis_vector(i) for i in range(lie.dim)]
    current = full
    dims = [lie.dim]
    while True:
        nxt = _bracket_span(lie, full, current)
        dims.append(len(nxt))
        if len(nxt) == 0 or len(nxt) == len(current):
            return dims
        current = nxt


def is_solvable(lie: LieAlgebra) -> bool:
    return derived_series(lie)[-1] == 0


def is_nilpotent(lie: LieAlgebra) -> bool:
    return lower_central_series(lie)[-1] == 0


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


@dataclass
class LieRecognition:
    """Tag plus the witness data that verifies it by direct computation."""

    tag: str  # abelian | heisenberg | solvable | sl2 | sl2_semidirect | unrecognized
    derived_dims: list
    radical_basis: tuple = ()  # for sl2_semidirect: basis of the abelian radical
    levi_indices: tuple = ()  # basis indices spanning a complement subalgebra
    center_dim: int = 0

    @property
    def radical_dim(self) -> int:
        return len(self.radical_basis)

    @property
    def is_sl2_type(self) -> bool:
        return self.tag in ("sl2", "sl2_semidirect")

    @property
    def is_solvable_type(self) -> bool:
        return self.tag in ("abelian", "heisenberg", "solvable")

    def describe(self) -> str:
        if self.tag == "sl2_semidirect":
            return f"sl2_semidirect({self.radical_dim})"
        return self.tag


def recognize(lie: LieAlgebra) -> LieRecognition:
    """Classify the algebra into the catalog shapes, with verified witness data."""
    if lie.dim > 12:
        raise ValueError("recognize capped at dimension 12")
    dims = derived_series(lie)
    derived = derived_subalgebra(lie)
    if not derived:
        return LieRecognition("abelian", dims, center_dim=lie.dim)
    ads = [lie.ad_matrix(lie.basis_vector(i)) for i in range(lie.dim)]
    cent = kernel_basis([row for ad in ads for row in ad.rows])  # the center
    if lie.dim == 3:
        if len(derived) == 3:
            return LieRecognition("sl2", dims, center_dim=len(cent))
        if (
            is_nilpotent(lie)
            and len(derived) == 1
            and IncrementalSpan(cent).contains(derived[0])
        ):
            return LieRecognition("heisenberg", dims, center_dim=len(cent))
    if dims[-1] == 0:
        return LieRecognition("solvable", dims, center_dim=len(cent))
    if len(derived) == lie.dim:  # perfect
        radical = kernel_basis([list(r) for r in killing_matrix(ads).rows])
        radical = list(row_space_basis(radical))
        if radical and _bracket_span(lie, radical, radical):
            return LieRecognition("unrecognized", dims, center_dim=len(cent))
        if lie.dim - len(radical) == 3 and radical:
            # the abelian radical kills itself, so the action of any spanning
            # set of L on it generates the full quotient action
            action = restrict_action(ads, radical)
            if is_simple(action, len(radical)):
                return LieRecognition(
                    "sl2_semidirect",
                    dims,
                    radical_basis=tuple(radical),
                    levi_indices=_basis_levi_section(lie, radical),
                    center_dim=len(cent),
                )
    return LieRecognition("unrecognized", dims, center_dim=len(cent))


def _basis_levi_section(lie: LieAlgebra, radical):
    """Indices of basis vectors spanning a complement subalgebra, when one exists.

    Catalog algebras always expose their Levi subalgebra on basis vectors; a
    conjugated basis may not, in which case the triple search is unavailable
    (the recognition tag itself never depends on this)."""
    rad = IncrementalSpan(radical)
    levi = tuple(i for i in range(lie.dim) if not rad.contains(lie.basis_vector(i)))
    if len(levi) != 3:
        return ()
    vecs = [lie.basis_vector(i) for i in levi]
    closed = coordinates(vecs, [lie.bracket(u, v) for u in vecs for v in vecs])
    return levi if closed is not None else ()


@dataclass(frozen=True)
class Sl2Triple:
    """(e, h, f) with [h,e] = 2e, [h,f] = -2f, [e,f] = h, as L-coordinates."""

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
    """Deterministic explicit sl2-triple for sl2 / sl2_semidirect algebras.

    Works inside the 3-dimensional Levi subalgebra spanned by basis vectors;
    introduces at most one quadratic extension for the eigenvalue rescaling.
    """
    rec = recognition or recognize(lie)
    if rec.tag == "sl2":
        section = [0, 1, 2]
    elif rec.tag == "sl2_semidirect":
        if not rec.levi_indices:
            raise AtlasError("no Levi section among basis vectors")
        section = list(rec.levi_indices)
    else:
        raise AtlasError(f"no sl2-triple for a {rec.describe()} algebra")
    sec_vecs = [lie.basis_vector(i) for i in section]
    to_lie_coords = Matrix(list(zip(*sec_vecs))).apply

    last_error = None
    for combo in _candidate_elements(3):
        cand_sec = tuple(combo.get(k, ZERO) for k in range(3))
        cand = to_lie_coords(cand_sec)
        ad_sec = restrict_action([lie.ad_matrix(cand)], sec_vecs)[0]
        try:
            eig = eigen_small(ad_sec)
        except ExtensionRequiredError as exc:
            last_error = exc
            continue
        values = {str(v): (v, mult, vecs) for v, mult, vecs in eig.pairs}
        nonzero = [(v, mult, vecs) for v, mult, vecs in eig.pairs if not v.is_zero]
        if len(nonzero) != 2:
            continue
        (v1, m1, vecs1), (v2, m2, vecs2) = nonzero
        if m1 != 1 or m2 != 1 or v1 != -v2:
            continue
        lam, evecs, fvecs = (v1, vecs1, vecs2)
        if (lam.b, lam.a) < (ZERO.b, ZERO.a):  # canonical sign: b > 0, else a > 0
            lam, evecs, fvecs = (v2, vecs2, vecs1)
        h = to_lie_coords(tuple(c * (Scalar(2) / lam) for c in cand_sec))
        e = to_lie_coords(_canonical_eigvec(evecs[0]))
        f0 = to_lie_coords(_canonical_eigvec(fvecs[0]))
        ef = lie.bracket(e, f0)
        gamma = _proportionality(ef, h)
        if gamma is None or gamma.is_zero:
            continue
        f = tuple(c / gamma for c in f0)
        disc = common_domain(list(e) + list(h) + list(f))
        triple = Sl2Triple(e, h, f, disc)
        if triple.verify(lie):
            return triple
    if last_error is not None:
        raise last_error
    raise AtlasError("no candidate worked for the sl2-triple search")


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
class SimpleModuleCatalog:
    """Description of the finite-dimensional simple modules of g(J)."""

    kind: str  # "one_per_dimension" | "characters"
    character_space_dim: int = 0  # dim g - dim [g,g] for the solvable shapes
    annihilation_dim: int = 0  # dim [g,g]; characters vanish there
    derived_basis: tuple = ()

    def count_in_dimension(self, d: int):
        """Number of classes in dimension d; 'continuum' for character families."""
        if self.kind == "one_per_dimension":
            return 1
        if d == 1:
            return "continuum" if self.character_space_dim > 0 else 1
        return 0


def classify_simple_modules(
    lie: LieAlgebra, recognition: LieRecognition | None = None
) -> SimpleModuleCatalog:
    rec = recognition or recognize(lie)
    if rec.tag == "unrecognized":
        raise AtlasError("cannot classify modules of an unrecognized algebra")
    if rec.is_sl2_type:
        return SimpleModuleCatalog("one_per_dimension")
    derived = derived_subalgebra(lie)
    return SimpleModuleCatalog(
        "characters",
        character_space_dim=lie.dim - len(derived),
        annihilation_dim=len(derived),
        derived_basis=tuple(derived),
    )


@dataclass
class HomogeneityReport:
    """Simple-module counts per dimension, symbolically in d."""

    ideals: list
    tags: list
    relation: object = None
    flagged_continuum: bool = False

    @property
    def sl2_count(self) -> int:
        return sum(1 for t in self.tags if t.is_sl2_type)

    @property
    def solvable_count(self) -> int:
        return sum(1 for t in self.tags if t.is_solvable_type)

    @property
    def verdict(self) -> str:
        if self.solvable_count or any(t.tag == "unrecognized" for t in self.tags):
            return "not t-homogeneous (continuum of 1-dimensional classes)"
        return f"{self.sl2_count}-homogeneous"

    @property
    def is_homogeneous(self) -> bool:
        return self.solvable_count == 0 and all(
            t.tag != "unrecognized" for t in self.tags
        )

    def count_formula(self):
        t = self.sl2_count
        if self.solvable_count == 0:
            return {"d >= 1": t}
        return {"d >= 2": t, "d = 1": f"{t} + continuum"}


def homogeneity_report(
    pres, ideals, relation=None, recognitions=None
) -> HomogeneityReport:
    """Count simple Poisson module classes per dimension over the given ideals.

    With a relation r, only ideals containing r (r(pt) = 0) are counted, which
    is the A_lambda convention: simple modules of the quotient are the simple
    modules annihilated by ideals through the relation's zero locus.  Any
    solvable ideal contributes a continuum of one-dimensional classes, and by
    this module's convention that always defeats t-homogeneity.
    """
    kept = []
    for ideal in ideals:
        if relation is not None and not relation.evaluate(ideal.point).is_zero:
            continue
        kept.append(ideal)
    if recognitions is None:
        tags = [recognize(lie_from_point(pres, ideal.point)) for ideal in kept]
    else:
        tags = [recognitions[ideal.point] for ideal in kept]
    report = HomogeneityReport(kept, tags, relation)
    report.flagged_continuum = report.solvable_count > 0
    return report
