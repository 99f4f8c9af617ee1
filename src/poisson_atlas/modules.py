"""Poisson modules at a point: lifts, restrictions, twists, and their analysis.

The lift of a g(J)-representation N acts associatively by evaluation at the
point and Lie-wise through the linear part of each element, so the action of
a polynomial depends only on its constant-and-linear data at the point; the
restriction construction reads the matrices straight back.  Restriction to a
subalgebra and twisting by an automorphism are one pullback along a verified
Poisson map.  Every module checks its point through `lie_from_point`, which
keeps g(J) on the presentation by point value, so a lift and its module share
one check.  One function, `analyze_submodules`, decides simplicity and the
minimal submodules, and the composition series reads it.  It applies one rule
to seeds and their reaches (the seeds in the submodule each one generates):
the minimal submodules are the sinks, the reaches every seed in them shares.
The seeds are the unit vectors, reaching
along the weight graph, when some combination of the action matrices is
diagonal with distinct entries, as in every sl2 lift; otherwise the
eigenvectors of an action matrix with one-dimensional eigenspaces, or
without one the basis vectors, reaching through their closures.  With a
grading the sinks are the simple submodules and their sum is direct; only
without one does the density hull decide simplicity.
The axiom checker compares its matrix identities in coordinates on the action
matrices and their commutators; the coefficients and verdicts that do not read
the module are built once per point value and kept on the presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations, combinations_with_replacement, product

from .brackets import CheckReport, PoissonPresentation, SubstitutionMap, bracket, verify_poisson_map
from .classify import Sl2Triple
from .errors import AtlasError, IncompatibleTableError
from . import linalg  # the hull is read off linalg, so replacing it there reaches every call
from .lie import LieAlgebra, lie_from_point
from .linalg import (
    IncrementalSpan,
    Matrix,
    _weight_seeds,
    closure,
    coordinates,
    kernel_basis,
    linear_combination,
    rank,
    reachable,
    relation_test,
    restrict_action,
    unit_vector,
    weight_graph,
)
from .poly import LaurentPoly, PointP
from .scalars import Scalar, ZERO, ONE, muladd, mulsub

DEFAULT_SEED = 0x9E3779B9
DEFAULT_TRIALS = 32

_MASK64 = (1 << 64) - 1


class SplitMix:
    """Tiny deterministic PRNG; stable across platforms and Python versions."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next64() % n


def _nonzero_rows(m: Matrix) -> list:
    """Each row of m as the (column, entry) pairs of its nonzero entries."""
    return [[(c, x) for c, x in enumerate(row) if not x.is_zero] for row in m.rows]


def _commutator_is(a, b, coeffs, mats) -> bool:
    """AB - BA == sum_k coeffs[k] M_k, for A, B and the M_k as `_nonzero_rows`."""
    terms = [(c, m) for c, m in zip(coeffs, mats) if not c.is_zero]
    for r in range(len(a)):
        acc = {}
        for mid, x in a[r]:
            for col, y in b[mid]:
                acc[col] = muladd(acc.get(col, ZERO), x, y)
        for mid, x in b[r]:
            for col, y in a[mid]:
                acc[col] = mulsub(acc.get(col, ZERO), x, y)
        for c, m in terms:
            for col, y in m[r]:
                acc[col] = mulsub(acc.get(col, ZERO), c, y)
        if not all(v.is_zero for v in acc.values()):
            return False
    return True


@dataclass(frozen=True)
class LieRep:
    """Matrices per Lie basis element; the rep property is constructor-checked.

    The check compares rho([u_i, u_j]) with [rho(u_i), rho(u_j)] row by row
    over the nonzero entries of the matrices; no dense product is built.
    """

    lie: LieAlgebra
    mats: tuple

    def __post_init__(self):
        if len(self.mats) != self.lie.dim:
            raise ValueError("one matrix per Lie basis element required")
        rows = [_nonzero_rows(m) for m in self.mats]
        for i, j in combinations(range(self.lie.dim), 2):
            coeffs = self.lie.bracket(self.lie.basis_vector(i), self.lie.basis_vector(j))
            if not _commutator_is(rows[i], rows[j], coeffs, rows):
                raise IncompatibleTableError(
                    f"not a representation on "
                    f"({self.lie.labels[i]}, {self.lie.labels[j]})"
                )

    @property
    def dim(self) -> int:
        return self.mats[0].nrows if self.mats else 0

    def rho(self, vector) -> Matrix:
        return linear_combination(vector, self.mats, self.dim, self.dim)


@dataclass(frozen=True)
class PoissonModule:
    """A point (maximal ideal) with a Lie action matrix per ambient generator.

    The associative action of a is the scalar a(pt); the Lie action of a is
    rho(grad a at pt), so C + J^2 kills the module (Pann contains it).  The
    point is checked to be Poisson-maximal by `lie_from_point`, which builds
    g(J) there once and keeps it on the presentation.
    """

    pres: PoissonPresentation
    point: PointP
    mats: tuple

    def __post_init__(self):
        if len(self.mats) != len(self.pres.varset):
            raise ValueError("one action matrix per generator required")
        lie_from_point(self.pres, self.point)

    @property
    def dim(self) -> int:
        return self.mats[0].nrows

    def action_of(self, p: LaurentPoly) -> Matrix:
        """The Lie action of p: rho of its gradient at the point."""
        return linear_combination(p.linear_part(self.point)[1], self.mats, self.dim, self.dim)


def sl2_irrep(lie: LieAlgebra, d: int, triple: Sl2Triple, radical=()) -> LieRep:
    """The d-dimensional simple module in the weight basis v_0..v_{d-1}.

    e.v_j = j(d-j) v_{j-1}, f.v_j = v_{j+1}, h.v_j = (d-1-2j) v_j; ambient Lie
    basis elements are resolved through (e, h, f) coordinates, the radical
    acting as zero.
    """
    if d < 1:
        raise ValueError("module dimension must be >= 1")
    E = [[ZERO] * d for _ in range(d)]
    H = [[ZERO] * d for _ in range(d)]
    F = [[ZERO] * d for _ in range(d)]
    for j in range(d):
        H[j][j] = Scalar(d - 1 - 2 * j)
        if j >= 1:
            E[j - 1][j] = Scalar(j * (d - j))
        if j < d - 1:
            F[j + 1][j] = ONE
    E, H, F = Matrix(E), Matrix(H), Matrix(F)
    coords = coordinates(
        [triple.e, triple.h, triple.f, *radical],
        [lie.basis_vector(i) for i in range(lie.dim)],
    )
    if coords is None:
        raise AtlasError("Lie basis outside span(triple, radical)")
    return LieRep(lie, tuple(linear_combination(c[:3], (E, H, F), d, d) for c in coords))


def lift_module(pres: PoissonPresentation, pt: PointP, rep: LieRep) -> PoissonModule:
    """The lift: a.n = a(pt) n and {a, n} = rho(lin a at pt) n, killed by the point.

    `rep.lie` must equal g(J), as `lie_from_point` gives it at the point,
    which raises first at a non-Poisson point."""
    if rep.lie != lie_from_point(pres, pt):
        raise AtlasError("representation is over a different Lie algebra than g(J)")
    return PoissonModule(pres, pt, rep.mats)


def restrict_to_lie(module: PoissonModule) -> LieRep:
    """The inverse restriction: the g(J)-module on the basis u_k = x_k - pt_k."""
    if module.dim == 0:
        raise ValueError("Poisson modules are nonzero")
    lie = lie_from_point(module.pres, module.point)
    return LieRep(lie, module.mats)


def _random_poly(rng: SplitMix, varset, candidates) -> LaurentPoly:
    terms = {}
    for _ in range(1 + rng.below(4)):
        exps = candidates[rng.below(len(candidates))]
        coeff = rng.below(6) + 1  # 1..6 -> -3..-1, 1..3
        terms[exps] = terms.get(exps, 0) + (coeff - 7 if coeff > 3 else coeff)
    return LaurentPoly._raw(varset, {e: Scalar.coerce(c) for e, c in terms.items() if c})


def _exponent_candidates(varset):
    """The exponent tuples whose positive entries sum to at most 3, each entry
    from -1 on a Laurent variable and from 0 elsewhere, in lexicographic order."""
    ranges = [range(-1 if laurent else 0, 4) for laurent in varset.laurent]
    return [e for e in product(*ranges) if sum(x for x in e if x > 0) <= 3]


def _pair_obligations(spec, pt, pairs, p, q, label):
    """The three axioms on (p, q) as obligations; `label()` names the pair in a
    failure."""
    br = bracket(spec, p, q)
    p_value, p_grad = p.linear_part(pt)
    q_value, q_grad = q.linear_part(pt)
    br_value, br_grad = br.linear_part(pt)
    commutator = [mulsub(p_grad[j] * q_grad[i], p_grad[i], q_grad[j]) for i, j in pairs]
    pq_grad = (p * q).linear_part(pt)[1]
    return [
        ("axiom (i)", list(br_grad) + commutator, lambda: f"(a, b) = {label()}"),
        ("axiom (ii)", br_value.is_zero,
         lambda: f"{{a, b}}(pt) != 0 for (a, b) = {label()}"),
        ("axiom (iii)",
         [mulsub(mulsub(c, p_value, b), q_value, a) for a, b, c in zip(p_grad, q_grad, pq_grad)],
         lambda: f"(a, b) = {label()}"),
    ]


def _point_obligations(pres: PoissonPresentation, pt: PointP, trials: int, seed: int):
    """The checks of `verify_poisson_axioms` that do not read the module, in its
    order, as (axiom, check, witness).  A check is a coefficient vector on the
    action matrices and their commutators that must combine to 0, or a verdict
    already decided; a witness is formatted only for a failing check.  Built
    once per (point, trials, seed) and kept in `pres._obligations`, so equal
    points share them."""
    key = (pt, trials, seed)
    kept = pres._obligations.get(key)
    if kept is not None:
        return kept
    varset, spec, names = pres.varset, pres.bracket_spec, pres.varset.names
    gens = [LaurentPoly.variable(varset, n) for n in names]
    pairs = list(combinations(range(len(gens)), 2))
    out = []
    for i, j in pairs:
        label = partial("({}, {})".format, names[i], names[j])
        out += _pair_obligations(spec, pt, pairs, gens[i], gens[j], label)

    # annihilator facts: constants and J^2 act as zero; the annihilator is Poisson
    out.append(("Pann contains constants",
                LaurentPoly.const(varset, 1).linear_part(pt)[1], "{1, -} != 0"))
    shifted = [g - pt.values[i] for i, g in enumerate(gens)]
    for i, j in combinations_with_replacement(range(len(gens)), 2):
        out.append(("Pann contains J^2", (shifted[i] * shifted[j]).linear_part(pt)[1],
                    f"generators ({names[i]}, {names[j]})"))
    for k, l in product(range(len(gens)), repeat=2):
        out.append(("J is a Poisson ideal",
                    bracket(spec, gens[k], shifted[l]).evaluate(pt).is_zero,
                    f"{{{names[k]}, {names[l]} - pt}} escapes J"))

    rng = SplitMix(seed)
    candidates = _exponent_candidates(varset)
    for t in range(trials):
        p = _random_poly(rng, varset, candidates)
        q = _random_poly(rng, varset, candidates)
        label = partial("trial {}: ({}, {})".format, t, p, q)
        out += _pair_obligations(spec, pt, pairs, p, q, label)
    kept = pres._obligations[key] = tuple(out)
    return kept


def verify_poisson_axioms(
    module: PoissonModule, trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED
) -> CheckReport:
    """Exact check of the three Poisson-module axioms plus the annihilator facts.

    Axioms run on all generator pairs and on seeded pseudo-random polynomial
    pairs of total degree <= 3; everything is compared exactly.  For a pair
    (p, q) the checks are, with rho(a) the action of a:

    (i)   rho({p, q}) == [rho(p), rho(q)];
    (ii)  {p, q}(pt) == 0;
    (iii) rho(p * q) == p(pt) rho(q) + q(pt) rho(p).

    The matrix identities are compared in coordinates.  With M_k the action
    matrices and a_k the gradient of a at the point, rho(a) = sum_k a_k M_k
    and [rho(p), rho(q)] = sum_{i<j} (p_i q_j - p_j q_i) [M_i, M_j].  So (i),
    (iii) and the facts that constants and J^2 act as zero each say that one
    coefficient vector combines the stack of the M_k and their commutators to
    zero.  Only that last step reads the module: the coefficient vectors, and
    the verdicts of (ii) and "J is a Poisson ideal", are the point's
    obligations, built once per presentation, point value, trials and seed
    by `_point_obligations` and kept on the presentation, so modules at equal
    points share them.  The module builds its commutators and its one `relation_test`,
    which reads each combination on a column basis of the stack, the leads
    of one span, and records the obligations in order.

    The elements stay polynomials: {p, q} is the full bracket and p * q the
    full product, each reduced to its value and gradient at the point by one
    `LaurentPoly.linear_part`.  Truncating them to jets at the point would
    route the checks around what they test: every {x_i, x_j} vanishes at a
    Poisson point, so the random trials would follow from the generator pairs
    and stop cross-checking `bracket`, the product and `linear_part`.  In the
    same way, the left side of (iii) always comes from p * q, never from the
    Leibniz rule it is checking.  A pair's witness label is formatted only
    for a check that fails.
    """
    mats, n = module.mats, len(module.mats)
    combines_to_zero = relation_test(
        [m.flat() for m in mats]
        + [mats[i].commutator(mats[j]).flat() for i in range(n) for j in range(i + 1, n)]
    )
    report = CheckReport(True)
    for axiom, check, witness in _point_obligations(module.pres, module.point, trials, seed):
        report.record(check if isinstance(check, bool) else combines_to_zero(check),
                      axiom, witness)
    return report


# -- submodule machinery -------------------------------------------------------


def is_simple_module(module: PoissonModule) -> bool:
    return is_simple(module.mats, module.dim)


def is_simple(mats, dim: int) -> bool:
    """Simplicity over C, as `analyze_submodules` decides it."""
    return analyze_submodules(mats, dim).simple


@dataclass
class SubmoduleAnalysis:
    """Simplicity, minimal submodules and the socle, from the sinks of the
    seeds' reaches."""

    dim: int
    complete: bool  # True when the seeds grade the module: every submodule holds one
    simple: bool
    minimal: list  # canonical bases, sorted by (dim, signature)
    socle_dim: int
    semisimple: bool | None
    decomposition: list | None  # direct summands (canonical bases) when semisimple


def analyze_submodules(mats, dim: int) -> SubmoduleAnalysis:
    """Simplicity, minimal submodules, socle and semisimplicity, exact
    wherever the module has weight vectors.

    A route gives seeds, the reach of each (the seeds in the submodule it
    generates) and whether the seeds grade the module.  Where `weight_graph`
    applies, the seeds are the unit vectors and a reach is the graph's.
    Otherwise `_weight_seeds` gives the eigenvectors of an action matrix with
    one-dimensional eigenspaces, or without one the basis vectors, and a
    reach is read off the seed's closure.  A seed in another's submodule
    reaches no more than that one, so the submodules generated by one seed
    that contain no smaller one are the sinks: the reaches shared by every
    seed in them.  Only a sink gets a canonical (rref) basis.

    With a grading (the graph or weight vectors) every submodule is stable
    under it and so holds a seed: the sinks are the simple submodules, and
    one-dimensional weight spaces make them pairwise non-isomorphic, so the
    socle is their direct sum.  The module is semisimple iff their dimensions
    add up to its own, and simple iff its only sink is the whole of it.
    Without a grading a sink need not be simple: the density hull decides
    simplicity and certifies each summand of a greedy decomposition of the
    socle, and a socle short of the module leaves the semisimplicity verdict
    undetermined (None).  The minimal submodules are sorted by dimension and
    then by their text, which for unit-vector bases of disjoint sets of one
    size puts the larger least index first.
    """
    mats = tuple(mats)
    graph = weight_graph(mats, dim)
    if graph is not None:  # a unit-vector sink is the span of its own seeds
        reach, complete = [reachable(graph, i) for i in range(dim)], True
        submodule = lambda r: tuple(unit_vector(dim, i) for i in sorted(r))
        text_order = lambda r, basis: -min(r)
    else:
        seeds, complete = _weight_seeds(mats, dim)
        maps = [m.apply for m in mats]
        spans = [closure([s], maps) for s in seeds]
        reach = [frozenset(j for j, s in enumerate(seeds) if span.contains(s)) for span in spans]
        submodule = lambda r: spans[min(r)].basis()
        text_order = lambda r, basis: str(basis)
    # j in reach(i) implies reach(j) <= reach(i): a sink is a set of equal reaches
    sinks = {r for r in reach if all(len(reach[j]) == len(r) for j in r)}
    bases = {r: submodule(r) for r in sinks}
    minimal = [bases[r] for r in
               sorted(bases, key=lambda r: (len(bases[r]), text_order(r, bases[r])))]
    simple = [len(s) for s in minimal] == [dim]
    if complete:
        socle_dim = sum(map(len, minimal))
        semisimple = socle_dim == dim
        return SubmoduleAnalysis(dim, True, simple, minimal, socle_dim, semisimple,
                                 list(minimal) if semisimple else None)
    simple = simple and linalg.associative_hull_is_full(mats, dim)
    socle_dim = rank([v for s in minimal for v in s])
    semisimple: bool | None = None  # undetermined unless the hull certifies the summands
    decomposition = None
    if socle_dim == dim:
        decomposition = []
        current: list = []
        for s in minimal:
            if rank(current + list(s)) == len(current) + len(s):
                decomposition.append(s)
                current += s
            if len(current) == dim:
                break
        if all(
            linalg.associative_hull_is_full(restrict_action(mats, s), len(s))
            for s in decomposition
        ):
            semisimple = True
        else:
            decomposition = None
    return SubmoduleAnalysis(dim, False, simple, minimal, socle_dim, semisimple, decomposition)


def quotient_action(mats, sub_basis, dim):
    """Action on the quotient by an invariant subspace: (matrices, dimension),
    the lower-right block of `restrict_action` on the sub-basis and then the
    unit vectors off the leads of its span.  No grading is carried over:
    `analyze_submodules` finds the quotient's own, so its minimal submodules,
    socle and verdict are exact whenever one of its own matrices grades it.
    """
    sub = IncrementalSpan(sub_basis)
    free = [i for i in range(dim) if i not in sub.rows]
    k = len(sub_basis)
    adapted = restrict_action(mats, [*sub_basis, *(unit_vector(dim, i) for i in free)])
    return [Matrix._raw(tuple(row[k:] for row in m.rows[k:])) for m in adapted], len(free)


def composition_series(mats, dim: int):
    """Dimensions of the composition factors, built from minimal submodules.

    Each step analyzes the current quotient afresh, so its grading comes from
    the quotient's own matrices, and takes its first proper minimal submodule
    (`analyze_submodules` sorts them by dimension).  With a grading every
    minimal submodule is simple; without one each factor is certified simple
    by `is_simple`, and a failed certification is reported rather than
    returning a non-composition filtration.
    """
    mats = list(mats)
    factors = []
    while dim > 0:
        analysis = analyze_submodules(mats, dim)
        candidates = [s for s in analysis.minimal if len(s) < dim]
        if not candidates:
            if not analysis.simple:
                raise AtlasError(
                    "composition series not determined: no grading and the "
                    "remaining factor is not simple"
                )
            factors.append(dim)
            break
        sub = candidates[0]
        if not analysis.complete and not is_simple(restrict_action(mats, sub), len(sub)):
            raise AtlasError(
                "composition series not determined: a minimal seed closure "
                "is not simple (no grading)"
            )
        factors.append(len(sub))
        mats, dim = quotient_action(mats, sub, dim)
    return factors


# -- constructions -------------------------------------------------------------


def restrict_to_subalgebra(
    module: PoissonModule, emb: SubstitutionMap, sub_pres: PoissonPresentation
) -> PoissonModule:
    """Pullback along a Poisson map emb from sub_pres into the module's algebra.

    Each source generator G acts associatively by emb(G)(pt) and Lie-wise by
    rho(lin emb(G) at pt): only the constant-and-linear data of emb(G)
    matters.  The annihilator moves to emb^-1(J).  The map's check is kept
    on the map, so pulling several modules back along it checks it once; a
    map that is not Poisson is refused on every call.
    """
    report = verify_poisson_map(emb, sub_pres, module.pres)
    if not report.ok:
        raise AtlasError(f"substitution map is not a Poisson map: {report.failures}")
    sub_mats = tuple(module.action_of(img) for img in emb.images)
    return PoissonModule(sub_pres, emb.pull_point(module.point), sub_mats)


def twist(module: PoissonModule, auto: SubstitutionMap) -> PoissonModule:
    """Pullback along an automorphism: {a, m} = {auto(a), m}_M."""
    return restrict_to_subalgebra(module, auto, module.pres)


def solvable_character_module(
    pres: PoissonPresentation, pt: PointP, beta
) -> PoissonModule:
    """One-dimensional module {p, v} = (sum beta_k dp/dx_k(pt)) v, p.v = p(pt) v.

    beta must vanish on [g(J), g(J)]; that is exactly the character condition,
    and `LieRep` checks it: on 1x1 matrices [rho_i, rho_j] = 0 must equal
    sum_k c^k_ij beta_k for every pair i, j.
    """
    beta = tuple(Scalar.coerce(b) for b in beta)
    if len(beta) != len(pres.varset):
        raise AtlasError(f"a character takes {len(pres.varset)} values, one per generator, "
                         f"not {len(beta)}")
    try:
        rep = LieRep(lie_from_point(pres, pt), tuple(Matrix([[b]]) for b in beta))
    except IncompatibleTableError:
        raise AtlasError("beta does not vanish on [g(J), g(J)]") from None
    return lift_module(pres, pt, rep)


@dataclass(frozen=True)
class ActionTable:
    """Explicit images [u_i, m_j] as coordinate vectors over a module basis."""

    lie_labels: tuple
    module_labels: tuple
    entries: dict  # (lie_label, module_label) -> tuple of coords; missing = 0

    def matrix_for(self, lie_label: str) -> Matrix:
        d = len(self.module_labels)
        cols = []
        for m_label in self.module_labels:
            coords = self.entries.get((lie_label, m_label))
            cols.append(tuple(Scalar.coerce(c) for c in coords) if coords else (ZERO,) * d)
        return Matrix(list(zip(*cols)))


def module_from_table(lie: LieAlgebra, table: ActionTable) -> LieRep:
    """Build a LieRep from a bracket table, verifying structure compatibility."""
    if tuple(table.lie_labels) != tuple(lie.labels):
        raise IncompatibleTableError("table labels do not match the Lie algebra")
    mats = tuple(table.matrix_for(l) for l in lie.labels)
    return LieRep(lie, mats)  # constructor enforces compatibility


# -- isomorphism ----------------------------------------------------------------


def intertwiner_space(mats1, mats2, dim1: int, dim2: int):
    """Basis of {T : T rho1(u) = rho2(u) T for all u}; T maps module 1 to 2.

    The two families act through the same generators, so they must have one
    matrix each, dim1 x dim1 and dim2 x dim2; anything else is a ValueError.
    """
    mats1, mats2 = list(mats1), list(mats2)
    if len(mats1) != len(mats2):
        raise ValueError(f"{len(mats1)} action matrices against {len(mats2)}")
    for mats, dim in ((mats1, dim1), (mats2, dim2)):
        if any((m.nrows, m.ncols) != (dim, dim) for m in mats):
            raise ValueError(f"an action matrix is not {dim} x {dim}")
    rows = []
    for a, b in zip(mats1, mats2):
        # (T a - b T)[i][j] = 0; unknowns T[i][l] indexed by i*dim1 + l
        for i in range(dim2):
            for j in range(dim1):
                row = [ZERO] * (dim1 * dim2)
                for l in range(dim1):
                    row[i * dim1 + l] = row[i * dim1 + l] + a[l, j]
                for l in range(dim2):
                    row[l * dim1 + j] = row[l * dim1 + j] - b[i, l]
                rows.append(row)
    basis = kernel_basis(rows)
    return [
        Matrix([[v[i * dim1 + l] for l in range(dim1)] for i in range(dim2)])
        for v in basis
    ]


def find_isomorphism(mats1, mats2, dim1: int, dim2: int):
    """An invertible intertwiner from module 1 to module 2, or None, decided
    by Schur's lemma on one `intertwiner_space` solve.

    None is certain when the dimensions differ or every intertwiner is 0.
    When either module is simple a nonzero intertwiner is injective (its
    kernel is a submodule) or surjective (its image is one), so at equal
    dimensions the first basis intertwiner is invertible and is returned.
    With neither module simple the question is left open: AtlasError.
    """
    space = intertwiner_space(mats1, mats2, dim1, dim2)
    if dim1 != dim2 or not space:
        return None
    if is_simple(mats1, dim1) or is_simple(mats2, dim2):
        return space[0]
    raise AtlasError("isomorphism not determined: neither module is simple")


def lie_reps_isomorphic(r1: LieRep, r2: LieRep):
    if r1.lie != r2.lie:
        return None
    return find_isomorphism(r1.mats, r2.mats, r1.dim, r2.dim)


def poisson_modules_isomorphic(m1: PoissonModule, m2: PoissonModule):
    """An invertible intertwiner, or None: modules over unequal presentations
    or at different points (different annihilators) are never isomorphic, and
    at one point of one presentation the g(J)-actions decide it through
    `find_isomorphism`."""
    if m1.pres != m2.pres or m1.point != m2.point:
        return None
    return find_isomorphism(m1.mats, m2.mats, m1.dim, m2.dim)


def lie_rep_restrict(rep: LieRep, vectors, labels) -> LieRep:
    """Restrict a LieRep to the subalgebra spanned by the given L-vectors."""
    vectors = [tuple(v) for v in vectors]
    try:
        sub = rep.lie.change_basis(Matrix(list(zip(*vectors))), labels)
    except ValueError as exc:
        raise AtlasError(f"cannot restrict: {exc}") from None
    return LieRep(sub, tuple(rep.rho(v) for v in vectors))
