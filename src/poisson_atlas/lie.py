"""Construct the Lie algebra g(J) = J/J^2 at a Poisson-maximal point.

Two routes, mirroring the worked examples: linearize the generator brackets at
the point (polynomial presentations), or express brackets of invariant
generators in the generators modulo products of two or more of them
(invariant presentations).  The second route prunes its product basis by
the total degree when that grades the generators.  Both produce
structure-constant algebras whose antisymmetry and Jacobi identity are
enforced at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .brackets import PoissonPresentation, SubstitutionMap, bracket
from .errors import LieStructureError, NotExpressibleError, NotPoissonMaximalError
from .ideals import is_poisson_maximal
from .linalg import Matrix, coordinates, rref, unit_vector
from .poly import LaurentPoly, PointP, VarSet, support_matrix
from .scalars import Scalar, ZERO


class LieAlgebra:
    """Finite-dimensional structure-constant Lie algebra over exact scalars.

    `at` is (presentation, point) when `lie_from_point` built the algebra as
    g(J) there, which certifies the point as Poisson-maximal; it is unset
    otherwise (read it with `getattr(lie, "at", None)`) and takes no part in
    equality.
    """

    __slots__ = ("labels", "sc", "at")

    def __init__(self, labels, sc, check=True):
        labels = tuple(labels)
        n = len(labels)
        sc = tuple(
            tuple(tuple(Scalar.coerce(c) for c in sc[i][j]) for j in range(n))
            for i in range(n)
        )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sc", sc)
        if check:
            self._verify()

    def __setattr__(self, *args):
        raise AttributeError("LieAlgebra is immutable")

    @property
    def dim(self) -> int:
        return len(self.labels)

    @staticmethod
    def from_brackets(labels, table, check=True) -> "LieAlgebra":
        """Build from a sparse table {(a, b): {c: coeff}} with [a, b] = sum coeff*c.

        Antisymmetric counterparts are filled in automatically.
        """
        labels = tuple(labels)
        idx = {l: i for i, l in enumerate(labels)}
        n = len(labels)
        sc = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for (a, b), row in table.items():
            i, j = idx[a], idx[b]
            for c, coeff in row.items():
                k = idx[c]
                coeff = Scalar.coerce(coeff)
                sc[i][j][k] = coeff
                sc[j][i][k] = -coeff
        return LieAlgebra(labels, sc, check=check)

    def _verify(self):
        n = self.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.sc[i][j][k] != -self.sc[j][i][k]:
                        raise LieStructureError(
                            f"antisymmetry fails on ({self.labels[i]}, {self.labels[j]})"
                        )
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc = self._jacobiator(i, j, k)
                    if any(not c.is_zero for c in acc):
                        raise LieStructureError(
                            f"Jacobi fails on ({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
                        )

    def _jacobiator(self, i, j, k):
        e = self.basis_vector
        term1 = self.bracket(self.bracket(e(i), e(j)), e(k))
        term2 = self.bracket(self.bracket(e(j), e(k)), e(i))
        term3 = self.bracket(self.bracket(e(k), e(i)), e(j))
        return tuple(a + b + c for a, b, c in zip(term1, term2, term3))

    def basis_vector(self, i):
        return unit_vector(self.dim, i)

    def bracket(self, u, v):
        """[u, v] on coordinate vectors."""
        n = self.dim
        out = [ZERO] * n
        for i in range(n):
            a = u[i]
            if a.is_zero:
                continue
            for j in range(n):
                b = v[j]
                if b.is_zero:
                    continue
                coeff = a * b
                row = self.sc[i][j]
                for k in range(n):
                    if not row[k].is_zero:
                        out[k] = out[k] + coeff * row[k]
        return tuple(out)

    def ad_matrix(self, u) -> Matrix:
        """Matrix of ad(u): column j is [u, e_j] in coordinates."""
        cols = [self.bracket(u, self.basis_vector(j)) for j in range(self.dim)]
        return Matrix(list(zip(*cols)))

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def change_basis(self, matrix: Matrix, labels=None) -> "LieAlgebra":
        """Structure constants in the basis whose vectors are the matrix columns.

        With fewer columns than rows, the columns are the basis of a
        subalgebra and `labels` names them; ValueError when a bracket of two
        columns leaves their span.
        """
        cols = list(zip(*matrix.rows))
        coords = coordinates(cols, [self.bracket(u, v) for u in cols for v in cols])
        if coords is None:
            raise ValueError("the columns do not span a subalgebra")
        n = len(cols)
        sc = [coords[i * n : i * n + n] for i in range(n)]
        return LieAlgebra(labels or self.labels, sc)

    def structure_table(self):
        """Sparse view {(i, j): {k: c}} for i < j, nonzero entries only."""
        out = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                row = {
                    k: c for k, c in enumerate(self.sc[i][j]) if not c.is_zero
                }
                if row:
                    out[(i, j)] = row
        return out

    def __eq__(self, other):
        return (
            isinstance(other, LieAlgebra)
            and self.labels == other.labels
            and self.sc == other.sc
        )

    def __repr__(self):
        return f"LieAlgebra({', '.join(self.labels)})"


def pair_gradients(pres: PoissonPresentation, pt: PointP) -> dict:
    """{(i, j): gradient of {x_i, x_j} at pt} over the pair brackets that are
    not identically zero; NotPoissonMaximalError unless pt is Poisson-maximal.
    These gradients are all that g(J) is made of."""
    if not is_poisson_maximal(pres, pt):
        raise NotPoissonMaximalError(f"{pt} is not a Poisson-maximal point")
    return {
        ij: poly.linear_part(pt)[1] for ij, poly in pres.pair_table().items() if not poly.is_zero
    }


def linearization(pres: PoissonPresentation, pt: PointP) -> tuple:
    """Structure constants of g(J) on the basis u_k = x_k - pt_k, as nested tuples.

    sc[i][j] is the gradient of {x_i, x_j} at the point: the bracket's value
    vanishes by Poisson maximality, so its class mod J^2 is the linear part.
    A bracket that is identically zero has no gradient; its rows stay zero.
    """
    n = len(pres.varset)
    sc = [[(ZERO,) * n] * n for _ in range(n)]
    for (i, j), grad in pair_gradients(pres, pt).items():
        sc[i][j] = grad
        sc[j][i] = tuple(-g for g in grad)
    return tuple(map(tuple, sc))


def lie_from_point(pres: PoissonPresentation, pt: PointP) -> LieAlgebra:
    """g(J) on the basis u_k = x_k - pt_k, from linear parts of generator
    brackets, with `at` = (pres, pt)."""
    lie = LieAlgebra(pres.varset.names, linearization(pres, pt))
    object.__setattr__(lie, "at", (pres, pt))
    return lie


@dataclass(frozen=True)
class InvariantPresentation:
    """Named invariant generators inside an ambient Poisson presentation.

    `lie_from_invariants` reads from the generators whether the total degree
    prunes its product basis, so the presentation carries no grading hints.
    """

    ambient: PoissonPresentation
    generator_names: tuple
    generators: tuple  # LaurentPoly over the ambient varset
    automorphisms: tuple = ()  # SubstitutionMap on the ambient varset
    relations: tuple = ()  # LaurentPoly over the generator varset

    def __post_init__(self):
        if len(self.generator_names) != len(self.generators):
            raise ValueError("one name per generator required")

    @property
    def generator_varset(self) -> VarSet:
        return VarSet(self.generator_names)

    def substitution(self) -> SubstitutionMap:
        """Generator varset -> ambient ring, sending each name to its polynomial."""
        return SubstitutionMap(self.generator_varset, self.generators)


@dataclass
class InvarianceReport:
    ok: bool
    failures: list = field(default_factory=list)


def verify_invariance(ip: InvariantPresentation) -> InvarianceReport:
    """Every generator is fixed by every automorphism; relations expand to zero."""
    failures = []
    for a_idx, auto in enumerate(ip.automorphisms):
        for name, gen in zip(ip.generator_names, ip.generators):
            if auto.apply(gen) != gen:
                failures.append(("generator", a_idx, name))
    sub = ip.substitution()
    for r in ip.relations:
        if not sub.apply(r).is_zero:
            failures.append(("relation", r))
    return InvarianceReport(not failures, failures)


def _graded(gens) -> bool:
    """Whether every generator is homogeneous in total degree, so that the
    total degree prunes the product basis."""
    return all(g.degree_wrt((1,) * len(g.varset)) is not None for g in gens)


def _enumerate_products(gens, bound: int):
    """All products of >= 2 generators with total degree <= bound.

    Returns (products, degrees): a product's degree is the sum of its factors'
    total degrees.
    """
    degs = [g.total_degree() for g in gens]
    products, degrees = [], []

    def extend(start, count, poly, deg):
        if count >= 2:
            products.append(poly)
            degrees.append(deg)
        for idx in range(start, len(gens)):
            d = degs[idx]
            if d is not None and deg + d <= bound:
                extend(idx, count + 1, poly * gens[idx], deg + d)

    extend(0, 0, LaurentPoly.const(gens[0].varset, 1), 0)
    return products, degrees


def lie_from_invariants(ip: InvariantPresentation) -> LieAlgebra:
    """g(J) from an invariant presentation via the mod-J^2 membership solve.

    Solves {G_i, G_j} = sum_k c_k G_k + (combination of products of >= 2
    generators) exactly over the monomial support, with products of total
    degree up to the largest target or generator.  The generators must stay
    independent modulo those products (J^2), so the linear parts are unique.
    When `_graded` finds every generator homogeneous in total degree, so is
    every product, and each check of a homogeneous polynomial needs only the
    products of its degree.
    """
    gens = list(ip.generators)
    names = list(ip.generator_names)
    m = len(gens)
    varset = ip.ambient.varset
    for name, flag in zip(varset.names, varset.laurent):
        if flag:
            raise ValueError(f"the base point is the origin, where Laurent variable {name} is 0")
    amb_origin = PointP(varset, [ZERO] * len(varset))
    for name, g in zip(names, gens):
        if not g.evaluate(amb_origin).is_zero:
            raise ValueError(f"generator {name} does not vanish at the base point")
    spec = ip.ambient.bracket_spec
    targets = {}
    for i in range(m):
        for j in range(i + 1, m):
            t = bracket(spec, gens[i], gens[j])
            if not t.is_zero:
                targets[(i, j)] = t
    sc = [[[ZERO] * m for _ in range(m)] for _ in range(m)]
    if not targets:
        return LieAlgebra(names, sc)
    bound = max(p.total_degree() or 0 for p in list(targets.values()) + gens)
    ones = (1,) * len(varset) if _graded(gens) else None
    products, degrees = _enumerate_products(gens, bound)

    def pruned(poly, total):  # the products up to total, of poly's degree if it has one
        d = None if ones is None else poly.degree_wrt(ones)
        return tuple(k for k, deg in enumerate(degrees) if deg <= total and d in (None, deg))

    classes = {}  # a dependency modulo J^2 holds among generators of equal degrees
    for g in gens:
        classes.setdefault(pruned(g, bound), []).append(g)
    independent = True
    for basis, members in classes.items():
        pivots = rref(support_matrix([products[k] for k in basis] + members))[1]
        independent &= all(len(basis) + c in pivots for c in range(len(members)))
    groups = {}  # pruned product basis -> the pairs whose targets it serves
    for pair, target in targets.items():
        groups.setdefault(pruned(target, target.total_degree()), []).append(pair)
    escapes = []
    for basis, pairs in groups.items():
        # One rref of [products | gens | targets]: a target whose column holds a
        # pivot escapes, and the later ones of its group are read only if none does.
        columns = [products[k] for k in basis] + gens
        reduced, pivots = rref(support_matrix(columns + [targets[pair] for pair in pairs]))
        rows = dict(zip(pivots, reduced))
        for col, (i, j) in enumerate(pairs, len(columns)):
            if col in rows:
                escapes.append((i, j))
            elif independent:
                for k, c in enumerate(range(len(basis), len(columns))):
                    sc[i][j][k], sc[j][i][k] = rows[c][col], -rows[c][col]
    if escapes:  # the first escaping pair in pair order is the first of its group
        i, j = min(escapes)
        raise NotExpressibleError(f"bracket of ({names[i]}, {names[j]}) escapes the "
                                  f"subalgebra up to the degree bound")
    if not independent:
        raise NotExpressibleError("generators are dependent modulo J^2; linear part not unique")
    return LieAlgebra(names, sc)
