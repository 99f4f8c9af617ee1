"""Construct the Lie algebra g(J) = J/J^2 at a Poisson-maximal point.

Two routes, mirroring the worked examples: linearize the generator brackets at
the point (polynomial presentations), or express brackets of invariant
generators in the generators modulo products of two or more of them
(invariant presentations), in a `linalg.IncrementalSpan` of the products
and the tagged generators.  The second route prunes its product basis by
the total degree when that grades the generators.  Both produce
structure-constant algebras whose antisymmetry and Jacobi identity are
enforced at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .brackets import PoissonPresentation, SubstitutionMap, bracket
from .errors import LieStructureError, NotExpressibleError, NotPoissonMaximalError
from .ideals import is_poisson_maximal
from .linalg import IncrementalSpan, Matrix, coordinates, unit_vector
from .poly import LaurentPoly, PointP, VarSet
from .scalars import Scalar, ZERO


class LieAlgebra:
    """Finite-dimensional structure-constant Lie algebra over exact scalars.

    `sc[i][j][k]` is the coefficient of e_k in [e_i, e_j].  The constructor
    also keeps, once, the nonzero (k, c) pairs of each [e_i, e_j] in
    `_pairs[i][j]`; `bracket`, `ad_matrix`, the construction check and
    `structure_table` read only those.  `at` is (presentation, point) when
    `lie_from_point` built the algebra as g(J) there, which certifies the
    point as Poisson-maximal; it is unset otherwise (read it with
    `getattr(lie, "at", None)`) and takes no part in equality.
    """

    __slots__ = ("labels", "sc", "_pairs", "at")

    def __init__(self, labels, sc, check=True):
        labels = tuple(labels)
        n = len(labels)
        sc = tuple(
            tuple(tuple(Scalar.coerce(c) for c in sc[i][j]) for j in range(n))
            for i in range(n)
        )
        pairs = tuple(
            tuple(tuple((k, c) for k, c in enumerate(row) if not c.is_zero) for row in rows)
            for rows in sc
        )
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sc", sc)
        object.__setattr__(self, "_pairs", pairs)
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
        """LieStructureError on the first pair (i, j) where [e_j, e_i] is not
        -[e_i, e_j], else on the first triple i < j < k whose Jacobiator is
        not 0.  A failing (i, j) makes (j, i) fail, so the first one has i <= j."""
        pairs, n = self._pairs, self.dim
        for i in range(n):
            for j in range(i, n):
                if pairs[i][j] != tuple((k, -c) for k, c in pairs[j][i]):
                    raise LieStructureError(
                        f"antisymmetry fails on ({self.labels[i]}, {self.labels[j]})"
                    )
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    if self._jacobiator(i, j, k):
                        raise LieStructureError(
                            f"Jacobi fails on ({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
                        )

    def _jacobiator(self, i, j, k) -> dict:
        """[[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] as its
        nonzero {m: c} entries."""
        pairs = self._pairs
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for l, x in pairs[a][b]:
                for m, y in pairs[l][c]:
                    acc[m] = acc[m] + x * y if m in acc else x * y
        return {m: c for m, c in acc.items() if not c.is_zero}

    def basis_vector(self, i):
        return unit_vector(self.dim, i)

    def bracket(self, u, v):
        """[u, v] on coordinate vectors."""
        pairs = self._pairs
        out = [ZERO] * self.dim
        right = [(j, b) for j, b in enumerate(v) if not b.is_zero]
        for i, a in enumerate(u):
            if a.is_zero:
                continue
            row = pairs[i]
            for j, b in right:
                if row[j]:
                    coeff = a * b
                    for k, c in row[j]:
                        out[k] = out[k] + coeff * c
        return tuple(out)

    def ad_matrix(self, u) -> Matrix:
        """Matrix of ad(u): column j is [u, e_j] in coordinates."""
        n = self.dim
        rows = [[ZERO] * n for _ in range(n)]
        for i, a in enumerate(u):
            if a.is_zero:
                continue
            for j, entries in enumerate(self._pairs[i]):
                for k, c in entries:
                    rows[k][j] = rows[k][j] + a * c
        return Matrix._raw(tuple(map(tuple, rows)))

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
        return {
            (i, j): dict(row[j])
            for i, row in enumerate(self._pairs)
            for j in range(i + 1, self.dim)
            if row[j]
        }

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
    not identically zero (the bracket spec's `nonzero`).  Each bracket's value
    and gradient come from one `linear_part`, and a value that is not 0
    raises NotPoissonMaximalError, so the pass also decides, as
    `is_poisson_maximal` does, that pt is Poisson-maximal.  These gradients
    are all that g(J) is made of."""
    if pt.varset != pres.varset:
        raise ValueError("point over a different variable set")
    gradients = {}
    for ij, poly in pres.bracket_spec.nonzero(pres.varset):
        value, gradients[ij] = poly.linear_part(pt)
        if not value.is_zero:
            raise NotPoissonMaximalError(f"{pt} is not a Poisson-maximal point")
    return gradients


def gradient_sc(n: int, gradients: dict) -> tuple:
    """Structure constants, as nested tuples, with sc[i][j] the gradient of
    the pair (i, j) in `gradients` (as `pair_gradients` gives them) and
    sc[j][i] its negative; every other row is zero."""
    sc = [[(ZERO,) * n] * n for _ in range(n)]
    for (i, j), grad in gradients.items():
        sc[i][j] = grad
        sc[j][i] = tuple(-g for g in grad)
    return tuple(map(tuple, sc))


def linearization(pres: PoissonPresentation, pt: PointP) -> tuple:
    """Structure constants of g(J) on the basis u_k = x_k - pt_k, as nested tuples.

    sc[i][j] is the gradient of {x_i, x_j} at the point: the bracket's value
    vanishes by Poisson maximality, so its class mod J^2 is the linear part.
    A bracket that is identically zero has no gradient; its rows stay zero.
    The point is certified first, by one `is_poisson_maximal` call.
    """
    if not is_poisson_maximal(pres, pt):
        raise NotPoissonMaximalError(f"{pt} is not a Poisson-maximal point")
    return gradient_sc(len(pres.varset), pair_gradients(pres, pt))


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
    generators) exactly, with products of total degree up to the largest
    target or generator, in an `IncrementalSpan` of the products, untagged,
    and then the generators, generator k with tag k: a target escapes when it
    does not reduce to 0 there, and the c_k are its coordinates, read off the
    tags.  The generators must stay
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
    spans = (IncrementalSpan(products[k].terms for k in basis) for basis in classes)
    independent = all(all(span.add(g.terms) for g in members)
                      for span, members in zip(spans, classes.values()))
    groups = {}  # pruned product basis -> the pairs whose targets it serves
    for pair, target in targets.items():
        groups.setdefault(pruned(target, target.total_degree()), []).append(pair)
    escapes = []
    for basis, pairs in groups.items():
        # a target escapes when it lies outside span(products, gens); the later
        # ones of its group are read only if none does
        span = IncrementalSpan(products[k].terms for k in basis)
        for k, g in enumerate(gens):
            span.add(g.terms, k)
        for i, j in pairs:
            coords = span.coordinates(targets[(i, j)].terms)
            if coords is None:
                escapes.append((i, j))
                break
            for k in range(m):
                c = coords.get(k, ZERO)
                sc[i][j][k], sc[j][i][k] = c, -c
    if escapes:  # the first escaping pair in pair order is the first of its group
        i, j = min(escapes)
        raise NotExpressibleError(f"bracket of ({names[i]}, {names[j]}) escapes the "
                                  f"subalgebra up to the degree bound")
    if not independent:
        raise NotExpressibleError("generators are dependent modulo J^2; linear part not unique")
    return LieAlgebra(names, sc)
