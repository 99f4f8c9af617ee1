"""Construct the Lie algebra g(J) = J/J^2 at a Poisson-maximal point.

Two routes, mirroring the worked examples: linearize the generator brackets at
the point (polynomial presentations), or express brackets of invariant
generators in the generators modulo products of two or more of them
(invariant presentations), in a `linalg.IncrementalSpan` of the products
and the tagged generators.  The second route prunes its product basis by
the total degree when that grades the generators.  Both give `LieAlgebra`
its brackets on the pairs i < j, so antisymmetry holds by construction, and
the constructor checks the Jacobi identity.  `lie_from_point` is the one
place that certifies a point as Poisson-maximal; it keeps the g(J) it builds
on the point, so every later request at that point reads the same algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .brackets import PoissonPresentation, SubstitutionMap, bracket
from .errors import LieStructureError, NotExpressibleError, NotPoissonMaximalError
from .linalg import IncrementalSpan, Matrix, unit_vector
from .poly import LaurentPoly, PointP, VarSet
from .scalars import Scalar, ZERO


class LieAlgebra:
    """Finite-dimensional structure-constant Lie algebra over exact scalars.

    Built from its brackets on the pairs i < j, `{(i, j): row}`, where row is
    [e_i, e_j] as {k: c} or, read as {position: c}, a sequence (a gradient);
    [e_j, e_i] is its negative, so antisymmetry holds by construction, and the
    constructor checks the Jacobi identity.  `_pairs[i][j]` keeps the nonzero
    (k, c) of [e_i, e_j], k ascending, for every i and j; everything else,
    equality too, reads only those.
    """

    __slots__ = ("labels", "_pairs")

    def __init__(self, labels, brackets):
        labels = tuple(labels)
        n = len(labels)
        pairs = [[()] * n for _ in range(n)]
        for (i, j), row in brackets.items():
            row = sorted(row.items()) if isinstance(row, dict) else tuple(enumerate(row))
            if not 0 <= i < j < n:
                raise ValueError(f"bracket pair ({i}, {j}) is not i < j < {n}")
            if not all(0 <= k < n for k, _ in row):
                raise ValueError(f"[e_{i}, e_{j}] has a coefficient outside 0..{n - 1}")
            coerced = ((k, Scalar.coerce(c)) for k, c in row)
            pairs[i][j] = tuple((k, c) for k, c in coerced if not c.is_zero)
            pairs[j][i] = tuple((k, -c) for k, c in pairs[i][j])
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_pairs", tuple(map(tuple, pairs)))
        self._verify()

    def __setattr__(self, *args):
        raise AttributeError("LieAlgebra is immutable")

    @property
    def dim(self) -> int:
        return len(self.labels)

    @staticmethod
    def from_brackets(labels, table) -> "LieAlgebra":
        """Build from a sparse table {(a, b): {c: coeff}} with [a, b] = sum coeff*c.

        A pair may be given in either order, once.  ValueError on a name
        outside `labels`, a diagonal pair or a pair given twice.
        """
        labels = tuple(labels)
        idx = {l: i for i, l in enumerate(labels)}
        unknown = {a for pair, row in table.items() for a in (*pair, *row)}.difference(idx)
        if unknown:
            raise ValueError(f"unknown labels {sorted(unknown)}")
        brackets = {}
        for (a, b), row in table.items():
            i, j = idx[a], idx[b]
            if i == j:
                raise ValueError(f"diagonal bracket [{a},{b}]")
            row = {idx[c]: Scalar.coerce(coeff) for c, coeff in row.items()}
            if i > j:
                i, j, row = j, i, {k: -c for k, c in row.items()}
            if (i, j) in brackets:
                raise ValueError(f"bracket [{a},{b}] given twice")
            brackets[i, j] = row
        return LieAlgebra(labels, brackets)

    def _verify(self):
        """LieStructureError on the first triple i < j < k whose Jacobiator
        is not 0."""
        for i, j, k in combinations(range(self.dim), 3):
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

    def change_basis(self, matrix: Matrix, labels=None) -> "LieAlgebra":
        """Structure constants in the basis whose vectors are the matrix columns.

        With fewer columns than rows, the columns are the basis of a
        subalgebra and `labels` names them.  Only the pairs i < j are solved,
        in one span of the columns.  ValueError when the labels are not one
        per column, when the columns are dependent, or when a bracket of two
        columns leaves their span.
        """
        cols = list(zip(*matrix.rows))
        labels = tuple(labels or self.labels)
        if len(labels) != len(cols):
            raise ValueError(f"{len(labels)} labels for {len(cols)} columns")
        span = IncrementalSpan()
        if not all(span.add(col, tag=k) for k, col in enumerate(cols)):
            raise ValueError("the columns are linearly dependent")
        pairs = [(i, j) for i in range(len(cols)) for j in range(i + 1, len(cols))]
        coords = [span.coordinates(self.bracket(cols[i], cols[j])) for i, j in pairs]
        if None in coords:
            raise ValueError("the columns do not span a subalgebra")
        return LieAlgebra(labels, dict(zip(pairs, coords)))

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
            and self._pairs == other._pairs
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
    for ij, poly in pres.bracket_spec.nonzero:
        value, gradients[ij] = poly.linear_part(pt)
        if not value.is_zero:
            raise NotPoissonMaximalError(f"{pt} is not a Poisson-maximal point")
    return gradients


def lie_from_point(pres: PoissonPresentation, pt: PointP) -> LieAlgebra:
    """g(J) on the basis u_k = x_k - pt_k, with [u_i, u_j] the gradient of
    {x_i, x_j} at pt (the bracket vanishes there, so its class mod J^2 is its
    linear part): one `pair_gradients` pass, which also refuses a point that
    is not Poisson-maximal, and whose gradients are the brackets `LieAlgebra`
    takes.  The algebra is kept in the point's `_obligations` under `pres`,
    so later calls at that point return the same object; a point that fails
    is never kept, so it raises on every call."""
    lie = pt._obligations.get(pres)
    if lie is None:
        lie = LieAlgebra(pres.varset.names, pair_gradients(pres, pt))
        pt._obligations[pres] = lie
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
    brackets = {}
    if not targets:
        return LieAlgebra(names, brackets)
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
            brackets[i, j] = coords
    if escapes:  # the first escaping pair in pair order is the first of its group
        i, j = min(escapes)
        raise NotExpressibleError(f"bracket of ({names[i]}, {names[j]}) escapes the "
                                  f"subalgebra up to the degree bound")
    if not independent:
        raise NotExpressibleError("generators are dependent modulo J^2; linear part not unique")
    return LieAlgebra(names, brackets)
