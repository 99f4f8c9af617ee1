"""Construct the Lie algebra g(J) = J/J^2 at a Poisson-maximal point.

Two routes, mirroring the worked examples: linearize the generator brackets at
the point (polynomial presentations), or express brackets of invariant
generators in the generators modulo products of two or more of them
(invariant presentations).  Both produce structure-constant algebras whose
antisymmetry and Jacobi identity are enforced at construction.
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


def linearization(pres: PoissonPresentation, pt: PointP) -> tuple:
    """Structure constants of g(J) on the basis u_k = x_k - pt_k, as nested tuples.

    sc[i][j] is the gradient of {x_i, x_j} at the point: the bracket's value
    vanishes by Poisson maximality, so its class mod J^2 is the linear part.
    """
    if not is_poisson_maximal(pres, pt):
        raise NotPoissonMaximalError(f"{pt} is not a Poisson-maximal point")
    n = len(pres.varset)
    sc = [[(ZERO,) * n] * n for _ in range(n)]
    for (i, j), poly in pres.pair_table().items():
        _, grad = poly.linear_part(pt)
        sc[i][j] = tuple(grad)
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

    `gradings` lists weight vectors (one weight per ambient variable) under
    which all data is homogeneous; they only prune the product basis of the
    mod-J^2 solve and are never required for correctness.
    """

    ambient: PoissonPresentation
    generator_names: tuple
    generators: tuple  # LaurentPoly over the ambient varset
    automorphisms: tuple = ()  # SubstitutionMap on the ambient varset
    relations: tuple = ()  # LaurentPoly over the generator varset
    gradings: tuple = ()

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


def _enumerate_products(ip: InvariantPresentation, bound: int, weight_vectors):
    """All products of >= 2 generators with total degree <= bound.

    Returns (products, degree vectors) where each degree vector holds the
    product's degree under every usable grading (None marks a grading some
    generator is inhomogeneous for; those never filter).
    """
    names = list(ip.generator_names)
    gens = list(ip.generators)
    totals = [g.total_degree() for g in gens]
    grading_degs = []
    for w in weight_vectors:
        gds = [g.degree_wrt(w) for g in gens]
        grading_degs.append(gds if all(d is not None for d in gds) else None)

    products, degvecs = [], []

    def extend(start, count, poly, total, wdegs):
        if count >= 2:
            products.append(poly)
            degvecs.append((total,) + tuple(wdegs))
        for idx in range(start, len(gens)):
            d = totals[idx]
            if d is None or total + d > bound:
                continue
            extend(
                idx,
                count + 1,
                poly * gens[idx],
                total + d,
                [
                    None if gds is None or wd is None else wd + gds[idx]
                    for wd, gds in zip(wdegs, grading_degs)
                ],
            )

    one = LaurentPoly.const(ip.ambient.varset, 1)
    extend(0, 0, one, 0, [0 if gds is not None else None for gds in grading_degs])
    return products, degvecs


def lie_from_invariants(ip: InvariantPresentation) -> LieAlgebra:
    """g(J) from an invariant presentation via the mod-J^2 membership solve.

    Solves {G_i, G_j} = sum_k c_k G_k + (combination of products of >= 2
    generators) exactly over the monomial support; the linear coefficients are
    additionally checked to be unique, i.e. the generators stay independent
    modulo J^2.
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
    bound = max(t.total_degree() for t in targets.values())
    weight_vectors = [(1,) * len(ip.ambient.varset)] + list(ip.gradings)
    products, degvecs = _enumerate_products(ip, bound, weight_vectors)
    groups = {}  # pruned product basis -> the pairs whose targets it serves
    for pair, target in targets.items():
        tdegs = [target.degree_wrt(w) for w in weight_vectors]
        total = target.total_degree()
        # degs[0] tracks the summed total degree (the a-priori bound);
        # degs[1:] are exact degrees per weight vector, None when unusable
        basis = tuple(k for k, degs in enumerate(degvecs) if degs[0] <= total and all(
            pd is None or td is None or pd == td for pd, td in zip(degs[1:], tdegs)))
        groups.setdefault(basis, []).append(pair)
    solved = {}  # pair -> its linear part, or why it has none
    for basis, pairs in groups.items():
        # One rref of [products | gens | targets].  The linear parts are unique
        # iff each gens column holds a pivot.  A target whose column holds a
        # pivot escapes the span; the later targets of the group are not read.
        columns = [products[k] for k in basis] + gens
        reduced, pivots = rref(support_matrix(columns + [targets[pair] for pair in pairs]))
        rows = dict(zip(pivots, reduced))
        gen_cols = range(len(basis), len(columns))
        unique = all(c in rows for c in gen_cols)
        for col, (i, j) in enumerate(pairs, len(columns)):
            if col in rows:
                solved[i, j] = (f"bracket of ({names[i]}, {names[j]}) escapes the "
                                f"subalgebra up to the degree bound")
            elif not unique:
                solved[i, j] = "generators are dependent modulo J^2; linear part not unique"
            else:
                solved[i, j] = [rows[c][col] for c in gen_cols]
    for i, j in targets:  # in pair order, so the first failing pair is reported
        coeffs = solved[i, j]
        if isinstance(coeffs, str):
            raise NotExpressibleError(coeffs)
        for k in range(m):
            sc[i][j][k] = coeffs[k]
            sc[j][i][k] = -coeffs[k]
    return LieAlgebra(names, sc)
