"""Exact linear algebra over Scalar: elimination, kernels, subspaces,
eigenproblems, weight graphs and the density hull.

Everything is fraction-free in spirit but implemented directly over the scalar
field (Q or one quadratic extension); Gaussian elimination with exact pivots
is both the solver and the verifier here.  `rref` works in place and touches
only the columns where the pivot row is nonzero.  The subspace routines are
`coordinates` (every vector's coordinates in a basis, from one rref),
`restrict_action` (matrices on an invariant subspace, built on it), `closure`
(the smallest span holding some seeds and stable under linear maps, grown in
an IncrementalSpan) and `relation_test` (whether coefficients combine some
vectors to zero, read on a column basis of them).  eigen_small factors
characteristic polynomials over Q plus at most one quadratic extension,
reporting the discriminant it had to introduce; its root search is bounded by
the matrix's row-sum norm, so it has no dimension cap.  Two weight routes feed
the submodule analysis in `modules`: `weight_graph` reads the unit vectors as
weight vectors when some combination of the matrices is diagonal with
distinct entries (one kernel solve, then zero tests only), and `_weight_seeds`
takes the eigenvectors of an action matrix with one-dimensional eigenspaces
(MeatAxe's vector closures start from them); `associative_hull_is_full` is the
density criterion, itself a closure, for a module with neither.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from .errors import AtlasError, ExtensionRequiredError, ScalarDomainError
from .scalars import Scalar, ZERO, ONE, scalar_sqrt, common_domain


class Matrix:
    """Dense rectangular matrix of Scalars; immutable, operator-friendly."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(
            tuple(x if type(x) is Scalar else Scalar.coerce(x) for x in row)
            for row in rows
        )
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *args):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def _raw(rows: tuple) -> "Matrix":
        """Internal: skip validation for a tuple of equal-length tuples of Scalars."""
        m = object.__new__(Matrix)
        object.__setattr__(m, "rows", rows)
        return m

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._raw(tuple(unit_vector(n, i) for i in range(n)))

    @staticmethod
    def zeros(r: int, c: int) -> "Matrix":
        return Matrix([[ZERO] * c for _ in range(r)])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other):
        return Matrix._raw(tuple(
            tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)
        ))

    def __sub__(self, other):
        return Matrix._raw(tuple(
            tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.rows, other.rows)
        ))

    def __neg__(self):
        return Matrix._raw(tuple(tuple(-a for a in r) for r in self.rows))

    def scale(self, s) -> "Matrix":
        s = Scalar.coerce(s)
        return Matrix._raw(tuple(tuple(a * s for a in r) for r in self.rows))

    def __mul__(self, other):
        """Matrix product, row by row: row i is sum_l self[i, l] * other.rows[l],
        with every product that has a zero factor skipped."""
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        rows = []
        for row in self.rows:
            acc = [ZERO] * other.ncols
            for a, other_row in zip(row, other.rows):
                if a.is_zero:
                    continue
                for j, b in enumerate(other_row):
                    if not b.is_zero:
                        acc[j] = acc[j] + a * b
            rows.append(tuple(acc))
        return Matrix._raw(tuple(rows))

    def __rmul__(self, s):
        return self.scale(s)

    def apply(self, vec):
        """Matrix-vector product on a tuple of Scalars."""
        return tuple(_dot(row, vec) for row in self.rows)

    def trace(self) -> Scalar:
        return sum((self.rows[i][i] for i in range(self.nrows)), ZERO)

    @property
    def is_zero(self) -> bool:
        return all(a.is_zero for r in self.rows for a in r)

    def commutator(self, other: "Matrix") -> "Matrix":
        return self * other - other * self

    def flat(self):
        return tuple(a for r in self.rows for a in r)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = "; ".join(", ".join(str(a) for a in r) for r in self.rows)
        return f"Matrix[{body}]"


def unit_vector(dim: int, i: int) -> tuple:
    """The i-th standard basis vector of length dim."""
    return tuple(ONE if k == i else ZERO for k in range(dim))


def linear_combination(coeffs, mats, nrows: int, ncols: int) -> Matrix:
    """sum_k coeffs[k] * mats[k] as an nrows x ncols Matrix, built entrywise.

    Equal to summing `m.scale(c)` from the zero matrix; zero coefficients and
    zero entries are skipped, and the result is constructed once.
    """
    acc = [[ZERO] * ncols for _ in range(nrows)]
    for c, m in zip(coeffs, mats):
        c = Scalar.coerce(c)
        if c.is_zero:
            continue
        for out, row in zip(acc, m.rows):
            for j, x in enumerate(row):
                if not x.is_zero:
                    out[j] = out[j] + c * x
    return Matrix._raw(tuple(map(tuple, acc)))


def _dot(u, v):
    total = None
    for a, b in zip(u, v):
        if a.is_zero or b.is_zero:
            continue
        total = a * b if total is None else total + a * b
    return ZERO if total is None else total


def trace_product(a: "Matrix", b: "Matrix") -> Scalar:
    """trace(a @ b) without forming the product."""
    total = ZERO
    for i, row in enumerate(a.rows):
        for k, x in enumerate(row):
            if not x.is_zero:
                y = b.rows[k][i]
                if not y.is_zero:
                    total = total + x * y
    return total


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column list).

    Rows are updated in place, and only on the support of the pivot row: the
    rows from the pivot down are zero left of the pivot column, and an entry
    where the pivot row is zero would only have 0 subtracted from it.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if not rows[i][c].is_zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        inv = prow[c].inverse()
        support = [k for k in range(c, ncols) if not prow[k].is_zero]
        for k in support:
            prow[k] = prow[k] * inv
        for i, row in enumerate(rows):
            if i != r and not row[c].is_zero:
                factor = row[c]
                for k in support:
                    row[k] = row[k] - factor * prow[k]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def solve_linear(matrix, rhs):
    """One exact solution of M x = b, its free coordinates 0, or None if
    inconsistent: the coordinates of b on the columns of M."""
    coords = coordinates(list(zip(*matrix)), [rhs])
    return None if coords is None else coords[0]


def kernel_basis(matrix):
    """Basis of the null space, one vector per free column, pivot-normalized."""
    return _kernel(*rref(matrix), len(matrix[0])) if matrix else []


def _kernel(reduced, pivots, ncols):
    """The null space read off an rref: one vector per free column, with 1 there."""
    kernel = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [ZERO] * ncols
        vec[f] = ONE
        for row, c in zip(reduced, pivots):
            vec[c] = -row[f]
        kernel.append(tuple(vec))
    return kernel


def coordinates(basis, vectors):
    """Coordinates of every vector in `basis`, read from one rref of [basis | vectors].

    None when some vector lies outside the span.  For a dependent basis every
    free coordinate is 0, as `solve_linear` gives.
    """
    k = len(basis)
    reduced, pivots = rref([list(row) for row in zip(*basis, *vectors)])
    if pivots and pivots[-1] >= k:  # a pivot in a vector column: outside the span
        return None
    out = [[ZERO] * k for _ in vectors]
    for row, c in zip(reduced, pivots):
        for coords, x in zip(out, row[k:]):
            coords[c] = x
    return [tuple(coords) for coords in out]


def restrict_action(mats, basis):
    """Action matrices in the coordinates of an invariant subspace basis."""
    images = [m.apply(v) for m in mats for v in basis]
    coords = coordinates(basis, images)
    if coords is None:
        raise AtlasError("subspace is not invariant")
    k = len(basis)
    return [Matrix._raw(tuple(zip(*coords[i * k : i * k + k]))) for i in range(len(mats))]


def row_space_basis(vectors):
    """Canonical (rref) basis of the span; doubles as a subspace signature."""
    reduced, pivots = rref(list(vectors))
    return tuple(tuple(row) for row in reduced[: len(pivots)])


def relation_test(vectors):
    """The test `sum_k c[k] * vectors[k] == 0` on coefficient vectors c.

    It reads only a column basis of the vectors, the pivot columns of one
    rref: every other column is a combination of those, so a combination that
    vanishes there vanishes everywhere.  A c shorter than `vectors` leaves the
    remaining coefficients 0.
    """
    vectors = [tuple(v) for v in vectors]
    columns = [tuple(v[c] for v in vectors) for c in rref(vectors)[1]]
    return lambda coeffs: all(_dot(coeffs, col).is_zero for col in columns)


class IncrementalSpan:
    """Row-echelon accumulator with O(rank * n) membership and insertion."""

    def __init__(self, vectors=()):
        self.rows = {}  # pivot position -> normalized row
        for v in vectors:
            self.add(v)

    def reduce(self, vec):
        """`vec` minus its components along the stored rows (zero at each pivot)."""
        v = list(vec)
        for p in sorted(self.rows):
            if not v[p].is_zero:
                factor = v[p]
                row = self.rows[p]
                v = [a - factor * b for a, b in zip(v, row)]
        return v

    def add(self, vec) -> bool:
        """Insert if independent; returns True when the rank grew."""
        v = self.reduce(vec)
        pivot = next((i for i, c in enumerate(v) if not c.is_zero), None)
        if pivot is None:
            return False
        inv = v[pivot].inverse()
        self.rows[pivot] = tuple(c * inv for c in v)
        return True

    def contains(self, vec) -> bool:
        return all(c.is_zero for c in self.reduce(vec))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis(self):
        return row_space_basis([self.rows[p] for p in sorted(self.rows)])


def closure(seeds, maps) -> IncrementalSpan:
    """The smallest span holding `seeds` and stable under the linear `maps`.

    Each map takes a vector (a tuple) to a vector of the same length.  Every
    new vector is mapped in turn, last found first, until the span is stable
    or fills the whole space.
    """
    span = IncrementalSpan()
    frontier = []
    for v in map(tuple, seeds):
        if span.add(v):
            frontier.append(v)
    full = len(frontier[0]) if frontier else 0
    while frontier and span.rank < full:
        v = frontier.pop()
        for f in maps:
            image = f(v)
            if span.add(image):
                frontier.append(image)
    return span


def associative_hull_is_full(mats, dim: int) -> bool:
    """Density criterion: the unital algebra generated by `mats` spans End(C^d).

    For a module over the complex numbers presented by matrices over Q or
    Q(sqrt d), simplicity is equivalent to the hull having dimension d^2.  The
    hull is the closure of I and the generators under X -> Xg and X -> gX,
    on matrices flattened row by row.
    """
    if dim == 0:
        return False

    def square(flat):
        return Matrix._raw(tuple(flat[i : i + dim] for i in range(0, dim * dim, dim)))

    maps = []
    for g in mats:
        maps.append(lambda x, g=g: (square(x) * g).flat())
        maps.append(lambda x, g=g: (g * square(x)).flat())
    seeds = [Matrix.identity(dim)] + list(mats)
    return closure([m.flat() for m in seeds], maps).rank == dim * dim


def charpoly(m: Matrix):
    """Coefficients [1, c1, ..., cn] of det(tI - M) via Faddeev-LeVerrier."""
    n = m.nrows
    coeffs = [ONE]
    acc = Matrix.identity(n)
    for k in range(1, n + 1):
        acc = m * acc
        c = -(acc.trace() / k)
        coeffs.append(c)
        acc = acc + Matrix.identity(n).scale(c)
    return coeffs


def _poly_eval(coeffs, x):
    """Horner's rule, on Scalars or on ints."""
    total = coeffs[0]
    for c in coeffs[1:]:
        total = total * x + c
    return total


def _divide(f, g):
    """(quotient, remainder) of f by a monic g, coefficients leading first
    (ints, Fractions or Scalars)."""
    f = list(f)
    k = max(len(f) - len(g) + 1, 0)
    for i in range(k):
        c = f[i]
        if c:
            for j in range(1, len(g)):
                f[i + j] -= c * g[j]
    return f[:k], f[k:]


def _squarefree(f):
    """f / gcd(f, f') for a monic integer f: the same roots, each once."""
    n = len(f) - 1
    a = [Fraction(c) for c in f]
    b = [Fraction(c * (n - i)) for i, c in enumerate(f[:-1])]
    while b:  # Euclid over Q, each divisor made monic
        b = [c / b[0] for c in b]
        a, b = b, _divide(a, b)[1]
        while b and not b[0]:
            b.pop(0)
    return [int(c) for c in _divide(f, a)[0]]


def _integer_roots(f, bound: int):
    """(roots with multiplicity, rest) for a monic integer f whose roots all
    have absolute value at most `bound`: only divisors p <= bound of the
    constant term are tried."""
    roots = []
    while len(f) > 1 and f[-1] == 0:
        roots.append(0)
        f = f[:-1]
    p = 1
    while len(f) > 1 and p <= min(bound, abs(f[-1])):
        if f[-1] % p == 0:
            for r in (p, -p):
                while len(f) > 1 and _poly_eval(f, r) == 0:
                    roots.append(r)
                    f = _divide(f, (1, -r))[0]
        p += 1
    return roots, f


def _quadratic_factor(f, bound: int):
    """A monic quadratic t^2 + b t + c dividing a monic integer f of degree
    >= 2 with no integer root, or None.  Its roots have absolute value at most
    `bound`, so |b| <= 2 bound and 0 < |c| <= bound^2, c divides f(0), and
    its values at 1 and -1 divide f(1) and f(-1)."""
    if len(f) == 3:
        return f
    f0, f1, f_1 = f[-1], _poly_eval(f, 1), _poly_eval(f, -1)
    for size in range(1, min(bound * bound, abs(f0)) + 1):
        if f0 % size:
            continue
        for c in (size, -size):
            for b in range(-2 * bound, 2 * bound + 1):
                at1, at_1 = 1 + b + c, 1 - b + c
                if at1 and at_1 and not f1 % at1 and not f_1 % at_1:
                    if not any(_divide(f, (1, b, c))[1]):
                        return [1, b, c]
    return None


class EigenResult:
    """Exact eigenvalues with multiplicities and eigenvectors."""

    def __init__(self, pairs, discriminant):
        self.pairs = pairs  # list of (eigenvalue, multiplicity, [eigenvectors])
        self.discriminant = discriminant  # 0 when everything stayed rational

    def eigenvalues(self):
        out = []
        for value, mult, _ in self.pairs:
            out.extend([value] * mult)
        return out


def _roots_by_quadratic_factors(f, bound: int):
    """Every root of a monic integer f whose roots lie within `bound`: its
    integer roots, then the roots of the quadratic factors of its squarefree
    rest.  Raises ExtensionRequiredError when an irreducible factor of degree
    above 2 remains."""
    roots, rest = _integer_roots(f, bound)
    roots = [Scalar(r) for r in roots]
    if len(rest) > 1:
        rest = _squarefree(rest)
    while len(rest) > 1:
        quadratic = _quadratic_factor(rest, bound)
        if quadratic is None:
            raise ExtensionRequiredError("extension beyond quadratic required")
        _, b, c = quadratic
        root = scalar_sqrt(b * b - 4 * c)
        roots += [(root - b) / 2, (-root - b) / 2]
        rest = _divide(rest, quadratic)[0]
    return roots


def _spectral_bound(m: Matrix) -> int:
    """An integer bound on the row-sum norm of a matrix over Q or Q(sqrt d): no
    eigenvalue of it or of its conjugate is larger in absolute value, as
    |a +- b sqrt d| <= |a| + |b| ceil(sqrt |d|)."""
    d = abs(common_domain(m.flat()))
    root = isqrt(d) + (isqrt(d) ** 2 < d)
    return max(
        (sum(-(-(abs(x.n) + abs(x.m) * root) // x.q) for x in row) for row in m.rows),
        default=0,
    )


def _root_bound(f) -> int:
    """Fujiwara's bound 2 max |f_i|^(1/i) on the roots of a monic integer f,
    each |f_i|^(1/i) rounded up to a power of 2."""
    return 2 * max(
        (1 << -(-abs(c).bit_length() // i) for i, c in enumerate(f[1:], 1) if c), default=0
    )


def _root_scale(denominators) -> int:
    """A k > 0 with k^i c_i integral for every i, given the denominators of
    the coefficients c_i of a monic rational polynomial, c_0 = 1 leading: the
    least one when no denominator has a prime factor above 1000, whose
    exponents are then read off; a larger factor is taken whole."""
    exponents = {}  # prime -> least exponent in k
    rest = 1
    for i, g in enumerate(denominators[1:], 1):
        p = 2
        while g > 1 and p < 1000:
            e = 0
            while g % p == 0:
                g //= p
                e += 1
            if e:
                exponents[p] = max(exponents.get(p, 0), -(-e // i))
            p += 1
        rest = lcm(rest, g)
    for p, e in exponents.items():
        rest *= p**e
    return rest


def eigen_small(m: Matrix) -> EigenResult:
    """Exact eigendecomposition over Q or one Q(sqrt d).

    The characteristic polynomial (for entries in Q(sqrt d), its product with
    its conjugate, which is rational) has its roots scaled by the integer k of
    `_root_scale`, so that it becomes monic with integer coefficients; its
    roots are then searched up to k times the row-sum bound of
    `_spectral_bound`, or up to the polynomial's own `_root_bound` where that
    is smaller, and each root's multiplicity is read off the characteristic
    polynomial.  Raises ExtensionRequiredError when the
    spectrum does not fit in a single quadratic extension.
    """
    n = m.nrows
    if n != m.ncols:
        raise ValueError("eigen_small needs a square matrix")
    entry_d = common_domain(m.flat())
    cp = charpoly(m)
    rational = cp if entry_d == 0 else _poly_mul(cp, [c.conj() for c in cp])
    scale = _root_scale([c.q for c in rational])
    monic = [c.n * scale**i // c.q for i, c in enumerate(rational)]
    candidates = _roots_by_quadratic_factors(
        monic, min(scale * _spectral_bound(m), _root_bound(monic))
    )
    try:
        common_domain(candidates + [Scalar(0, 1, entry_d) if entry_d else ZERO])
    except ScalarDomainError:
        raise ExtensionRequiredError("extension beyond quadratic required") from None
    grouped = {}
    work = cp
    for value in dict.fromkeys(c / scale for c in candidates):  # distinct, in order
        while len(work) > 1 and _poly_eval(work, value).is_zero:
            grouped[value] = grouped.get(value, 0) + 1
            work = _divide(work, (ONE, -value))[0]
    if len(work) > 1:
        raise ExtensionRequiredError("extension beyond quadratic required")
    pairs = []
    for value in sorted(grouped, key=Scalar.sort_key):
        shifted = m - Matrix.identity(n).scale(value)
        vectors = kernel_basis([list(row) for row in shifted.rows])
        pairs.append((value, grouped[value], vectors))
    disc = common_domain([v for v, _, _ in pairs])
    return EigenResult(pairs, disc)


def _poly_mul(p, q):
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def reachable(graph, start: int) -> frozenset:
    """The vertices reachable from `start` along the edges i -> j in graph[i]."""
    seen = {start}
    stack = [start]
    while stack:
        for j in graph[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return frozenset(seen)


def weight_graph(mats, dim: int):
    """graph[i] = every j != i with some M_k[j][i] != 0, when some
    H = sum_k c_k M_k is diagonal with pairwise distinct entries; else None.

    Every submodule is then H-stable, so it is the span of the unit vectors
    on a set closed under the graph's edges.  The diagonal combinations are
    the kernel of the off-diagonal entries, one `kernel_basis` solve; with
    H_1..H_r from a basis of it, such an H exists iff the weight tuples
    (H_1[j][j], ..., H_r[j][j]) are pairwise distinct (then H on the moment
    curve sum_i t^(i-1) H_i separates each pair for all but at most r - 1
    values of t), so H itself is never built.  After the solve only zero
    tests are made.
    """
    conditions = IncrementalSpan()  # rows (M_1[j][i], ..., M_n[j][i]) with sum_k c_k M_k[j][i] = 0
    graph = [set() for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            entries = tuple(m.rows[j][i] for m in mats)
            if i != j and any(not x.is_zero for x in entries):
                graph[i].add(j)
                conditions.add(entries)
                if conditions.rank == len(mats):  # only H = 0 is diagonal
                    return None
    rows = [list(conditions.rows[p]) for p in sorted(conditions.rows)]
    if rows:
        kernel = kernel_basis(rows)
    else:
        kernel = [unit_vector(len(mats), k) for k in range(len(mats))]
    weights = {tuple(_dot(c, [m.rows[j][j] for m in mats]) for c in kernel) for j in range(dim)}
    return tuple(map(frozenset, graph)) if len(weights) == dim else None


def _weight_seeds(mats, dim: int):
    """(seeds, complete): weight vectors that find every simple submodule, or
    the basis vectors.

    The weight vectors are the eigenvectors of the first action matrix whose
    eigenspaces are all one-dimensional.  Every submodule is stable under
    that matrix, so each simple submodule holds one of them and is the
    closure of it: the socle is found exactly.  A matrix is skipped when its
    spectrum needs more than one quadratic extension, or another one than the
    entries of the matrices lie in; without a grading the basis vectors seed.
    """
    field = common_domain([x for m in mats for x in m.flat()])
    for m in mats:
        try:
            eig = eigen_small(m)
        except ExtensionRequiredError:
            continue
        if field and eig.discriminant not in (0, field):
            continue
        if all(len(vecs) == 1 for _, _, vecs in eig.pairs):
            return tuple(vecs[0] for _, _, vecs in eig.pairs), True
    return tuple(unit_vector(dim, i) for i in range(dim)), False
