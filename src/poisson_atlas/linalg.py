"""Exact linear algebra over Scalar: elimination, kernels, subspaces,
eigenproblems, weight graphs and the density hull.

Everything is exact over the scalar field (Q or one quadratic extension),
and there is one elimination: `IncrementalSpan`, an echelon span on sparse
rows of vectors and of polynomials (`LaurentPoly.terms` dicts).  It keeps
coordinates only on the vectors added with a tag, which is how `lie` solves
modulo J^2, and its `basis` is the reduced row echelon form.  `rref`, `rank`,
`row_space_basis`, `kernel_basis` (read off the reduced rows at the free
columns), `coordinates` (the one change of basis: basis vector k tagged k,
so a dependent one gets 0) and `relation_test` (coefficient vectors tested
on the columns at the span's leads) are views of one span; `restrict_action`
(matrices on an invariant subspace) and `closure` (the smallest span holding
some seeds and stable under linear maps) are built on it.  eigen_small factors
characteristic polynomials over Q plus at most one quadratic extension,
reporting the discriminant it had to introduce; it takes the rational roots
and quadratic factors from `intpoly`, searched up to the matrix's row-sum
norm, so it has no dimension cap.  The submodule analysis in `modules` takes
its seeds and reaches from here: the unit vectors, reaching along the
`weight_graph` (one span, then zero tests only) when a combination of
the matrices is diagonal with distinct entries; else `_weight_seeds`, the
eigenvectors of an action matrix with one-dimensional eigenspaces or the basis
vectors, each reaching the seeds in its `closure` (MeatAxe's vector closures).
`associative_hull_is_full` is the density criterion, itself a closure.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import isqrt

from .errors import AtlasError, ExtensionRequiredError, ScalarDomainError
from .intpoly import (
    divide, evaluate, mul, quadratic_factors, rational_roots, root_bound, root_scale,
)
from .scalars import Scalar, ZERO, ONE, muladd, mulsub, scalar_sqrt, common_domain


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

    def shift(self, c) -> "Matrix":
        """M + c*I for a square M: c is added to the diagonal entries alone."""
        c = Scalar.coerce(c)
        return Matrix._raw(tuple(r[:i] + (r[i] + c,) + r[i + 1 :] for i, r in enumerate(self.rows)))

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
                        acc[j] = muladd(acc[j], a, b)
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
                    out[j] = muladd(out[j], c, x)
    return Matrix._raw(tuple(map(tuple, acc)))


def _dot(u, v):
    total = None
    for a, b in zip(u, v):
        if a.is_zero or b.is_zero:
            continue
        total = a * b if total is None else muladd(total, a, b)
    return ZERO if total is None else total


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column list): the
    canonical basis of the rows' span, then zero rows up to their number."""
    rows = list(rows)
    span = IncrementalSpan(rows)
    padding = [[ZERO] * span.width for _ in rows[span.rank :]]
    return [list(r) for r in span.basis()] + padding, span.leads


def rank(rows) -> int:
    return IncrementalSpan(rows).rank


def kernel_basis(matrix):
    """Basis of the null space, one vector per free column, pivot-normalized."""
    span = IncrementalSpan(matrix)
    return _kernel(span.basis(), span.leads, len(matrix[0])) if matrix else []


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


def coordinates(basis, vectors, independent=False):
    """Coordinates of every vector in `basis`, whose vectors are the columns
    of the change of basis, read in one span of them, basis vector k tagged k.

    None when some vector lies outside the span.  A dependent basis raises
    ValueError with `independent`, before any vector is read; without, every
    free coordinate is 0: a basis vector that adds nothing gets no coordinate.
    """
    span = IncrementalSpan()
    if not all([span.add(v, tag=k) for k, v in enumerate(basis)]) and independent:
        raise ValueError("the columns are linearly dependent")
    coords = [span.coordinates(v) for v in vectors]
    if None in coords:
        return None
    return [tuple(c.get(k, ZERO) for k in range(len(basis))) for c in coords]


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
    return IncrementalSpan(vectors).basis()


def relation_test(vectors):
    """The test `sum_k c[k] * vectors[k] == 0` on coefficient vectors c.

    It reads only a column basis of the vectors, the leads of their span:
    every other column is a combination of those, so a combination that
    vanishes there vanishes everywhere.  A c shorter than `vectors` leaves the
    remaining coefficients 0.
    """
    vectors = [tuple(v) for v in vectors]
    columns = [tuple(v[c] for v in vectors) for c in IncrementalSpan(vectors).leads]
    return lambda coeffs: all(_dot(coeffs, col).is_zero for col in columns)


def _subtract(acc: dict, f: Scalar, row: dict):
    """acc -= f * row on {key: Scalar} dicts; an entry that cancels stays, as 0."""
    for key, c in row.items():
        acc[key] = mulsub(acc[key], f, c) if key in acc else -(f * c)


def _nonzero(vec: dict) -> dict:
    return {key: c for key, c in vec.items() if not c.is_zero}


class IncrementalSpan:
    """The span of some vectors, in echelon form on sparse rows.

    A vector is a {key: Scalar} dict, such as `LaurentPoly.terms`, or a
    sequence of Scalars, read as {position: entry}.  A row is such a dict with
    entry 1 at its lead, its least key, and it is filed under that lead; no
    two rows share one, so one pass up the leads reduces a vector.  On
    sequences the leads are the pivot positions of a row echelon form.  A
    vector added with a `tag` carries it into the rows it enters: such a row
    keeps, in `coords`, its coordinates {tag: c} on the tagged vectors, which
    `coordinates` reads.  A span with no tagged vector keeps none.
    """

    def __init__(self, vectors=()):
        self.rows = {}  # lead -> normalized row
        self.leads = []  # the leads, ascending
        self.coords = {}  # lead -> {tag: c}, for the rows a tagged vector entered
        self.width = 0  # the length of the sequences added, for `basis`
        for v in vectors:
            self.add(v)

    def reduce(self, vec, taken=None, leads=None) -> dict:
        """`vec` minus its components along the rows (those of `leads`, when
        given), as {key: entry}; it is 0 at each of those leads, and an entry
        that cancels stays, as 0.  `taken` gathers the tagged coordinates of
        the combination subtracted."""
        rem = dict(vec) if isinstance(vec, dict) else dict(enumerate(vec))
        for lead in self.leads if leads is None else leads:
            f = rem.get(lead)
            if f is not None and not f.is_zero:
                _subtract(rem, f, self.rows[lead])
                if taken is not None and lead in self.coords:
                    _subtract(taken, -f, self.coords[lead])
        return rem

    def add(self, vec, tag=None) -> bool:
        """Insert if independent; returns True when the rank grew.  Tags are
        distinct; a vector that adds nothing gets no coordinate."""
        if not isinstance(vec, dict):
            self.width = len(vec)
        taken = {}
        rem = _nonzero(self.reduce(vec, taken))
        if not rem:
            return False
        lead = min(rem)
        inv = rem[lead].inverse()
        self.rows[lead] = {key: c * inv for key, c in rem.items()}
        insort(self.leads, lead)
        coords = {t: -c * inv for t, c in _nonzero(taken).items()}
        if tag is not None:
            coords[tag] = inv
        if coords:
            self.coords[lead] = coords
        return True

    def contains(self, vec) -> bool:
        """Whether vec lies in the span: `coordinates(vec) is not None`, read
        key by key in ascending order.  The entry at a key, minus the rows of
        the leads read before it, is 0, or at a lead, whose row then joins the
        ones subtracted, or else it cannot cancel: the answer is False, and no
        later entry is computed."""
        vec = vec if isinstance(vec, dict) else dict(enumerate(vec))
        keys, seen, taken = list(vec), set(vec), []  # taken: (entry, row) per lead read
        heapify(keys)
        while keys:
            key = heappop(keys)
            f = vec.get(key, ZERO)
            for c, row in taken:
                if key in row:
                    f = f - c * row[key]
            if f.is_zero:
                continue
            row = self.rows.get(key)
            if row is None:
                return False
            taken.append((f, row))
            for k in row.keys() - seen:
                seen.add(k)
                heappush(keys, k)
        return True

    def coordinates(self, vec) -> dict | None:
        """{tag: c} with vec == the sum of c times the vector added with `tag`,
        plus a combination of the untagged ones; None when vec lies outside
        the span."""
        taken = {}
        rem = self.reduce(vec, taken)
        return _nonzero(taken) if all(c.is_zero for c in rem.values()) else None

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis(self):
        """The canonical (rref) basis of a span of sequences, as tuples: each
        row reduced by the rows of the later leads, so it is 0 at every lead
        but its own."""
        leads = self.leads
        rows = (self.reduce(self.rows[lead], leads=leads[i + 1 :]) for i, lead in enumerate(leads))
        return tuple(tuple(row.get(k, ZERO) for k in range(self.width)) for row in rows)


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
        acc = acc.shift(c)
    return coeffs


class EigenResult:
    """Exact eigenvalues with multiplicities and eigenvectors."""

    def __init__(self, pairs, discriminant):
        self.pairs = pairs  # list of (eigenvalue, multiplicity, [eigenvectors])
        self.discriminant = discriminant  # 0 when everything stayed rational


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


def eigen_small(m: Matrix) -> EigenResult:
    """Exact eigendecomposition over Q or one Q(sqrt d).

    The characteristic polynomial (for entries in Q(sqrt d), its product with
    its conjugate, which is rational) has its roots scaled by the integer k of
    `intpoly.root_scale`, so that it becomes monic with integer coefficients.
    Its rational roots and then its monic quadratic factors are searched up to
    k times the row-sum bound of `_spectral_bound`, or up to the polynomial's
    own `root_bound` where that is smaller, and each root's multiplicity is
    read off the characteristic polynomial.  Raises ExtensionRequiredError
    when the spectrum does not fit in a single quadratic extension.
    """
    n = m.nrows
    if n != m.ncols:
        raise ValueError("eigen_small needs a square matrix")
    entry_d = common_domain(m.flat())
    cp = charpoly(m)
    rational = cp if entry_d == 0 else mul(cp, [c.conj() for c in cp])
    scale = root_scale([c.q for c in rational])
    monic = [c.n * scale**i // c.q for i, c in enumerate(rational)]
    bound = min(scale * _spectral_bound(m), root_bound(monic))
    rest, candidates = monic, []
    for p, _ in rational_roots(monic, bound, 1):
        candidates.append(Scalar(p))
        while not evaluate(rest, p):  # taken out as often as it divides
            rest = divide(rest, (1, -p))[0]
    factors, rest = quadratic_factors(rest, bound)
    if len(rest) > 1:
        raise ExtensionRequiredError("extension beyond quadratic required")
    for _, b, c in factors:
        root = scalar_sqrt(b * b - 4 * c)
        candidates += [(root - b) / 2, (-root - b) / 2]
    try:
        common_domain(candidates + [Scalar(0, 1, entry_d) if entry_d else ZERO])
    except ScalarDomainError:
        raise ExtensionRequiredError("extension beyond quadratic required") from None
    grouped = {}
    work = cp
    for value in dict.fromkeys(c / scale for c in candidates):  # distinct, in order
        while len(work) > 1 and evaluate(work, value).is_zero:
            grouped[value] = grouped.get(value, 0) + 1
            work = divide(work, (ONE, -value))[0]
    if len(work) > 1:
        raise ExtensionRequiredError("extension beyond quadratic required")
    pairs = []
    for value in sorted(grouped, key=Scalar.sort_key):
        vectors = kernel_basis([list(row) for row in m.shift(-value).rows])
        pairs.append((value, grouped[value], vectors))
    disc = common_domain([v for v, _, _ in pairs])
    return EigenResult(pairs, disc)


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
    the kernel of the off-diagonal entries, read off their span; with
    H_1..H_r from a basis of it, such an H exists iff the weight tuples
    (H_1[j][j], ..., H_r[j][j]) are pairwise distinct (then H on the moment
    curve sum_i t^(i-1) H_i separates each pair for all but at most r - 1
    values of t), so H itself is never built.  After that one elimination
    only zero tests are made.
    """
    n = len(mats)
    conditions = IncrementalSpan()  # rows (M_1[j][i], ..., M_n[j][i]) with sum_k c_k M_k[j][i] = 0
    graph = [set() for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            entries = tuple(m.rows[j][i] for m in mats)
            if i != j and any(not x.is_zero for x in entries):
                graph[i].add(j)
                conditions.add(entries)
                if conditions.rank == n:  # only H = 0 is diagonal
                    return None
    kernel = _kernel(conditions.basis(), conditions.leads, n)
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
