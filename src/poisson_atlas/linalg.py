"""Exact linear algebra over Scalar: elimination, kernels, subspaces, eigenproblems.

Everything is fraction-free in spirit but implemented directly over the scalar
field (Q or one quadratic extension); Gaussian elimination with exact pivots
is both the solver and the verifier here.  The subspace routines are
`coordinates` (every vector's coordinates in a basis, from one rref),
`restrict_action` (matrices on an invariant subspace, built on it) and
`closure` (the smallest span holding some seeds and stable under linear maps,
grown in an IncrementalSpan); the density hull is a closure.  eigen_small
(up to dimension EIGEN_CAP) factors characteristic polynomials over Q plus at
most one quadratic extension, reporting the discriminant it had to introduce.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import AtlasError, ExtensionRequiredError
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
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def solve_and_kernel(matrix, rhs):
    """(one exact solution of M x = b or None, kernel basis of M) from one rref."""
    if not matrix:
        return (() if all(Scalar.coerce(v).is_zero for v in rhs) else None), []
    ncols = len(matrix[0])
    reduced, pivots = rref([list(row) + [b] for row, b in zip(matrix, rhs)])
    if pivots and pivots[-1] == ncols:  # a pivot in b: inconsistent
        return None, _kernel(reduced, pivots[:-1], ncols)
    solution = [ZERO] * ncols
    for row, c in zip(reduced, pivots):
        solution[c] = row[-1]
    return tuple(solution), _kernel(reduced, pivots, ncols)


def solve_linear(matrix, rhs):
    """One exact solution of M x = b, or None if inconsistent."""
    return solve_and_kernel(matrix, rhs)[0]


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


def _poly_eval(coeffs, x: Scalar) -> Scalar:
    total = ZERO
    for c in coeffs:
        total = total * x + c
    return total


def _poly_divide_root(coeffs, root: Scalar):
    """Synthetic division by (t - root); remainder must be zero."""
    out = [coeffs[0]]
    for c in coeffs[1:]:
        out.append(c + out[-1] * root)
    if not out[-1].is_zero:
        raise ArithmeticError("not a root")
    return out[:-1]


def _divisors(n: int):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _rational_roots(coeffs):
    """All rational roots (with multiplicity) of a rational-coefficient poly."""
    roots = []
    # strip zero roots
    while len(coeffs) > 1 and coeffs[-1].is_zero:
        roots.append(ZERO)
        coeffs = coeffs[:-1]
    if len(coeffs) <= 1:
        return roots, coeffs
    denom = lcm(*(c.as_fraction().denominator for c in coeffs))
    ints = [int(c.as_fraction() * denom) for c in coeffs]
    lead, const = ints[0], ints[-1]
    candidates = set()
    for p in _divisors(const):
        for q in _divisors(lead):
            candidates.add(Fraction(p, q))
            candidates.add(Fraction(-p, q))
    for cand in sorted(candidates):
        root = Scalar(cand)
        while _poly_eval(coeffs, root).is_zero:
            roots.append(root)
            coeffs = _poly_divide_root(coeffs, root)
            if len(coeffs) <= 1:
                return roots, coeffs
    return roots, coeffs


def _quadratic_roots(coeffs):
    """Roots of a degree-2 scalar polynomial, introducing at most one sqrt."""
    a, b, c = coeffs
    disc = b * b - Scalar(4) * a * c
    root = scalar_sqrt(disc)  # raises if disc itself is irrational
    two_a = Scalar(2) * a
    return [(-b + root) / two_a, (-b - root) / two_a]


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


def _roots_in_at_most_one_extension(coeffs):
    """Factor a rational polynomial over Q plus one quadratic extension."""
    roots, rest = _rational_roots(coeffs)
    degree = len(rest) - 1
    if degree == 0:
        return roots
    if degree == 2:
        return roots + _quadratic_roots(rest)
    if degree > 2 and degree % 2 == 0 and all(
        rest[i].is_zero for i in range(1, degree + 1, 2)
    ):
        # even polynomial: substitute u = t^2
        sub = [rest[i] for i in range(0, degree + 1, 2)]
        u_roots, u_rest = _rational_roots(sub)
        if len(u_rest) == 1:
            out = list(roots)
            for u in u_roots:
                r = scalar_sqrt(u)
                out.extend([r, -r])
            return out
    raise ExtensionRequiredError("extension beyond quadratic required")


EIGEN_CAP = 12


def eigen_small(m: Matrix) -> EigenResult:
    """Exact eigendecomposition for dim <= EIGEN_CAP over Q or one Q(sqrt d).

    Raises ExtensionRequiredError when the spectrum does not fit in a single
    quadratic extension.
    """
    n = m.nrows
    if n != m.ncols:
        raise ValueError("eigen_small needs a square matrix")
    if n > EIGEN_CAP:
        raise ValueError(f"eigen_small capped at dimension {EIGEN_CAP}")
    cp = charpoly(m)
    entry_d = common_domain(m.flat())
    if entry_d == 0:
        roots = _roots_in_at_most_one_extension(cp)
    else:
        # entries in Q(sqrt d): use the rational norm polynomial for candidates
        conj = [c.conj() for c in cp]
        norm_poly = _poly_mul(cp, conj)
        candidates = _roots_in_at_most_one_extension(norm_poly)
        roots = []
        work = cp
        for cand in dict.fromkeys(candidates):  # distinct, in order
            if cand.b != 0 and cand.d != entry_d:
                continue
            while len(work) > 1 and _poly_eval(work, cand).is_zero:
                roots.append(cand)
                work = _poly_divide_root(work, cand)
            if cand.b != 0:
                other = cand.conj()
                while len(work) > 1 and _poly_eval(work, other).is_zero:
                    roots.append(other)
                    work = _poly_divide_root(work, other)
        if len(work) > 1:
            raise ExtensionRequiredError("extension beyond quadratic required")
    from .errors import ScalarDomainError

    try:
        common_domain(roots + [Scalar(0, 1, entry_d) if entry_d else ZERO])
    except ScalarDomainError:
        raise ExtensionRequiredError("extension beyond quadratic required") from None
    grouped = {}
    for r in roots:
        grouped[r] = grouped.get(r, 0) + 1
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
