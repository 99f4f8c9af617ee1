"""The one echelon span, `linalg.IncrementalSpan`, against the two it replaced:
a dense span of vectors and `PolySpan`, a sparse span of polynomials whose
rows carried coordinates on every polynomial added.  Both are kept here, as
they were, as references."""

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rref_reference
from poisson_atlas.linalg import IncrementalSpan
from poisson_atlas.poly import LaurentPoly, VarSet, term_sort_key
from poisson_atlas.scalars import ZERO, scalar_sqrt


class DenseSpan:
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
        """The canonical basis, from the dense `rref_reference` of the rows."""
        reduced, pivots = rref_reference([self.rows[p] for p in sorted(self.rows)])
        return tuple(map(tuple, reduced[: len(pivots)]))


def _subtract(acc: dict, f, row: dict):
    """acc -= f * row on {key: Scalar} dicts, dropping the entries that cancel."""
    for key, c in row.items():
        x = acc[key] - f * c if key in acc else -(f * c)
        if x.is_zero:
            del acc[key]
        else:
            acc[key] = x


class PolySpan:
    """The span of some polynomials, in echelon form on sparse rows.

    A row is a {monomial: Scalar} dict with coefficient 1 at its leading
    monomial, the largest in `term_sort_key` order, and it is filed under that
    monomial; no two rows share one.  Each row carries its coordinates
    {index: Scalar} on the polynomials given to `add`, numbered from 0 in
    order.  A polynomial that adds nothing to the span gets no row, and no
    coordinates ever fall on it.
    """

    def __init__(self, polys=()):
        self.rows = {}  # leading monomial -> (row, coordinates)
        self.leads = []  # the leading monomials, in ascending term order
        self.count = 0  # polynomials added so far
        for p in polys:
            self.add(p)

    def _reduce(self, poly):
        rem, taken = dict(poly.terms), {}
        for lead in reversed(self.leads):
            if not rem:
                break
            f = rem.get(lead)
            if f is not None:
                row, coords = self.rows[lead]
                _subtract(rem, f, row)
                _subtract(taken, -f, coords)
        return rem, taken

    def add(self, poly) -> bool:
        """Insert the next polynomial; True when the span grew."""
        index = self.count
        self.count += 1
        rem, taken = self._reduce(poly)
        if not rem:
            return False
        lead = max(rem, key=term_sort_key)
        inv = rem[lead].inverse()
        coords = {i: -c * inv for i, c in taken.items()}
        coords[index] = inv
        self.rows[lead] = {mono: c * inv for mono, c in rem.items()}, coords
        bisect.insort(self.leads, lead, key=term_sort_key)
        return True

    def coordinates(self, poly) -> dict | None:
        rem, taken = self._reduce(poly)
        return None if rem else taken


def _entries(draw):
    """Small entries a + b*i over Q or, drawn once per case, Q(sqrt(-1))."""
    i = scalar_sqrt(-1) if draw(st.booleans()) else ZERO
    return st.tuples(st.integers(-2, 2), st.integers(-1, 1)).map(lambda ab: ab[0] + ab[1] * i)


def _members(draw, fresh, zero, combine):
    """Drawn members, zero members and combinations of earlier members."""
    members = []
    for kind in draw(st.lists(st.sampled_from("vvzc"), max_size=6)):
        members.append(fresh() if kind == "v" else combine(members) if kind == "c" else zero)
    return members


@st.composite
def _vector_cases(draw):
    """(members, probes): vectors of one length, and probes that are
    combinations of the members or drawn."""
    entry = _entries(draw)
    n = draw(st.integers(1, 5))
    zero = (ZERO,) * n

    def fresh():
        return tuple(draw(st.lists(entry, min_size=n, max_size=n)))

    def combine(members):
        out = zero
        for v in members:
            c = draw(entry)
            out = tuple(a + c * b for a, b in zip(out, v))
        return out

    members = _members(draw, fresh, zero, combine)
    probes = [combine(members) if draw(st.booleans()) else fresh() for _ in range(3)]
    return members, probes


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_vector_cases())
def test_vector_span_matches_the_dense_span(case):
    members, probes = case
    span, ref = IncrementalSpan(), DenseSpan()
    for v in members:
        assert span.add(v) == ref.add(v)
        assert span.leads == sorted(ref.rows)  # a lead is the pivot position
    assert span.rows == {p: {i: c for i, c in enumerate(row) if not c.is_zero}
                         for p, row in ref.rows.items()}
    assert span.rank == ref.rank
    assert span.basis() == ref.basis()
    for v in probes:
        assert span.contains(v) == ref.contains(v)
        rem = span.reduce(v)
        assert [rem.get(i, ZERO) for i in range(len(v))] == ref.reduce(v)
    assert span.coords == {}


@st.composite
def _poly_cases(draw):
    """(members, tags, target) in two variables: each member tagged with its
    index or untagged; the target a combination of the members, or drawn and
    so mostly outside their span."""
    vs = VarSet(("x", "y"))
    entry = _entries(draw)
    nonzero = entry.filter(lambda c: not c.is_zero)
    mono = st.tuples(st.integers(0, 2), st.integers(0, 2))

    def fresh():
        return LaurentPoly(vs, draw(st.dictionaries(mono, nonzero, min_size=1, max_size=3)))

    def combine(members):
        out = LaurentPoly.zero(vs)
        for p in members:
            out = out + draw(entry) * p
        return out

    members = _members(draw, fresh, LaurentPoly.zero(vs), combine)
    tags = [i if draw(st.booleans()) else None for i in range(len(members))]
    target = combine(members) if draw(st.booleans()) else fresh()
    return members, tags, target


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_poly_cases())
def test_polynomial_span_matches_the_poly_span(case):
    members, tags, target = case
    span, ref = IncrementalSpan(), PolySpan()
    for p, tag in zip(members, tags):
        assert span.add(p.terms, tag) == ref.add(p)
    expected = ref.coordinates(target)
    if expected is not None:  # the coordinates on the tagged members only
        expected = {i: c for i, c in expected.items() if tags[i] is not None}
    assert span.coordinates(target.terms) == expected
    if all(tag is None for tag in tags):
        assert span.coords == {}


def test_an_untagged_span_carries_no_coordinates():
    vs = VarSet(("x", "y"))
    x, y = LaurentPoly.variable(vs, "x"), LaurentPoly.variable(vs, "y")
    span = IncrementalSpan(p.terms for p in (x * x, x * y, x * x + y * y))
    assert span.rank == 3 and span.coords == {}
    assert span.coordinates((x * y - y * y).terms) == {}
    assert span.coordinates(x.terms) is None
    span.add(x.terms, "x")
    assert span.coordinates((3 * x + x * y).terms) == {"x": 3}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_vector_cases(), _poly_cases())
def test_contains_answers_as_coordinates_do(vectors, polys):
    """`contains` stops at the first entry that no row cancels, and answers
    as `coordinates(vec) is not None` on sequences and on polynomial dicts,
    members and non-members."""
    members, probes = vectors
    span = IncrementalSpan(members)
    for v in members + probes:
        assert span.contains(v) == (span.coordinates(v) is not None)
    members, tags, target = polys
    span = IncrementalSpan()
    for p, tag in zip(members, tags):
        span.add(p.terms, tag)
    for p in members + [target]:
        assert span.contains(p.terms) == (span.coordinates(p.terms) is not None)
