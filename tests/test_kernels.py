"""The exact kernels against the loops they replaced.

`LaurentPoly.__mul__`, `brackets.bracket` and `LaurentPoly.linear_part`
accumulate their sums with `scalars.muladd` and add exponent tuples with
`operator.add`; the product drops its cancelled terms once, at the end.
The loops below are the earlier ones, kept as references: each sums
`acc + a * b` with Scalar `+` and `*`, adds exponents with `int.__add__`, and
the product drops a term the moment it cancels.  The kernels must give the
same polynomials (no zero coefficient kept) and the same Taylor data.
`Scalar.__pow__` and `LaurentPoly.__pow__` share `scalars.power`; their two
earlier loops are kept below too, and the one power must make their products.
"""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poisson_atlas import Exact, LaurentPoly, PointP, Table, VarSet, bracket
from poisson_atlas.errors import ScalarDomainError
from poisson_atlas.scalars import _SMALL_MAX, ONE, ZERO, Scalar, muladd, mulsub


def _mul_reference(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            exps = tuple(map(int.__add__, e1, e2))
            acc = out.get(exps)
            acc = c1 * c2 if acc is None else acc + c1 * c2
            if acc.is_zero:
                out.pop(exps, None)
            else:
                out[exps] = acc
    return LaurentPoly._raw(p.varset, out)


def _bracket_reference(spec, p, q):
    shifted, coerce, out = spec.shifted, Scalar.coerce, {}
    for a, c in p.terms.items():
        for b, d in q.terms.items():
            cd, ab = c * d, tuple(map(int.__add__, a, b))
            for i, j, entry in shifted:
                w = a[i] * b[j] - a[j] * b[i]
                if w:
                    k = cd * coerce(w)
                    for s, e in entry:
                        exps = tuple(map(int.__add__, ab, s))
                        acc = out.get(exps)
                        out[exps] = k * e if acc is None else acc + k * e
    return LaurentPoly._raw(p.varset, {m: v for m, v in out.items() if not v.is_zero})


def _linear_part_reference(p, point):
    value = ZERO
    grad = [ZERO] * len(p.varset)
    for exps, coeff in p.terms.items():
        power, slopes = point.jet(exps)
        if power is not None:
            value = value + coeff * power
        for k, slope in slopes:
            grad[k] = grad[k] + coeff * slope
    return value, tuple(grad)


DOMAINS = (0, -1, 5)  # Q, Q(sqrt(-1)), Q(sqrt(5))


def _scalars(d):
    """Scalars of Q(sqrt d): small and large integers, fractions and, for
    d != 0, elements with a sqrt(d) part."""
    rational = st.one_of(
        st.integers(-3, 3),
        st.integers(_SMALL_MAX - 2, 10**12) | st.integers(-(10**12), -_SMALL_MAX + 2),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
    )
    if d == 0:
        return rational.map(Scalar)
    return st.one_of(rational.map(Scalar), st.builds(lambda a, b: Scalar(a, b, d), rational,
                                                     st.integers(1, 3) | st.integers(-3, -1)))


@st.composite
def _cases(draw):
    """(p, q, spec, point) over one domain in 2 to 4 variables, some of them
    Laurent: few monomials, and q half of the time p with some of its signs
    flipped, so that products cancel; a point whose non-Laurent coordinates
    are 0 half of the time; a bracket table with drawn polynomial entries
    (Jacobi plays no part in `bracket`) or, on three variables, an exact
    bracket."""
    d = draw(st.sampled_from(DOMAINS))
    scalar = _scalars(d)
    names = ("x", "y", "z", "w")[: draw(st.integers(2, 4))]
    laurent = tuple(n for n in names if draw(st.booleans()))
    vs = VarSet(names, laurent)
    monomials = draw(st.lists(
        st.tuples(*(st.integers(-1 if n in laurent else 0, 2) for n in names)),
        min_size=1, max_size=5, unique=True,
    ))
    small = st.sampled_from([1, -1, 2, -2]).map(Scalar) | scalar

    def poly(max_size=4):
        return LaurentPoly(vs, draw(st.dictionaries(st.sampled_from(monomials), small,
                                                    max_size=max_size)))

    p = poly()
    if draw(st.booleans()):  # q = p with some signs flipped: cross terms cancel in p * q
        q = LaurentPoly(vs, {m: c if draw(st.booleans()) else -c for m, c in p.terms.items()})
    else:
        q = poly()
    if len(names) == 3 and draw(st.booleans()):
        spec = Exact(poly(3))
    else:
        pairs = [(i, j) for i in range(len(names)) for j in range(i + 1, len(names))]
        spec = Table(vs, tuple((i, j, poly(2)) for i, j in pairs if draw(st.booleans())))
    coords = []
    for n in names:
        c = draw(scalar)
        if n in laurent:
            c = ONE if c.is_zero else c
        elif draw(st.booleans()):
            c = ZERO
        coords.append(c)
    return p, q, spec, PointP(vs, coords)


def _xy_cancelling():
    """(x + y)(x - y) = x^2 - y^2: the cross terms cancel in the product."""
    vs = VarSet(("x", "y"))
    x, y = LaurentPoly.variable(vs, "x"), LaurentPoly.variable(vs, "y")
    spec = Table(vs, ((0, 1, x * y),))
    return x + y, x - y, spec, PointP(vs, (ZERO, Scalar(3)))


def _is_canonical(poly):
    return all(type(c) is Scalar and not c.is_zero for c in poly.terms.values())


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_cases())
@example(_xy_cancelling())
def test_the_kernels_match_their_reference_loops(case):
    p, q, spec, point = case
    for a, b in ((p, q), (q, p), (p, p)):
        got = a * b
        assert got == _mul_reference(a, b)
        assert _is_canonical(got)
        got = bracket(spec, a, b)
        assert got == _bracket_reference(spec, a, b)
        assert _is_canonical(got)
    for poly in (p, q, p * q):
        got = poly.linear_part(point)  # its jets built now or by an earlier call
        assert got == _linear_part_reference(poly, PointP(point.varset, point.values))
        assert poly.linear_part(point) == got  # every jet read back from the point


def _operands():
    """Scalars of each domain: 0, small and large integers, a fraction and,
    off Q, an element with a sqrt part."""
    out = []
    for d in DOMAINS:
        values = [ZERO, Scalar(3), Scalar(-7), Scalar(_SMALL_MAX), Scalar(10**15),
                  Scalar(Fraction(-5, 4))]
        if d:
            values += [Scalar(1, 2, d), Scalar(Fraction(1, 3), -1, d)]
        out += [(d, v) for v in values]
    return out


_OPERANDS = _operands()


@pytest.mark.parametrize("da, db", list(product(DOMAINS, repeat=2)))
def test_muladd_and_mulsub_match_plus_and_times(da, db):
    """On every pair of domains, for acc from either one: `muladd` and
    `mulsub` equal `acc + a * b` and `acc - a * b`, in canonical form, or
    raise ScalarDomainError exactly where those do."""
    left = [v for d, v in _OPERANDS if d == da]
    right = [v for d, v in _OPERANDS if d == db]
    raised = 0
    for acc, a, b in product(left + right, left, right):
        for fused, plain in ((muladd, lambda: acc + a * b), (mulsub, lambda: acc - a * b)):
            try:
                want = plain()
            except ScalarDomainError:
                with pytest.raises(ScalarDomainError):
                    fused(acc, a, b)
                raised += 1
                continue
            got = fused(acc, a, b)
            assert type(got) is Scalar
            assert (got.n, got.m, got.q, got.d) == (want.n, want.m, want.q, want.d)
    assert bool(raised) == (0 != da != db != 0)  # only two different extensions clash


def test_muladd_on_small_integers_returns_the_shared_scalar():
    assert muladd(Scalar(1), Scalar(2), Scalar(3)) is Scalar(7)
    assert mulsub(Scalar(1), Scalar(2), Scalar(3)) is Scalar(-5)
    big = muladd(ZERO, Scalar(10**6), Scalar(10**6))
    assert (big.n, big.m, big.q, big.d) == (10**12, 0, 1, 0)


def test_a_scalar_times_a_plain_int_is_the_scalar_product():
    for s in (Scalar(3), Scalar(Fraction(2, 3)), Scalar(1, 2, -1)):
        for n in (0, 5, -_SMALL_MAX - 1, 10**20):
            assert s * n == s * Scalar(n) == n * s
    assert Scalar(4) * 2 is Scalar(8)


def _scalar_pow_reference(x, n):
    if n < 0:
        return _scalar_pow_reference(x.inverse(), -n)
    if n == 0:
        return ONE
    base = x
    while not n & 1:
        base = base * base
        n >>= 1
    out = base
    n >>= 1
    while n:
        base = base * base
        if n & 1:
            out = out * base
        n >>= 1
    return out


def _poly_pow_reference(p, n):
    if n < 0:
        return _poly_pow_reference(p._unit_inverse(), -n)
    if n == 0:
        return LaurentPoly.const(p.varset, 1)
    out, base = None, p
    while True:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if not n:
            return out
        base = base * base


_LAURENT = VarSet(("x", "z"), ("z",))


@pytest.mark.parametrize("x, sign, reference", [
    (Scalar(Fraction(-3, 2)), 1, _scalar_pow_reference),
    (Scalar(Fraction(1, 2), -1, -1), 1, _scalar_pow_reference),
    (LaurentPoly(_LAURENT, {(0, 2): Scalar(3)}), -1, _poly_pow_reference),
], ids=["Q", "Q(sqrt(-1))", "laurent-unit"])
def test_the_one_power_makes_the_products_of_the_loops_it_replaced(x, sign, reference,
                                                                   monkeypatch):
    """For n = 0..40 (negated for the unit monomial), x ** n equals the naive
    product of |n| factors and makes as many Scalar and polynomial products
    as the earlier loop of its type."""
    counts = Counter()
    for cls in (Scalar, LaurentPoly):
        def counted(a, b, mul=cls.__mul__, name=cls.__name__):
            counts[name] += 1
            return mul(a, b)
        monkeypatch.setattr(cls, "__mul__", counted)
    one = ONE if isinstance(x, Scalar) else LaurentPoly.const(_LAURENT, 1)
    factor = x if sign > 0 else x._unit_inverse()
    for k in range(41):
        n = sign * k
        naive = one
        for _ in range(k):
            naive = naive * factor
        counts.clear()
        got = x ** n
        made = dict(counts)
        counts.clear()
        assert got == reference(x, n) == naive
        assert made == dict(counts), n
        assert bool(made) == (k > 1)  # the products are counted, and 1 is never a factor
