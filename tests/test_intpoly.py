"""The one root finder, checked against sympy's factorization over Q.

Polynomials are built from planted factors: linear factors q*t - p with
roots inside the box bounds, on their edge and just outside them, a leading
coefficient other than 1 and 0 as a repeated root for `rational_roots`;
monic quadratics without rational roots, one of them repeated, and an
irreducible cubic for `quadratic_factors`.  `resultant` is checked against
sympy's on integer polynomials in one to three variables, some with a
planted common factor.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_atlas.intpoly import (
    divide, evaluate, mul, quadratic_factors, rational_roots, resultant, root_bound, root_scale,
)

T = sympy.Symbol("t")


def _coefficients(expr) -> list:
    return [int(c) for c in sympy.Poly(expr, T).all_coeffs()]


def _factors(f):
    """sympy's irreducible factors of f over Q, with multiplicity."""
    _, factors = sympy.factor_list(sympy.Poly(f, T).as_expr())
    return [(sympy.Poly(g, T), k) for g, k in factors]


@st.composite
def _planted_roots(draw):
    num, den = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    linear = draw(st.lists(
        st.tuples(st.integers(-num - 1, num + 1), st.integers(1, den + 1)), max_size=5))
    lead = draw(st.integers(-4, 4).filter(bool))
    zeros = draw(st.integers(0, 3))
    extra = draw(st.sampled_from([1, T**2 + 1, T**2 - 2, 3 * T**3 - 2]))
    expr = lead * T**zeros * extra * sympy.Mul(*(q * T - p for p, q in linear))
    return _coefficients(expr), num, den


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_planted_roots())
def test_rational_roots_are_sympys_inside_the_bounds(case):
    f, num, den = case
    expected = set()
    for g, _ in _factors(f):
        if g.degree() == 1:
            a, b = g.all_coeffs()
            root = sympy.Rational(-b, a)
            if abs(root.p) <= num and root.q <= den:
                expected.add((int(root.p), int(root.q)))
    roots = rational_roots(f, num, den)
    assert len(roots) == len(set(roots))
    assert set(roots) == expected


def test_rational_roots_by_degree():
    # 0 split off, then a linear, a quadratic and a quartic rest
    assert rational_roots([3, -2, 0, 0], 2, 3) == [(0, 1), (2, 3)]
    assert rational_roots([3, -2, 0, 0], 2, 2) == [(0, 1)]
    assert sorted(rational_roots([2, -3, 1], 4, 2)) == [(1, 1), (1, 2)]
    assert rational_roots([1, 0, 1], 4, 2) == []  # t^2 + 1
    assert rational_roots([1, 0, -2], 4, 2) == []  # t^2 - 2
    quartic = _coefficients((2 * T - 3) * (T + 4) * (T**2 + T + 1))
    assert sorted(rational_roots(quartic, 4, 2)) == [(-4, 1), (3, 2)]
    assert rational_roots(quartic, 3, 2) == [(3, 2)]
    assert rational_roots(quartic, 4, 1) == [(-4, 1)]


_IRREDUCIBLE_QUADRATICS = [
    (b, c) for b in range(-3, 4) for c in range(-4, 5)
    if c and sympy.sqrt(b * b - 4 * c).is_rational is False
]


@st.composite
def _planted_quadratics(draw):
    quadratics = draw(
        st.lists(st.sampled_from(_IRREDUCIBLE_QUADRATICS), min_size=1, max_size=3))
    if draw(st.booleans()):
        quadratics.append(quadratics[0])  # a repeated factor
    cubic = draw(st.sampled_from([1, T**3 - 2, T**3 + T + 1]))
    return _coefficients(cubic * sympy.Mul(*(T**2 + b * T + c for b, c in quadratics)))


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(_planted_quadratics())
def test_quadratic_factors_are_sympys(f):
    factors, rest = quadratic_factors(f, root_bound(f))
    expected, left = [], sympy.Poly(1, T)
    for g, k in _factors(f):
        if g.degree() == 2:
            expected += [[int(c) for c in g.all_coeffs()]] * k
        else:
            left *= g**k
    assert sorted(factors) == sorted(expected)
    assert rest == [int(c) for c in left.all_coeffs()]
    product = [1]
    for q in factors:
        product = mul(product, q)
    assert mul(product, rest) == f


def test_quadratic_factors_leave_an_irreducible_quartic():
    f = _coefficients(T**4 - 10 * T**2 + 1)  # the minimal polynomial of sqrt 2 + sqrt 3
    assert quadratic_factors(f, root_bound(f)) == ([], f)
    f = _coefficients((T**2 + 1) * (T**2 - 3))  # a quadratic rest is a factor itself
    factors, rest = quadratic_factors(f, root_bound(f))
    assert sorted(factors) == [[1, 0, -3], [1, 0, 1]] and rest == [1]


def test_evaluate_divide_mul():
    f = [2, -3, 0, 5]
    assert evaluate(f, 2) == 9 and evaluate(f, Fraction(1, 2)) == Fraction(9, 2)
    q, r = divide(f, [1, -2])
    assert (q, r) == ([2, 1, 2], [9])
    assert mul(q, [1, -2])[:-1] == f[:-1]
    assert divide([1, 2], [1, 0, 1]) == ([], [1, 2])


def test_root_bound_and_scale():
    # the roots of t^2 - 5t + 6 are 2 and 3; Fujiwara bounds them by 16
    assert root_bound([1, -5, 6]) == 16
    assert root_bound([1, 0, 0]) == 0
    # t^2 + t/2 + 1/12: k = 6 gives t^2 + 3t + 3, and no smaller k does
    assert root_scale([1, 2, 12]) == 6
    assert root_scale([1, 1009]) == 1009


_GENS = sympy.symbols("x y z")


@st.composite
def _resultant_pairs(draw):
    """Integer polynomials f, g {exponent tuple: coefficient} in 1 to 3
    variables, each of positive degree in the last; with a common factor of
    positive degree in it, half the time."""
    gens = _GENS[:draw(st.integers(1, 3))]

    def poly():
        terms = draw(st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * len(gens)), st.integers(-4, 4), min_size=1, max_size=4))
        last = draw(st.integers(3, 4))  # above every drawn exponent: no cancellation
        return sum((c * sympy.prod([v**e for v, e in zip(gens, exps)])
                    for exps, c in terms.items()), draw(st.sampled_from([1, -2])) * gens[-1] ** last)

    f, g = poly(), poly()
    if draw(st.booleans()):
        common = poly()
        f, g = f * common, g * common
    return gens, f, g


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_resultant_pairs())
def test_resultant_is_sympys(case):
    gens, f, g = case
    as_dict = lambda h: {e: int(c) for e, c in sympy.Poly(h, *gens).as_dict().items()}
    got = resultant(as_dict(f), as_dict(g))
    want = sympy.Poly(sympy.resultant(f, g, gens[-1]), *gens[:-1]) if len(gens) > 1 else None
    want = as_dict(sympy.resultant(f, g, gens[-1])) if want is None else {
        e + (0,): int(c) for e, c in want.as_dict().items() if c}
    got = {e + (0,): c for e, c in got.items()}
    # sympy's sign is (-1)^(deg f deg g) times the Sylvester determinant's for some degrees
    assert got in (want, {e: -c for e, c in want.items()})


def test_resultant_is_the_sylvester_determinant():
    t = _GENS[0]
    # (t + 5) and (-t^3 - t^2 + 3): the determinant is g(-5) = 103; sympy gives -103
    assert resultant({(1,): 1, (0,): 5}, {(3,): -1, (2,): -1, (0,): 3}) == {(): 103}
    assert sympy.resultant(t + 5, -t**3 - t**2 + 3, t) == -103
    # t^2 - t + 1 and t^2: the elimination swaps rows, and the determinant is 1
    assert resultant({(2,): 1, (1,): -1, (0,): 1}, {(2,): 1}) == {(): 1}
    # x y - 2 z and y z - 2 x in z: det [[-2, x y], [y, -2 x]] = 4x - x y^2
    assert resultant({(1, 1, 0): 1, (0, 0, 1): -2}, {(0, 1, 1): 1, (1, 0, 0): -2}) == {
        (1, 0): 4, (1, 2): -1}
    # a common factor z - y: the resultant vanishes identically
    assert resultant({(0, 0, 1): 1, (0, 1, 0): -1}, {(0, 0, 2): 1, (0, 1, 1): -1}) == {}
