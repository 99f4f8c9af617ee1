from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_atlas.errors import ScalarDomainError, ExtensionRequiredError
from poisson_atlas.scalars import (
    Scalar,
    common_domain,
    format_scalar,
    scalar_sqrt,
    sqrt_in_field,
    squarefree_decompose,
)


def test_rational_arithmetic_reduced():
    a = Scalar(Fraction(2, 4))
    assert a == Scalar(Fraction(1, 2))
    assert a + a == Scalar(1)
    assert a * 4 == Scalar(2)
    assert (a - 1) == Scalar(Fraction(-1, 2))
    assert Scalar(7) / Scalar(2) == Scalar(Fraction(7, 2))


def test_extension_arithmetic():
    i = Scalar(0, 1, -1)
    assert i * i == Scalar(-1)
    assert (1 + i) * (1 - i) == Scalar(2)
    r5 = Scalar(0, 1, 5)
    assert r5 * r5 == Scalar(5)
    assert (Scalar(1, 2, 5)).inverse() * Scalar(1, 2, 5) == Scalar(1)


def test_extension_with_zero_b_collapses_to_rational():
    s = Scalar(3, 0, 7)
    assert s.is_rational and s == Scalar(3)
    # arithmetic that cancels the sqrt part comes back rational
    r = Scalar(1, 1, 5) - Scalar(0, 1, 5)
    assert r == Scalar(1) and r.d == 0


def test_mixing_extensions_rejected():
    with pytest.raises(ScalarDomainError):
        Scalar(0, 1, 2) + Scalar(0, 1, 3)
    with pytest.raises(ScalarDomainError):
        Scalar(0, 1, -1) * Scalar(0, 1, 5)
    # rationals embed into any extension
    assert Scalar(2) + Scalar(0, 1, 5) == Scalar(2, 1, 5)


def test_pow_and_division():
    i = Scalar(0, 1, -1)
    assert i**4 == Scalar(1)
    assert i**-1 == -i
    assert Scalar(Fraction(3, 2)) ** 3 == Scalar(Fraction(27, 8))


def test_squarefree_decompose():
    assert squarefree_decompose(0) == (0, 1)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(-18) == (3, -2)
    assert squarefree_decompose(3125) == (25, 5)


def test_scalar_sqrt():
    assert scalar_sqrt(Fraction(9, 4)) == Scalar(Fraction(3, 2))
    assert scalar_sqrt(8) == Scalar(0, 2, 2)
    assert scalar_sqrt(-4) == Scalar(0, 2, -1)
    assert scalar_sqrt(Fraction(1, 3)) == Scalar(0, Fraction(1, 3), 3)
    assert scalar_sqrt(0).is_zero
    with pytest.raises(ExtensionRequiredError):
        scalar_sqrt(Scalar(0, 1, 2))


def test_formatting():
    assert format_scalar(Scalar(Fraction(5, 2))) == "5/2"
    assert format_scalar(Scalar(-3)) == "-3"
    assert format_scalar(Scalar(0, 1, -1)) == "sqrt(-1)"
    assert format_scalar(Scalar(0, -2, 5)) == "-2*sqrt(5)"
    assert format_scalar(Scalar(Fraction(1, 2), Fraction(-3, 2), -1)) == "1/2-3/2*sqrt(-1)"


def test_common_domain():
    assert common_domain([Scalar(1), Scalar(2)]) == 0
    assert common_domain([Scalar(1), Scalar(0, 1, 5)]) == 5
    with pytest.raises(ScalarDomainError):
        common_domain([Scalar(0, 1, 5), Scalar(0, 1, -1)])


def test_hash_consistency():
    assert hash(Scalar(Fraction(1, 2))) == hash(Fraction(1, 2))
    s = {Scalar(1), Scalar(1, 0, 5), 1}
    assert len(s) == 1


def test_reflected_operators():
    s = Scalar(Fraction(1, 2))
    assert 1 - s == Scalar(Fraction(1, 2))
    assert 2 / s == Scalar(4)
    assert 3 + s == Scalar(Fraction(7, 2))
    i = Scalar(0, 1, -1)
    assert 1 / i == -i


# -- reference model -------------------------------------------------------------
#
# A model scalar is (a, b, d) with Fractions a, b: the value a + b*sqrt(d), with
# d = 0 exactly when b == 0.  Every Scalar result must equal the model's result
# and be in canonical form.

_FRACTIONS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


def _model(a, b, d):
    return (a, b, d) if b else (a, Fraction(0), 0)


def _model_of(s):
    return _model(s.a, s.b, s.d)


def _model_add(x, y, sign=1):
    return _model(x[0] + sign * y[0], x[1] + sign * y[1], x[2] or y[2])


def _model_mul(x, y):
    (a1, b1, d1), (a2, b2, d2) = x, y
    d = d1 or d2
    return _model(a1 * a2 + b1 * b2 * d, a1 * b2 + b1 * a2, d)


def _model_inverse(x):
    a, b, d = x
    norm = a * a - b * b * d
    return _model(a / norm, -b / norm, d)


def _model_pow(x, e):
    base = _model_inverse(x) if e < 0 else x
    out = (Fraction(1), Fraction(0), 0)
    for _ in range(abs(e)):
        out = _model_mul(out, base)
    return out


def _model_format(x):
    a, b, d = x

    def frac(q):
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    if b == 0:
        return frac(a)
    root = f"sqrt({d})" if abs(b) == 1 else f"{frac(abs(b))}*sqrt({d})"
    if a == 0:
        return root if b > 0 else f"-{root}"
    return f"{frac(a)}{'-' if b < 0 else '+'}{root}"


def _model_hash(x):
    a, b, d = x
    return hash(a) if b == 0 else hash((a, b, d))


@st.composite
def _scalar_pairs(draw):
    """Two scalars over Q, Q(sqrt(-1)) or Q(sqrt(5)); either may be rational."""
    d = draw(st.sampled_from([0, -1, 5]))

    def one():
        a = draw(_FRACTIONS)
        b = draw(_FRACTIONS) if d and draw(st.booleans()) else Fraction(0)
        return Scalar(a, b, d), _model(a, b, d)

    return one() + one()


def _assert_canonical(s):
    assert type(s.n) is int and type(s.m) is int and type(s.q) is int
    assert s.q > 0
    assert gcd(s.n, s.m, s.q) == 1
    assert (s.m == 0) == (s.d == 0)


def _assert_matches(s, model):
    _assert_canonical(s)
    assert _model_of(s) == model
    assert type(s.a) is Fraction and type(s.b) is Fraction


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_scalar_pairs(), st.integers(-7, 7))
def test_arithmetic_matches_fraction_model(pair, e):
    x, mx, y, my = pair
    _assert_matches(x, mx)
    _assert_matches(y, my)
    _assert_matches(x + y, _model_add(mx, my))
    _assert_matches(x - y, _model_add(mx, my, -1))
    _assert_matches(-x, _model(-mx[0], -mx[1], mx[2]))
    _assert_matches(x * y, _model_mul(mx, my))
    _assert_matches(x.conj(), _model(mx[0], -mx[1], mx[2]))
    if y.is_zero:
        with pytest.raises(ZeroDivisionError):
            x / y
        with pytest.raises(ZeroDivisionError):
            y.inverse()
    else:
        _assert_matches(y.inverse(), _model_inverse(my))
        _assert_matches(x / y, _model_mul(mx, _model_inverse(my)))
    if e >= 0 or not x.is_zero:
        _assert_matches(x**e, _model_pow(mx, e))
    else:
        with pytest.raises(ZeroDivisionError):
            x**e


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_scalar_pairs())
def test_comparison_hash_format_match_fraction_model(pair):
    x, mx, y, my = pair
    assert (x == y) == (mx == my)
    assert hash(x) == _model_hash(mx)
    if x.is_rational:
        assert hash(x) == hash(mx[0]) and x == mx[0] and x.as_fraction() == mx[0]
    assert str(x) == format_scalar(x) == _model_format(mx)
    assert (x.sort_key() < y.sort_key()) == ((mx[2], mx[0], mx[1]) < (my[2], my[0], my[1]))
    assert (x.sort_key() == y.sort_key()) == (mx == my)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.fractions(), st.fractions(), st.sampled_from([0, -1, 2, 5, -7]))
def test_format_matches_the_fraction_text(a, b, d):
    """A rational prints from its ints, an irrational scalar from its
    Fractions a and b: either way the text is the one the Fractions give."""
    s = Scalar(a, b if d else 0, d)
    assert format_scalar(s) == _model_format(_model_of(s))


def test_canonical_forms():
    r2 = Scalar(0, 1, 2)
    square = r2 * r2
    assert (square.n, square.m, square.q, square.d) == (2, 0, 1, 0)
    half = Scalar(Fraction(1, 2), Fraction(1, 2), -1)
    assert (half.n, half.m, half.q, half.d) == (1, 1, 2, -1)
    s = Scalar(Fraction(2, 3), Fraction(1, 6), 5)
    assert (s.n, s.m, s.q) == (4, 1, 6)
    # q ends up positive and the common factor of n, m and q is removed
    t = Scalar(0, 1, 5).inverse()
    assert (t.n, t.m, t.q, t.d) == (0, 1, 5, 5)
    u = (Scalar(3, 3, -1) * Scalar(Fraction(1, 6))) / Scalar(1, 1, -1)
    assert (u.n, u.m, u.q, u.d) == (1, 0, 2, 0)


def test_mixed_extensions_rejected_by_every_operator():
    r2, r3 = Scalar(1, 1, 2), Scalar(1, 1, 3)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
               lambda x, y: x / y):
        with pytest.raises(ScalarDomainError, match=r"sqrt\(2\).*sqrt\(3\)"):
            op(r2, r3)


def test_invalid_discriminant_rejected():
    for d in (0, 1):
        with pytest.raises(ScalarDomainError):
            Scalar(1, 1, d)
        with pytest.raises(ScalarDomainError):
            Scalar(0, Fraction(1, 2), d)
    assert Scalar(2, 0, 1) == 2 and Scalar(2, 0, 1).d == 0


@pytest.mark.parametrize("d", [4, 8, -4, 12, 18, -27])
def test_a_discriminant_with_a_square_factor_is_refused(d):
    """sqrt(s^2 d') is s sqrt(d'), so a d with a square factor has no canonical
    form of its own: it is refused, and `scalar_sqrt` gives s sqrt(d')."""
    with pytest.raises(ScalarDomainError, match=rf"^invalid extension discriminant {d}$"):
        Scalar(0, 1, d)
    s, reduced = squarefree_decompose(d)
    assert s > 1 and scalar_sqrt(d) == (Scalar(s) if reduced == 1 else Scalar(0, s, reduced))


def test_division_by_zero():
    for zero in (Scalar(0), Scalar(0, 0, -1)):
        with pytest.raises(ZeroDivisionError):
            zero.inverse()
        with pytest.raises(ZeroDivisionError):
            Scalar(1, 1, -1) / zero
        with pytest.raises(ZeroDivisionError):
            zero**-2
        with pytest.raises(ZeroDivisionError):
            1 / zero


_FRACTIONS = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.sampled_from([-1, 2, -3]), _FRACTIONS, _FRACTIONS, st.booleans())
def test_sqrt_in_field_finds_a_root_exactly_when_one_exists(d, a, b, square):
    """A root in Q(sqrt d) squares back to the value, and None means that
    t^2 - value is irreducible over Q(sqrt d) (sympy); a drawn square gives
    its root up to sign."""
    import sympy

    x = Scalar(a, b, d)
    value = x * x if square else x
    root = sqrt_in_field(value, d)
    if square:
        assert root in (x, -x)
    if root is not None:
        assert root * root == value and common_domain([root, value]) in (0, d)
    else:
        t = sympy.symbols("t")
        c = sympy.Rational(value.a.numerator, value.a.denominator) + sympy.Rational(
            value.b.numerator, value.b.denominator) * sympy.sqrt(d)
        field = sympy.QQ.algebraic_field(sympy.sqrt(d))
        assert sympy.Poly(t**2 - c, t, domain=field).is_irreducible


def test_sqrt_in_field_over_q_is_scalar_sqrt():
    for value in (4, 2, -4, -2, Fraction(9, 8)):
        assert sqrt_in_field(Scalar(value), 0) == scalar_sqrt(value)
