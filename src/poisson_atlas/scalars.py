"""Exact scalars: rationals and elements of a single quadratic extension Q(sqrt d).

A Scalar is (n + m*sqrt(d)) / q with n, m, q plain Python ints and d a
square-free integer.  Every value is kept in one canonical form:

* q > 0 and gcd(n, m, q) == 1;
* m == 0 exactly when d == 0, so d = 0 encodes a plain rational n/q (already
  in lowest terms), and a result whose sqrt part cancels comes back rational.

Equal values therefore have equal ints.  Arithmetic works on the ints
directly; when both denominators are 1 (almost every matrix entry) no gcd is
taken, and a gcd is taken only for a denominator other than 1.  Arithmetic
between two distinct extensions raises ScalarDomainError; rationals embed into
any extension.  Values are never modified after construction and are hashable
(a rational hashes like the equal Fraction), so they can serve as polynomial
coefficients and dictionary keys.  The read-only properties `a` and `b` give
the value as a + b*sqrt(d) with Fractions a and b.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .errors import ScalarDomainError, ExtensionRequiredError

_RationalLike = (int, Fraction)


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s^2 * d with d square-free; returns (s, d).  n may be negative."""
    if n == 0:
        return 0, 1
    sign = -1 if n < 0 else 1
    n = abs(n)
    s, d = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    d *= n  # leftover prime
    return s, sign * d


_new = object.__new__


def _raw(n, m, q, d):
    """A Scalar from ints already in canonical form."""
    s = _new(Scalar)
    s.n = n
    s.m = m
    s.q = q
    s.d = d
    return s


def _int(n):
    """The Scalar n for an int n (inlined in the integer paths of + - *)."""
    return _SMALL[n] if -_SMALL_MAX <= n <= _SMALL_MAX else _raw(n, 0, 1, 0)


def _rational(n, q):
    """The Scalar n/q for any ints with q != 0."""
    if q != 1:
        g = gcd(n, q)
        if q < 0:
            g = -g
        if g != 1:
            n //= g
            q //= g
        if q != 1:
            return _raw(n, 0, q, 0)
    return _int(n)


def _reduced(n, m, q, d):
    """The Scalar (n + m*sqrt d)/q for any ints with q != 0 and d != 0."""
    if m == 0:
        return _rational(n, q)
    if q != 1:
        g = gcd(n, m, q)
        if q < 0:
            g = -g
        if g != 1:
            n //= g
            m //= g
            q //= g
    return _raw(n, m, q, d)


def _mixed(d1, d2):
    return ScalarDomainError(f"cannot mix sqrt({d1}) with sqrt({d2})")


class Scalar:
    """Exact scalar (n + m*sqrt d)/q in Q or one quadratic extension, in canonical form.

    The slots are written only by this module's constructors and never after,
    so a Scalar is a value: equal scalars stay equal and hash alike.
    """

    __slots__ = ("n", "m", "q", "d")

    def __new__(cls, a, b=0, d=0):
        """The scalar a + b*sqrt(d) for rational a and b (ints, Fractions or
        anything Fraction accepts) and a square-free d other than 0 and 1;
        d is ignored when b == 0."""
        if b == 0:
            return _int(a) if type(a) is int else _rational(*Fraction(a).as_integer_ratio())
        if d == 1 or squarefree_decompose(d) != (1, d):
            raise ScalarDomainError(f"invalid extension discriminant {d}")
        an, aq = Fraction(a).as_integer_ratio()
        bn, bq = Fraction(b).as_integer_ratio()
        # With a and b in lowest terms, gcd(n, m, q) == 1 at q = lcm(aq, bq).
        q = aq * bq // gcd(aq, bq)
        return _raw(an * (q // aq), bn * (q // bq), q, d)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def coerce(value) -> "Scalar":
        if type(value) is Scalar:
            return value
        if type(value) is int:
            return _int(value)
        if isinstance(value, _RationalLike):
            return Scalar(value)
        raise TypeError(f"cannot coerce {value!r} to Scalar")

    @property
    def a(self) -> Fraction:
        """Rational part."""
        return Fraction(self.n, self.q)

    @property
    def b(self) -> Fraction:
        """Coefficient of sqrt(d)."""
        return Fraction(self.m, self.q)

    @property
    def is_rational(self) -> bool:
        return self.d == 0

    @property
    def is_zero(self) -> bool:
        return self.n == 0 and self.d == 0

    def as_fraction(self) -> Fraction:
        if self.d:
            raise ScalarDomainError(f"{self} is not rational")
        return self.a

    def conj(self) -> "Scalar":
        return _raw(self.n, -self.m, self.q, self.d)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            if not isinstance(other, _RationalLike):
                return NotImplemented
            other = Scalar(other)
        q1, q2 = self.q, other.q
        d1, d2 = self.d, other.d
        if not (d1 or d2):
            if q1 == 1 and q2 == 1:
                n = self.n + other.n
                return _SMALL[n] if -_SMALL_MAX <= n <= _SMALL_MAX else _raw(n, 0, 1, 0)
            if q1 == q2:
                return _rational(self.n + other.n, q1)
            return _rational(self.n * q2 + other.n * q1, q1 * q2)
        if d1 and d2 and d1 != d2:
            raise _mixed(d1, d2)
        if q1 == q2:
            return _reduced(self.n + other.n, self.m + other.m, q1, d1 or d2)
        return _reduced(self.n * q2 + other.n * q1, self.m * q2 + other.m * q1,
                        q1 * q2, d1 or d2)

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.n, -self.m, self.q, self.d)

    def __sub__(self, other):
        if type(other) is not Scalar:
            if not isinstance(other, _RationalLike):
                return NotImplemented
            other = Scalar(other)
        q1, q2 = self.q, other.q
        d1, d2 = self.d, other.d
        if not (d1 or d2):
            if q1 == 1 and q2 == 1:
                n = self.n - other.n
                return _SMALL[n] if -_SMALL_MAX <= n <= _SMALL_MAX else _raw(n, 0, 1, 0)
            if q1 == q2:
                return _rational(self.n - other.n, q1)
            return _rational(self.n * q2 - other.n * q1, q1 * q2)
        if d1 and d2 and d1 != d2:
            raise _mixed(d1, d2)
        if q1 == q2:
            return _reduced(self.n - other.n, self.m - other.m, q1, d1 or d2)
        return _reduced(self.n * q2 - other.n * q1, self.m * q2 - other.m * q1,
                        q1 * q2, d1 or d2)

    def __rsub__(self, other):
        if not isinstance(other, _RationalLike):
            return NotImplemented
        return Scalar(other) - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            if not isinstance(other, _RationalLike):
                return NotImplemented
            other = _int(other) if type(other) is int else Scalar(other)
        q1, q2 = self.q, other.q
        d1, d2 = self.d, other.d
        if not (d1 or d2):
            if q1 == 1 and q2 == 1:
                n = self.n * other.n
                return _SMALL[n] if -_SMALL_MAX <= n <= _SMALL_MAX else _raw(n, 0, 1, 0)
            return _rational(self.n * other.n, q1 * q2)
        if d1 and d2 and d1 != d2:
            raise _mixed(d1, d2)
        d = d1 or d2
        n1, m1, n2, m2 = self.n, self.m, other.n, other.m
        return _reduced(n1 * n2 + m1 * m2 * d, n1 * m2 + m1 * n2, q1 * q2, d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        n, m, q, d = self.n, self.m, self.q, self.d
        if not d:
            if n == 0:
                raise ZeroDivisionError("scalar division by zero")
            # n/q is in lowest terms, so q/n only needs its sign fixed
            return _raw(q, 0, n, 0) if n > 0 else _raw(-q, 0, -n, 0)
        # q/(n + m sqrt d) = q(n - m sqrt d)/(n^2 - m^2 d); the norm is nonzero
        # since sqrt(d) is irrational
        norm = n * n - m * m * d
        if norm == 0:
            raise ZeroDivisionError("scalar division by zero")
        return _reduced(q * n, -q * m, norm, d)

    def __truediv__(self, other):
        return self * Scalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        return Scalar.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n) if n else ONE

    # -- comparison / hashing --------------------------------------------------

    def __eq__(self, other):
        if type(other) is not Scalar:
            if type(other) is int:
                return self.n == other and self.q == 1 and self.d == 0
            try:
                other = Scalar.coerce(other)
            except TypeError:
                return NotImplemented
        return (self.n == other.n and self.q == other.q and self.d == other.d
                and self.m == other.m)

    def __hash__(self):
        if self.d == 0:
            return hash(self.n) if self.q == 1 else hash(Fraction(self.n, self.q))
        if self.q == 1:
            return hash((self.n, self.m, self.d))
        return hash((self.a, self.b, self.d))

    def sort_key(self):
        """Deterministic total order used for report stability (not algebraic)."""
        if self.q == 1:
            return (self.d, self.n, self.m)
        return (self.d, self.a, self.b)

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        return format_scalar(self)


# Most results are small integers (matrix entries, values at integer points),
# so those are built once: _SMALL[n] is the Scalar n for |n| <= _SMALL_MAX,
# through Python's negative indexing.
_SMALL_MAX = 64
_SMALL = tuple(_raw(i if i <= _SMALL_MAX else i - 2 * _SMALL_MAX - 1, 0, 1, 0)
               for i in range(2 * _SMALL_MAX + 1))
ZERO = _SMALL[0]
ONE = _SMALL[1]


def muladd(acc: Scalar, a: Scalar, b: Scalar) -> Scalar:
    """acc + a * b in one call, building one Scalar at most when all three are integers."""
    if acc.q == a.q == b.q == 1 and not (acc.d or a.d or b.d):
        n = acc.n + a.n * b.n
        return _SMALL[n] if -_SMALL_MAX <= n <= _SMALL_MAX else _raw(n, 0, 1, 0)
    return acc + a * b


def mulsub(acc: Scalar, a: Scalar, b: Scalar) -> Scalar:
    """acc - a * b in one call, as `muladd`."""
    if acc.q == a.q == b.q == 1 and not (acc.d or a.d or b.d):
        n = acc.n - a.n * b.n
        return _SMALL[n] if -_SMALL_MAX <= n <= _SMALL_MAX else _raw(n, 0, 1, 0)
    return acc - a * b


def power(base, n: int):
    """base ** n for n >= 1 by repeated squaring, for Scalars and polynomials:
    one product per set bit of n past the first and one square per bit past
    the last, none with the constant 1."""
    out = None
    while True:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if not n:
            return out
        base = base * base


def scalar_sqrt(value) -> Scalar:
    """Exact square root of a rational as a Scalar, possibly in Q(sqrt d).

    Raises ExtensionRequiredError if the input is itself irrational.
    """
    value = Scalar.coerce(value)
    if not value.is_rational:
        raise ExtensionRequiredError(
            "extension beyond quadratic required (sqrt of an irrational)"
        )
    q = value.as_fraction()
    if q == 0:
        return ZERO
    s_num, d_num = squarefree_decompose(q.numerator * q.denominator)
    # sqrt(p/q) = sqrt(p*q)/q
    root = Fraction(s_num, q.denominator)
    if d_num == 1:
        return Scalar(root)
    return Scalar(0, root, d_num)


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """The rational square root >= 0 of q, or None when q is not a square."""
    if q < 0:
        return None
    n, d = isqrt(q.numerator), isqrt(q.denominator)
    return Fraction(n, d) if n * n == q.numerator and d * d == q.denominator else None


def sqrt_in_field(value: Scalar, d: int) -> Scalar | None:
    """A square root of `value` in Q(sqrt d), or None when it has none there.

    For d = 0 the value is rational and its root lies in Q or in one
    Q(sqrt m), as `scalar_sqrt` gives.  Otherwise (x + y sqrt d)^2 =
    a + b sqrt d says x^2 + d y^2 = a and 2xy = b: for b = 0 either x or y is
    0, and for b != 0, x^2 - d y^2 = +-n with n^2 = a^2 - d b^2, the norm, so
    x^2 = (a +- n) / 2 and y = b / 2x.
    """
    if d == 0:
        return scalar_sqrt(value)
    a, b = value.a, value.b
    if b == 0:
        x = _rational_sqrt(a)
        if x is not None:
            return Scalar(x)
        y = _rational_sqrt(a / d)
        return None if y is None else Scalar(0, y, d)
    n = _rational_sqrt(a * a - d * b * b)
    if n is None:
        return None
    for x in (_rational_sqrt((a + n) / 2), _rational_sqrt((a - n) / 2)):
        if x:
            return Scalar(x, b / (2 * x), d)
    return None


def format_scalar(s: Scalar) -> str:
    """Render exactly: `p/q`, or `a+b*sqrt(d)` with b's sign folded in.

    A rational prints from its ints, which are already in lowest terms; only
    an irrational one is split into the Fractions a and b."""
    if s.d == 0:
        return str(s.n) if s.q == 1 else f"{s.n}/{s.q}"

    def frac(q: Fraction) -> str:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    b = s.b
    mag = abs(b)
    root = f"sqrt({s.d})" if mag == 1 else f"{frac(mag)}*sqrt({s.d})"
    sign = "-" if b < 0 else "+"
    if s.n == 0:
        return root if b > 0 else f"-{root}"
    return f"{frac(s.a)}{sign}{root}"


def common_domain(values) -> int:
    """Discriminant shared by a collection of scalars (0 if all rational)."""
    d = 0
    for v in values:
        if v.d:
            if d == 0:
                d = v.d
            elif d != v.d:
                raise ScalarDomainError(f"mixed extensions sqrt({d}) and sqrt({v.d})")
    return d
