"""Univariate polynomials as coefficient lists, leading coefficient first.

The one root finder of the package.  `rational_roots` serves the point scan
(an eliminant in the next coordinate of a box, its bounds the box's) and
`eigen_small` (a characteristic polynomial scaled to a monic integer one,
denominator 1 and the spectral bound); `quadratic_factors` finds the monic
quadratic factors that carry `eigen_small` into one quadratic extension.
`evaluate`, `divide` and `mul` take ints, Fractions or Scalars alike.
`resultant` is the scan's elimination step, on integer polynomials in
several variables held as {exponent tuple: coefficient}.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, sub


def evaluate(f, x):
    """Horner's rule."""
    total = f[0]
    for c in f[1:]:
        total = total * x + c
    return total


def divide(f, g):
    """(quotient, remainder) of f by a monic g."""
    f = list(f)
    k = max(len(f) - len(g) + 1, 0)
    for i in range(k):
        c = f[i]
        if c:
            for j in range(1, len(g)):
                f[i + j] -= c * g[j]
    return f[:k], f[k:]


def mul(f, g):
    """The product of f and g."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = a * b + out[i + j]
    return out


def _divisors(n, bound):
    """The positive divisors of n up to bound."""
    return [d for d in range(1, min(abs(n), bound) + 1) if not n % d]


def rational_roots(f, num: int, den: int) -> list:
    """The distinct roots p/q of an integer f, as pairs (p, q) in lowest terms
    with |p| <= num and 1 <= q <= den.

    0 is split off first.  The rest r has r(0) != 0: a linear r has its root
    read off, a quadratic r those its discriminant gives when it is a square,
    and otherwise a root has p | r(0) and q | (r's leading coefficient) by the
    rational root theorem, each such pair tested exactly.
    """
    roots, found = [], []
    while f[-1] == 0:
        f = f[:-1]
        roots = [(0, 1)]
    if len(f) == 2:
        found = [Fraction(-f[1], f[0]).as_integer_ratio()]
    elif len(f) == 3:
        a, b, c = f
        disc = b * b - 4 * a * c
        root = isqrt(disc) if disc >= 0 else -1
        if root * root == disc:
            found = [Fraction(-b + s * root, 2 * a).as_integer_ratio() for s in (-1, 1)]
    elif len(f) > 3:
        for q in _divisors(f[0], den):
            scaled = [c * q**i for i, c in enumerate(f)]  # q^n f(t/q)
            found += [(s * p, q) for p in _divisors(f[-1], num) if gcd(p, q) == 1
                      for s in (1, -1) if not evaluate(scaled, s * p)]
    roots += [r for r in dict.fromkeys(found) if abs(r[0]) <= num and r[1] <= den]
    return roots


def quadratic_factors(f, bound: int):
    """(factors, rest): monic quadratics t^2 + b t + c that divide a monic
    integer f with f(0) != 0, taken out one at a time (a repeated one as
    often as it divides), and the monic quotient left when no more is found.
    A factor's roots have absolute value at most `bound`, so |b| <= 2 bound
    and 0 < |c| <= bound^2, c divides f(0), and its values at 1 and -1 divide
    f(1) and f(-1); a quadratic rest is itself a factor."""
    factors = []
    while len(f) > 3:
        f0, f1, f_1 = f[-1], evaluate(f, 1), evaluate(f, -1)
        quadratic = next((
            [1, b, c]
            for size in _divisors(f0, bound * bound)
            for c in (size, -size)
            for b in range(-2 * bound, 2 * bound + 1)
            if 1 + b + c and 1 - b + c and not f1 % (1 + b + c) and not f_1 % (1 - b + c)
            and not any(divide(f, (1, b, c))[1])
        ), None)
        if quadratic is None:
            return factors, f
        factors.append(quadratic)
        f = divide(f, quadratic)[0]
    if len(f) == 3:
        factors.append(f)
        f = [1]
    return factors, f


def _cross(a, x, b, y):
    """a x - b y for integer polynomials {exponent tuple: coefficient}."""
    out = {}
    for f, g, s in ((a, x, 1), (b, y, -1)):
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + s * c1 * c2
    return {e: c for e, c in out.items() if c}


def _exact_quotient(f, g):
    """f / g when g divides f, by long division on the lexicographically
    greatest term."""
    lead = max(g)
    f, out = dict(f), {}
    while f:
        e = max(f)
        m = tuple(map(sub, e, lead))
        c = out[m] = f[e] // g[lead]
        for b, d in g.items():
            k = tuple(map(add, m, b))
            f[k] = f.get(k, 0) - c * d
            if not f[k]:
                del f[k]
    return out


def resultant(f, g):
    """The Sylvester resultant of integer polynomials f and g {exponent tuple:
    coefficient}, both of positive degree in their last variable, as a
    polynomial in the others: the determinant of the Sylvester matrix by
    fraction-free Bareiss elimination, each division exact.  It lies in the
    ideal (f, g), so it vanishes wherever f and g both do (Cox, Little and
    O'Shea, Ideals, Varieties, and Algorithms, ch. 3)."""
    def coefficients(h):  # in the last variable, leading first
        top = max(e[-1] for e in h)
        return [{e[:-1]: c for e, c in h.items() if e[-1] == k} for k in range(top, -1, -1)]

    a, b = coefficients(f), coefficients(g)
    m, n = len(a) - 1, len(b) - 1
    rows = [[{}] * i + a + [{}] * (n - 1 - i) for i in range(n)]
    rows += [[{}] * i + b + [{}] * (m - 1 - i) for i in range(m)]
    sign, previous = 1, {(0,) * (len(next(iter(f))) - 1): 1}
    for k in range(m + n - 1):
        pivot = next((i for i in range(k, m + n) if rows[i][k]), None)
        if pivot is None:
            return {}
        if pivot != k:
            rows[k], rows[pivot], sign = rows[pivot], rows[k], -sign
        lead = rows[k]
        for row in rows[k + 1:]:
            row[k + 1:] = [
                _exact_quotient(_cross(lead[k], x, row[k], y), previous)
                for x, y in zip(row[k + 1:], lead[k + 1:])
            ]
        previous = lead[k]
    return {e: sign * c for e, c in rows[-1][-1].items()}


def root_bound(f) -> int:
    """Fujiwara's bound 2 max |f_i|^(1/i) on the roots of a monic integer f,
    each |f_i|^(1/i) rounded up to a power of 2."""
    return 2 * max(
        (1 << -(-abs(c).bit_length() // i) for i, c in enumerate(f[1:], 1) if c), default=0
    )


def root_scale(denominators) -> int:
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
