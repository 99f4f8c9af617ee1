"""Sparse multivariate (Laurent) polynomials over exact scalars.

Terms are stored as a dict from exponent tuples to nonzero Scalars, so equality
is syntactic on canonical forms.  Negative exponents are admitted only at
positions whose variable carries the Laurent flag.  The display order is
graded-lexicographic (total degree first, then exponent tuple), fixed globally
so report output is byte-stable.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .errors import LaurentViolationError, VarSetMismatchError
from .scalars import Scalar, ZERO, ONE, format_scalar, muladd, power


class VarSet:
    """Ordered variable names with per-variable Laurent flags."""

    __slots__ = ("names", "laurent", "_index")

    def __init__(self, names, laurent=()):
        names, laurent = tuple(names), tuple(laurent)
        for what, given in (("variable names", names), ("Laurent flags", laurent)):
            if len(set(given)) != len(given):
                raise ValueError(f"duplicate {what} in {given}")
        lset = set(laurent)
        unknown = lset - set(names)
        if unknown:
            raise ValueError(f"Laurent flags for unknown variables {sorted(unknown)}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "laurent", tuple(n in lset for n in names))
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    def __setattr__(self, *args):
        raise AttributeError("VarSet is immutable")

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise VarSetMismatchError(f"unknown variable {name!r}") from None

    def __eq__(self, other):
        return (
            isinstance(other, VarSet)
            and self.names == other.names
            and self.laurent == other.laurent
        )

    def __hash__(self):
        return hash((self.names, self.laurent))

    def laurent_suffix(self) -> str:
        """` laurent(z, ...)` naming the flagged variables, or "" when none is."""
        flags = [n for n, f in zip(self.names, self.laurent) if f]
        return f" laurent({', '.join(flags)})" if flags else ""

    def __repr__(self):
        return f"VarSet({', '.join(self.names)}{self.laurent_suffix()})"


def _check_exponents(varset: VarSet, exps):
    for e, flag, name in zip(exps, varset.laurent, varset.names):
        if e < 0 and not flag:
            raise LaurentViolationError(
                f"negative exponent on non-Laurent variable {name}"
            )


def term_sort_key(exps):
    """Graded-lex key; used descending for display."""
    return (sum(exps), exps)


class LaurentPoly:
    """Immutable sparse polynomial; arithmetic is exact and canonicalizing."""

    __slots__ = ("varset", "terms")

    def __init__(self, varset: VarSet, terms=None):
        clean = {}
        for exps, coeff in (terms or {}).items():
            coeff = Scalar.coerce(coeff)
            if coeff.is_zero:
                continue
            exps = tuple(exps)
            if len(exps) != len(varset):
                raise VarSetMismatchError("exponent arity mismatch")
            _check_exponents(varset, exps)
            clean[exps] = coeff
        object.__setattr__(self, "varset", varset)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def _raw(varset: VarSet, terms: dict) -> "LaurentPoly":
        """Internal: skip validation when invariants follow from valid inputs."""
        p = object.__new__(LaurentPoly)
        object.__setattr__(p, "varset", varset)
        object.__setattr__(p, "terms", terms)
        return p

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(varset: VarSet) -> "LaurentPoly":
        return LaurentPoly(varset)

    @staticmethod
    def const(varset: VarSet, value) -> "LaurentPoly":
        value = Scalar.coerce(value)
        return LaurentPoly._raw(varset, {} if value.is_zero else {(0,) * len(varset): value})

    @staticmethod
    def variable(varset: VarSet, name: str) -> "LaurentPoly":
        exps = [0] * len(varset)
        exps[varset.index(name)] = 1  # an exponent of 1 needs no Laurent flag
        return LaurentPoly._raw(varset, {tuple(exps): ONE})

    # -- predicates ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_value(self) -> Scalar:
        """The scalar value if the polynomial is constant, else raises."""
        if self.is_zero:
            return ZERO
        if len(self.terms) == 1:
            (exps, coeff), = self.terms.items()
            if all(e == 0 for e in exps):
                return coeff
        raise ValueError(f"{self} is not constant")

    def total_degree(self):
        """Max over terms of the exponent sum; None for the zero polynomial."""
        if self.is_zero:
            return None
        return max(sum(e) for e in self.terms)

    # -- arithmetic ------------------------------------------------------------

    def _same_varset(self, other: "LaurentPoly"):
        if self.varset != other.varset:
            raise VarSetMismatchError("operands over different variable sets")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = LaurentPoly.const(self.varset, other)
        self._same_varset(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps, ZERO) + coeff
            if acc.is_zero:
                terms.pop(exps, None)
            else:
                terms[exps] = acc
        return LaurentPoly._raw(self.varset, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(self.varset, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = LaurentPoly.const(self.varset, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            s = Scalar.coerce(other)
            if s.is_zero:
                return LaurentPoly.zero(self.varset)
            return LaurentPoly._raw(
                self.varset, {e: c * s for e, c in self.terms.items()}
            )
        self._same_varset(other)
        out, pairs = {}, other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in pairs:
                exps = tuple(map(add, e1, e2))
                acc = out.get(exps)
                out[exps] = c1 * c2 if acc is None else muladd(acc, c1, c2)
        return LaurentPoly._raw(self.varset, {e: c for e, c in out.items() if not c.is_zero})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self._unit_inverse() ** (-n)
        return power(self, n) if n else LaurentPoly.const(self.varset, 1)

    def _unit_inverse(self) -> "LaurentPoly":
        """Inverse of a unit (single term on Laurent-invertible variables)."""
        if len(self.terms) != 1:
            raise LaurentViolationError(f"{self} is not a unit monomial")
        (exps, coeff), = self.terms.items()
        inv = tuple(-e for e in exps)
        _check_exponents(self.varset, inv)
        return LaurentPoly(self.varset, {inv: coeff.inverse()})

    # -- calculus ----------------------------------------------------------------

    def partial(self, name: str) -> "LaurentPoly":
        """Formal partial derivative, Laurent-aware."""
        i = self.varset.index(name)
        out = {}
        for exps, coeff in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            new = list(exps)
            new[i] = e - 1
            out[tuple(new)] = coeff * e
        return LaurentPoly._raw(self.varset, out)

    def evaluate(self, point: "PointP") -> Scalar:
        if point.varset != self.varset:
            raise VarSetMismatchError("point over a different variable set")
        total = ZERO
        for exps, coeff in self.terms.items():
            val = coeff
            for e, x in zip(exps, point.values):
                if e:
                    val = val * x**e
            total = total + val
        return total

    def linear_part(self, point: "PointP"):
        """Constant-and-linear Taylor data at the point.

        Returns (value, gradient); the class of p - p(pt) modulo the square of
        the maximal ideal at pt is sum_k grad[k] * (x_k - pt_k).  The result
        equals (p.evaluate(pt), (p.partial(x_k).evaluate(pt) for each k)), but
        is one sparse sum of coeff times the point's jet of each monomial
        (`PointP.jet`), built once per point and monomial; no derivative
        polynomial is built.
        """
        if point.varset != self.varset:
            raise VarSetMismatchError("point over a different variable set")
        value, jets = ZERO, point._jets
        grad = [ZERO] * len(self.varset)
        for exps, coeff in self.terms.items():
            power, slopes = jets.get(exps) or point.jet(exps)
            if power is not None:
                value = muladd(value, coeff, power)
            for k, slope in slopes:
                grad[k] = muladd(grad[k], coeff, slope)
        return value, tuple(grad)

    def substitute(self, images: dict) -> "LaurentPoly":
        """Substitute each variable by a polynomial (all over one target varset).

        Negative powers require the image to be an invertible monomial.  The
        image of each monomial is scaled by its coefficient into one dict of
        sums, and the zero coefficients are dropped once at the end.
        """
        target = None
        for img in images.values():
            target = img.varset
            break
        if target is None:
            raise ValueError("empty substitution")
        missing = [n for n in self.varset.names if n not in images]
        if missing:
            raise VarSetMismatchError(f"substitution misses variables {missing}")
        out = {}
        one = {(0,) * len(target): ONE}
        cache: dict[tuple[int, int], LaurentPoly] = {}
        for exps, coeff in self.terms.items():
            image = None  # of the monomial x^exps; None for 1
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                key = (i, e)
                if key not in cache:
                    cache[key] = images[self.varset.names[i]] ** e
                image = cache[key] if image is None else image * cache[key]
            for m, c in (one if image is None else image.terms).items():
                acc, c = out.get(m), coeff * c
                out[m] = c if acc is None else acc + c
        return LaurentPoly._raw(target, {m: c for m, c in out.items() if not c.is_zero})

    # -- canonical form ----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: term_sort_key(kv[0]), reverse=True)

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=term_sort_key)
        return exps, self.terms[exps]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = LaurentPoly.const(self.varset, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.varset == other.varset and self.terms == other.terms

    def __hash__(self):
        return hash((self.varset, frozenset(self.terms.items())))

    def __repr__(self):
        return f"LaurentPoly({self})"

    def text(self, coeff_text, power) -> str:
        """The terms in display order, by `term_text` and `signed_sum`, with
        `coeff_text(c, alone)` for a coefficient c (`alone` when its monomial
        is 1) and `power(name, e)` for a factor name^e, e not 0 or 1."""
        pieces = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                name if e == 1 else power(name, e) for name, e in zip(self.varset.names, exps) if e
            )
            pieces.append(term_text(coeff_text(coeff, not mono), mono))
        return signed_sum(pieces)

    def __str__(self):
        return self.text(report_coeff, lambda name, e: f"{name}^{e}")


def signed_sum(pieces) -> str:
    """Term texts joined by ` + `, or by ` - ` before a term with a leading
    `-`; `0` when there are none."""
    if not pieces:
        return "0"
    return pieces[0] + "".join(f" - {p[1:]}" if p[0] == "-" else f" + {p}" for p in pieces[1:])


def term_text(coeff: str, mono: str) -> str:
    """`coeff*mono`: a coefficient 1 or -1 folds into the sign, and the
    monomial 1 (`mono` empty) adds no factor."""
    if not mono:
        return coeff
    if coeff in ("1", "-1"):
        return mono if coeff == "1" else f"-{mono}"
    return f"{coeff}*{mono}"


def report_coeff(c: Scalar, alone=False) -> str:
    """A coefficient in reports: `format_scalar`'s text, an irrational one in
    parentheses unless `alone` (no monomial follows)."""
    return str(c) if alone or c.is_rational else f"({c})"


class PointP:
    """An assignment of one scalar per variable (a maximal ideal).

    A point keeps the jets of the monomials evaluated at it in `_jets`,
    outside `==`, `hash`, `repr` and `str` and filled on first use.  What is
    decided once per point, g(J) and the axiom obligations, is kept on the
    presentation under the point's value, so equal points share it.
    """

    __slots__ = ("varset", "values", "_jets")

    def __init__(self, varset: VarSet, values):
        values = tuple(map(Scalar.coerce, values))
        if len(values) != len(varset):
            raise VarSetMismatchError("point arity mismatch")
        if True in varset.laurent:
            for v, flag, name in zip(values, varset.laurent, varset.names):
                if flag and v.is_zero:
                    raise LaurentViolationError(f"zero assigned to Laurent variable {name}")
        object.__setattr__(self, "varset", varset)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_jets", {})

    def jet(self, exps):
        """(pt^a, or None when it is 0; the pairs (k, d/dx_k x^a at pt) that
        are nonzero) for the monomial with exponent tuple a = `exps`: built
        on first use from the factors pt_k^e_k and their derivatives by
        prefix and suffix products, and kept in `_jets`."""
        jet = self._jets.get(exps)
        if jet is not None:
            return jet
        factors = []  # (k, pt_k^e_k, e_k * pt_k^(e_k - 1)) for pt_k != 0
        zeros = []  # (k, e_k) for pt_k == 0
        for k, e in enumerate(exps):
            if e:
                x = self.values[k]
                if x.is_zero:
                    zeros.append((k, e))
                else:
                    below = x ** (e - 1)
                    factors.append((k, below * x, below * e))
        prefix = [ONE]  # prefix[i] is the product of the powers of factors[:i]
        for _, pw, _ in factors:
            prefix.append(prefix[-1] * pw)
        if zeros:
            # x^a is 0 at pt, and so is every partial derivative but the one
            # along a single zero coordinate of exponent 1
            single = len(zeros) == 1 and zeros[0][1] == 1
            jet = None, ((zeros[0][0], prefix[-1]),) if single else ()
        else:
            slopes, rest = [], ONE  # rest: the product of the powers after factor i
            for (k, pw, slope), before in zip(reversed(factors), reversed(prefix[:-1])):
                slopes.append((k, before * rest * slope))
                rest = rest * pw
            jet = prefix[-1], tuple(slopes)
        self._jets[exps] = jet
        return jet

    def __setattr__(self, *args):
        raise AttributeError("PointP is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, PointP)
            and self.varset == other.varset
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.varset, self.values))

    def sort_key(self):
        return tuple(v.sort_key() for v in self.values)

    def __repr__(self):
        return f"PointP({self})"

    def __str__(self):
        return "(" + ", ".join(map(format_scalar, self.values)) + ")"


def divides(divisor: LaurentPoly, p: LaurentPoly):
    """Quotient q with p == q * divisor in the Laurent ring, or None.

    Monomials in the Laurent variables are units, so divisibility is tested
    after dividing both operands by their lowest power of each Laurent
    variable (a positive or a negative power); that leaves honest polynomials.
    """
    if divisor.is_zero:
        return None
    if p.is_zero:
        return LaurentPoly.zero(p.varset)

    def monomial_shift(poly):
        return tuple(-min(exps[i] for exps in poly.terms) if flag else 0
                     for i, flag in enumerate(poly.varset.laurent))

    def shifted(poly, shift):
        return LaurentPoly(
            poly.varset,
            {tuple(e + s for e, s in zip(exps, shift)): c for exps, c in poly.terms.items()},
        )

    sh_p = monomial_shift(p)
    sh_d = monomial_shift(divisor)
    p2 = shifted(p, sh_p)
    d2 = shifted(divisor, sh_d)
    lead_d, coeff_d = d2.leading()
    quotient = LaurentPoly.zero(p.varset)
    rem = p2
    while not rem.is_zero:
        lead_r, coeff_r = rem.leading()
        q_exps = tuple(a - b for a, b in zip(lead_r, lead_d))
        if any(e < 0 for e in q_exps):
            return None
        mono = LaurentPoly(p.varset, {q_exps: coeff_r / coeff_d})
        quotient = quotient + mono
        rem = rem - mono * d2
    # undo the unit normalizations: p = z^-shp * p2 = z^-shp * q * d2 = (q * z^(shd-shp)) * divisor
    net = tuple(b - a for a, b in zip(sh_p, sh_d))
    unit = LaurentPoly(p.varset, {net: ONE})
    return quotient * unit
