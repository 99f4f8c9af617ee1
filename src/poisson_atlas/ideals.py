"""Locate Poisson maximal ideals (points) and report the symplectic-leaf partition.

A maximal ideal at a point is Poisson iff every generator bracket vanishes
there; for an exact bracket this is exactly the vanishing gradient of the
potential, i.e. a singularity of the level surface through the point.  The
search is an exact scan of a rational box plus caller-supplied candidates.
Each bracket is split into integer component polynomials, and the box is
searched one coordinate at a time: a value p/q is substituted homogeneously
(a term c*x^e becomes c*p^e*q^(top-e), a nonzero multiple of the exact
value), and a branch is dropped as soon as some component becomes a nonzero
constant.  The values tried on a coordinate are the rational roots in the box
of an eliminant, a polynomial in that coordinate alone in the ideal of the
components, from resultants that eliminate the later ones (Cox, Little and
O'Shea, Ideals, Varieties, and Algorithms, ch. 3); the axis is walked only
where none is found.  So the work follows the points, not the grid.  The scan
does integer arithmetic only, and it is sound and complete within the box;
completeness is never claimed beyond it.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .brackets import Exact, PoissonPresentation, Scaled
from .intpoly import rational_roots, resultant
from .poly import LaurentPoly, PointP
from .scalars import Scalar, common_domain


@dataclass(frozen=True)
class SearchBox:
    """Candidates are all points with coordinates p/q, |p| <= num, 1 <= q <= den."""

    num: int = 4
    den: int = 2
    extra: tuple = ()  # explicit PointP candidates, e.g. extension points

    def __post_init__(self):
        if self.num < 1 or self.den < 1:
            raise ValueError("box bounds must be >= 1")

    def coordinate_values(self):
        return sorted({Fraction(p, q) for q in range(1, self.den + 1)
                       for p in range(-self.num, self.num + 1)})

    @cached_property
    def pairs(self):
        """`coordinate_values` as pairs (p, q) in lowest terms, built on first use."""
        return [v.as_integer_ratio() for v in self.coordinate_values()]


def is_poisson_maximal(pres: PoissonPresentation, pt: PointP) -> bool:
    """True iff every generator bracket {x_i, x_j} vanishes at the point."""
    if pt.varset != pres.varset:
        raise ValueError("point over a different variable set")
    return all(poly.evaluate(pt).is_zero for _, poly in pres.bracket_spec.nonzero)


def _potential_of(pres: PoissonPresentation) -> LaurentPoly | None:
    """The potential f of an Exact or Scaled bracket (its value at a point is
    the point's lambda), or None."""
    spec = pres.bracket_spec
    return spec.potential if isinstance(spec, (Exact, Scaled)) else None


def _integer_components(poly: LaurentPoly) -> list:
    """Integer polynomials {exponent tuple: int} whose common zeros in the box are poly's.

    A coefficient (n + m*sqrt d)/q contributes n/q to the first component and
    m/q to the second; at a rational point poly vanishes iff both do.  Each
    component is scaled to coprime integer coefficients and multiplied by a
    monomial in its Laurent variables so their least exponent is 0 (a unit
    on the box, where those coordinates are nonzero); other variables are
    never shifted.
    """
    common_domain(poly.terms.values())
    laurent = poly.varset.laurent
    out = []
    for part in ({e: (c.n, c.q) for e, c in poly.terms.items() if c.n},
                 {e: (c.m, c.q) for e, c in poly.terms.items() if c.m}):
        if not part:
            continue
        den = lcm(*(q for _, q in part.values()))
        content = gcd(*(n * (den // q) for n, q in part.values()))
        lows = [min(e[k] for e in part) if flag else 0 for k, flag in enumerate(laurent)]
        out.append({
            tuple(x - lo for x, lo in zip(e, lows)): n * (den // q) // content
            for e, (n, q) in part.items()
        })
    return out


def _fold_first(components, p, q):
    """Put p/q for the first variable, c*x^e -> c*p^e*q^(top-e) for the component's
    top exponent (same zeros); None once a component is a nonzero constant."""
    out = []
    for terms in components:
        top = max(e[0] for e in terms)
        folded = {}
        for exps, c in terms.items():
            rest = exps[1:]
            folded[rest] = folded.get(rest, 0) + c * p ** exps[0] * q ** (top - exps[0])
        folded = {rest: c for rest, c in folded.items() if c}
        if folded:
            if len(folded) == 1 and not any(next(iter(folded))):
                return None
            out.append(folded)
    return out


def _eliminant(polys, bound):
    """A nonzero integer polynomial in the first variable alone, leading
    coefficient first, in the ideal of `polys`, or None when none is found.

    The later variables go last first: a polynomial free of the variable is
    kept, and those that hold it are paired into resultants, of which the
    first 3 nonzero ones are kept.  A pair whose total degrees multiply to
    more than `bound`, the count of values on an axis, is skipped: its
    resultant may be of that degree (Bezout), and computing it can cost more
    than walking the axis.  Of the univariate polynomials left, the one of
    least degree span is taken.
    """
    while len(next(iter(polys[0]))) > 1:
        held, free = [], []
        for f in polys:
            if any(e[-1] for e in f):
                held.append((max(map(sum, f)), f))
            else:
                free.append(f)
        resultants = (resultant(f, g) for (m, f), (n, g) in itertools.combinations(held, 2)
                      if m * n <= bound)
        polys = [{e[:-1]: c for e, c in f.items()} for f in free]
        polys += itertools.islice(filter(None, resultants), 3)
        if not polys:
            return None
    least = min(polys, key=lambda t: max(t)[0] - min(t)[0])
    return [least.get((e,), 0) for e in range(max(least)[0], -1, -1)]


def _common_zeros(components, box, laurent, prefix=()):
    """Every completion of prefix, (p, q) per axis, where all components vanish, in order.

    The values tried on the next axis are the rational roots in the box of an
    eliminant of the components (`_eliminant`), sorted; the box's values are
    walked only when there is none (every resultant vanishes identically or
    is skipped as too large) or no component is left, and a Laurent axis
    skips 0.  On the last axis the components are univariate (a nonzero
    constant was pruned above), and the eliminant is the one of least degree.
    """
    if not components:
        axes = [[r for r in box.pairs if r[0] or not flag] for flag in laurent]
        yield from (prefix + rest for rest in itertools.product(*axes))
        return
    f = _eliminant(components, (2 * box.num + 1) * box.den)
    values = box.pairs if f is None else sorted(
        rational_roots(f, box.num, box.den), key=lambda r: Fraction(*r))
    for p, q in values:
        folded = _fold_first(components, p, q) if p or not laurent[0] else None
        if folded is not None:
            yield from _common_zeros(folded, box, laurent[1:], prefix + ((p, q),))


def find_poisson_maximal(pres: PoissonPresentation, box: SearchBox = SearchBox()):
    """All box points (plus explicit candidates) that are Poisson maximal, as `PointP`s.

    Every pair bracket is split into integer component polynomials and the
    box is searched by nested partial evaluation (`_common_zeros`), with
    integers only: on each coordinate only the rational roots of an eliminant
    are substituted directly, and each distinct coordinate found gets one
    Scalar.  The points come out in increasing order, which is the `sort_key`
    order.  An explicit candidate off the grid (outside the box's bounds, or
    over Q(sqrt d)) is tested exactly, and only when one is added are the
    points sorted.  Sound and complete within the box.
    """
    components = [
        comp for poly in pres.bracket_spec.pairs.values() for comp in _integer_components(poly)
    ]
    combos = list(_common_zeros(components, box, pres.varset.laurent))
    scalars = {r: Scalar(Fraction(*r)) for r in set().union(*combos)}
    found = [PointP(pres.varset, [scalars[r] for r in combo]) for combo in combos]
    extra = []
    for pt in dict.fromkeys(box.extra):
        if pt.varset != pres.varset:
            raise ValueError("candidate point over a different variable set")
        on_grid = all(v.is_rational and abs(v.n) <= box.num and v.q <= box.den
                      for v in pt.values)
        if not on_grid and is_poisson_maximal(pres, pt):
            extra.append(pt)
    return sorted(found + extra, key=PointP.sort_key) if extra else found


def relation_in_J_squared(pres: PoissonPresentation, r: LaurentPoly, pt: PointP) -> bool:
    """True iff r(pt) = 0 and grad r(pt) = 0, i.e. r lies in J^2 at the point."""
    if not is_poisson_maximal(pres, pt):
        warnings.warn(f"point {pt} is not Poisson-maximal", stacklevel=2)
    value, grad = r.linear_part(pt)
    return value.is_zero and all(g.is_zero for g in grad)


@dataclass
class LeafReport:
    """Symplectic-leaf partition data discovered inside the search box."""

    singular_lambdas: list = field(default_factory=list)  # sorted Scalars
    points_by_lambda: dict = field(default_factory=dict)  # Scalar -> [PointP]

    def strata_description(self):
        lines = []
        lams = ", ".join(str(s) for s in self.singular_lambdas)
        lines.append(f"smooth surfaces: S_lambda for lambda outside {{{lams}}}")
        for lam in self.singular_lambdas:
            pts = ", ".join(str(p) for p in self.points_by_lambda[lam])
            lines.append(
                f"punctured singular surface: S_{lam} minus {{{pts}}}"
            )
            lines.append(f"singular points on S_{lam}: {pts}")
        return lines


def leaf_report(pres: PoissonPresentation, box: SearchBox = SearchBox()) -> LeafReport:
    """Partition report for a potential-based bracket (Exact or Scaled): the
    found points grouped by lambda, the potential's value there."""
    potential = _potential_of(pres)
    if potential is None:
        raise ValueError("leaf_report needs a potential-based bracket")
    by_lambda = {}
    for pt in find_poisson_maximal(pres, box):
        by_lambda.setdefault(potential.evaluate(pt), []).append(pt)
    return LeafReport(sorted(by_lambda, key=Scalar.sort_key), by_lambda)
