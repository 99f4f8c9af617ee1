"""Locate Poisson maximal ideals (points) and report the symplectic-leaf partition.

A maximal ideal at a point is Poisson iff every generator bracket vanishes
there; for an exact bracket this is exactly the vanishing gradient of the
potential, i.e. a singularity of the level surface through the point.  The
search is an exact scan of a rational box plus caller-supplied candidates.
The box is walked one coordinate at a time: each bracket is split into
rational component polynomials, the next coordinate's value is substituted
into them, and a branch is dropped as soon as some component becomes a
nonzero constant, so the work follows the surviving partial points rather
than the full grid.  The scan is sound and complete within the box;
completeness is never claimed beyond it.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from .brackets import Exact, PoissonPresentation, Scaled
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
        values = set()
        for q in range(1, self.den + 1):
            for p in range(-self.num, self.num + 1):
                values.add(Fraction(p, q))
        return sorted(values)


@dataclass(frozen=True)
class PoissonMaxIdeal:
    """A Poisson point together with the potential/relation values there."""

    point: PointP
    presentation: PoissonPresentation
    lambda_value: Scalar | None = None  # potential value, when one exists
    relation_values: tuple = ()

    def sort_key(self):
        return self.point.sort_key()

    def __str__(self):
        return str(self.point)


def is_poisson_maximal(pres: PoissonPresentation, pt: PointP) -> bool:
    """True iff every generator bracket {x_i, x_j} vanishes at the point."""
    if pt.varset != pres.varset:
        raise ValueError("point over a different variable set")
    return all(
        poly.evaluate(pt).is_zero for poly in pres.pair_table().values()
    )


def _potential_of(pres: PoissonPresentation) -> LaurentPoly | None:
    spec = pres.bracket_spec
    if isinstance(spec, (Exact, Scaled)):
        return spec.potential
    return None


def make_ideal(pres: PoissonPresentation, pt: PointP) -> PoissonMaxIdeal:
    potential = _potential_of(pres)
    lam = potential.evaluate(pt) if potential is not None else None
    rel_values = tuple(r.evaluate(pt) for r in pres.relations)
    return PoissonMaxIdeal(pt, pres, lam, rel_values)


def _rational_components(poly: LaurentPoly) -> list:
    """Rational polynomials (exponents -> Fraction) whose common rational zeros are poly's.

    A coefficient a + b*sqrt(d) contributes a to the first component and b to
    the second; at a rational point poly vanishes iff both do.
    """
    common_domain(poly.terms.values())
    parts = ({e: c.a for e, c in poly.terms.items() if c.a},
             {e: c.b for e, c in poly.terms.items() if c.b})
    return [part for part in parts if part]


def _substitute_first(components, v):
    """Put v for the first variable of each component; None once one is a nonzero constant."""
    powers = {}
    out = []
    for comp in components:
        folded = {}
        for exps, c in comp.items():
            e, rest = exps[0], exps[1:]
            if e:
                p = powers.get(e)
                if p is None:
                    p = powers[e] = v if e == 1 else v**e
                c = c * p
            s = folded.get(rest)
            folded[rest] = c if s is None else s + c
        folded = {rest: c for rest, c in folded.items() if c}
        if folded:
            if len(folded) == 1 and not any(next(iter(folded))):
                return None
            out.append(folded)
    return out


def _common_zeros(components, axes, prefix=()):
    """Every completion of prefix over axes at which all components vanish, in grid order."""
    if not components:
        yield from (prefix + rest for rest in itertools.product(*axes))
        return
    # a component left over once every axis is fixed is a nonzero constant, pruned above
    for v in axes[0]:
        folded = _substitute_first(components, v)
        if folded is not None:
            yield from _common_zeros(folded, axes[1:], prefix + (v,))


def find_poisson_maximal(pres: PoissonPresentation, box: SearchBox = SearchBox()):
    """All box points (plus explicit candidates) that are Poisson maximal.

    The box is searched by nested partial evaluation: coordinates are
    substituted one at a time into the rational components of every pair
    bracket, and a branch is pruned once a component is a nonzero constant.
    Explicit candidates, which may lie over Q(sqrt d), are tested exactly.
    Sound and complete within the box; deterministically ordered by coordinates.
    """
    components = [
        comp for poly in pres.pair_table().values() for comp in _rational_components(poly)
    ]
    values = box.coordinate_values()
    axes = [[v for v in values if v != 0] if flag else values for flag in pres.varset.laurent]
    found = {}
    for combo in _common_zeros(components, axes):
        pt = PointP(pres.varset, [Scalar(v) for v in combo])
        found[pt] = make_ideal(pres, pt)
    for pt in box.extra:
        if pt.varset != pres.varset:
            raise ValueError("candidate point over a different variable set")
        if pt not in found and is_poisson_maximal(pres, pt):
            found[pt] = make_ideal(pres, pt)
    return sorted(found.values(), key=PoissonMaxIdeal.sort_key)


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
    ideals: list = field(default_factory=list)

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
    """Partition report for a potential-based bracket (Exact or Scaled)."""
    if _potential_of(pres) is None:
        raise ValueError("leaf_report needs a potential-based bracket")
    ideals = find_poisson_maximal(pres, box)
    by_lambda = {}
    for ideal in ideals:
        by_lambda.setdefault(ideal.lambda_value, []).append(ideal.point)
    lams = sorted(by_lambda, key=Scalar.sort_key)
    return LeafReport(lams, by_lambda, ideals)
