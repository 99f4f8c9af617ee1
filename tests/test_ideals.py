import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from poisson_atlas import (
    Exact,
    LaurentPoly,
    PointP,
    PoissonPresentation,
    Scaled,
    SearchBox,
    SubstitutionMap,
    Table,
    VarSet,
    bracket,
    catalog_names,
    find_poisson_maximal,
    get_entry,
    is_poisson_maximal,
    leaf_report,
    relation_in_J_squared,
)
from poisson_atlas import ideals as ideals_module
from poisson_atlas.errors import ScalarDomainError
from poisson_atlas.intpoly import rational_roots, resultant
from poisson_atlas.scalars import Scalar


def pts(ideals):
    return [tuple(str(v) for v in i.values) for i in ideals]


def test_is_poisson_maximal_torus(torus_pres):
    vs = torus_pres.varset
    assert is_poisson_maximal(torus_pres, PointP(vs, [2, 2, 2]))
    # oracle: {y,z}(1,1,1) = yz - 2x = -1 != 0
    bad = PointP(vs, [1, 1, 1])
    yz = torus_pres.bracket_spec.pairs[1, 2]
    assert yz.evaluate(bad) == Scalar(-1)
    assert not is_poisson_maximal(torus_pres, bad)


def test_abelian_every_point_poisson():
    vs = VarSet(("x1", "x2", "x3"))
    pres = PoissonPresentation(Table(vs, ()))
    assert is_poisson_maximal(pres, PointP(vs, [5, -7, Fraction(1, 3)]))
    ideals = find_poisson_maximal(pres, SearchBox(1, 1))
    assert len(ideals) == 3**3


def test_find_a1(a1_pres):
    ideals = find_poisson_maximal(a1_pres, SearchBox(3, 1))
    assert pts(ideals) == [("0", "0", "0")]


def test_find_torus(torus_pres):
    ideals = find_poisson_maximal(torus_pres, SearchBox(3, 1))
    assert set(pts(ideals)) == {
        ("0", "0", "0"),
        ("2", "2", "2"),
        ("2", "-2", "-2"),
        ("-2", "2", "-2"),
        ("-2", "-2", "2"),
    }
    # soundness re-check
    assert all(is_poisson_maximal(torus_pres, i) for i in ideals)


def test_find_laurent_inv(xyz):
    vs, x, y, z = xyz
    pres = PoissonPresentation(Exact(x * (4 - z * z) + y * y))
    ideals = find_poisson_maximal(pres, SearchBox(3, 1))
    assert set(pts(ideals)) == {("0", "0", "2"), ("0", "0", "-2")}


def test_box_skips_zero_for_laurent(xyz_laurent):
    vs, x, y, z = xyz_laurent
    pres = PoissonPresentation(Scaled(2 * z, x * y + z + z**-1))
    ideals = find_poisson_maximal(pres, SearchBox(4, 2))
    assert set(pts(ideals)) == {("0", "0", "1"), ("0", "0", "-1")}


def test_explicit_candidates(xyz_laurent):
    vs, x, y, z = xyz_laurent
    pres = PoissonPresentation(Scaled(2 * z, x * y + z * z + z**-2))
    i = Scalar(0, 1, -1)
    box = SearchBox(extra=(PointP(vs, [0, 0, i]), PointP(vs, [0, 0, -i])))
    ideals = find_poisson_maximal(pres, box)
    assert len(ideals) == 4


def test_relation_in_j_squared(torus_pres):
    vs = torus_pres.varset
    f = torus_pres.relations[0]
    origin = PointP(vs, [0, 0, 0])
    assert relation_in_J_squared(torus_pres, f - 4, origin)
    x = LaurentPoly.variable(vs, "x")
    assert not relation_in_J_squared(torus_pres, x, origin)


def test_relation_in_j_squared_kleinian(xyz):
    vs, x, y, z = xyz
    for n in (3, 4, 5):
        pres = PoissonPresentation(Exact(z**n - x * y))
        origin = PointP(vs, [0, 0, 0])
        assert relation_in_J_squared(pres, z ** (n - 1), origin)


def test_relation_warns_off_poisson_point(torus_pres):
    vs = torus_pres.varset
    x = LaurentPoly.variable(vs, "x")
    with pytest.warns(UserWarning):
        relation_in_J_squared(torus_pres, x, PointP(vs, [1, 1, 1]))


def test_leaf_report_torus(torus_pres):
    by_lambda = leaf_report(torus_pres, find_poisson_maximal(torus_pres, SearchBox(3, 1)))
    assert [str(s) for s in by_lambda] == ["0", "4"]
    assert len(by_lambda[Scalar(0)]) == 4
    assert len(by_lambda[Scalar(4)]) == 1


def test_leaf_report_a1(a1_pres):
    by_lambda = leaf_report(a1_pres, find_poisson_maximal(a1_pres, SearchBox(3, 1)))
    assert [str(s) for s in by_lambda] == ["0"]


def test_leaf_report_whitney(xyz):
    vs, x, y, z = xyz
    pres = PoissonPresentation(Exact(x * y * y - z * z))
    box = SearchBox(3, 1)
    by_lambda = leaf_report(pres, find_poisson_maximal(pres, box))
    assert [str(s) for s in by_lambda] == ["0"]
    alphas = box.coordinate_values()
    assert len(by_lambda[Scalar(0)]) == len(alphas)
    assert all(p.values[1].is_zero and p.values[2].is_zero for p in by_lambda[Scalar(0)])


def test_leaf_report_needs_potential():
    vs = VarSet(("x1", "x2"))
    pres = PoissonPresentation(Table(vs, ()))
    with pytest.raises(ValueError):
        leaf_report(pres, [])


def test_automorphism_preserves_poisson_points(torus_pres):
    vs = torus_pres.varset
    x, y, z = (LaurentPoly.variable(vs, n) for n in vs.names)
    autos = {
        "theta_x": {"x": x, "y": -y, "z": -z},
        "theta_y": {"x": -x, "y": y, "z": -z},
        "theta_z": {"x": -x, "y": -y, "z": z},
    }
    ideals = find_poisson_maximal(torus_pres, SearchBox(3, 1))
    for images in autos.values():
        auto = SubstitutionMap.from_dict(vs, images)
        for ideal in ideals:
            moved = auto.pull_point(ideal)
            assert is_poisson_maximal(torus_pres, moved)


def test_phi_automorphism_laurent_inv(xyz):
    vs, x, y, z = xyz
    pres = PoissonPresentation(Exact(x * (4 - z * z) + y * y))
    phi = SubstitutionMap.from_dict(vs, {"x": x, "y": -y, "z": -z})
    j1 = PointP(vs, [0, 0, 2])
    moved = phi.pull_point(j1)
    assert moved == PointP(vs, [0, 0, -2])
    assert is_poisson_maximal(pres, moved)


def test_deterministic_order(torus_pres):
    first = find_poisson_maximal(torus_pres, SearchBox(3, 1))
    second = find_poisson_maximal(torus_pres, SearchBox(3, 1))
    assert first == second


def test_exact_gradient_equivalence(torus_pres):
    # is_poisson_maximal(pt) <=> grad f(pt) = 0 <=> f - f(pt) in J^2
    import warnings

    vs = torus_pres.varset
    f = torus_pres.relations[0]
    rng_points = [(2, 2, 2), (1, 1, 1), (0, 0, 0), (1, -2, 3)]
    for coords in rng_points:
        pt = PointP(vs, list(coords))
        poisson = is_poisson_maximal(torus_pres, pt)
        _, grad = f.linear_part(pt)
        grad_zero = all(g.is_zero for g in grad)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            in_j2 = relation_in_J_squared(
                torus_pres, f - f.evaluate(pt), pt
            )
        assert poisson == grad_zero == in_j2


def test_mixed_extensions_in_one_bracket_raise():
    vs = VarSet(["x", "y"])
    x, y = LaurentPoly.variable(vs, "x"), LaurentPoly.variable(vs, "y")
    mixed = Scalar(0, 1, 2) * x + Scalar(0, 1, 3) * y
    pres = PoissonPresentation(Table.from_dict(vs, {("x", "y"): mixed}))
    with pytest.raises(ScalarDomainError, match=r"sqrt\(2\).*sqrt\(3\)"):
        find_poisson_maximal(pres, SearchBox(2, 1))


# -- the pruned scan against the plain grid scan ---------------------------------


def _scan_reference(pres, box):
    """Build every box point and evaluate every pair bracket there."""
    table = list(pres.bracket_spec.pairs.values())
    values = box.coordinate_values()
    axes = [[v for v in values if v != 0] if flag else values for flag in pres.varset.laurent]
    found = set()
    for combo in itertools.product(*axes):
        pt = PointP(pres.varset, [Scalar(v) for v in combo])
        if all(poly.evaluate(pt).is_zero for poly in table):
            found.add(pt)
    found.update(pt for pt in box.extra if is_poisson_maximal(pres, pt))
    return sorted(found, key=PointP.sort_key)


def _assert_same_scan(pres, box):
    """The scan finds the reference's points, in order, and with a potential
    `leaf_report` files each under the potential's value there, in increasing
    lambda."""
    want = _scan_reference(pres, box)
    found = find_poisson_maximal(pres, box)
    assert found == want
    if not isinstance(pres.bracket_spec, (Exact, Scaled)):
        return
    by_lambda = {}
    for pt in want:
        by_lambda.setdefault(pres.bracket_spec.potential.evaluate(pt), []).append(pt)
    got = leaf_report(pres, found)
    assert got == by_lambda
    assert list(got) == sorted(by_lambda, key=Scalar.sort_key)


@pytest.mark.parametrize("name", catalog_names())
def test_scan_matches_reference_on_catalog(name):
    entry = get_entry(name)
    pres = entry.presentation or entry.invariants.ambient
    for num, den in ((4, 2), (5, 2)):
        _assert_same_scan(pres, dataclasses.replace(entry.box, num=num, den=den))


_RATIONALS = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def _small_presentations(draw):
    """Two-variable tables, or Exact/Scaled brackets on three variables.

    Coefficients have denominators up to 3 and may have a sqrt(-1) part;
    Laurent variables take exponents of both signs.
    """
    nvars = draw(st.integers(2, 3))
    vs = VarSet(("x", "y", "z")[:nvars], [n for n in "xyz"[:nvars] if draw(st.booleans())])
    d = draw(st.sampled_from([0, -1]))

    def poly():
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            exps = tuple(draw(st.integers(-2 if flag else 0, 2)) for flag in vs.laurent)
            b = draw(_RATIONALS) if d else 0
            terms[exps] = Scalar(draw(_RATIONALS), b, d if b else 0)
        return LaurentPoly(vs, terms)

    if nvars == 2:
        return PoissonPresentation(Table(vs, ((0, 1, poly()),)))
    f = poly()
    spec = Scaled(poly(), f) if draw(st.booleans()) else Exact(f)
    return PoissonPresentation(spec, relations=(f,))


_XY = VarSet(["x", "y"], ["y"])
_XY_PLAIN = VarSet(["x", "y"])


def _table(vs, poly):
    return PoissonPresentation(Table(vs, ((0, 1, LaurentPoly(vs, poly)),)))


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_small_presentations(), st.integers(1, 3), st.integers(1, 3))
@example(PoissonPresentation(Table(_XY, ())), 2, 2)  # no bracket: every point, no pruning
@example(PoissonPresentation(Table(_XY, ((0, 1, LaurentPoly.const(_XY, 3)),))), 2, 2)  # all pruned
# y(y + 1)(2y - 3)/6 on the last axis: the roots 0, -1 and 3/2 need the zero
# candidate, q | (leading coefficient) and p | (lowest coefficient) in that order
@example(_table(_XY_PLAIN, {(0, 3): Fraction(1, 3), (0, 2): Fraction(-1, 6),
                            (0, 1): Fraction(-1, 2)}), 3, 2)
# 2x^2/y + 3xy on a Laurent y: x = 0 is a line of zeros, and x = -3y^2/2 meets the box
@example(_table(_XY, {(2, -1): 2, (1, 1): 3}), 3, 2)
# (x - 1/2) + sqrt(-1)(y - 2/3): the rational and the sqrt(-1) parts vanish only at (1/2, 2/3)
@example(_table(_XY_PLAIN, {(1, 0): 1, (0, 1): Scalar(0, 1, -1),
                            (0, 0): Scalar(Fraction(-1, 2), Fraction(-2, 3), -1)}), 2, 3)
# the last axis is not walked: its candidates are the roots of one component
@example(_table(_XY_PLAIN, {(0, 1): 2, (0, 0): -1}), 2, 2)  # linear, root 1/2 in the box
@example(_table(_XY_PLAIN, {(0, 1): 3, (0, 0): -1}), 3, 2)  # linear, root 1/3 outside it
# (x + 2)y - 1: the root 1/(x + 2) is in the box for some x only, and x = -2 is pruned
@example(_table(_XY_PLAIN, {(1, 1): 1, (0, 1): 2, (0, 0): -1}), 3, 3)
@example(_table(_XY_PLAIN, {(0, 2): 2, (0, 1): 3, (0, 0): -2}), 2, 2)  # (2y - 1)(y + 2)
@example(_table(_XY_PLAIN, {(0, 2): 1, (0, 0): -2}), 2, 2)  # y^2 - 2: a non-square discriminant
@example(_table(_XY_PLAIN, {(0, 2): 1, (0, 0): 1}), 2, 2)  # y^2 + 1: a negative discriminant
@example(_table(_XY_PLAIN, {(0, 3): 1, (0, 1): -1}), 2, 2)  # y^3 - y: 0 besides the roots of y^2 - 1
# y(y - 1)(2y + 1)(y + 2): 0, then a cubic's roots by the divisor pairs
@example(_table(_XY_PLAIN, {(0, 4): 2, (0, 3): 3, (0, 2): -3, (0, 1): -2}), 2, 2)
# (y^3 - y) + sqrt(-1)(y - 1): the linear second component, not the first, gives the candidates
@example(_table(_XY_PLAIN, {(0, 3): 1, (0, 1): Scalar(-1, 1, -1), (0, 0): Scalar(0, -1, -1)}), 2, 2)
# x + y on a Laurent y: at x = 0 the component y has the root 0, which is not on the axis
@example(_table(_XY, {(1, 0): 1, (0, 1): 1}), 2, 2)
def test_scan_matches_reference_on_small_tables(pres, num, den):
    _assert_same_scan(pres, SearchBox(num, den))


# -- an eliminant per prefix -----------------------------------------------------


@st.composite
def _planted_potentials(draw):
    """Exact or Scaled brackets whose potential lies in I^2, where I is the
    ideal of the four points {a1, a2} x {b1, b2} x {c}: its gradient lies in
    I, so those points are Poisson whatever else is, planted on the first two
    axes.  Each generator's square is a term, so the points are mostly
    isolated; Scaled by y + 1 adds the plane y = -1.  Some coordinates fall
    outside the box; a Laurent x may multiply the potential by the unit x^-1."""
    vs = VarSet(("x", "y", "z"), [n for n in "xyz" if draw(st.booleans())])
    x, y, z = (LaurentPoly.variable(vs, n) for n in vs.names)
    a1, a2, b1, b2, c = (draw(st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)))
                         for _ in range(5))
    gens = ((x - a1) * (x - a2), (y - b1) * (y - b2), z - c)
    coeffs = [Scalar(0, 1, -1), -2, -1, 1, 2]
    f = LaurentPoly.zero(vs)
    for i, j in itertools.combinations_with_replacement(range(3), 2):
        if i == j or draw(st.booleans()):
            f = f + draw(st.sampled_from(coeffs)) * gens[i] * gens[j]
    assume(not f.is_zero)
    if vs.laurent[0] and draw(st.booleans()):
        f = f * x**-1
    spec = Scaled(y + 1, f) if draw(st.integers(0, 3)) == 0 else Exact(f)
    planted = [PointP(vs, [a, b, c]) for a in (a1, a2) for b in (b1, b2)
               if not any(flag and v == 0 for flag, v in zip(vs.laurent, (a, b, c)))]
    return PoissonPresentation(spec), planted


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_planted_potentials(), st.integers(1, 3), st.integers(1, 2))
def test_scan_matches_reference_on_planted_points(case, num, den):
    pres, planted = case
    box = SearchBox(num, den)
    _assert_same_scan(pres, box)
    found = set(find_poisson_maximal(pres, box))
    grid = set(box.coordinate_values())
    assert {pt for pt in planted if all(v.as_fraction() in grid for v in pt.values)} <= found


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_planted_potentials(), st.integers(1, 3), st.integers(1, 2))
def test_a_found_point_is_the_point_its_values_build(case, num, den):
    """Each point the scan returns equals, hashes and prints like
    `PointP(varset, values)` and holds canonical Scalars, and the scan matches
    the reference, lambda too.  The planted points and a sqrt(-1) point go in
    as explicit candidates."""
    pres, planted = case
    vs = pres.varset
    i = Scalar(0, 1, -1)
    box = SearchBox(num, den, tuple(planted) + (PointP(vs, [i, i, 1]),))
    ideals = find_poisson_maximal(pres, box)
    assert ideals == sorted(set(ideals), key=PointP.sort_key)
    for pt in ideals:
        checked = PointP(vs, pt.values)
        assert pt == checked and hash(pt) == hash(checked) and repr(pt) == repr(checked)
        assert type(pt.values) is tuple and all(type(v) is Scalar for v in pt.values)
        assert all(v == Scalar.coerce(v.as_fraction()) for v in pt.values if v.is_rational)
    _assert_same_scan(pres, box)


def _eliminants(monkeypatch):
    """Record (prefix length, eliminant or None) for each `_eliminant` call."""
    calls = []
    real = ideals_module._eliminant

    def recording(polys, bound):
        f = real(polys, bound)
        calls.append((len(next(iter(polys[0]))), f))
        return f

    monkeypatch.setattr(ideals_module, "_eliminant", recording)
    return calls


def test_a_line_of_points_walks_its_axis(monkeypatch, xyz):
    """Whitney-like: x y^2 - 2 z^2 is singular along the x axis, so the two
    components y^2 and x y left after z is set aside share the factor y,
    their resultant vanishes identically and x is walked."""
    vs, x, y, z = xyz
    pres = PoissonPresentation(Exact(x * y * y - 2 * z * z))
    calls = _eliminants(monkeypatch)
    box = SearchBox(3, 2)
    _assert_same_scan(pres, box)
    assert calls[0] == (3, None)
    assert [i.values[0] for i in find_poisson_maximal(pres, box)] == [
        Scalar(v) for v in box.coordinate_values()]


def test_a_plane_of_points_walks_two_axes(monkeypatch, xyz):
    """(x - 1)(y - z)^2 is singular along y = z: at every prefix x the
    components share the factor y - z, so both x and y are walked."""
    vs, x, y, z = xyz
    pres = PoissonPresentation(Exact((x - 1) * (y - z) * (y - z)))
    calls = _eliminants(monkeypatch)
    box = SearchBox(2, 2)
    _assert_same_scan(pres, box)
    assert (3, None) in calls and (2, None) in calls
    assert len(find_poisson_maximal(pres, box)) == len(box.coordinate_values()) ** 2


def test_torus_prefixes_at_x_2_eliminate_through_a_vanishing_resultant(monkeypatch, torus_pres):
    """At x = +-2 the brackets {x,y} and {x,z} of x y z - x^2 - y^2 - z^2 + 4
    both fold to a multiple of y - z, whose resultant vanishes identically;
    the pairs with y z - 4 do not, and their eliminant y^2 - 4 gives y = +-2."""
    calls = _eliminants(monkeypatch)
    box = SearchBox(4, 2)
    _assert_same_scan(torus_pres, box)
    top, *middle = [f for k, f in calls if k >= 2]
    assert sorted(rational_roots(top, 4, 2)) == [(-2, 1), (0, 1), (2, 1)]
    roots = [sorted(rational_roots(f, 4, 2)) for f in middle]
    assert roots == [[(-2, 1), (2, 1)], [(0, 1)], [(-2, 1), (2, 1)]]
    held = ideals_module._fold_first(
        [c for poly in torus_pres.bracket_spec.pairs.values()
         for c in ideals_module._integer_components(poly)], 2, 1)
    assert resultant(held[0], held[1]) == {}


def test_the_box_is_enumerated_only_where_an_axis_is_walked(monkeypatch, xyz, torus_pres):
    """Where every prefix has an eliminant only its roots are substituted, so
    the box's values are never listed, however large the box; a line of points
    walks its axis, and a plane walks two, from one listing per call."""
    def refuse(box):
        raise AssertionError("the box was enumerated")

    monkeypatch.setattr(SearchBox, "coordinate_values", refuse)
    assert pts(find_poisson_maximal(torus_pres, SearchBox(2048, 256))) == [
        ("-2", "-2", "2"), ("-2", "2", "-2"), ("0", "0", "0"), ("2", "-2", "-2"), ("2", "2", "2")]
    monkeypatch.undo()
    listed = []
    real = SearchBox.coordinate_values
    monkeypatch.setattr(SearchBox, "coordinate_values", lambda box: listed.append(box) or real(box))
    vs, x, y, z = xyz
    for potential, points in ((x * y * y - z * z, 1), ((x - 1) * (y - z) * (y - z), 2)):
        box = SearchBox(4, 2)
        found = find_poisson_maximal(PoissonPresentation(Exact(potential)), box)
        assert listed == [box] and len(found) == len(real(box)) ** points
        listed.clear()


def test_resultants_past_the_box_are_skipped_and_the_axis_is_walked():
    """On this Scaled bracket over Q(sqrt(-1)), with Laurent x and z, the pair
    resultants grow without bound: unbounded, the scan did not finish at box
    1/1 in 20 s.  A pair whose total degrees multiply past the box's count of
    values on an axis is skipped, so `classify` finishes in a few seconds at
    most, with the points of a scan of every box point."""
    import subprocess
    import sys
    from pathlib import Path

    from poisson_atlas import parse_presentation

    path = Path(__file__).resolve().parent / "eliminant-blowup.pa"
    pres = parse_presentation(path.read_text(encoding="utf-8")).presentation
    for num in (1, 3):
        proc = subprocess.run(
            [sys.executable, "-m", "poisson_atlas", "classify", str(path),
             "--box-num", str(num), "--box-den", "1", "--format", "machine"],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        want = _scan_reference(pres, SearchBox(num, 1))
        lines = proc.stdout.splitlines()
        assert f"ideal.count = {len(want)}" in lines
        assert [ln for ln in lines if ".point = " in ln] == [
            f"ideal.{k}.point = {pt}" for k, pt in enumerate(want, 1)]


# -- the scan's order is the sort order; explicit candidates are sorted in --------


_I = Scalar(0, 1, -1)
# {x, y} = (x^2 + 1)(x - 3)(x - 1) + y^2: in the 2/2 box only (1, 0) is a zero;
# (3, 0) lies outside it, and (+-sqrt(-1), 0) over Q(sqrt(-1))
_FOUR_ROOTS = _table(_XY_PLAIN, {(4, 0): 1, (3, 0): -4, (2, 0): 4, (1, 0): -4, (0, 0): 3,
                                 (0, 2): 1})


@pytest.mark.parametrize("extra, want", [
    ((), [(1, 0)]),
    (((0, 0), (1, 0), (1, 0)), [(1, 0)]),  # inside the box: one Poisson, one not
    (((3, 0), (1, 0), (0, 0), (3, 0)), [(1, 0), (3, 0)]),  # outside it, given twice
    (((3, 0), (_I, 0), (1, 0), (-_I, 0)), [(-_I, 0), (_I, 0), (1, 0), (3, 0)]),
    (((Fraction(1, 3), 0), (1, 0)), [(1, 0)]),  # a denominator beyond the box, not Poisson
])
def test_points_come_in_sort_order(extra, want):
    vs = _FOUR_ROOTS.varset
    box = SearchBox(2, 2, tuple(PointP(vs, c) for c in extra))
    got = find_poisson_maximal(_FOUR_ROOTS, box)
    assert got == [PointP(vs, c) for c in want]
    assert got == sorted(got, key=PointP.sort_key)
