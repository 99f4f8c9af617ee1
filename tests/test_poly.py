from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import express_in_span, random_poly, rref_coordinates
from poisson_atlas import LaurentPoly, PointP, VarSet, divides
from poisson_atlas.errors import LaurentViolationError, VarSetMismatchError
from poisson_atlas.modules import SplitMix
from poisson_atlas.poly import term_sort_key
from poisson_atlas.scalars import ZERO, Scalar, scalar_sqrt


def test_arithmetic_identities(xyz):
    vs, x, y, z = xyz
    assert (x + y) * (x - y) == x * x - y * y
    assert (z * z - x * y) + (x * y) == z * z


def test_laurent_unit(xyz_laurent):
    vs, x, y, z = xyz_laurent
    assert z * z**-1 == LaurentPoly.const(vs, 1)


def test_laurent_flag_enforced(xyz):
    vs, x, y, z = xyz
    with pytest.raises(LaurentViolationError):
        LaurentPoly(vs, {(-1, 0, 0): Scalar(1)})
    with pytest.raises(LaurentViolationError):
        x**-1


def test_partial_derivatives(xyz_laurent):
    vs, x, y, z = xyz_laurent
    assert (z * z - x * y).partial("z") == 2 * z
    assert x.partial("y").is_zero
    assert (z**-1).partial("z") == -(z**-2)


def test_evaluate(xyz):
    vs, x, y, z = xyz
    f = x * y * z - x * x - y * y - z * z + 4
    assert f.evaluate(PointP(vs, [2, 2, 2])).is_zero
    assert f.evaluate(PointP(vs, [0, 0, 0])) == Scalar(4)
    assert LaurentPoly.const(vs, 7).evaluate(PointP(vs, [9, -1, 3])) == Scalar(7)


def test_evaluate_rejects_zero_laurent(xyz_laurent):
    vs, x, y, z = xyz_laurent
    with pytest.raises(LaurentViolationError):
        PointP(vs, [1, 1, 0])


@pytest.mark.parametrize("laurent", [(), ("x",), ("z",), ("x", "z")],
                         ids=["none", "first", "last", "first-and-last"])
def test_a_point_coerces_its_values_and_refuses_a_wrong_arity_or_a_laurent_zero(laurent):
    """`PointP` coerces int and Fraction values to Scalars and refuses any
    other type, a wrong number of values, and 0 on a Laurent variable
    wherever it stands; with no Laurent variable, 0 stands anywhere."""
    vs = VarSet(("x", "y", "z"), laurent)
    pt = PointP(vs, iter([1, Fraction(-3, 4), Scalar(2, 1, -1)]))
    assert pt.values == (Scalar(1), Scalar(Fraction(-3, 4)), Scalar(2, 1, -1))
    assert [type(v) for v in pt.values] == [Scalar] * 3
    assert str(pt) == "(1, -3/4, 2+sqrt(-1))"
    with pytest.raises(TypeError):
        PointP(vs, [1, 0.5, 1])
    for values in ([], [1, 1], [1, 1, 1, 1]):
        with pytest.raises(VarSetMismatchError, match="point arity mismatch"):
            PointP(vs, values)
    for k, name in enumerate(vs.names):
        for zero in (0, Fraction(0), ZERO):
            values = [1, 1, 1]
            values[k] = zero
            if name in laurent:
                with pytest.raises(LaurentViolationError,
                                   match=f"zero assigned to Laurent variable {name}"):
                    PointP(vs, values)
            else:
                assert PointP(vs, values).values[k] == ZERO


def test_linear_part_examples():
    vs = VarSet(("u", "v", "w"))
    u, v, w = (LaurentPoly.variable(vs, n) for n in vs.names)
    origin = PointP(vs, [0, 0, 0])
    p = u * v + 2 * u + 2 * v - 2 * w
    value, grad = p.linear_part(origin)
    assert value.is_zero
    assert grad == (Scalar(2), Scalar(2), Scalar(-2))

    for n in (3, 4, 5):
        value, grad = (w**(n - 1)).linear_part(origin)
        assert value.is_zero and all(g.is_zero for g in grad)

    value, grad = (3 * u - 5).linear_part(origin)
    assert value == Scalar(-5) and grad == (Scalar(3), Scalar(0), Scalar(0))


def test_linear_part_reconstruction_property(xyz):
    vs, x, y, z = xyz
    rng = SplitMix(11)
    pt = PointP(vs, [1, -2, Fraction(1, 2)])
    gens = (x, y, z)
    for _ in range(20):
        p = random_poly(rng, vs)
        value, grad = p.linear_part(pt)
        recon = p - value
        for g, gen, c in zip(grad, gens, pt.values):
            recon = recon - g * (gen - c)
        v2, g2 = recon.linear_part(pt)
        assert v2.is_zero and all(c.is_zero for c in g2)


def test_ring_axioms_random(xyz_laurent):
    vs = xyz_laurent[0]
    rng = SplitMix(5)
    for _ in range(12):
        p, q, r = (random_poly(rng, vs) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p


def test_evaluate_is_homomorphism(xyz):
    vs = xyz[0]
    rng = SplitMix(7)
    pt = PointP(vs, [2, Fraction(-1, 2), 3])
    for _ in range(12):
        p, q = random_poly(rng, vs), random_poly(rng, vs)
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)


def test_leibniz_property(xyz_laurent):
    vs = xyz_laurent[0]
    rng = SplitMix(13)
    for _ in range(12):
        p, q = random_poly(rng, vs), random_poly(rng, vs)
        for name in vs.names:
            lhs = (p * q).partial(name)
            rhs = p.partial(name) * q + q.partial(name) * p
            assert lhs == rhs


def test_express_in_span(xyz):
    vs, x, y, z = xyz
    basis = [x + y, y * y, z]
    assert express_in_span(basis[0], basis) == (Scalar(1), Scalar(0), Scalar(0))
    assert express_in_span(x, [x * x]) is None
    coeffs = express_in_span(2 * x + 2 * y - 3 * z, basis)
    assert coeffs == (Scalar(2), Scalar(0), Scalar(-3))


def test_express_reproduces_target(xyz):
    vs, x, y, z = xyz
    rng = SplitMix(17)
    basis = [x * x, x * y, y + z, LaurentPoly.const(vs, 1)]
    for _ in range(10):
        coeffs = [Scalar(rng.below(7) - 3) for _ in basis]
        target = LaurentPoly.zero(vs)
        for c, b in zip(coeffs, basis):
            target = target + c * b
        got = express_in_span(target, basis)
        assert got is not None
        recon = LaurentPoly.zero(vs)
        for c, b in zip(got, basis):
            recon = recon + c * b
        assert recon == target



def _rref_express_in_span(target, basis):
    """`express_in_span` as it solved over the support matrix, one row per
    monomial of the union of the supports, kept as the reference; the
    coordinates of the target column on the member columns come from the
    dense `rref_reference`."""
    polys = list(basis) + [target]
    monomials = sorted(set().union(*(p.terms for p in polys)), key=term_sort_key)
    columns = [tuple(p.terms.get(mono, ZERO) for mono in monomials) for p in polys]
    coords = rref_coordinates(columns[:-1], columns[-1:])
    return None if coords is None else coords[0]


@st.composite
def _spans(draw):
    """(target, basis) in two variables over Q or Q(sqrt(-1)): drawn members,
    zero members and combinations of earlier members; the target a
    combination of members, or drawn and so mostly outside the span."""
    vs = VarSet(("x", "y"))
    i = scalar_sqrt(-1) if draw(st.booleans()) else ZERO
    coeff = st.tuples(st.integers(-2, 2), st.integers(-1, 1)).map(lambda ab: ab[0] + ab[1] * i)
    nonzero = coeff.filter(lambda c: not c.is_zero)
    mono = st.tuples(st.integers(0, 2), st.integers(0, 2))

    def poly():
        return LaurentPoly(vs, draw(st.dictionaries(mono, nonzero, min_size=1, max_size=3)))

    def combination(members):
        out = LaurentPoly.zero(vs)
        for b in members:
            out = out + draw(coeff) * b
        return out

    basis = []
    for kind in draw(st.lists(st.sampled_from("ppzc"), max_size=5)):
        basis.append(poly() if kind == "p" else combination(basis) if kind == "c"
                     else LaurentPoly.zero(vs))
    target = combination(basis) if draw(st.booleans()) else poly()
    return target, basis


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_spans())
def test_express_in_span_equals_the_support_matrix_solve(case):
    target, basis = case
    assert express_in_span(target, basis) == _rref_express_in_span(target, basis)


def test_divides(xyz):
    vs, x, y, z = xyz
    f = z * z - x * y
    assert divides(f, (x + z) * f) == x + z
    assert divides(f, x * y) is None
    assert divides(f, LaurentPoly.zero(vs)) == LaurentPoly.zero(vs)


def test_divides_laurent(xyz_laurent):
    vs, x, y, z = xyz_laurent
    f = x * y + z + z**-1
    multiple = (z**-2 * x + 3) * f
    q = divides(f, multiple)
    assert q is not None and q * f == multiple


def test_divides_by_laurent_unit():
    # z is a unit over laurent(z), so it divides everything; x is not a unit
    vs = VarSet(["x", "z"], laurent=["z"])
    x, z = (LaurentPoly.variable(vs, n) for n in vs.names)
    one = LaurentPoly.const(vs, 1)
    assert divides(z, one) == z**-1
    assert divides(z, x) == x * z**-1
    assert divides(z * z, z) == z**-1
    assert divides(x, z) is None


def test_varset_mismatch(xyz, xyz_laurent):
    p = xyz[1]
    q = xyz_laurent[1]
    with pytest.raises(VarSetMismatchError):
        p + q


def test_substitute_laurent_inverse(xyz_laurent):
    vs, x, y, z = xyz_laurent
    images = {"x": x, "y": y, "z": z**-1}
    p = z + z**-1
    assert p.substitute(images) == p
    with pytest.raises(LaurentViolationError):
        (z**-1).substitute({"x": x, "y": y, "z": x + y})


def test_canonical_string(xyz):
    vs, x, y, z = xyz
    # graded-lex with x > y > z: the mixed degree-2 term leads
    p = z * z - x * y + 1
    assert str(p) == "-x*y + z^2 + 1"


def test_negative_power_of_non_unit_rejected(xyz_laurent):
    vs, x, y, z = xyz_laurent
    with pytest.raises(LaurentViolationError):
        (x + z) ** -1
    with pytest.raises(LaurentViolationError):
        x ** -2  # single term, but x is not Laurent-flagged


@pytest.mark.parametrize("n, products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)])
def test_a_power_makes_one_product_per_square_and_set_bit(xyz_laurent, monkeypatch, n, products):
    vs, x, y, z = xyz_laurent
    p = 2 * x - y * z**-1 + 3
    expected = LaurentPoly.const(vs, 1)
    for _ in range(n):
        expected = expected * p
    real, calls = LaurentPoly.__mul__, []

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    assert p**n == expected
    assert len(calls) == products
    assert (z**-1) ** n == LaurentPoly(vs, {(0, 0, -n): 1})


def test_linear_part_at_zero_coordinates(xyz_laurent):
    vs, x, y, z = xyz_laurent
    p = 2 * x * z**-2 + x * y + y * y * z - 3 * x * x + 5 * z
    # value 5z = 10; d/dx = 2z^-2 + y - 6x, d/dy = x + 2yz, d/dz = -4xz^-3 + y^2 + 5
    value, grad = p.linear_part(PointP(vs, [0, 0, 2]))
    assert value == Scalar(10)
    assert grad == (Scalar(Fraction(1, 2)), Scalar(0), Scalar(5))


@st.composite
def _poly_and_point(draw):
    """A polynomial and a point over Q or Q(sqrt(-1)) in 1 to 4 variables.

    Laurent variables carry exponents down to -2 and nonzero coordinates; a
    coordinate of any other variable is 0 half of the time.
    """
    d = draw(st.sampled_from([0, -1]))
    scalar = st.builds(
        lambda a, b, q: Scalar(Fraction(a, q), Fraction(b, q) if d else 0, d),
        st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3),
    )
    names = ("x", "y", "z", "w")[: draw(st.integers(1, 4))]
    laurent = tuple(n for n in names if draw(st.booleans()))
    vs = VarSet(names, laurent)
    exps = st.tuples(*(st.integers(-2 if n in laurent else 0, 3) for n in names))
    p = LaurentPoly(vs, draw(st.dictionaries(exps, scalar, max_size=6)))
    coords = []
    for n in names:
        c = draw(scalar)
        if n in laurent:
            c = Scalar(1) if c.is_zero else c
        elif draw(st.booleans()):
            c = Scalar(0)
        coords.append(c)
    return p, PointP(vs, coords)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_poly_and_point())
def test_linear_part_matches_the_reference_model(case):
    p, pt = case
    want = (p.evaluate(pt), tuple(p.partial(n).evaluate(pt) for n in pt.varset.names))
    assert p.linear_part(pt) == want


@st.composite
def _polys_on_one_point(draw):
    """Several polynomials sharing monomials, and one point, over Q or
    Q(sqrt(-1)) in 1 to 4 variables; as in `_poly_and_point`, Laurent
    exponents go down to -2 and a non-Laurent coordinate is 0 half of the time."""
    d = draw(st.sampled_from([0, -1]))
    scalar = st.builds(
        lambda a, b, q: Scalar(Fraction(a, q), Fraction(b, q) if d else 0, d),
        st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3),
    )
    names = ("x", "y", "z", "w")[: draw(st.integers(1, 4))]
    laurent = tuple(n for n in names if draw(st.booleans()))
    vs = VarSet(names, laurent)
    monomials = draw(st.lists(
        st.tuples(*(st.integers(-2 if n in laurent else 0, 3) for n in names)),
        min_size=1, max_size=8,
    ))
    polys = draw(st.lists(
        st.dictionaries(st.sampled_from(monomials), scalar, max_size=5).map(
            lambda terms: LaurentPoly(vs, terms)
        ),
        min_size=2, max_size=5,
    ))
    coords = []
    for n in names:
        c = draw(scalar)
        if n in laurent:
            c = Scalar(1) if c.is_zero else c
        elif draw(st.booleans()):
            c = Scalar(0)
        coords.append(c)
    return polys, PointP(vs, coords)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_polys_on_one_point())
def test_linear_part_on_a_shared_point_matches_the_reference_model(case):
    """The point's jet table, filled by each call in the drawn order, gives
    every later call the reference value and gradient, and leaves the point
    equal to, hashed as and written as a fresh one."""
    polys, pt = case
    names = pt.varset.names
    for p in polys + polys[:1]:
        want = (p.evaluate(pt), tuple(p.partial(n).evaluate(pt) for n in names))
        assert p.linear_part(pt) == want
    fresh = PointP(pt.varset, pt.values)
    assert pt == fresh and hash(pt) == hash(fresh)
    assert (str(pt), repr(pt)) == (str(fresh), repr(fresh))


def test_a_repeated_laurent_flag_is_refused():
    with pytest.raises(ValueError, match=r"duplicate Laurent flags in \('x', 'x'\)"):
        VarSet(("x", "y"), laurent=("x", "x"))
