from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rref_reference
from poisson_atlas import lie
from poisson_atlas import (
    bracket,
    Exact,
    InvariantPresentation,
    LaurentPoly,
    LieAlgebra,
    PointP,
    PoissonPresentation,
    SubstitutionMap,
    Table,
    VarSet,
    lie_from_invariants,
    lie_from_point,
    verify_invariance,
)
from poisson_atlas.catalog import catalog_names, get_entry
from poisson_atlas.errors import (
    AtlasError,
    LieStructureError,
    NotExpressibleError,
    NotPoissonMaximalError,
)
from poisson_atlas.linalg import IncrementalSpan, Matrix, coordinates, rank, unit_vector
from poisson_atlas.poly import term_sort_key
from poisson_atlas.scalars import ZERO, Scalar, scalar_sqrt


def sc_table(lie):
    out = {}
    for (i, j), row in lie.structure_table().items():
        out[(lie.labels[i], lie.labels[j])] = {
            lie.labels[k]: c for k, c in row.items()
        }
    return out


def test_constructor_enforces_antisymmetry():
    """The constructor takes the brackets on the pairs i < j only, so
    [e_j, e_i] = -[e_i, e_j] by construction: a pair (j, i), a diagonal
    pair or a coefficient index outside 0..n-1 is a ValueError naming it, and
    `from_brackets` refuses a pair given twice, in either order."""
    assert LieAlgebra(("u",), {}).structure_table() == {}  # 1-dim fine
    lie = LieAlgebra(("u", "v"), {(0, 1): {1: 1}})
    assert lie.bracket((ZERO, Scalar(1)), (Scalar(1), ZERO)) == (ZERO, Scalar(-1))
    with pytest.raises(ValueError, match=r"^bracket pair \(1, 0\) is not i < j < 2$"):
        LieAlgebra(("u", "v"), {(1, 0): {1: 1}})
    with pytest.raises(ValueError, match=r"^bracket pair \(0, 0\)"):
        LieAlgebra(("u", "v"), {(0, 0): {1: 1}})
    with pytest.raises(ValueError, match=r"^bracket pair \(0, 2\)"):
        LieAlgebra(("u", "v"), {(0, 2): {1: 1}})
    for row in ({2: 1}, {-1: 1}, {0: 1, 2: 0}, (ZERO, ZERO, Scalar(1))):  # a sequence, too long
        with pytest.raises(ValueError, match=r"^\[e_0, e_1\] has a coefficient outside 0\.\.1$"):
            LieAlgebra(("u", "v"), {(0, 1): row})
    for table in ({("a", "b"): {"b": 1}, ("b", "a"): {"b": -1}},
                  {("b", "a"): {"b": -1}, ("a", "b"): {"b": 1}}):
        with pytest.raises(ValueError, match=r"^bracket \[\w,\w\] given twice$"):
            LieAlgebra.from_brackets(("a", "b"), table)


def test_from_brackets_refuses_an_unknown_name_or_a_diagonal_pair():
    with pytest.raises(ValueError, match=r"^unknown labels \['c'\]$"):
        LieAlgebra.from_brackets(("a", "b"), {("a", "c"): {"b": 1}})
    with pytest.raises(ValueError, match=r"^unknown labels \['c', 'd'\]$"):
        LieAlgebra.from_brackets(("a", "b"), {("a", "b"): {"d": 1, "c": 1}})
    with pytest.raises(ValueError, match=r"^diagonal bracket \[a,a\]$"):
        LieAlgebra.from_brackets(("a", "b"), {("a", "a"): {"b": 1}})
    # either order of a pair gives one algebra
    assert LieAlgebra.from_brackets(("a", "b"), {("b", "a"): {"b": -1}}) == LieAlgebra(
        ("a", "b"), {(0, 1): {1: 1}})


def test_change_basis_needs_one_label_per_column():
    """A subalgebra with no labels of its own is refused, not named by the
    labels of the whole algebra."""
    sl2 = LieAlgebra.from_brackets(
        ("e", "h", "f"), {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}})
    borel = Matrix([[1, 0], [0, 1], [0, 0]])  # span{e, h}
    with pytest.raises(ValueError, match=r"^3 labels for 2 columns$"):
        sl2.change_basis(borel)
    with pytest.raises(ValueError, match=r"^1 labels for 2 columns$"):
        sl2.change_basis(borel, ("b",))
    sub = sl2.change_basis(borel, ("x", "y"))
    assert sub == LieAlgebra.from_brackets(("x", "y"), {("y", "x"): {"x": 2}})
    assert sl2.change_basis(Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == sl2


def test_change_basis_refuses_dependent_columns():
    """sl2 columns (e, e, h) span the Borel part only: refused, not read as a
    3-dimensional algebra in which the repeated column gets coordinate 0."""
    sl2 = LieAlgebra.from_brackets(
        ("e", "h", "f"), {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}})
    with pytest.raises(ValueError, match=r"^the columns are linearly dependent$"):
        sl2.change_basis(Matrix([[1, 1, 0], [0, 0, 1], [0, 0, 0]]))
    with pytest.raises(ValueError, match=r"^the columns are linearly dependent$"):
        sl2.change_basis(Matrix([[1, 2], [0, 0], [0, 0]]), ("a", "b"))


def test_constructor_enforces_jacobi():
    # [x,y] = z, [y,z] = y^2-ish is not expressible; use constants violating Jacobi
    with pytest.raises(LieStructureError):
        LieAlgebra.from_brackets(
            ("x", "y", "z"),
            {("x", "y"): {"z": 1}, ("y", "z"): {"x": 1}, ("z", "x"): {"z": 1}},
        )


def test_lie_from_point_a1(a1_pres):
    L = lie_from_point(a1_pres, PointP(a1_pres.varset, [0, 0, 0]))
    assert sc_table(L) == {
        ("x", "y"): {"z": Scalar(2)},
        ("x", "z"): {"x": Scalar(1)},
        ("y", "z"): {"y": Scalar(-1)},
    }


def test_lie_from_point_torus_j2(torus_pres):
    L = lie_from_point(torus_pres, PointP(torus_pres.varset, [2, 2, 2]))
    assert sc_table(L) == {
        ("x", "y"): {"x": Scalar(2), "y": Scalar(2), "z": Scalar(-2)},
        ("x", "z"): {"x": Scalar(-2), "y": Scalar(2), "z": Scalar(-2)},
        ("y", "z"): {"x": Scalar(-2), "y": Scalar(2), "z": Scalar(2)},
    }


def test_lie_from_point_whitney_alpha_1(xyz):
    vs, x, y, z = xyz
    pres = PoissonPresentation(Exact(x * y * y - z * z))
    L = lie_from_point(pres, PointP(vs, [1, 0, 0]))
    # [u, y] = -2z, [y, z] = 0, [z, u] = 2y
    assert sc_table(L) == {
        ("x", "y"): {"z": Scalar(-2)},
        ("x", "z"): {"y": Scalar(-2)},
    }


def test_lie_from_point_requires_poisson_point(torus_pres):
    with pytest.raises(NotPoissonMaximalError):
        lie_from_point(torus_pres, PointP(torus_pres.varset, [1, 1, 1]))


def test_a_point_keeps_its_g_under_each_presentation(a1_pres, torus_pres, xyz, monkeypatch):
    """`lie_from_point` keeps g(J) on the presentation under the point's
    value: a second call, at this point or at an equal one, returns the same
    object without another gradient pass, another presentation at that point
    gets its own g(J), and a point that is not Poisson-maximal is never kept,
    so it raises on every call."""
    vs, x, y, z = xyz
    calls = []
    real = lie.pair_gradients
    monkeypatch.setattr(lie, "pair_gradients", lambda *args: calls.append(args) or real(*args))
    origin = PointP(vs, [0, 0, 0])
    first = lie_from_point(a1_pres, origin)
    assert lie_from_point(a1_pres, origin) is first and len(calls) == 1
    whitney = PoissonPresentation(Exact(x * y * y - z * z))
    other = lie_from_point(whitney, origin)
    assert other != first and len(calls) == 2
    assert lie_from_point(whitney, origin) is other and lie_from_point(a1_pres, origin) is first
    assert len(calls) == 2
    fresh = lie_from_point(a1_pres, PointP(vs, [0, 0, 0]))  # an equal point, not this one
    assert fresh is first and len(calls) == 2
    bad = PointP(vs, [1, 1, 1])
    for count in (3, 4):
        with pytest.raises(NotPoissonMaximalError, match=r"^\(1, 1, 1\) is not a Poisson-maximal point$"):
            lie_from_point(torus_pres, bad)
        assert len(calls) == count


def test_translation_invariance_of_potential(a1_pres, xyz):
    vs, x, y, z = xyz
    f = z * z - x * y
    shifted = PoissonPresentation(Exact(f + 17))
    origin = PointP(vs, [0, 0, 0])
    assert lie_from_point(a1_pres, origin) == lie_from_point(shifted, origin)


def weyl_a2_setup():
    vs = VarSet(("a1", "a2", "b1", "b2"))
    a1, a2, b1, b2 = (LaurentPoly.variable(vs, n) for n in vs.names)
    six = LaurentPoly.const(vs, 6)
    m3 = LaurentPoly.const(vs, -3)
    amb = PoissonPresentation(
        Table.from_dict(
            vs,
            {("a1", "b1"): six, ("a2", "b2"): six, ("a1", "b2"): m3, ("a2", "b1"): m3},
        ),
    )
    ninth = Fraction(1, 9)
    gens = (
        (a1 * a1 + a2 * a2 + a1 * a2) * ninth,
        (b1 * b1 + b2 * b2 + b1 * b2) * ninth,
        (2 * a1 * b1 + a1 * b2 + a2 * b1 + 2 * a2 * b2) * Fraction(-1, 9),
        (a1 * a2 * a2 + a2 * a1 * a1) * ninth,
        (b1 * b2 * b2 + b2 * b1 * b1) * ninth,
        (2 * a1 * b1 * b2 + 2 * a2 * b1 * b2 + a1 * b2 * b2 + a2 * b1 * b1) * ninth,
        (2 * b1 * a1 * a2 + 2 * b2 * a1 * a2 + b1 * a2 * a2 + b2 * a1 * a1) * ninth,
    )
    swap = SubstitutionMap.from_dict(vs, {"a1": a2, "a2": a1, "b1": b2, "b2": b1})
    cycle = SubstitutionMap.from_dict(
        vs, {"a1": a2, "a2": -a1 - a2, "b1": b2, "b2": -b1 - b2}
    )
    return InvariantPresentation(
        amb,
        ("g1", "g2", "g3", "m1", "m2", "m3", "m4"),
        gens,
        automorphisms=(swap, cycle),
    )


def test_lie_from_invariants_weyl_a2():
    ip = weyl_a2_setup()
    L = lie_from_invariants(ip)
    table = sc_table(L)
    assert table[("g1", "g2")] == {"g3": Scalar(-1)}
    assert table[("g2", "g3")] == {"g2": Scalar(2)}
    assert table[("g1", "g3")] == {"g1": Scalar(-2)}
    assert table[("g1", "m2")] == {"m3": Scalar(1)}
    assert table[("g1", "m3")] == {"m4": Scalar(2)}
    assert table[("g1", "m4")] == {"m1": Scalar(3)}
    assert table[("g2", "m1")] == {"m4": Scalar(-1)}
    assert table[("g2", "m3")] == {"m2": Scalar(-3)}
    assert table[("g2", "m4")] == {"m3": Scalar(-2)}
    assert table[("g3", "m1")] == {"m1": Scalar(3)}
    assert table[("g3", "m2")] == {"m2": Scalar(-3)}
    assert table[("g3", "m3")] == {"m3": Scalar(-1)}
    assert table[("g3", "m4")] == {"m4": Scalar(1)}
    # every unlisted pair brackets to zero: radical abelian, [g1,m1] = [g2,m2] = 0
    assert ("m1", "m2") not in table and ("g1", "m1") not in table


def test_lie_from_invariants_kleinian_section_42(a1_pres):
    avs = VarSet(("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(avs, n) for n in avs.names)
    amb = PoissonPresentation(
        Table.from_dict(avs, {("x1", "x2"): LaurentPoly.const(avs, 1)})
    )
    half = Fraction(1, 2)
    ip = InvariantPresentation(
        amb,
        ("x", "y", "z"),
        (x1 * x1 * half, x2 * x2 * half, x1 * x2 * half),
    )
    L = lie_from_invariants(ip)
    assert sc_table(L) == {
        ("x", "y"): {"z": Scalar(2)},
        ("x", "z"): {"x": Scalar(1)},
        ("y", "z"): {"y": Scalar(-1)},
    }
    # consistency with the point route on the exact presentation
    origin = PointP(a1_pres.varset, [0, 0, 0])
    assert L.structure_table() == lie_from_point(a1_pres, origin).structure_table()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lie_from_invariants_kleinian_an(n, xyz):
    vs, x, y, z = xyz
    pres = PoissonPresentation(Exact(z**n - x * y))
    avs = VarSet(("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(avs, m) for m in avs.names)
    amb = PoissonPresentation(
        Table.from_dict(avs, {("x1", "x2"): LaurentPoly.const(avs, 1)})
    )
    inv_a = scalar_sqrt(n**n).inverse()
    ip = InvariantPresentation(
        amb,
        ("x", "y", "z"),
        (x1**n * inv_a, x2**n * inv_a, x1 * x2 * Fraction(1, n)),
        relations=(z**n - x * y,),
    )
    assert verify_invariance(ip).ok
    L = lie_from_invariants(ip)
    assert L.structure_table() == lie_from_point(pres, PointP(vs, [0, 0, 0])).structure_table()


def test_degree_bookkeeping_pure_linear():
    # brackets of two degree-2 generators have degree 2 < 4: no products allowed
    ip = weyl_a2_setup()
    L = lie_from_invariants(ip)
    table = sc_table(L)
    assert table[("g1", "g2")] == {"g3": Scalar(-1)}


def test_verify_invariance_examples(torus_pres):
    vs = torus_pres.varset
    tvs = VarSet(("x1", "x2"), laurent=("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(tvs, n) for n in tvs.names)
    tor = PoissonPresentation(Table.from_dict(tvs, {("x1", "x2"): x1 * x2}))
    pi = SubstitutionMap.from_dict(tvs, {"x1": x1**-1, "x2": x2**-1})
    ip = InvariantPresentation(
        tor,
        ("x", "y", "z"),
        (x1 + x1**-1, x2 + x2**-1, x1 * x2**-1 + x1**-1 * x2),
        automorphisms=(pi,),
        relations=torus_pres.relations,
    )
    assert verify_invariance(ip).ok


def test_verify_invariance_section_44():
    bvs = VarSet(("x1", "x2"), laurent=("x1",))
    x1, x2 = (LaurentPoly.variable(bvs, n) for n in bvs.names)
    bpres = PoissonPresentation(Table.from_dict(bvs, {("x1", "x2"): x1}))
    pi = SubstitutionMap.from_dict(bvs, {"x1": x1**-1, "x2": -x2})
    gvs = VarSet(("x", "y", "z"))
    gx, gy, gz = (LaurentPoly.variable(gvs, n) for n in gvs.names)
    ip = InvariantPresentation(
        bpres,
        ("x", "y", "z"),
        (x2 * x2, x2 * (x1 - x1**-1), x1 + x1**-1),
        automorphisms=(pi,),
        relations=(gx * (4 - gz * gz) + gy * gy,),
    )
    assert verify_invariance(ip).ok


def test_verify_invariance_failure():
    bvs = VarSet(("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(bvs, n) for n in bvs.names)
    amb = PoissonPresentation(
        Table.from_dict(bvs, {("x1", "x2"): LaurentPoly.const(bvs, 1)})
    )
    pi = SubstitutionMap.from_dict(bvs, {"x1": -x1, "x2": -x2})
    ip = InvariantPresentation(amb, ("g",), (x1,), automorphisms=(pi,))
    report = verify_invariance(ip)
    assert not report.ok and report.failures


def test_not_expressible():
    bvs = VarSet(("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(bvs, n) for n in bvs.names)
    amb = PoissonPresentation(
        Table.from_dict(bvs, {("x1", "x2"): LaurentPoly.const(bvs, 1)})
    )
    # {x1^2, x2} = 2 x1 is not a combination of the listed generators
    ip = InvariantPresentation(amb, ("p", "q"), (x1 * x1, x2))
    with pytest.raises(NotExpressibleError):
        lie_from_invariants(ip)


def test_not_expressible_names_the_first_failing_pair():
    bvs = VarSet(("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(bvs, n) for n in bvs.names)
    amb = PoissonPresentation(
        Table.from_dict(bvs, {("x1", "x2"): LaurentPoly.const(bvs, 1)})
    )
    # {p, q} = 2 x1 and {p, r} = 4 x1 x2 both escape; the bound is deg r = 2
    ip = InvariantPresentation(amb, ("p", "q", "r"), (x1 * x1, x2, x2 * x2))
    with pytest.raises(NotExpressibleError, match=r"^bracket of \(p, q\) escapes the "
                                                  r"subalgebra up to total degree 2$"):
        lie_from_invariants(ip)


def test_dependent_generators_are_reported():
    bvs = VarSet(("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(bvs, n) for n in bvs.names)
    amb = PoissonPresentation(Table.from_dict(bvs, {("x1", "x2"): x1}))
    # every bracket lies in the span, but x1 + x2 is a combination of x1 and x2
    ip = InvariantPresentation(amb, ("a", "b", "c"), (x1, x2, x1 + x2))
    with pytest.raises(NotExpressibleError, match="dependent modulo J"):
        lie_from_invariants(ip)


@pytest.mark.parametrize("name", ["torus-so3", "laurent-inv"])
def test_an_origin_on_a_laurent_ambient_is_refused(name):
    ip = get_entry(name).invariants
    with pytest.raises(ValueError, match="Laurent variable x1 is 0"):
        lie_from_invariants(ip)


def test_change_of_basis_keeps_structure():
    sl2 = LieAlgebra.from_brackets(
        ("e", "h", "f"),
        {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
    )
    u = sl2.bracket(sl2.basis_vector(0), sl2.basis_vector(2))
    assert u == sl2.basis_vector(1)


def test_express_in_span_membership_weyl():
    # {m1, m2} lies in the span of degree-matching products of two generators
    from conftest import express_in_span
    from poisson_atlas import bracket

    ip = weyl_a2_setup()
    g1, g2, g3, m1, m2, m3, m4 = ip.generators
    target = bracket(ip.ambient.bracket_spec, m1, m2)
    products = [g1 * g2, g3 * g3, g1 * g3, g2 * g3, g1 * g1, g2 * g2]
    coeffs = express_in_span(target, products)
    assert coeffs is not None
    recon = LaurentPoly.zero(ip.ambient.varset)
    for c, b in zip(coeffs, products):
        recon = recon + c * b
    assert recon == target


def test_identity_automorphism_always_passes():
    bvs = VarSet(("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(bvs, n) for n in bvs.names)
    amb = PoissonPresentation(
        Table.from_dict(bvs, {("x1", "x2"): LaurentPoly.const(bvs, 1)})
    )
    ident = SubstitutionMap.from_dict(bvs, {"x1": x1, "x2": x2})
    ip = InvariantPresentation(
        amb, ("p", "q"), (x1 * x1, x1 * x2), automorphisms=(ident,)
    )
    assert verify_invariance(ip).ok


# -- the one span lie_from_invariants solves in ------------------------------------


def _outcome(ip):
    """The structure constants, or the error's type and text (a Laurent
    ambient is refused before any span is built)."""
    try:
        return lie_from_invariants(ip).structure_table()
    except (AtlasError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def _small_invariant_presentations(draw):
    """Two variables, a bracket {x1, x2} of degree <= 2 and up to three
    generators: sums of monomials of degree >= 1 with exponents <= 2, all of
    one total degree in about half the draws."""
    vs = VarSet(("x1", "x2"))
    coeff = st.integers(-2, 2).filter(bool)
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))

    def poly(exp_strategy):
        es = draw(st.lists(exp_strategy, min_size=1, max_size=3, unique=True))
        return LaurentPoly(vs, {e: Scalar(draw(coeff)) for e in es})

    amb = PoissonPresentation(
        Table.from_dict(vs, {("x1", "x2"): poly(exps.filter(lambda e: sum(e) <= 2))})
    )
    graded = draw(st.booleans())
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 4))
        gens.append(poly(exps.filter(lambda e: sum(e) == d if graded else any(e))))
    return InvariantPresentation(amb, tuple(f"g{i}" for i in range(len(gens))), tuple(gens))


def test_a_generator_in_J_squared_is_caught_whatever_the_pruning():
    """x1^2 is a product of the generator x1 with itself, so it is no new
    generator, although no bracket target has the degree of x1^3; the span
    holds every product up to the degree bound, whether or not the generators
    are homogeneous."""
    vs = VarSet(("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(vs, n) for n in vs.names)
    amb = PoissonPresentation(Table.from_dict(vs, {("x1", "x2"): x1 * x2}))
    for c in (x1 * x1, x1**3):
        ip = InvariantPresentation(amb, ("a", "b", "c"), (x1, x2, c))
        with pytest.raises(NotExpressibleError, match="dependent modulo J"):
            lie_from_invariants(ip)
    # a - c = b^2: the product b^2 has a larger total degree than c
    ip = InvariantPresentation(amb, ("a", "b", "c"), (x1 + x2 * x2, x2, x1))
    with pytest.raises(NotExpressibleError, match="dependent modulo J"):
        lie_from_invariants(ip)
    # c = d^2 has a larger degree than the only bracket target, {a, b} = a
    vs3 = VarSet(("x1", "x2", "x3"))
    y1, y2, y3 = (LaurentPoly.variable(vs3, n) for n in vs3.names)
    amb3 = PoissonPresentation(Table.from_dict(vs3, {("x1", "x2"): y1}))
    ip = InvariantPresentation(amb3, ("a", "b", "c", "d"), (y1, y2, y3 * y3, y3))
    with pytest.raises(NotExpressibleError, match="dependent modulo J"):
        lie_from_invariants(ip)


@pytest.mark.parametrize("name", [
    "weyl-a2", "weyl-b2", "weyl-g2", "kleinian-a1", "kleinian-an(2)", "kleinian-an(3)",
    "kleinian-an(4)", "kleinian-an(5)"])
def test_the_solve_builds_one_span(name, monkeypatch):
    """One span of every product up to the degree bound, then the tagged
    generators, serves the independence check and every target."""
    built = []

    class Counted(IncrementalSpan):
        def __init__(self, vectors=()):
            built.append(self)
            super().__init__(vectors)

    monkeypatch.setattr(lie, "IncrementalSpan", Counted)
    lie_from_invariants(get_entry(name).invariants)
    assert len(built) == 1


@pytest.mark.parametrize("graded", [True, False])
def test_every_generator_enters_the_span_after_one_that_adds_nothing(graded):
    """q = p^2 adds nothing to the span, and r, after it, still enters it:
    {p, r} = 2r is expressed, so the dependency is what is reported, not an
    escape.  Ungraded, p = x1 + x2^2 is not homogeneous in total degree."""
    vs = VarSet(("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(vs, n) for n in vs.names)
    amb = PoissonPresentation(Table.from_dict(vs, {("x1", "x2"): x2}))
    p = x1 if graded else x1 + x2 * x2
    ip = InvariantPresentation(amb, ("p", "q", "r"), (p, p * p, x2 * x2))
    with pytest.raises(NotExpressibleError, match="dependent modulo J"):
        lie_from_invariants(ip)


def test_the_first_escaping_pair_is_named_across_product_bases():
    """{q, r} and {q, s} escape; targets are read in pair order, so the first
    of them is named."""
    vs = VarSet(("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(vs, n) for n in vs.names)
    amb = PoissonPresentation(Table.from_dict(vs, {("x1", "x2"): x1}))
    gens = (x2, x1 * x1, x1 * x2 * x2, x1 * x2 + x1)
    ip = InvariantPresentation(amb, ("p", "q", "r", "s"), gens)
    with pytest.raises(NotExpressibleError, match=r"bracket of \(q, r\) escapes"):
        lie_from_invariants(ip)


def test_the_total_degree_prunes_only_when_it_grades_every_generator():
    """Nothing is pruned, graded or not: a zero generator is a dependency."""
    vs = VarSet(("x1", "x2", "x3"))
    x1, x2, x3 = (LaurentPoly.variable(vs, n) for n in vs.names)
    zero = LaurentPoly.zero(vs)
    # a zero generator is no crash but a dependency: 0 lies in J^2
    amb = PoissonPresentation(Table.from_dict(vs, {("x1", "x2"): x3}))
    ip = InvariantPresentation(amb, ("p", "q", "r", "s"), (x1, x2, x3, zero))
    with pytest.raises(NotExpressibleError, match="dependent modulo J"):
        lie_from_invariants(ip)


def test_the_total_degree_does_not_filter_a_target_inhomogeneous_in_it():
    bvs = VarSet(("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(bvs, n) for n in bvs.names)
    # {p, q} = x1 + x2^2 = p + q^2 is not homogeneous in total degree
    amb = PoissonPresentation(Table.from_dict(bvs, {("x1", "x2"): x1 + x2 * x2}))
    ip = InvariantPresentation(amb, ("p", "q"), (x1, x2))
    assert sc_table(lie_from_invariants(ip)) == {("p", "q"): {"p": Scalar(1)}}


def test_a_target_of_inhomogeneous_generators_is_read_up_to_the_bound():
    """{p, r} = -2p - r^3/4 has total degree 3, the products up to the bound
    3 hold r^3, so [p, r] = -2p; cut off at its own degree 1 it would escape.
    {q, r} = -12x2^3 = -6q + 3r^2."""
    vs = VarSet(("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(vs, n) for n in vs.names)
    amb = PoissonPresentation(Table.from_dict(vs, {("x1", "x2"): x2}))
    gens = (2 * x2 - x1**3, 2 * x1 * x1 + 2 * x2**3, 2 * x1)
    ip = InvariantPresentation(amb, ("p", "q", "r"), gens)
    assert sc_table(lie_from_invariants(ip)) == {
        ("p", "r"): {"p": Scalar(-2)}, ("q", "r"): {"q": Scalar(-6)}}


@pytest.mark.parametrize("bracket_x1_x2", ["zero", "x1"])
def test_generators_are_checked_for_independence_when_every_bracket_vanishes(bracket_x1_x2):
    """q = p^2 lies in J^2, so J/J^2 has dimension 1: the check runs although
    every generator bracket is 0 (with {x1, x2} = x1, {x1, x1^2} = 0)."""
    vs = VarSet(("x1", "x2"))
    x1 = LaurentPoly.variable(vs, "x1")
    table = {("x1", "x2"): x1} if bracket_x1_x2 == "x1" else {}
    amb = PoissonPresentation(Table.from_dict(vs, table))
    ip = InvariantPresentation(amb, ("p", "q"), (x1, x1 * x1))
    with pytest.raises(NotExpressibleError, match="^generators are dependent modulo J"):
        lie_from_invariants(ip)
    assert lie_from_invariants(InvariantPresentation(amb, (), ())).dim == 0


# -- the solve on primitive integer generators -------------------------------------


def test_the_primitive_scale_clears_the_denominators_and_the_content():
    """lcm(9, 3) = 9 over gcd(4, 2, -2) = 2: the n and m parts of a Q(sqrt -1)
    coefficient both count."""
    vs = VarSet(("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(vs, n) for n in vs.names)
    g = x1 * Fraction(4, 9) + x2 * Scalar(Fraction(2, 3), Fraction(-2, 3), -1)
    assert lie._primitive_scale(g) == Scalar(Fraction(9, 2))
    assert (g * lie._primitive_scale(g)).terms == {(1, 0): Scalar(2), (0, 1): Scalar(3, -3, -1)}
    assert lie._primitive_scale(x1 * 6 - x2 * 4) == Scalar(Fraction(1, 2))
    assert lie._primitive_scale(LaurentPoly.zero(vs)) == Scalar(1)


def _scaled(ip, scales):
    """ip with generator k multiplied by scales[k]."""
    gens = tuple(g * t for g, t in zip(ip.generators, scales))
    return InvariantPresentation(ip.ambient, ip.generator_names, gens)


def _rescaled_outcome(ip, scales):
    """What the solve must give for `_scaled(ip, scales)`: with G_k scaled by
    t_k, {t_i G_i, t_j G_j} = t_i t_j {G_i, G_j}, so c_ij^k becomes
    c_ij^k t_i t_j / t_k; an escape or a dependency raises as before."""
    out = _outcome(ip)
    if isinstance(out, tuple):
        return out
    t = scales
    return {(i, j): {k: c * t[i] * t[j] / t[k] for k, c in row.items()}
            for (i, j), row in out.items()}


def _rational_scales(rng, n):
    return [Scalar(Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 12)))
            for _ in range(n)]


def _gaussian_scales(rng, n):
    return [Scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
                   Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 6)), -1)
            for _ in range(n)]


@pytest.mark.parametrize(
    "name", [n for n in catalog_names() if get_entry(n).invariants is not None]
)
def test_rescaled_catalog_generators_rescale_the_structure_constants(name):
    """A nonzero rational multiple of each generator, and a Q(sqrt -1) one where
    the generators are rational, gives the structure constants
    c_ij^k t_i t_j / t_k, or the same error."""
    import random

    rng = random.Random(name)
    ip = get_entry(name).invariants
    m = len(ip.generators)
    draws = [_rational_scales(rng, m)]
    if all(c.is_rational for g in ip.generators for c in g.terms.values()):
        draws.append(_gaussian_scales(rng, m))
    for scales in draws:
        assert _outcome(_scaled(ip, scales)) == _rescaled_outcome(ip, scales)


def _escape_and_dependency_presentations():
    vs = VarSet(("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(vs, n) for n in vs.names)
    escape = PoissonPresentation(Table.from_dict(vs, {("x1", "x2"): x1}))
    dependent = PoissonPresentation(Table.from_dict(vs, {("x1", "x2"): x2}))
    return [
        InvariantPresentation(escape, ("p", "q", "r", "s"),
                              (x2, x1 * x1, x1 * x2 * x2, x1 * x2 + x1)),
        InvariantPresentation(dependent, ("p", "q", "r"), (x1, x1 * x1, x2 * x2)),
        InvariantPresentation(dependent, ("p", "q", "r"), (x1 + x2 * x2, x2, x1)),
    ]


@pytest.mark.parametrize("k", range(3))
def test_rescaled_generators_escape_and_depend_with_the_same_messages(k):
    import random

    ip = _escape_and_dependency_presentations()[k]
    expected = _outcome(ip)
    assert expected[0] == "NotExpressibleError"
    rng = random.Random(k)
    for scales in (_rational_scales(rng, 3 + (k == 0)), _gaussian_scales(rng, 3 + (k == 0))):
        assert _outcome(_scaled(ip, scales)) == expected


_nonzero_rationals = st.fractions(min_value=-12, max_value=12, max_denominator=12).filter(bool)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_small_invariant_presentations(), st.data())
def test_rescaled_drawn_generators_rescale_the_structure_constants(ip, data):
    """Graded and ungraded drawn presentations, each generator times a nonzero
    rational, then times a Q(sqrt -1) scalar, so the scale also reads the m
    parts of its coefficients."""
    m = len(ip.generators)
    rational = st.lists(_nonzero_rationals.map(Scalar), min_size=m, max_size=m)
    gaussian = st.lists(st.builds(lambda a, b: Scalar(a, b, -1), _nonzero_rationals,
                                  _nonzero_rationals), min_size=m, max_size=m)
    for scales in (data.draw(rational), data.draw(gaussian)):
        assert _outcome(_scaled(ip, scales)) == _rescaled_outcome(ip, scales)


def test_weyl_g2_solves_on_integer_coefficients(monkeypatch):
    """weyl-g2's generators carry ninths, yet every product and generator
    added to a span, and every target read in one, has integer coefficients:
    the solve runs on the primitive integer multiples of the generators."""
    entered = []

    class Watched(IncrementalSpan):
        def add(self, vec, tag=None):
            entered.append(vec)
            return super().add(vec, tag)

        def coordinates(self, vec):
            entered.append(vec)
            return super().coordinates(vec)

    monkeypatch.setattr(lie, "IncrementalSpan", Watched)
    ip = get_entry("weyl-g2").invariants
    assert any(c.q != 1 for g in ip.generators for c in g.terms.values())
    lie_from_invariants(ip)
    assert entered and all(c.q == 1 for vec in entered for c in vec.values())


# -- the nonzero structure constants against the dense loops they replaced ------


class _DenseLie:
    """The dense loops of `LieAlgebra` before it read only the nonzero
    structure constants: `bracket`, `ad_matrix` and `_verify`, kept as the
    reference."""

    def __init__(self, labels, sc):
        self.labels, self.sc, self.dim = tuple(labels), sc, len(labels)

    def basis_vector(self, i):
        return unit_vector(self.dim, i)

    def _verify(self):
        n = self.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.sc[i][j][k] != -self.sc[j][i][k]:
                        raise LieStructureError(
                            f"antisymmetry fails on ({self.labels[i]}, {self.labels[j]})"
                        )
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc = self._jacobiator(i, j, k)
                    if any(not c.is_zero for c in acc):
                        raise LieStructureError(
                            f"Jacobi fails on ({self.labels[i]}, {self.labels[j]}, {self.labels[k]})"
                        )

    def _jacobiator(self, i, j, k):
        e = self.basis_vector
        term1 = self.bracket(self.bracket(e(i), e(j)), e(k))
        term2 = self.bracket(self.bracket(e(j), e(k)), e(i))
        term3 = self.bracket(self.bracket(e(k), e(i)), e(j))
        return tuple(a + b + c for a, b, c in zip(term1, term2, term3))

    def bracket(self, u, v):
        n = self.dim
        out = [ZERO] * n
        for i in range(n):
            a = u[i]
            if a.is_zero:
                continue
            for j in range(n):
                b = v[j]
                if b.is_zero:
                    continue
                coeff = a * b
                row = self.sc[i][j]
                for k in range(n):
                    if not row[k].is_zero:
                        out[k] = out[k] + coeff * row[k]
        return tuple(out)

    def ad_matrix(self, u) -> Matrix:
        cols = [self.bracket(u, self.basis_vector(j)) for j in range(self.dim)]
        return Matrix(list(zip(*cols)))


# Lie algebras of dimension <= 6 as (dim, {(i, j): {k: c}}) with [e_i, e_j] = sum c e_k
_KNOWN_LIE = [
    (1, {}),
    (2, {(0, 1): {1: 1}}),
    (3, {(0, 1): {2: 1}}),  # Heisenberg
    (3, {(1, 0): {0: 2}, (1, 2): {2: -2}, (0, 2): {1: 1}}),  # sl2 on (e, h, f)
    (3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (2, 0): {1: 1}}),  # so3
    (4, {(0, 1): {1: 1}, (2, 3): {3: 1}}),  # two copies of the 2-dimensional one
    (5, {(1, 0): {0: 2}, (1, 2): {2: -2}, (0, 2): {1: 1},  # sl2 on its module C^2
         (1, 3): {3: 1}, (1, 4): {4: -1}, (0, 4): {3: 1}, (2, 3): {4: 1}}),
    (6, {(1, 0): {0: 2}, (1, 2): {2: -2}, (0, 2): {1: 1},
         (4, 3): {3: 2}, (4, 5): {5: -2}, (3, 5): {4: 1}}),  # sl2 + sl2
]


def _dense_sc(n, table):
    """The dense n x n x n constants of a table {(i, j): row} (either order),
    each row a {k: c} dict or a sequence, as `LieAlgebra` reads them."""
    sc = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for (i, j), row in table.items():
        for k, c in row.items() if isinstance(row, dict) else enumerate(row):
            sc[i][j][k], sc[j][i][k] = Scalar.coerce(c), -Scalar.coerce(c)
    return sc


@st.composite
def _structure_tables(draw):
    """(labels, brackets, vectors) over Q or Q(sqrt(-1)), in dimension 1 to 6,
    the brackets on the pairs a < b: a known Lie algebra (with an abelian
    summand) in a drawn basis, its rows sequences of coordinates, or a drawn
    table of {k: c} rows, which is rarely Lie."""
    i = scalar_sqrt(-1) if draw(st.booleans()) else ZERO
    entry = st.tuples(st.integers(-2, 2), st.integers(-1, 1)).map(lambda ab: ab[0] + ab[1] * i)
    sparse = st.one_of(st.just(ZERO), st.just(ZERO), entry)
    if draw(st.booleans()):
        dim, table = draw(st.sampled_from(_KNOWN_LIE))
        n = draw(st.integers(dim, 6))
        dense = _DenseLie(range(n), _dense_sc(n, table))
        cols = draw(st.lists(st.tuples(*[entry] * n), min_size=n, max_size=n)
                    .filter(lambda cols: rank(cols) == n))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        coords = coordinates(cols, [dense.bracket(cols[a], cols[b]) for a, b in pairs])
        brackets = dict(zip(pairs, coords))
    else:
        n = draw(st.integers(1, 6))
        brackets = {(a, b): {k: draw(sparse) for k in range(n)}
                    for a in range(n) for b in range(a + 1, n)}
    vectors = draw(st.lists(st.tuples(*[sparse] * n), min_size=1, max_size=3))
    return tuple(f"u{a}" for a in range(n)), brackets, vectors


def _construction(build):
    try:
        build()
    except LieStructureError as exc:
        return str(exc)
    return None


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_structure_tables())
def test_the_nonzero_structure_constants_give_the_dense_results(case):
    labels, brackets, vectors = case
    dense = _DenseLie(labels, _dense_sc(len(labels), brackets))
    assert _construction(lambda: LieAlgebra(labels, brackets)) == _construction(dense._verify)
    with pytest.MonkeyPatch.context() as patch:  # a table that fails Jacobi is read too
        patch.setattr(LieAlgebra, "_verify", lambda self: None)
        lie = LieAlgebra(labels, brackets)
    basis = [dense.basis_vector(a) for a in range(dense.dim)]
    for u in vectors + basis:
        assert lie.ad_matrix(u) == dense.ad_matrix(u)
        for v in vectors + basis:
            assert lie.bracket(u, v) == dense.bracket(u, v)
    assert lie.structure_table() == {
        (a, b): {k: c for k, c in enumerate(dense.sc[a][b]) if not c.is_zero}
        for a in range(dense.dim) for b in range(a + 1, dense.dim)
        if any(not c.is_zero for c in dense.sc[a][b])
    }


# -- the mod-J^2 solve on sparse rows against the rref of the support matrix --------


def _support_matrix(polys):
    """One row per monomial of the union of the supports, the monomials in term
    order; column k holds the coefficients of polys[k]."""
    monomials = sorted(set().union(*(p.terms for p in polys)), key=term_sort_key)
    return [[p.terms.get(mono, ZERO) for p in polys] for mono in monomials]


def _rref_lie_from_invariants(ip):
    """`lie_from_invariants` as one dense rref of the support matrix
    [every product up to the bound | generators | targets], kept as the
    reference; the rref is the dense `rref_reference`, independent of the span
    under test."""
    gens = list(ip.generators)
    names = list(ip.generator_names)
    m = len(gens)
    varset = ip.ambient.varset
    for name, flag in zip(varset.names, varset.laurent):
        if flag:
            raise ValueError(f"the base point is the origin, where Laurent variable {name} is 0")
    amb_origin = PointP(varset, [ZERO] * len(varset))
    for name, g in zip(names, gens):
        if not g.evaluate(amb_origin).is_zero:
            raise ValueError(f"generator {name} does not vanish at the base point")
    spec = ip.ambient.bracket_spec
    targets = {}
    for i in range(m):
        for j in range(i + 1, m):
            t = bracket(spec, gens[i], gens[j])
            if not t.is_zero:
                targets[(i, j)] = t
    bound = max((p.total_degree() or 0 for p in [*targets.values(), *gens]), default=0)
    columns = lie._enumerate_products(gens, bound, varset) + gens
    reduced, pivots = rref_reference(_support_matrix(columns + list(targets.values())))
    rows = dict(zip(pivots, reduced))
    first = len(columns) - m
    # A target whose column holds a pivot escapes; the first escaping pair in
    # pair order always does, since every earlier target lies in the span.
    for col, (i, j) in enumerate(targets, len(columns)):
        if col in rows:
            raise NotExpressibleError(f"bracket of ({names[i]}, {names[j]}) escapes the "
                                      f"subalgebra up to total degree {bound}")
    if not all(c in rows for c in range(first, len(columns))):
        raise NotExpressibleError("generators are dependent modulo J^2; linear part not unique")
    brackets = {
        pair: [rows[c][col] for c in range(first, len(columns))]
        for col, pair in enumerate(targets, len(columns))
    }
    return LieAlgebra(names, brackets)


def _rref_outcome(ip):
    try:
        return _rref_lie_from_invariants(ip).structure_table()
    except (AtlasError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize(
    "name", [n for n in catalog_names() if get_entry(n).invariants is not None]
)
def test_the_sparse_solve_equals_the_rref_solve(name):
    ip = get_entry(name).invariants
    assert _outcome(ip) == _rref_outcome(ip)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(_small_invariant_presentations())
def test_the_sparse_solve_equals_the_rref_solve_on_drawn_presentations(ip):
    assert _outcome(ip) == _rref_outcome(ip)
