from fractions import Fraction

import pytest

from poisson_atlas import (
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
from poisson_atlas.catalog import get_entry
from poisson_atlas.errors import (
    LieStructureError,
    NotExpressibleError,
    NotPoissonMaximalError,
)
from poisson_atlas.linalg import Matrix
from poisson_atlas.scalars import Scalar, scalar_sqrt


def sc_table(lie):
    out = {}
    for (i, j), row in lie.structure_table().items():
        out[(lie.labels[i], lie.labels[j])] = {
            lie.labels[k]: c for k, c in row.items()
        }
    return out


def test_constructor_enforces_antisymmetry():
    sc = [[[Scalar(0)]]]
    LieAlgebra(("u",), sc)  # 1-dim fine
    bad = [
        [[Scalar(0), Scalar(0)], [Scalar(1), Scalar(0)]],
        [[Scalar(1), Scalar(0)], [Scalar(0), Scalar(0)]],
    ]
    with pytest.raises(LieStructureError):
        LieAlgebra(("u", "v"), bad)


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
    pres = PoissonPresentation(vs, Exact(x * y * y - z * z))
    L = lie_from_point(pres, PointP(vs, [1, 0, 0]))
    # [u, y] = -2z, [y, z] = 0, [z, u] = 2y
    assert sc_table(L) == {
        ("x", "y"): {"z": Scalar(-2)},
        ("x", "z"): {"y": Scalar(-2)},
    }


def test_lie_from_point_requires_poisson_point(torus_pres):
    with pytest.raises(NotPoissonMaximalError):
        lie_from_point(torus_pres, PointP(torus_pres.varset, [1, 1, 1]))


def test_translation_invariance_of_potential(a1_pres, xyz):
    vs, x, y, z = xyz
    f = z * z - x * y
    shifted = PoissonPresentation(vs, Exact(f + 17))
    origin = PointP(vs, [0, 0, 0])
    assert lie_from_point(a1_pres, origin).sc == lie_from_point(shifted, origin).sc


def weyl_a2_setup():
    vs = VarSet(("a1", "a2", "b1", "b2"))
    a1, a2, b1, b2 = (LaurentPoly.variable(vs, n) for n in vs.names)
    six = LaurentPoly.const(vs, 6)
    m3 = LaurentPoly.const(vs, -3)
    amb = PoissonPresentation(
        vs,
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
        gradings=((1, 1, 0, 0), (0, 0, 1, 1)),
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
        avs, Table.from_dict(avs, {("x1", "x2"): LaurentPoly.const(avs, 1)})
    )
    half = Fraction(1, 2)
    ip = InvariantPresentation(
        amb,
        ("x", "y", "z"),
        (x1 * x1 * half, x2 * x2 * half, x1 * x2 * half),
        gradings=((1, 1),),
    )
    L = lie_from_invariants(ip)
    assert sc_table(L) == {
        ("x", "y"): {"z": Scalar(2)},
        ("x", "z"): {"x": Scalar(1)},
        ("y", "z"): {"y": Scalar(-1)},
    }
    # consistency with the point route on the exact presentation
    origin = PointP(a1_pres.varset, [0, 0, 0])
    assert L.sc == lie_from_point(a1_pres, origin).sc


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lie_from_invariants_kleinian_an(n, xyz):
    vs, x, y, z = xyz
    pres = PoissonPresentation(vs, Exact(z**n - x * y))
    avs = VarSet(("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(avs, m) for m in avs.names)
    amb = PoissonPresentation(
        avs, Table.from_dict(avs, {("x1", "x2"): LaurentPoly.const(avs, 1)})
    )
    inv_a = scalar_sqrt(n**n).inverse()
    ip = InvariantPresentation(
        amb,
        ("x", "y", "z"),
        (x1**n * inv_a, x2**n * inv_a, x1 * x2 * Fraction(1, n)),
        relations=(z**n - x * y,),
        gradings=((1, 1),),
    )
    assert verify_invariance(ip).ok
    L = lie_from_invariants(ip)
    assert L.sc == lie_from_point(pres, PointP(vs, [0, 0, 0])).sc


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
    tor = PoissonPresentation(tvs, Table.from_dict(tvs, {("x1", "x2"): x1 * x2}))
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
    bpres = PoissonPresentation(bvs, Table.from_dict(bvs, {("x1", "x2"): x1}))
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
        bvs, Table.from_dict(bvs, {("x1", "x2"): LaurentPoly.const(bvs, 1)})
    )
    pi = SubstitutionMap.from_dict(bvs, {"x1": -x1, "x2": -x2})
    ip = InvariantPresentation(amb, ("g",), (x1,), automorphisms=(pi,))
    report = verify_invariance(ip)
    assert not report.ok and report.failures


def test_not_expressible():
    bvs = VarSet(("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(bvs, n) for n in bvs.names)
    amb = PoissonPresentation(
        bvs, Table.from_dict(bvs, {("x1", "x2"): LaurentPoly.const(bvs, 1)})
    )
    # {x1^2, x2} = 2 x1 is not a combination of the listed generators
    ip = InvariantPresentation(amb, ("p", "q"), (x1 * x1, x2))
    with pytest.raises(NotExpressibleError):
        lie_from_invariants(ip)


def test_not_expressible_names_the_first_failing_pair():
    bvs = VarSet(("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(bvs, n) for n in bvs.names)
    amb = PoissonPresentation(
        bvs, Table.from_dict(bvs, {("x1", "x2"): LaurentPoly.const(bvs, 1)})
    )
    # {p, q} = 2 x1 and {p, r} = 4 x1 x2 both escape, over two product bases
    ip = InvariantPresentation(amb, ("p", "q", "r"), (x1 * x1, x2, x2 * x2))
    with pytest.raises(NotExpressibleError, match=r"bracket of \(p, q\) escapes"):
        lie_from_invariants(ip)


def test_dependent_generators_are_reported():
    bvs = VarSet(("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(bvs, n) for n in bvs.names)
    amb = PoissonPresentation(bvs, Table.from_dict(bvs, {("x1", "x2"): x1}))
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
    from poisson_atlas import bracket, express_in_span

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
        bvs, Table.from_dict(bvs, {("x1", "x2"): LaurentPoly.const(bvs, 1)})
    )
    ident = SubstitutionMap.from_dict(bvs, {"x1": x1, "x2": x2})
    ip = InvariantPresentation(
        amb, ("p", "q"), (x1 * x1, x1 * x2), automorphisms=(ident,)
    )
    assert verify_invariance(ip).ok
