from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from poisson_atlas.linalg import Matrix, coordinates, rank, rref, unit_vector
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


def test_a_point_keeps_its_g_under_each_presentation(a1_pres, torus_pres, xyz, monkeypatch):
    """`lie_from_point` keeps g(J) on the point under its presentation: a second
    call returns the same object without another gradient pass, another
    presentation at that point gets its own g(J), and a point that is not
    Poisson-maximal is never kept, so it raises on every call."""
    vs, x, y, z = xyz
    calls = []
    real = lie.pair_gradients
    monkeypatch.setattr(lie, "pair_gradients", lambda *args: calls.append(args) or real(*args))
    origin = PointP(vs, [0, 0, 0])
    first = lie_from_point(a1_pres, origin)
    assert lie_from_point(a1_pres, origin) is first and len(calls) == 1
    whitney = PoissonPresentation(vs, Exact(x * y * y - z * z))
    other = lie_from_point(whitney, origin)
    assert other != first and len(calls) == 2
    assert lie_from_point(whitney, origin) is other and lie_from_point(a1_pres, origin) is first
    assert len(calls) == 2
    fresh = lie_from_point(a1_pres, PointP(vs, [0, 0, 0]))  # an equal point, not this one
    assert fresh == first and fresh is not first and len(calls) == 3
    bad = PointP(vs, [1, 1, 1])
    for count in (4, 5):
        with pytest.raises(NotPoissonMaximalError, match=r"^\(1, 1, 1\) is not a Poisson-maximal point$"):
            lie_from_point(torus_pres, bad)
        assert len(calls) == count


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


# -- the pruning lie_from_invariants reads from its generators --------------------


def _outcome(ip):
    """The structure constants, or the error's type and text (a Laurent
    ambient is refused, pruned or not)."""
    try:
        return lie_from_invariants(ip).sc
    except (AtlasError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize(
    "name", [n for n in catalog_names() if get_entry(n).invariants is not None]
)
def test_the_pruned_solve_equals_the_unpruned_one(name, monkeypatch):
    ip = get_entry(name).invariants
    pruned = _outcome(ip)
    monkeypatch.setattr(lie, "_graded", lambda gens: False)
    assert _outcome(ip) == pruned


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
        vs, Table.from_dict(vs, {("x1", "x2"): poly(exps.filter(lambda e: sum(e) <= 2))})
    )
    graded = draw(st.booleans())
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 4))
        gens.append(poly(exps.filter(lambda e: sum(e) == d if graded else any(e))))
    return InvariantPresentation(amb, tuple(f"g{i}" for i in range(len(gens))), tuple(gens))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_small_invariant_presentations())
def test_the_pruned_solve_equals_the_unpruned_one_on_drawn_presentations(ip):
    pruned = _outcome(ip)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lie, "_graded", lambda gens: False)
        assert _outcome(ip) == pruned


def test_a_generator_in_J_squared_is_caught_whatever_the_pruning():
    """x1^2 is a product of the generator x1 with itself, so it is no new
    generator, although no bracket target has the degree of x1^3."""
    vs = VarSet(("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(vs, n) for n in vs.names)
    amb = PoissonPresentation(vs, Table.from_dict(vs, {("x1", "x2"): x1 * x2}))
    for c in (x1 * x1, x1**3):
        ip = InvariantPresentation(amb, ("a", "b", "c"), (x1, x2, c))
        assert lie._graded(ip.generators)
        with pytest.raises(NotExpressibleError, match="dependent modulo J"):
            lie_from_invariants(ip)
    # a - c = b^2: the product b^2 has a larger total degree than c
    ip = InvariantPresentation(amb, ("a", "b", "c"), (x1 + x2 * x2, x2, x1))
    assert not lie._graded(ip.generators)
    with pytest.raises(NotExpressibleError, match="dependent modulo J"):
        lie_from_invariants(ip)
    # c = d^2 has a larger degree than the only bracket target, {a, b} = a
    vs3 = VarSet(("x1", "x2", "x3"))
    y1, y2, y3 = (LaurentPoly.variable(vs3, n) for n in vs3.names)
    amb3 = PoissonPresentation(vs3, Table.from_dict(vs3, {("x1", "x2"): y1}))
    ip = InvariantPresentation(amb3, ("a", "b", "c", "d"), (y1, y2, y3 * y3, y3))
    with pytest.raises(NotExpressibleError, match="dependent modulo J"):
        lie_from_invariants(ip)


def test_the_first_escaping_pair_is_named_across_product_bases():
    """{q, r} and {q, s} escape, over different product bases; {q, s} shares
    its (empty) basis with {p, q}, the first pair, so its group comes first."""
    vs = VarSet(("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(vs, n) for n in vs.names)
    amb = PoissonPresentation(vs, Table.from_dict(vs, {("x1", "x2"): x1}))
    gens = (x2, x1 * x1, x1 * x2 * x2, x1 * x2 + x1)
    ip = InvariantPresentation(amb, ("p", "q", "r", "s"), gens)
    with pytest.raises(NotExpressibleError, match=r"bracket of \(q, r\) escapes"):
        lie_from_invariants(ip)


def test_the_total_degree_prunes_only_when_it_grades_every_generator():
    vs = VarSet(("x1", "x2", "x3"))
    x1, x2, x3 = (LaurentPoly.variable(vs, n) for n in vs.names)
    zero = LaurentPoly.zero(vs)
    assert lie._graded([x1 * x1, x2 * x3 + x1 * x1, zero])
    assert not lie._graded([x1 * x1 + x2**3, x3])
    # a zero generator is no crash but a dependency: 0 lies in J^2
    amb = PoissonPresentation(vs, Table.from_dict(vs, {("x1", "x2"): x3}))
    ip = InvariantPresentation(amb, ("p", "q", "r", "s"), (x1, x2, x3, zero))
    with pytest.raises(NotExpressibleError, match="dependent modulo J"):
        lie_from_invariants(ip)


def test_the_total_degree_does_not_filter_a_target_inhomogeneous_in_it():
    bvs = VarSet(("x1", "x2"))
    x1, x2 = (LaurentPoly.variable(bvs, n) for n in bvs.names)
    # {p, q} = x1 + x2^2 = p + q^2 is not homogeneous in total degree
    amb = PoissonPresentation(bvs, Table.from_dict(bvs, {("x1", "x2"): x1 + x2 * x2}))
    ip = InvariantPresentation(amb, ("p", "q"), (x1, x2))
    assert lie._graded(ip.generators)
    assert sc_table(lie_from_invariants(ip)) == {("p", "q"): {"p": Scalar(1)}}


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
    sc = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for (i, j), row in table.items():
        for k, c in row.items():
            sc[i][j][k], sc[j][i][k] = Scalar(c), -Scalar(c)
    return sc


@st.composite
def _structure_tables(draw):
    """(labels, sc, vectors) over Q or Q(sqrt(-1)), in dimension 1 to 6: a
    known Lie algebra (with an abelian summand) in a drawn basis, or a drawn
    antisymmetric table, which is rarely Lie; in a quarter of the draws one
    entry then breaks antisymmetry."""
    i = scalar_sqrt(-1) if draw(st.booleans()) else ZERO
    entry = st.tuples(st.integers(-2, 2), st.integers(-1, 1)).map(lambda ab: ab[0] + ab[1] * i)
    sparse = st.one_of(st.just(ZERO), st.just(ZERO), entry)
    if draw(st.booleans()):
        dim, table = draw(st.sampled_from(_KNOWN_LIE))
        n = draw(st.integers(dim, 6))
        dense = _DenseLie(range(n), _dense_sc(n, table))
        cols = draw(st.lists(st.tuples(*[entry] * n), min_size=n, max_size=n)
                    .filter(lambda cols: rank(cols) == n))
        coords = coordinates(cols, [dense.bracket(u, v) for u in cols for v in cols])
        sc = [[list(coords[a * n + b]) for b in range(n)] for a in range(n)]
    else:
        n = draw(st.integers(1, 6))
        sc = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                sc[a][b] = [draw(sparse) for _ in range(n)]
                sc[b][a] = [-c for c in sc[a][b]]
    if draw(st.integers(0, 3)) == 0:
        a, b, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        sc[a][b][k] = sc[a][b][k] + draw(entry.filter(lambda c: not c.is_zero))
    vectors = draw(st.lists(st.tuples(*[sparse] * n), min_size=1, max_size=3))
    return tuple(f"u{a}" for a in range(n)), sc, vectors


def _construction(build):
    try:
        build()
    except LieStructureError as exc:
        return str(exc)
    return None


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_structure_tables())
def test_the_nonzero_structure_constants_give_the_dense_results(case):
    labels, sc, vectors = case
    dense = _DenseLie(labels, sc)
    assert _construction(lambda: LieAlgebra(labels, sc)) == _construction(dense._verify)
    lie = LieAlgebra(labels, sc, check=False)
    basis = [dense.basis_vector(a) for a in range(dense.dim)]
    for u in vectors + basis:
        assert lie.ad_matrix(u) == dense.ad_matrix(u)
        for v in vectors + basis:
            assert lie.bracket(u, v) == dense.bracket(u, v)
    assert lie.structure_table() == {
        (a, b): {k: c for k, c in enumerate(sc[a][b]) if not c.is_zero}
        for a in range(dense.dim) for b in range(a + 1, dense.dim)
        if any(not c.is_zero for c in sc[a][b])
    }


# -- the mod-J^2 solve on sparse rows against the rref of the support matrix --------


def _support_matrix(polys):
    """One row per monomial of the union of the supports, the monomials in term
    order; column k holds the coefficients of polys[k]."""
    monomials = sorted(set().union(*(p.terms for p in polys)), key=term_sort_key)
    return [[p.terms.get(mono, ZERO) for p in polys] for mono in monomials]


def _rref_lie_from_invariants(ip):
    """`lie_from_invariants` as it solved on one dense rref of the support
    matrix per product basis, kept as the reference."""
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
    sc = [[[ZERO] * m for _ in range(m)] for _ in range(m)]
    if not targets:
        return LieAlgebra(names, sc)
    bound = max(p.total_degree() or 0 for p in list(targets.values()) + gens)
    ones = (1,) * len(varset) if lie._graded(gens) else None
    products, degrees = lie._enumerate_products(gens, bound)

    def pruned(poly, total):  # the products up to total, of poly's degree if it has one
        d = None if ones is None else poly.degree_wrt(ones)
        return tuple(k for k, deg in enumerate(degrees) if deg <= total and d in (None, deg))

    classes = {}  # a dependency modulo J^2 holds among generators of equal degrees
    for g in gens:
        classes.setdefault(pruned(g, bound), []).append(g)
    independent = True
    for basis, members in classes.items():
        pivots = rref(_support_matrix([products[k] for k in basis] + members))[1]
        independent &= all(len(basis) + c in pivots for c in range(len(members)))
    groups = {}  # pruned product basis -> the pairs whose targets it serves
    for pair, target in targets.items():
        groups.setdefault(pruned(target, target.total_degree()), []).append(pair)
    escapes = []
    for basis, pairs in groups.items():
        # One rref of [products | gens | targets]: a target whose column holds a
        # pivot escapes, and the later ones of its group are read only if none does.
        columns = [products[k] for k in basis] + gens
        reduced, pivots = rref(_support_matrix(columns + [targets[pair] for pair in pairs]))
        rows = dict(zip(pivots, reduced))
        for col, (i, j) in enumerate(pairs, len(columns)):
            if col in rows:
                escapes.append((i, j))
            elif independent:
                for k, c in enumerate(range(len(basis), len(columns))):
                    sc[i][j][k], sc[j][i][k] = rows[c][col], -rows[c][col]
    if escapes:  # the first escaping pair in pair order is the first of its group
        i, j = min(escapes)
        raise NotExpressibleError(f"bracket of ({names[i]}, {names[j]}) escapes the "
                                  f"subalgebra up to the degree bound")
    if not independent:
        raise NotExpressibleError("generators are dependent modulo J^2; linear part not unique")
    return LieAlgebra(names, sc)


def _rref_outcome(ip):
    try:
        return _rref_lie_from_invariants(ip).sc
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
