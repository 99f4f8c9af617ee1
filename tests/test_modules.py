from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perturbed, solve_linear
from poisson_atlas import (
    ActionTable,
    Exact,
    LaurentPoly,
    LieAlgebra,
    LieRep,
    PointP,
    PoissonPresentation,
    SubstitutionMap,
    VarSet,
    analyze_submodules,
    bracket,
    composition_series,
    find_sl2_triple,
    is_simple_module,
    lie_from_point,
    lie_reps_isomorphic,
    lift_module,
    module_from_table,
    poisson_modules_isomorphic,
    recognize,
    restrict_to_lie,
    restrict_to_subalgebra,
    sl2_irrep,
    solvable_character_module,
    twist,
    verify_poisson_axioms,
)
from poisson_atlas.errors import AtlasError, IncompatibleTableError, NotPoissonMaximalError
from poisson_atlas.linalg import Matrix, associative_hull_is_full, eigen_small, rank
from poisson_atlas.modules import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    AxiomReport,
    PoissonModule,
    SplitMix,
    _exponent_candidates,
    _random_poly,
    find_isomorphism,
    is_simple,
    lie_rep_restrict,
    restrict_action,
)
from poisson_atlas.scalars import Scalar


def a1_setup(a1_pres):
    origin = PointP(a1_pres.varset, [0, 0, 0])
    lie = lie_from_point(a1_pres, origin)
    triple = find_sl2_triple(lie)
    return origin, lie, triple


def eig_multiset(matrix):
    out = []
    for value, mult, _ in eigen_small(matrix).pairs:
        out.extend([value] * mult)
    return sorted(out, key=Scalar.sort_key)


def scal_sorted(values):
    return sorted((Scalar.coerce(v) for v in values), key=Scalar.sort_key)


def test_sl2_irrep_small_dims(a1_pres):
    origin, lie, triple = a1_setup(a1_pres)
    rep1 = sl2_irrep(lie, 1, triple)
    assert all(m.is_zero for m in rep1.mats)

    rep2 = sl2_irrep(lie, 2, triple)
    # h = 2z: the z-action is diag(1/2, -1/2); e = y acts with weight 1*(2-1)
    assert rep2.mats[2] == Matrix([[Fraction(1, 2), 0], [0, Fraction(-1, 2)]])
    assert rep2.mats[1] == Matrix([[0, 1], [0, 0]])

    rep3 = sl2_irrep(lie, 3, triple)
    h = rep3.mats[2] * 2
    assert h == Matrix([[2, 0, 0], [0, 0, 0], [0, 0, -2]])


def test_casimir_scalar():
    sl2 = LieAlgebra.from_brackets(
        ("e", "h", "f"),
        {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
    )
    tri = find_sl2_triple(sl2)
    for d in (2, 3, 4):
        rep = sl2_irrep(sl2, d, tri)
        e, h, f = rep.rho(tri.e), rep.rho(tri.h), rep.rho(tri.f)
        casimir = e * f + f * e + (h * h).scale(Fraction(1, 2))
        scalar = Scalar(Fraction(d * d - 1, 2))
        assert casimir == Matrix.identity(d).scale(scalar)


def test_rep_property_enforced():
    sl2 = LieAlgebra.from_brackets(
        ("e", "h", "f"),
        {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
    )
    good = sl2_irrep(sl2, 2, find_sl2_triple(sl2))
    bad_mats = list(good.mats)
    bad_mats[0] = bad_mats[0] + Matrix([[0, 0], [1, 0]])
    with pytest.raises(IncompatibleTableError):
        LieRep(sl2, tuple(bad_mats))


def _first_failing_pair(lie, mats):
    """The first (i, j) in order where rho([u_i, u_j]) != [rho(u_i), rho(u_j)],
    by dense matrix products."""
    d = mats[0].nrows
    for i in range(lie.dim):
        for j in range(i + 1, lie.dim):
            coeffs = lie.bracket(lie.basis_vector(i), lie.basis_vector(j))
            expected = Matrix([[0] * d for _ in range(d)])
            for c, m in zip(coeffs, mats):
                expected = expected + m.scale(c)
            if expected != mats[i] * mats[j] - mats[j] * mats[i]:
                return f"({lie.labels[i]}, {lie.labels[j]})"
    return None


def test_a_perturbed_rep_is_refused_on_the_first_failing_pair():
    """The sparse bracket check of LieRep names the pair that dense products
    find first, for a perturbation of each entry of each matrix."""
    sl2 = LieAlgebra.from_brackets(
        ("e", "h", "f"),
        {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
    )
    good = sl2_irrep(sl2, 3, find_sl2_triple(sl2))
    labels = set()
    for k in range(3):
        for r in range(3):
            for c in range(3):
                bump = [[0] * 3 for _ in range(3)]
                bump[r][c] = Fraction(1, 2)
                mats = list(good.mats)
                mats[k] = mats[k] + Matrix(bump)
                label = _first_failing_pair(sl2, mats)
                if label is None:
                    LieRep(sl2, tuple(mats))
                    continue
                with pytest.raises(IncompatibleTableError) as err:
                    LieRep(sl2, tuple(mats))
                assert str(err.value) == f"not a representation on {label}"
                labels.add(label)
    assert labels == {"(e, h)", "(e, f)", "(h, f)"}


def test_lift_and_round_trips(a1_pres):
    origin, lie, triple = a1_setup(a1_pres)
    for d in range(1, 5):
        rep = sl2_irrep(lie, d, triple)
        module = lift_module(a1_pres, origin, rep)
        back = restrict_to_lie(module)
        assert back.mats == rep.mats
        assert lift_module(a1_pres, origin, back) == module


def test_lift_spectrum(a1_pres):
    origin, lie, triple = a1_setup(a1_pres)
    for d in range(1, 7):
        module = lift_module(a1_pres, origin, sl2_irrep(lie, d, triple))
        got = eig_multiset(module.mats[2])
        assert got == scal_sorted(Fraction(2 * j + 1 - d, 2) for j in range(d))


def test_lift_requires_matching_algebra(a1_pres, torus_pres):
    origin, lie, triple = a1_setup(a1_pres)
    rep = sl2_irrep(lie, 2, triple)
    with pytest.raises(AtlasError):
        lift_module(torus_pres, PointP(torus_pres.varset, [0, 0, 0]), rep)


def test_lift_refusals_keep_their_types_and_messages(torus_pres):
    """A representation of g(J) at another sl2 point of the same presentation
    has the same labels but other structure constants; a non-Poisson point is
    refused before any comparison."""
    vs = torus_pres.varset
    lie = lie_from_point(torus_pres, PointP(vs, [2, 2, 2]))
    rep = sl2_irrep(lie, 2, find_sl2_triple(lie))
    with pytest.raises(AtlasError) as refused:
        lift_module(torus_pres, PointP(vs, [-2, -2, 2]), rep)
    assert type(refused.value) is AtlasError
    assert str(refused.value) == "representation is over a different Lie algebra than g(J)"
    with pytest.raises(NotPoissonMaximalError) as refused:
        lift_module(torus_pres, PointP(vs, [1, 0, 0]), rep)
    assert str(refused.value) == "(1, 0, 0) is not a Poisson-maximal point"
    # an algebra equal to g(J) is g(J), however it was built; other labels are not
    j2 = PointP(vs, [2, 2, 2])
    copy = LieRep(LieAlgebra(lie.labels, lie.structure_table()), rep.mats)
    assert lift_module(torus_pres, j2, copy) == lift_module(torus_pres, j2, rep)
    renamed = LieRep(LieAlgebra(("a", "b", "c"), lie.structure_table()), rep.mats)
    with pytest.raises(AtlasError, match="different Lie algebra than g"):
        lift_module(torus_pres, j2, renamed)


def test_a_module_at_a_non_poisson_point_is_refused_on_every_route(torus_pres):
    """A module or a lift at a non-Poisson point is refused, whatever algebra
    the matrices came from: a g(J) built at another point certifies nothing."""
    vs = torus_pres.varset
    good, bad = PointP(vs, [2, 2, 2]), PointP(vs, [1, 0, 0])
    lie = lie_from_point(torus_pres, good)
    rep = sl2_irrep(lie, 2, find_sl2_triple(lie))
    for build in (lambda: PoissonModule(torus_pres, bad, rep.mats),
                  lambda: lift_module(torus_pres, bad, rep)):
        with pytest.raises(NotPoissonMaximalError, match=r"\(1, 0, 0\) is not a Poisson-maximal"):
            build()
    assert lift_module(torus_pres, good, rep) == PoissonModule(torus_pres, good, rep.mats)


def test_j_squared_insensitivity(a1_pres):
    # {a, -} = {a + j*k, -} for generators j, k of J
    origin, lie, triple = a1_setup(a1_pres)
    module = lift_module(a1_pres, origin, sl2_irrep(lie, 3, triple))
    vs = a1_pres.varset
    x, y, z = (LaurentPoly.variable(vs, n) for n in vs.names)
    a = 2 * x - 3 * z
    assert module.action_of(a) == module.action_of(a + x * y) == module.action_of(
        a + z * z
    )


def test_verify_axioms_pass_and_trivial(a1_pres):
    origin, lie, triple = a1_setup(a1_pres)
    module = lift_module(a1_pres, origin, sl2_irrep(lie, 4, triple))
    report = verify_poisson_axioms(module)
    assert report.ok and report.checks > 100

    trivial = solvable_character_module(
        a1_pres, origin, (0, 0, 0)
    )  # zero character at the sl2 point: the 1-dim trivial module
    assert verify_poisson_axioms(trivial).ok


def test_mutation_detected(a1_pres):
    origin, lie, triple = a1_setup(a1_pres)
    module = lift_module(a1_pres, origin, sl2_irrep(lie, 3, triple))
    rng = SplitMix(0x9E3779B9)
    for _ in range(6):
        g = rng.below(3)
        r, c = rng.below(3), rng.below(3)
        report = verify_poisson_axioms(perturbed(module, g, r, c))
        assert not report.ok and report.failures


def test_is_simple(a1_pres):
    origin, lie, triple = a1_setup(a1_pres)
    for d in (1, 2, 3, 4):
        module = lift_module(a1_pres, origin, sl2_irrep(lie, d, triple))
        assert is_simple_module(module)


def test_one_dimensional_modules_are_simple_without_an_eigenproblem(monkeypatch):
    import poisson_atlas.linalg as linalg

    def no_eigen(m):
        raise AssertionError("eigen_small called on a one-dimensional module")

    monkeypatch.setattr(linalg, "eigen_small", no_eigen)
    assert is_simple([Matrix([[Scalar(3)]]), Matrix([[Scalar(0)]])], 1)
    assert is_simple([], 1)
    assert not is_simple([], 0)


def _random_poly_reference(rng, varset, candidates):
    """The per-coefficient construction: Scalar sums, then the validating
    LaurentPoly constructor."""
    terms = {}
    for _ in range(1 + rng.below(4)):
        exps = candidates[rng.below(len(candidates))]
        coeff = rng.below(6) + 1
        coeff = coeff - 7 if coeff > 3 else coeff
        terms[exps] = Scalar.coerce(terms.get(exps, 0)) + Scalar(coeff)
    return LaurentPoly(varset, terms)


@pytest.mark.parametrize("laurent", [(), ("z",)])
def test_random_polys_match_the_per_coefficient_construction(laurent):
    """The axiom checker's random operands for DEFAULT_SEED: the same draws in
    the same order give the same polynomials, and the rng ends in one state."""
    varset = VarSet(("x", "y", "z"), laurent)
    candidates = _exponent_candidates(varset)
    got_rng, want_rng = SplitMix(DEFAULT_SEED), SplitMix(DEFAULT_SEED)
    for _ in range(64):
        got = _random_poly(got_rng, varset, candidates)
        want = _random_poly_reference(want_rng, varset, candidates)
        assert got == want and all(not c.is_zero for c in got.terms.values())
    assert got_rng.state == want_rng.state


def prop52_rep():
    labels = ("g1", "g2", "g3", "m1", "m2", "m3", "m4")
    P7 = LieAlgebra.from_brackets(
        labels,
        {
            ("g1", "g2"): {"g3": -1},
            ("g2", "g3"): {"g2": 2},
            ("g1", "g3"): {"g1": -2},
            ("g1", "m2"): {"m3": 1},
            ("g1", "m3"): {"m4": 2},
            ("g1", "m4"): {"m1": 3},
            ("g2", "m1"): {"m4": -1},
            ("g2", "m3"): {"m2": -3},
            ("g2", "m4"): {"m3": -2},
            ("g3", "m1"): {"m1": 3},
            ("g3", "m2"): {"m2": -3},
            ("g3", "m3"): {"m3": -1},
            ("g3", "m4"): {"m4": 1},
        },
    )
    rl = ("r1", "r2", "r3", "r4", "r5")

    def vec(**kw):
        return tuple(Scalar(kw.get(n, 0)) for n in rl)

    entries = {
        ("g1", "r1"): vec(r2=1),
        ("g1", "r3"): vec(r5=1),
        ("g1", "r5"): vec(r4=2),
        ("g2", "r2"): vec(r1=-1),
        ("g2", "r4"): vec(r5=-1),
        ("g2", "r5"): vec(r3=-2),
        ("g3", "r1"): vec(r1=-1),
        ("g3", "r2"): vec(r2=1),
        ("g3", "r3"): vec(r3=-2),
        ("g3", "r4"): vec(r4=2),
        ("m1", "r1"): vec(r4=1),
        ("m2", "r2"): vec(r3=-1),
        ("m3", "r1"): vec(r3=1),
        ("m3", "r2"): vec(r5=-1),
        ("m4", "r1"): vec(r5=1),
        ("m4", "r2"): vec(r4=-1),
    }
    return P7, module_from_table(P7, ActionTable(labels, rl, entries))


def test_prop52_module_facts():
    P7, rep = prop52_rep()
    g3_mat = rep.mats[2]
    assert eig_multiset(g3_mat) == scal_sorted([-2, -1, 0, 1, 2])
    analysis = analyze_submodules(rep.mats, 5)
    assert analysis.complete
    # a simple proper socle with a simple quotient is the only proper submodule
    assert [len(s) for s in analysis.minimal] == [3]
    assert analysis.semisimple is False
    assert not is_simple(rep.mats, 5)
    assert composition_series(rep.mats, 5) == [3, 2]


def test_prop52_sl2_restriction_splits():
    P7, rep = prop52_rep()
    sub = lie_rep_restrict(
        rep, [P7.basis_vector(i) for i in range(3)], ("g1", "g2", "g3")
    )
    analysis = analyze_submodules(sub.mats, 5)
    assert analysis.semisimple is True
    assert sorted(len(s) for s in analysis.decomposition) == [2, 3]
    # each summand is a simple sl2-module
    for summand in analysis.decomposition:
        mats = restrict_action(sub.mats, summand)
        assert is_simple(mats, len(summand))


def test_corrupted_table_rejected():
    P7, rep = prop52_rep()
    labels = P7.labels
    rl = ("r1", "r2", "r3", "r4", "r5")
    entries = {}
    for lie_label, mats in zip(labels, rep.mats):
        for j, m_label in enumerate(rl):
            col = tuple(mats[i, j] for i in range(5))
            if any(not c.is_zero for c in col):
                entries[(lie_label, m_label)] = col
    entries[("g1", "r1")] = tuple(
        Scalar(1 if n == "r3" else 0) for n in rl
    )
    with pytest.raises(IncompatibleTableError):
        module_from_table(P7, ActionTable(labels, rl, entries))


def test_zero_table_is_trivial_rep():
    lie = LieAlgebra.from_brackets(
        ("e", "h", "f"),
        {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
    )
    rep = module_from_table(lie, ActionTable(lie.labels, ("v",), {}))
    assert all(m.is_zero for m in rep.mats)


def test_twist_examples(torus_pres):
    vs = torus_pres.varset
    x, y, z = (LaurentPoly.variable(vs, n) for n in vs.names)
    j2 = PointP(vs, [2, 2, 2])
    lie = lie_from_point(torus_pres, j2)
    module = lift_module(torus_pres, j2, sl2_irrep(lie, 2, find_sl2_triple(lie)))
    theta_x = SubstitutionMap.from_dict(vs, {"x": x, "y": -y, "z": -z})
    twisted = twist(module, theta_x)
    assert twisted.point == PointP(vs, [2, -2, -2])
    assert is_simple_module(twisted) == is_simple_module(module)
    assert verify_poisson_axioms(twisted, trials=4).ok

    ident = SubstitutionMap.from_dict(
        vs, {n: LaurentPoly.variable(vs, n) for n in vs.names}
    )
    assert twist(module, ident) == module


def test_twist_requires_poisson_map(torus_pres):
    vs = torus_pres.varset
    x, y, z = (LaurentPoly.variable(vs, n) for n in vs.names)
    j2 = PointP(vs, [2, 2, 2])
    lie = lie_from_point(torus_pres, j2)
    module = lift_module(torus_pres, j2, sl2_irrep(lie, 2, find_sl2_triple(lie)))
    bad = SubstitutionMap.from_dict(vs, {"x": x + 1, "y": y, "z": z})
    with pytest.raises(AtlasError):
        twist(module, bad)


def test_restriction_split(a1_pres):
    origin, lie, triple = a1_setup(a1_pres)
    vs = a1_pres.varset
    x, y, z = (LaurentPoly.variable(vs, n) for n in vs.names)
    svs = VarSet(("u", "v", "w"))
    u, v, w = (LaurentPoly.variable(svs, n) for n in svs.names)
    f4 = w**4 * Fraction(1, 4) - u * v
    sub = PoissonPresentation(Exact(f4), relations=(f4,))
    emb = SubstitutionMap.from_dict(
        svs,
        {
            "u": x * x * Fraction(1, 8),
            "v": y * y * Fraction(1, 8),
            "w": z * Fraction(1, 2),
        },
    )
    for d in (1, 2, 3, 4):
        module = lift_module(a1_pres, origin, sl2_irrep(lie, d, triple))
        restricted = restrict_to_subalgebra(module, emb, sub)
        assert restricted.point == PointP(svs, [0, 0, 0])
        assert eig_multiset(restricted.mats[2]) == scal_sorted(
            Fraction(2 * j + 1 - d, 4) for j in range(d)
        )
        analysis = analyze_submodules(restricted.mats, d)
        assert analysis.semisimple is True
        assert [len(s) for s in analysis.decomposition] == [1] * d


def test_identity_embedding_is_identity(a1_pres):
    origin, lie, triple = a1_setup(a1_pres)
    module = lift_module(a1_pres, origin, sl2_irrep(lie, 3, triple))
    vs = a1_pres.varset
    ident = SubstitutionMap.from_dict(
        vs, {n: LaurentPoly.variable(vs, n) for n in vs.names}
    )
    same = restrict_to_subalgebra(module, ident, a1_pres)
    assert same == module


def test_solvable_characters(xyz):
    vs, x, y, z = xyz
    # abelian: Example 3.5 formula on a sample polynomial
    from poisson_atlas import Table

    pres = PoissonPresentation(Table(vs, ()))
    pt = PointP(vs, [1, 2, 3])
    beta = (Scalar(5), Scalar(-1), Scalar(Fraction(1, 2)))
    module = solvable_character_module(pres, pt, beta)
    assert verify_poisson_axioms(module).ok
    sample = x * x * z + 4 * y
    expected = sum(
        (b * sample.partial(n).evaluate(pt) for b, n in zip(beta, vs.names)),
        Scalar(0),
    )
    assert module.action_of(sample)[0, 0] == expected

    # Kleinian A_{n-1}, n > 2: characters supported on z only
    kl = PoissonPresentation(Exact(z**4 - x * y))
    origin = PointP(vs, [0, 0, 0])
    tau_mod = solvable_character_module(kl, origin, (0, 0, Scalar(9)))
    assert verify_poisson_axioms(tau_mod).ok
    with pytest.raises(AtlasError):
        solvable_character_module(kl, origin, (Scalar(1), 0, 0))


def test_restrict_to_lie_rejects_zero_dim(a1_pres):
    # modules are nonzero by definition; a 0-dim "module" cannot be built
    origin = PointP(a1_pres.varset, [0, 0, 0])
    with pytest.raises(ValueError):
        sl2_irrep(lie_from_point(a1_pres, origin), 0, find_sl2_triple(lie_from_point(a1_pres, origin)))


def test_isomorphism_bookkeeping(a1_pres):
    origin, lie, triple = a1_setup(a1_pres)
    rep = sl2_irrep(lie, 3, triple)
    module = lift_module(a1_pres, origin, rep)
    # conjugated rep lifts to an isomorphic module
    basis = Matrix([[1, 1, 0], [0, 1, 0], [2, 0, 1]])
    inverse_rows = [list(r) for r in basis.rows]
    cols = []
    for j in range(3):
        unit = [Scalar(1) if i == j else Scalar(0) for i in range(3)]
        cols.append(solve_linear(inverse_rows, unit))
    inv = Matrix(list(zip(*cols)))
    conjugated = LieRep(lie, tuple(inv * m * basis for m in rep.mats))
    other = lift_module(a1_pres, origin, conjugated)
    t = poisson_modules_isomorphic(module, other)
    assert t is not None
    assert lie_reps_isomorphic(rep, conjugated) is not None

    # different dimensions are never isomorphic
    smaller = lift_module(a1_pres, origin, sl2_irrep(lie, 2, triple))
    assert poisson_modules_isomorphic(module, smaller) is None


def _find_isomorphism_reference(mats1, mats2, dim1, dim2):
    """The seeded search that decided isomorphism before Schur's lemma did:
    the intertwiner basis, sums of two basis elements, then 16 SplitMix
    combinations with coefficients in [-50, 50]."""
    from poisson_atlas.linalg import linear_combination
    from poisson_atlas.modules import intertwiner_space

    if dim1 != dim2:
        return None
    space = intertwiner_space(mats1, mats2, dim1, dim2)
    for t in space:
        if rank([list(r) for r in t.rows]) == dim1:
            return t
    for i in range(len(space)):
        for j in range(i + 1, len(space)):
            t = space[i] + space[j]
            if rank([list(r) for r in t.rows]) == dim1:
                return t
    if len(space) < 2:
        return None
    rng = SplitMix(DEFAULT_SEED)
    for _ in range(16):
        coeffs = [rng.below(101) - 50 for _ in space]
        t = linear_combination(coeffs, space, dim2, dim1)
        if rank([list(r) for r in t.rows]) == dim1:
            return t
    return None


def _unitriangular_conjugates(mats, d):
    """U^-1 m U for the fixed unitriangular U with U[i][j] = j - i + 1 above
    the diagonal; U^-1 is the finite sum of (-N)^k for N = U - 1."""
    u = Matrix([[1 if i == j else (j - i + 1 if j > i else 0) for j in range(d)] for i in range(d)])
    minus_n = Matrix.identity(d) - u
    inverse, power = Matrix.identity(d), Matrix.identity(d)
    for _ in range(d - 1):
        power = power * minus_n
        inverse = inverse + power
    assert inverse * u == Matrix.identity(d)
    return [inverse * m * u for m in mats]


@pytest.mark.parametrize(
    "point", [("kleinian-a1", (0, 0, 0)), ("uqsl2-4hom", (0, 0, Scalar(0, 1, -1)))],
    ids=["Q", "Q(sqrt(-1))"],
)
def test_schur_witness_matches_the_seeded_search_on_sl2_irreps(point):
    from poisson_atlas import get_entry

    name, coords = point
    pres = get_entry(name).presentation
    lie = lie_from_point(pres, PointP(pres.varset, coords))
    triple = find_sl2_triple(lie)
    for d in range(1, 7):
        mats = list(sl2_irrep(lie, d, triple).mats)
        conjugated = _unitriangular_conjugates(mats, d)
        for pair in ((mats, conjugated), (conjugated, mats), (mats, mats)):
            want = _find_isomorphism_reference(*pair, d, d)
            assert want is not None
            assert find_isomorphism(*pair, d, d) == want, (name, d)
        smaller = list(sl2_irrep(lie, d + 1, triple).mats)
        assert find_isomorphism(mats, smaller, d, d + 1) is None


def test_schur_witness_matches_the_seeded_search_on_c_theta_restrictions():
    from poisson_atlas import get_entry

    torus = get_entry("torus-so3").presentation
    emb, sub = get_entry("c-theta").embeds["theta"]
    for d in range(1, 5):
        restricted = []
        for coords in ((2, 2, 2), (2, -2, -2)):
            pt = PointP(torus.varset, list(coords))
            lie = lie_from_point(torus, pt)
            module = lift_module(torus, pt, sl2_irrep(lie, d, find_sl2_triple(lie)))
            restricted.append(restrict_to_subalgebra(module, emb, sub))
        m1, m2 = restricted
        want = _find_isomorphism_reference(m1.mats, m2.mats, d, d)
        assert want is not None
        assert poisson_modules_isomorphic(m1, m2) == want


def test_distinct_characters_are_not_isomorphic():
    one, two = Matrix([[1]]), Matrix([[2]])
    assert find_isomorphism([one], [two], 1, 1) is None
    assert find_isomorphism([one], [one], 1, 1) == Matrix([[1]])


def test_trivial_module_isomorphism_is_not_determined():
    # every intertwiner of the 3-dimensional trivial module is a 3x3 matrix,
    # and neither side is simple, so Schur's lemma decides nothing
    zero = Matrix([[0] * 3 for _ in range(3)])
    with pytest.raises(AtlasError, match="isomorphism not determined: neither module is simple"):
        find_isomorphism([zero, zero], [zero, zero], 3, 3)


def test_a_family_of_another_length_is_refused(a1_pres):
    # zip would drop B and return a witness that ignores it
    origin, lie, triple = a1_setup(a1_pres)
    e, h, _ = sl2_irrep(lie, 2, triple).mats
    with pytest.raises(ValueError, match="2 action matrices against 1"):
        find_isomorphism([h, e], [h], 2, 2)


def test_a_matrix_of_the_wrong_shape_is_refused():
    with pytest.raises(ValueError, match="an action matrix is not 2 x 2"):
        find_isomorphism([Matrix.identity(2)], [Matrix.identity(3)], 2, 2)
    with pytest.raises(ValueError, match="an action matrix is not 3 x 3"):
        find_isomorphism([Matrix.identity(3)], [Matrix([[0] * 2 for _ in range(3)])], 3, 3)


def test_distinct_points_never_isomorphic(torus_pres):
    vs = torus_pres.varset
    mods = []
    for coords in ((2, 2, 2), (2, -2, -2)):
        pt = PointP(vs, coords)
        lie = lie_from_point(torus_pres, pt)
        mods.append(lift_module(torus_pres, pt, sl2_irrep(lie, 2, find_sl2_triple(lie))))
    assert poisson_modules_isomorphic(mods[0], mods[1]) is None


def test_a_presentation_read_back_from_its_file_is_the_same_presentation():
    """A presentation is its bracket and its relations: the catalog's torus and
    the one parsed from its serialized file are equal, so one module over each
    at (2, 2, 2) is isomorphic to the other."""
    from pathlib import Path

    from poisson_atlas import get_entry, parse_presentation

    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "torus-so3.pa"
    parsed = parse_presentation(path.read_text(encoding="utf-8")).presentation
    assert parsed == get_entry("torus-so3").presentation
    assert hash(parsed) == hash(get_entry("torus-so3").presentation)
    pt = PointP(parsed.varset, (2, 2, 2))
    lie = lie_from_point(parsed, pt)
    ours = lift_module(parsed, pt, sl2_irrep(lie, 2, find_sl2_triple(lie)))
    assert poisson_modules_isomorphic(_catalog_lift("torus-so3", (2, 2, 2), 2), ours) is not None


def _catalog_lift(name, coords, d):
    from poisson_atlas import get_entry

    pres = get_entry(name).presentation
    pt = PointP(pres.varset, coords)
    lie = lie_from_point(pres, pt)
    return lift_module(pres, pt, sl2_irrep(lie, d, find_sl2_triple(lie)))


# (ok, checks, failures) of the default verify run on one +1 perturbation each,
# as recorded before the failure labels were formatted lazily.
PINNED_FAILURES = {
    ("kleinian-a1", (0, 0, 0), 3, (0, 0, 1)): (False, 121, [
        ("axiom (i)", "(a, b) = (x, y)"),
        ("axiom (i)", "(a, b) = (x, z)"),
        ("axiom (i)", "(a, b) = trial 2: (y^2*z + z^3 - 3*y*z + y, 2*x^2 + 3*x + z - 2)"),
        ("axiom (i)", "(a, b) = trial 12: (-2*y^2 - y, -2*x*y*z + 3*y^2*z + 2*x)"),
        ("axiom (i)", "(a, b) = trial 21: (2*z^3 + y, x^2*y - x*y^2 + x)"),
    ]),
    ("uqsl2-4hom", (0, 0, Scalar(0, 1, -1)), 2, (2, 1, 0)): (False, 121, [
        ("axiom (i)", "(a, b) = (x, y)"),
        ("axiom (i)", "(a, b) = (x, z)"),
        ("axiom (i)", "(a, b) = trial 8: (x, -3*y*z)"),
        ("axiom (i)", "(a, b) = trial 12: (-z^3 - 2*y*z, 3*y*z^2 - 2*x*z^-1 + 2*z^-1)"),
        ("axiom (i)", "(a, b) = trial 13: (-x^2*z - 3*x*z^2 - 3*z^3 + x*y, y^2 - 2*z^2)"),
        ("axiom (i)", "(a, b) = trial 16: (x*z^-1, -x^3 + 2*y^2*z - x + 3*z)"),
        ("axiom (i)", "(a, b) = trial 18: (-3*y*z^2 + 2*x^2, -x*z^2 + 3*x + z)"),
        ("axiom (i)", "(a, b) = trial 19: (3*x*z^2 + y^2*z^-1 + 2*y - 2, -y^2*z + z^3 + 1)"),
        ("axiom (i)", "(a, b) = trial 21: (2*z^2 + x*z^-1, y*z^2 + y^2 - x)"),
        ("axiom (i)", "(a, b) = trial 23: (-2*x^3*z^-1 + 3*x*z - y^3*z^-1 + 2*y, 3*y - 3*x*z^-1)"),
        ("axiom (i)", "(a, b) = trial 24: (-2*y + 1, -x*z^-1)"),
        ("axiom (i)", "(a, b) = trial 25: (-2*x^2*z + 3*z - 3*x*z^-1, 2*x^3 + 3*x*y^2 + 2*z^3 + 2*z)"),
        ("axiom (i)", "(a, b) = trial 26: (2*y^3 + 2*x^2*y*z^-1 - 2*x*z + x*y*z^-1, "
                      "-x*z^2 + y^3 + 3*x*y + z)"),
    ]),
}


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    st.sampled_from([
        ("kleinian-a1", (0, 0, 0)), ("torus-so3", (2, 2, 2)), ("torus-so3", (0, 0, 0)),
        ("uqsl2-4hom", (0, 0, Scalar(0, 1, -1))), ("uqsl2-equitable", (1, 1, 1)),
    ]),
    st.integers(1, 4),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 3)),
             max_size=3),
)
def test_simplicity_of_perturbed_lifts_matches_the_hull(point, d, changes):
    """Lifts at sl2 points over Q and Q(sqrt(-1)) with +1 added to some
    action-matrix entries: the weight-vector certificate, or its fallback,
    agrees with the density hull."""
    module = _catalog_lift(*point, d)
    for g, r, c in changes:
        module = perturbed(module, g, r % d, c % d)
    assert is_simple_module(module) is associative_hull_is_full(list(module.mats), d)


@pytest.mark.parametrize("case", list(PINNED_FAILURES), ids=lambda case: case[0])
def test_verify_failure_reports_are_pinned(case):
    name, coords, d, (g, r, c) = case
    report = verify_poisson_axioms(perturbed(_catalog_lift(name, coords, d), g, r, c))
    assert (report.ok, report.checks, report.failures) == PINNED_FAILURES[case]


def test_passing_verify_formats_no_witness(monkeypatch):
    module = _catalog_lift("uqsl2-4hom", (0, 0, Scalar(0, 1, -1)), 3)

    def no_format(p):
        raise AssertionError("a witness label was formatted")

    monkeypatch.setattr(LaurentPoly, "__str__", no_format)
    report = verify_poisson_axioms(module)
    assert report.ok and report.checks == 121


def _verify_reference(module, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED):
    """The axiom checker that builds and compares d x d matrices for every
    pair: the reference for the checks `verify_poisson_axioms` makes in
    coordinates.  Same checks, same order, same labels."""
    pres, pt, dim = module.pres, module.point, module.dim
    varset, spec = pres.varset, pres.bracket_spec
    report = AxiomReport(True)
    gens = [LaurentPoly.variable(varset, n) for n in varset.names]

    def check_pair(p, q, label):
        br = bracket(spec, p, q)
        rho_p, rho_q = module.action_of(p), module.action_of(q)
        report.record(module.action_of(br) == rho_p.commutator(rho_q), "axiom (i)",
                      f"(a, b) = {label}")
        report.record(br.evaluate(pt).is_zero, "axiom (ii)",
                      f"{{a, b}}(pt) != 0 for (a, b) = {label}")
        rhs = rho_q.scale(p.evaluate(pt)) + rho_p.scale(q.evaluate(pt))
        report.record(module.action_of(p * q) == rhs, "axiom (iii)", f"(a, b) = {label}")

    names = varset.names
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            check_pair(gens[i], gens[j], f"({names[i]}, {names[j]})")
    report.record(module.action_of(LaurentPoly.const(varset, 1)).is_zero,
                  "Pann contains constants", "{1, -} != 0")
    shifted = [g - pt.values[i] for i, g in enumerate(gens)]
    for i in range(len(gens)):
        for j in range(i, len(gens)):
            report.record(module.action_of(shifted[i] * shifted[j]).is_zero,
                          "Pann contains J^2", f"generators ({names[i]}, {names[j]})")
    for k in range(len(gens)):
        for l in range(len(gens)):
            report.record(bracket(spec, gens[k], shifted[l]).evaluate(module.point).is_zero,
                          "J is a Poisson ideal", f"{{{names[k]}, {names[l]} - pt}} escapes J")
    rng = SplitMix(seed)
    candidates = _exponent_candidates(varset)
    for t in range(trials):
        p = _random_poly(rng, varset, candidates)
        q = _random_poly(rng, varset, candidates)
        check_pair(p, q, f"trial {t}: ({p}, {q})")
    return report


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize(
    "point", [("torus-so3", (2, 2, 2)), ("uqsl2-4hom", (0, 0, Scalar(0, 1, -1)))],
    ids=["Q", "Q(sqrt(-1))"],
)
def test_coordinate_checks_match_matrix_comparison(point, d):
    """The lift and each of its single-entry +1 mutants: the coordinate checks
    report the same failures and count the same checks as the reference."""
    module = _catalog_lift(*point, d)
    mutants = [module] + [
        perturbed(module, g, r, c) for g in range(3) for r in range(d) for c in range(d)
    ]
    for mutant in mutants:
        got, want = verify_poisson_axioms(mutant), _verify_reference(mutant)
        assert (got.ok, got.checks, got.failures) == (want.ok, want.checks, want.failures)
    assert verify_poisson_axioms(module).ok


def _cold_copy(module):
    """The module on a fresh presentation and point equal to its own, with no
    kept obligations."""
    pres = PoissonPresentation(module.pres.bracket_spec, module.pres.relations)
    return PoissonModule(pres, PointP(pres.varset, module.point.values), module.mats)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize(
    "point", [("torus-so3", (2, 2, 2)), ("uqsl2-4hom", (0, 0, Scalar(0, 1, -1)))],
    ids=["Q", "Q(sqrt(-1))"],
)
def test_kept_obligations_name_their_own_pairs(point, d):
    """Every mutant verified on a cold point and again on the warmed shared
    point reports what the reference reports: a kept witness names its own
    pair, not the last one of the loop that built the obligations."""
    module = _catalog_lift(*point, d)
    assert verify_poisson_axioms(module).ok  # warms module.point
    for g in range(3):
        for r in range(d):
            for c in range(d):
                mutant = perturbed(module, g, r, c)
                want = _verify_reference(mutant)
                for got in (verify_poisson_axioms(_cold_copy(mutant)),
                            verify_poisson_axioms(mutant)):
                    assert (got.ok, got.checks, got.failures) == (
                        want.ok, want.checks, want.failures)


@pytest.mark.parametrize("case", list(PINNED_FAILURES), ids=lambda case: case[0])
def test_pinned_failures_hold_on_a_warm_point(case):
    name, coords, d, (g, r, c) = case
    module = _catalog_lift(name, coords, d)
    assert verify_poisson_axioms(module).ok
    for _ in range(2):
        report = verify_poisson_axioms(perturbed(module, g, r, c))
        assert (report.ok, report.checks, report.failures) == PINNED_FAILURES[case]


def test_a_second_verify_at_a_point_reuses_its_obligations(monkeypatch):
    import poisson_atlas.modules as modules
    from poisson_atlas import get_entry

    pres = get_entry("kleinian-a1").presentation
    origin = PointP(pres.varset, (0, 0, 0))
    lie = lie_from_point(pres, origin)
    triple = find_sl2_triple(lie)
    # the second lift sits at an equal point, not this one: obligations are kept by value
    first, second = (lift_module(pres, pt, sl2_irrep(lie, d, triple))
                     for pt, d in ((origin, 2), (PointP(pres.varset, (0, 0, 0)), 3)))
    assert verify_poisson_axioms(first).ok

    def refuse(*args):
        raise AssertionError("the point's obligations were built again")

    monkeypatch.setattr(modules, "bracket", refuse)
    monkeypatch.setattr(modules, "_random_poly", refuse)
    report = verify_poisson_axioms(second)
    monkeypatch.undo()
    want = _verify_reference(second)
    assert (report.ok, report.checks, report.failures) == (want.ok, want.checks, want.failures)
    # other trials or another seed are other obligations
    monkeypatch.setattr(modules, "_random_poly", refuse)
    with pytest.raises(AssertionError, match="built again"):
        verify_poisson_axioms(second, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED + 1)


def _torus_shear():
    from poisson_atlas import get_entry

    pres = get_entry("torus-so3").presentation
    x, y, z = (pres.gen(n) for n in "xyz")
    return SubstitutionMap.from_dict(pres.varset, {"x": x, "y": y, "z": z + 1})


def test_a_non_poisson_map_is_refused_on_every_twist(monkeypatch):
    import poisson_atlas.brackets as brackets

    shear = _torus_shear()
    module = _catalog_lift("torus-so3", (2, 2, 2), 2)
    with pytest.raises(AtlasError, match="not a Poisson map") as first:
        twist(module, shear)

    def refuse(*args):
        raise AssertionError("the map was checked again")

    monkeypatch.setattr(brackets, "bracket", refuse)
    with pytest.raises(AtlasError, match="not a Poisson map") as second:
        twist(module, shear)
    assert str(second.value) == str(first.value)
    # the kept report is outside ==, hash and repr
    fresh = SubstitutionMap(shear.source, shear.images)
    assert fresh == shear and hash(fresh) == hash(shear) and repr(fresh) == repr(shear)


def test_restricting_twice_along_one_map_checks_it_once(monkeypatch):
    import poisson_atlas.brackets as brackets
    from poisson_atlas import get_entry
    from poisson_atlas.catalog import Context

    entry = get_entry("kleinian-a1")
    emb, sub = entry.embeds["pi4"]
    module = Context(entry).lift((0, 0, 0), 3)
    calls = []
    real = brackets.bracket
    monkeypatch.setattr(brackets, "bracket", lambda *a: calls.append(a) or real(*a))
    first = restrict_to_subalgebra(module, emb, sub)
    assert len(calls) == 3  # one map check: {m(u), m(v)}, {m(u), m(w)}, {m(v), m(w)}
    second = restrict_to_subalgebra(module, emb, sub)
    assert first == second and len(calls) == 3
