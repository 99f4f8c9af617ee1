from fractions import Fraction

import pytest

from poisson_atlas import (
    Exact,
    LaurentPoly,
    LieAlgebra,
    PointP,
    PoissonPresentation,
    SearchBox,
    Table,
    VarSet,
    classify_simple_modules,
    derived_series,
    find_poisson_maximal,
    find_sl2_triple,
    homogeneity_report,
    is_solvable,
    lie_from_point,
    recognize,
)
from poisson_atlas.classify import killing_matrix, lower_central_series
from poisson_atlas.errors import AtlasError
from poisson_atlas.linalg import Matrix
from poisson_atlas.modules import SplitMix
from poisson_atlas.scalars import Scalar

SL2 = LieAlgebra.from_brackets(
    ("e", "h", "f"),
    {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
)

P7 = LieAlgebra.from_brackets(
    ("g1", "g2", "g3", "m1", "m2", "m3", "m4"),
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


def whitney_lie(alpha):
    return LieAlgebra.from_brackets(
        ("u", "y", "z"),
        {("u", "y"): {"z": -2}, ("z", "u"): {"y": 2 * alpha}},
    )


def test_derived_series_whitney():
    assert derived_series(whitney_lie(1)) == [3, 2, 0]
    assert is_solvable(whitney_lie(1))


def test_derived_series_sl2():
    assert derived_series(SL2) == [3, 3]
    assert not is_solvable(SL2)


def test_derived_series_abelian():
    for n in (1, 2, 4):
        ab = LieAlgebra(
            tuple(f"u{i}" for i in range(n)),
            [[[Scalar(0)] * n for _ in range(n)] for _ in range(n)],
        )
        assert derived_series(ab) == [n, 0]


def test_recognize_abelian_heisenberg_solvable():
    assert recognize(whitney_lie(0)).tag == "heisenberg"
    rec = recognize(whitney_lie(1))
    assert rec.tag == "solvable"
    assert rec.derived_dims == [3, 2, 0]
    ab = LieAlgebra(("u", "v"), [[[Scalar(0)] * 2] * 2] * 2)
    assert recognize(ab).tag == "abelian"


def test_recognize_sl2():
    assert recognize(SL2).tag == "sl2"


def test_recognize_p7():
    rec = recognize(P7)
    assert rec.tag == "sl2_semidirect"
    assert rec.radical_dim == 4
    assert rec.describe() == "sl2_semidirect(4)"
    assert rec.levi_indices == (0, 1, 2)


def test_recognize_kleinian_an_solvable(xyz):
    vs, x, y, z = xyz
    for n in (3, 4, 5):
        pres = PoissonPresentation(vs, Exact(z**n - x * y))
        rec = recognize(lie_from_point(pres, PointP(vs, [0, 0, 0])))
        assert rec.tag == "solvable"


def test_recognize_basis_independent():
    rng = SplitMix(31)

    def random_invertible(n):
        while True:
            rows = [[Scalar(rng.below(7) - 3) for _ in range(n)] for _ in range(n)]
            m = Matrix(rows)
            from poisson_atlas.linalg import rank

            if rank(rows) == n:
                return m

    for lie in (SL2, P7):
        tag = recognize(lie).describe()
        for _ in range(3):
            conjugated = lie.change_basis(random_invertible(lie.dim))
            assert recognize(conjugated).describe() == tag


# sl2 acting on its 2-dimensional simple module span(v1, v2), v1 of weight 1
SL2_C2 = LieAlgebra.from_brackets(
    ("e", "h", "f", "v1", "v2"),
    {
        ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1},
        ("e", "v2"): {"v1": 1}, ("f", "v1"): {"v2": 1},
        ("h", "v1"): {"v1": 1}, ("h", "v2"): {"v2": -1},
    },
)


@pytest.mark.parametrize(
    "lie, tag",
    [(SL2_C2, "sl2_semidirect(2)"), (P7, "sl2_semidirect(4)")],
    ids=["sl2+C2", "P7"],
)
def test_recognize_builds_each_ad_matrix_once(monkeypatch, lie, tag):
    calls = []
    ad_matrix = LieAlgebra.ad_matrix
    monkeypatch.setattr(
        LieAlgebra, "ad_matrix", lambda self, u: calls.append(u) or ad_matrix(self, u)
    )
    assert recognize(lie).describe() == tag
    assert len(calls) == lie.dim


def test_killing_radical_matches():
    kernel_dim = sum(
        1
        for row in killing_matrix([P7.ad_matrix(P7.basis_vector(i)) for i in range(7)]).rows
        if all(c.is_zero for c in row)
    )
    # the Killing form vanishes exactly on the 4-dimensional radical block
    assert kernel_dim == 4


def test_triple_section_45_displayed_constants():
    # [x, y] = 2w, [y, w] = -2y, [w, x] = -2x
    lie = LieAlgebra.from_brackets(
        ("x", "y", "w"),
        {("x", "y"): {"w": 2}, ("y", "w"): {"y": -2}, ("w", "x"): {"x": -2}},
    )
    tri = find_sl2_triple(lie)
    assert tri.verify(lie)
    assert tri.e == (Scalar(0), Scalar(1), Scalar(0))  # y
    assert tri.h == (Scalar(0), Scalar(0), Scalar(1))  # w
    assert tri.f == (Scalar(Fraction(-1, 2)), Scalar(0), Scalar(0))  # -x/2


def test_triple_section_42(a1_pres):
    L = lie_from_point(a1_pres, PointP(a1_pres.varset, [0, 0, 0]))
    tri = find_sl2_triple(L)
    assert tri.verify(L)
    assert tri.e == (Scalar(0), Scalar(1), Scalar(0))
    assert tri.h == (Scalar(0), Scalar(0), Scalar(2))
    assert tri.f == (Scalar(-1), Scalar(0), Scalar(0))
    assert tri.discriminant == 0


def test_triple_torus_extension(torus_pres):
    L = lie_from_point(torus_pres, PointP(torus_pres.varset, [0, 0, 0]))
    tri = find_sl2_triple(L)
    assert tri.verify(L)
    assert tri.discriminant == -1


def test_triple_on_p7_levi():
    tri = find_sl2_triple(P7)
    assert tri.verify(P7)
    # (e, h, f) = (g1, g3, -g2)
    assert tri.e == tuple(Scalar(c) for c in (1, 0, 0, 0, 0, 0, 0))
    assert tri.h == tuple(Scalar(c) for c in (0, 0, 1, 0, 0, 0, 0))
    assert tri.f == tuple(Scalar(c) for c in (0, -1, 0, 0, 0, 0, 0))


def test_triple_rejected_for_solvable():
    with pytest.raises(AtlasError):
        find_sl2_triple(whitney_lie(1))


def test_classify_simple_modules():
    cat = classify_simple_modules(SL2)
    assert cat.kind == "one_per_dimension"
    assert cat.count_in_dimension(1) == 1 and cat.count_in_dimension(9) == 1

    cat1 = classify_simple_modules(whitney_lie(1))
    assert cat1.kind == "characters"
    assert cat1.character_space_dim == 1
    assert cat1.annihilation_dim == 2
    assert cat1.count_in_dimension(1) == "continuum"
    assert cat1.count_in_dimension(2) == 0

    cat0 = classify_simple_modules(whitney_lie(0))
    assert cat0.character_space_dim == 2
    assert cat0.annihilation_dim == 1


def test_classify_rejects_unrecognized():
    # sl2 x sl2 is perfect of dimension 6 with zero radical: unrecognized here
    labels = ("e1", "h1", "f1", "e2", "h2", "f2")
    table = {}
    for base in (0, 3):
        e, h, f = labels[base], labels[base + 1], labels[base + 2]
        table[(h, e)] = {e: 2}
        table[(h, f)] = {f: -2}
        table[(e, f)] = {h: 1}
    double = LieAlgebra.from_brackets(labels, table)
    rec = recognize(double)
    assert rec.tag == "unrecognized"
    with pytest.raises(AtlasError):
        classify_simple_modules(double, rec)


def test_homogeneity_torus(torus_pres):
    ideals = find_poisson_maximal(torus_pres, SearchBox(3, 1))
    f = torus_pres.relations[0]
    assert homogeneity_report(torus_pres, ideals).verdict == "5-homogeneous"
    assert homogeneity_report(torus_pres, ideals, f).verdict == "4-homogeneous"
    assert homogeneity_report(torus_pres, ideals, f - 4).verdict == "1-homogeneous"


def test_homogeneity_uqsl2(xyz_laurent):
    from poisson_atlas import Scaled

    vs, x, y, z = xyz_laurent
    pres = PoissonPresentation(vs, Scaled(2 * z, x * y + z + z**-1))
    ideals = find_poisson_maximal(pres, SearchBox(3, 1))
    assert homogeneity_report(pres, ideals).verdict == "2-homogeneous"


def test_homogeneity_continuum(xyz):
    vs, x, y, z = xyz
    pres = PoissonPresentation(vs, Exact(z**3 - x * y))
    ideals = find_poisson_maximal(pres, SearchBox(2, 1))
    rep = homogeneity_report(pres, ideals)
    assert not rep.is_homogeneous
    assert "continuum" in rep.verdict
    formula = rep.count_formula()
    assert formula["d >= 2"] == 0
    assert "continuum" in formula["d = 1"]


def test_lower_central_heisenberg():
    assert lower_central_series(whitney_lie(0))[-1] == 0
    assert lower_central_series(whitney_lie(1))[-1] != 0


def _catalog_algebras():
    """(label, g(J)) at every Poisson-maximal point of every catalog entry
    with a presentation, and the algebra of every Lie-level entry."""
    from poisson_atlas.catalog import Context, catalog_names, get_entry

    for name in catalog_names():
        entry = get_entry(name)
        ctx = Context(entry)
        if entry.presentation is None:
            yield name, ctx.lie()
            continue
        for ideal in ctx.ideals:
            yield f"{name} at {ideal.point}", ctx.lie(ideal.point)


def test_recognition_of_every_catalog_algebra_needs_no_density_hull(monkeypatch):
    """Recognition decides every sl2_semidirect radical of the catalog by the
    weight-vector certificate, with the verdicts the density hull gives."""
    import poisson_atlas.classify as classify_module
    from poisson_atlas.linalg import associative_hull_is_full

    algebras = list(_catalog_algebras())
    with monkeypatch.context() as patch:
        patch.setattr(classify_module, "is_simple", associative_hull_is_full)
        by_hull = [recognize(lie) for _, lie in algebras]

    def no_hull(mats, dim):
        raise AssertionError("the density hull ran")

    monkeypatch.setattr("poisson_atlas.linalg.associative_hull_is_full", no_hull)
    for (label, lie), want in zip(algebras, by_hull):
        assert recognize(lie) == want, label
    tags = {rec.describe() for rec in by_hull}
    assert {"sl2_semidirect(4)", "sl2_semidirect(5)", "sl2_semidirect(7)"} <= tags
