import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    PERFBENCH_FILES,
    count_in_dimension,
    derived_series,
    killing_matrix,
    rref_coordinates,
    trace_product,
)
from poisson_atlas import (
    Exact,
    LaurentPoly,
    LieAlgebra,
    PointP,
    PoissonPresentation,
    SearchBox,
    Table,
    VarSet,
    catalog_names,
    find_poisson_maximal,
    find_sl2_triple,
    get_entry,
    homogeneity_report,
    lie_from_point,
    recognize,
    recognize_points,
)
from poisson_atlas.classify import (
    LEVI_FACTORS,
    HomogeneityReport,
    LieRecognition,
    Sl2Triple,
    _candidate_elements,
    _canonical_eigvec,
    _derived_spans,
    _RECOGNITIONS_3,
    _recognize_rows,
    _rows_key,
)
from poisson_atlas.errors import (
    AtlasError,
    ExtensionRequiredError,
    NotPoissonMaximalError,
    ParseError,
)
from poisson_atlas.lie import pair_gradients
from poisson_atlas.linalg import (
    IncrementalSpan,
    Matrix,
    associative_hull_is_full,
    coordinates,
    eigen_small,
    kernel_basis,
    restrict_action,
    rank,
    row_space_basis,
)
from poisson_atlas.modules import SplitMix, is_simple, sl2_irrep
from poisson_atlas.presfile import parse_presentation
from poisson_atlas.scalars import ZERO, common_domain
from poisson_atlas.scalars import Scalar

INPUTS = PERFBENCH_FILES[0].parent

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
    assert recognize(whitney_lie(1)).is_solvable_type


def test_derived_series_sl2():
    assert derived_series(SL2) == [3, 3]
    assert not recognize(SL2).is_solvable_type


def test_derived_series_abelian():
    for n in (1, 2, 4):
        ab = LieAlgebra(tuple(f"u{i}" for i in range(n)), {})
        assert derived_series(ab) == [n, 0]


def test_recognize_abelian_heisenberg_solvable():
    assert recognize(whitney_lie(0)).tag == "heisenberg"
    rec = recognize(whitney_lie(1))
    assert rec.tag == "solvable"
    assert rec.derived_dims == [3, 2, 0]
    ab = LieAlgebra(("u", "v"), {})
    assert recognize(ab).tag == "abelian"


def test_recognize_sl2():
    assert recognize(SL2).tag == "sl2"


def _support(triple):
    """The basis indices on which the triple has a nonzero coordinate."""
    return tuple(i for i, cs in enumerate(zip(triple.e, triple.h, triple.f))
                 if any(not c.is_zero for c in cs))


def test_recognize_p7():
    rec = recognize(P7)
    assert rec.tag == "sl2_semidirect"
    assert rec.radical_dim == 4
    assert rec.describe() == "sl2_semidirect(4)"
    assert _support(find_sl2_triple(P7, rec)) == (0, 1, 2)


def test_recognize_kleinian_an_solvable(xyz):
    vs, x, y, z = xyz
    for n in (3, 4, 5):
        pres = PoissonPresentation(Exact(z**n - x * y))
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


def _weyl_g2_lie():
    from poisson_atlas.catalog import Context

    return Context(get_entry("weyl-g2")).lie()


@pytest.mark.parametrize(
    "lie, tag",
    [(SL2_C2, "sl2_semidirect(2)"), (P7, "sl2_semidirect(4)"),
     (_weyl_g2_lie(), "sl2_semidirect(7)")],
    ids=["sl2+C2", "P7", "weyl-g2"],
)
def test_recognize_builds_no_ad_matrix(monkeypatch, lie, tag):
    """The Killing form that finds rad g is read off the structure constants."""
    calls = []
    ad_matrix = LieAlgebra.ad_matrix
    monkeypatch.setattr(
        LieAlgebra, "ad_matrix", lambda self, u: calls.append(u) or ad_matrix(self, u)
    )
    assert recognize(lie).describe() == tag
    assert calls == []


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
    rec = recognize(SL2)
    assert rec.is_sl2_type
    assert count_in_dimension(rec, 1) == 1 and count_in_dimension(rec, 9) == 1

    rec1 = recognize(whitney_lie(1))
    assert rec1.is_solvable_type
    assert rec1.k == 1
    assert rec1.derived_dims[1] == 2
    assert count_in_dimension(rec1, 1) == "continuum"
    assert count_in_dimension(rec1, 2) == 0

    rec0 = recognize(whitney_lie(0))
    assert rec0.k == 2
    assert rec0.derived_dims[1] == 1


def test_classify_sl2_plus_sl2_counts_divisors():
    # sl2 + sl2 is perfect of dimension 6 with zero radical: V_a (x) V_b, ab = d
    double = sl2_sum(2)
    rec = recognize(double)
    assert (rec.levi_dim, rec.k) == (6, 0)
    assert rec.describe() == "reductive(s=6, k=0)"
    assert [count_in_dimension(rec, d) for d in (1, 4, 6)] == [1, 3, 4]
    with pytest.raises(AtlasError):
        find_sl2_triple(double, rec)


def test_an_unidentified_levi_factor_is_undetermined():
    triple = sl2_sum(3)
    rec = recognize(triple)
    assert rec.describe() == "reductive(s=9, k=0)"
    assert count_in_dimension(rec, 2) == "undetermined"
    report = HomogeneityReport([None], [rec])
    assert report.verdict == "undetermined (unidentified Levi factor of dimension 9)"
    assert report.count_formula() == {"d >= 1": "undetermined"}


def test_counts_add_over_points():
    sl2, double, gl2, solvable = (
        recognize(lie) for lie in (SL2, sl2_sum(2), sl2_sum(1, 1), whitney_lie(1))
    )
    formula = lambda *tags: HomogeneityReport([None] * len(tags), list(tags)).count_formula()
    assert formula(sl2, sl2, double) == {"d >= 1": "2 + tau(d)"}
    assert formula(double, double, solvable) == {"d >= 2": "2*tau(d)", "d = 1": "2 + continuum"}
    assert formula(sl2, gl2, solvable) == {"d >= 1": "1 + continuum"}
    report = HomogeneityReport([None, None], [sl2, gl2])
    assert report.verdict == "not t-homogeneous (continuum of classes in every dimension)"


def test_each_levi_factor_counts_its_simple_modules_by_dimension():
    """Each row's N_s(d), evaluated as the reports print it, equals the number
    of simple s-modules of dimension d listed one by one for d <= 60: V_a, of
    dimension a, for sl2, and V_a (x) V_b, of dimension ab, for sl2 + sl2.
    s = 0 prints no count: its one simple module is the trivial one."""
    listed = {
        3: lambda d: [a for a in range(1, d + 1) if a == d],
        6: lambda d: [(a, b) for a in range(1, d + 1) for b in range(1, d + 1) if a * b == d],
    }
    tau = lambda d: sum(1 for a in range(1, d + 1) if d % a == 0)
    assert LEVI_FACTORS.keys() == {0, *listed} and LEVI_FACTORS[0][0] is None
    for s, modules in listed.items():
        text = LEVI_FACTORS[s][0]
        for d in range(1, 61):
            assert eval(text, {"__builtins__": {}, "tau": tau, "d": d}) == len(modules(d)), (s, d)


def test_homogeneity_torus(torus_pres):
    ideals = find_poisson_maximal(torus_pres, SearchBox(3, 1))
    f = torus_pres.relations[0]
    assert homogeneity_report(torus_pres, ideals).verdict == "5-homogeneous"
    assert homogeneity_report(torus_pres, ideals, f).verdict == "4-homogeneous"
    assert homogeneity_report(torus_pres, ideals, f - 4).verdict == "1-homogeneous"


def test_homogeneity_uqsl2(xyz_laurent):
    from poisson_atlas import Scaled

    vs, x, y, z = xyz_laurent
    pres = PoissonPresentation(Scaled(2 * z, x * y + z + z**-1))
    ideals = find_poisson_maximal(pres, SearchBox(3, 1))
    assert homogeneity_report(pres, ideals).verdict == "2-homogeneous"


def test_homogeneity_continuum(xyz):
    vs, x, y, z = xyz
    pres = PoissonPresentation(Exact(z**3 - x * y))
    ideals = find_poisson_maximal(pres, SearchBox(2, 1))
    rep = homogeneity_report(pres, ideals)
    assert rep.verdict == "not t-homogeneous (continuum of 1-dimensional classes)"
    assert "continuum" in rep.verdict
    formula = rep.count_formula()
    assert formula["d >= 2"] == 0
    assert "continuum" in formula["d = 1"]


def _bracket_span(lie, left, right):
    """Basis of span{[u, v] : u in left, v in right}."""
    return list(row_space_basis([lie.bracket(u, v) for u in left for v in right]))


def _lower_central_series(lie):
    full = [lie.basis_vector(i) for i in range(lie.dim)]
    current = full
    dims = [lie.dim]
    while True:
        nxt = _bracket_span(lie, full, current)
        dims.append(len(nxt))
        if len(nxt) == 0 or len(nxt) == len(current):
            return dims
        current = nxt


def _is_nilpotent(lie):
    return _lower_central_series(lie)[-1] == 0


def _recognize_reference(lie):
    """The five-shape ladder that recognition used before the reductive
    quotient (without its dimension cap), the radical's simplicity decided by
    the density hull: (describe(), derived_dims, radical basis), the radical
    set only for sl2_semidirect."""
    dims = derived_series(lie)
    derived = _derived_spans(lie)[1]
    if not derived:
        return "abelian", dims, ()
    ads = [lie.ad_matrix(lie.basis_vector(i)) for i in range(lie.dim)]
    cent = kernel_basis([row for ad in ads for row in ad.rows])
    if lie.dim == 3:
        if len(derived) == 3:
            return "sl2", dims, ()
        if (
            _is_nilpotent(lie)
            and len(derived) == 1
            and IncrementalSpan(cent).contains(derived[0])
        ):
            return "heisenberg", dims, ()
    if dims[-1] == 0:
        return "solvable", dims, ()
    if len(derived) == lie.dim:  # perfect
        radical = kernel_basis([list(r) for r in killing_matrix(ads).rows])
        radical = list(row_space_basis(radical))
        if radical and _bracket_span(lie, radical, radical):
            return "unrecognized", dims, ()
        if lie.dim - len(radical) == 3 and radical:
            if associative_hull_is_full(restrict_action(ads, radical), len(radical)):
                return f"sl2_semidirect({len(radical)})", dims, tuple(radical)
    return "unrecognized", dims, ()


def _recognition_fields(rec):
    """The fields the reference ladder fixes, the radical as a canonical basis."""
    radical = row_space_basis(rec.radical_basis) if rec.radical_basis else ()
    return rec.describe(), rec.derived_dims, radical


def _basis_levi_section(lie, radical):
    """The basis indices the former triple search worked on: the basis vectors
    outside rad g, when there are three and they span a subalgebra."""
    rad = IncrementalSpan(radical)
    levi = tuple(i for i in range(lie.dim) if not rad.contains(lie.basis_vector(i)))
    if len(levi) != 3:
        return ()
    vecs = [lie.basis_vector(i) for i in levi]
    closed = coordinates(vecs, [lie.bracket(u, v) for u in vecs for v in vecs])
    return levi if closed is not None else ()


def _proportionality(vec, ref):
    """Scalar c with vec == c * ref, or None."""
    c = None
    for a, b in zip(vec, ref):
        if b.is_zero:
            if not a.is_zero:
                return None
        else:
            ratio = a / b
            if c is None:
                c = ratio
            elif c != ratio:
                return None
    return c if c is not None else ZERO


def _sl2_triple_reference(lie, rec):
    """The former triple search, inside the Levi subalgebra spanned by basis
    vectors (`_basis_levi_section`); None when there is no such subalgebra."""
    section = list(_basis_levi_section(lie, rec.radical_basis) if rec.radical_basis else range(3))
    if not section:
        return None
    sec_vecs = [lie.basis_vector(i) for i in section]
    to_lie_coords = Matrix(list(zip(*sec_vecs))).apply
    last_error = None
    for combo in _candidate_elements(3):
        cand_sec = tuple(combo.get(k, ZERO) for k in range(3))
        cand = to_lie_coords(cand_sec)
        ad_sec = restrict_action([lie.ad_matrix(cand)], sec_vecs)[0]
        try:
            eig = eigen_small(ad_sec)
        except ExtensionRequiredError as exc:
            last_error = exc
            continue
        nonzero = [(v, mult, vecs) for v, mult, vecs in eig.pairs if not v.is_zero]
        if len(nonzero) != 2:
            continue
        (v1, m1, vecs1), (v2, m2, vecs2) = nonzero
        if m1 != 1 or m2 != 1 or v1 != -v2:
            continue
        lam, evecs, fvecs = (v1, vecs1, vecs2)
        if (lam.b, lam.a) < (ZERO.b, ZERO.a):
            lam, evecs, fvecs = (v2, vecs2, vecs1)
        h = to_lie_coords(tuple(c * (Scalar(2) / lam) for c in cand_sec))
        e = to_lie_coords(_canonical_eigvec(evecs[0]))
        f0 = to_lie_coords(_canonical_eigvec(fvecs[0]))
        gamma = _proportionality(lie.bracket(e, f0), h)
        if gamma is None or gamma.is_zero:
            continue
        f = tuple(c / gamma for c in f0)
        triple = Sl2Triple(e, h, f, common_domain(list(e) + list(h) + list(f)))
        if triple.verify(lie):
            return triple
    raise last_error or AssertionError("no candidate worked")


def _is_triple_modulo(lie, triple, radical):
    """[h,e] = 2e, [h,f] = -2f and [e,f] = h modulo span(radical)."""
    rad = IncrementalSpan(radical)
    e, h, f = triple.e, triple.h, triple.f

    def zero_mod(u, v):
        return rad.contains(tuple(a - b for a, b in zip(u, v)))

    return (
        zero_mod(lie.bracket(h, e), tuple(2 * c for c in e))
        and zero_mod(lie.bracket(h, f), tuple(-2 * c for c in f))
        and zero_mod(lie.bracket(e, f), h)
    )


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
            yield f"{name} at {ideal}", ctx.lie(ideal)


def test_recognition_of_every_catalog_algebra_needs_no_density_hull(monkeypatch):
    """Recognition agrees with the reference ladder on every catalog algebra,
    the ladder deciding each sl2_semidirect radical by the density hull, and
    recognition itself never runs the hull."""
    algebras = list(_catalog_algebras())
    assert len(algebras) == 77
    by_hull = [_recognize_reference(lie) for _, lie in algebras]

    def no_hull(mats, dim):
        raise AssertionError("the density hull ran")

    monkeypatch.setattr("poisson_atlas.linalg.associative_hull_is_full", no_hull)
    for (label, lie), want in zip(algebras, by_hull):
        assert _recognition_fields(recognize(lie)) == want, label
    tags = {want[0] for want in by_hull}
    assert "unrecognized" not in tags
    assert {"sl2_semidirect(4)", "sl2_semidirect(5)", "sl2_semidirect(7)"} <= tags


def test_the_triple_search_in_the_quotient_matches_the_former_search():
    """On every catalog algebra with dim s = 3 the Levi subalgebra lies on
    basis vectors, and the search in g / rad g finds the triple the former
    search found inside that subalgebra."""
    searched = 0
    for label, lie in _catalog_algebras():
        rec = recognize(lie)
        if rec.levi_dim == 3:
            searched += 1
            assert find_sl2_triple(lie, rec) == _sl2_triple_reference(lie, rec), label
            if rec.radical_basis:
                want = _two_elimination_constants(lie, rec)
                assert _quotient_constants(lie, rec) == want, label
    assert searched == 29


def _quotient_constants(lie, rec):
    """The structure table of g / rad g that `find_sl2_triple` builds,
    recorded at its one `LieAlgebra` construction."""
    import poisson_atlas.classify as classify

    seen = []

    def recorded(labels, brackets, original=LieAlgebra):
        seen.append(original(labels, brackets))
        return seen[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(classify, "LieAlgebra", recorded)
        try:
            find_sl2_triple(lie, rec)
        except ExtensionRequiredError:
            pass
    return seen[0].structure_table()


def _two_elimination_constants(lie, rec):
    """The constants of g / rad g as they were solved in two eliminations:
    the section vectors found in a span of rad g, then the coordinates of
    their brackets on the section vectors and rad g, read off the dense
    `rref_coordinates`."""
    rad = IncrementalSpan(rec.radical_basis)
    section = [i for i in range(lie.dim) if rad.add(lie.basis_vector(i))]
    sec_vecs = [lie.basis_vector(i) for i in section]
    brackets = [lie.bracket(u, v) for u in sec_vecs for v in sec_vecs]
    coords = [c[:3] for c in rref_coordinates(sec_vecs + list(rec.radical_basis), brackets)]
    rows = {(a, b): {k: c for k, c in enumerate(coords[3 * a + b]) if not c.is_zero}
            for a in range(3) for b in range(a + 1, 3)}
    return {pair: row for pair, row in rows.items() if row}


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_the_quotient_constants_match_the_two_elimination_solve(data):
    """In any basis over Q or Q(sqrt(-1)), the constants read off the tagged
    span of rad g equal those of the second, dense solve entry for entry."""
    lie, _ = data.draw(_constructions(("sl2_on", "heis")))
    conjugated = lie.change_basis(data.draw(_random_bases(lie.dim)))
    rec = recognize(conjugated)
    assert rec.levi_dim == 3 and rec.radical_basis
    assert _quotient_constants(conjugated, rec) == _two_elimination_constants(conjugated, rec)


def _sl2_triple_every_candidate(lie, recognition=None):
    """The triple search that eigensolves every candidate, the Killing-form
    skip of ad-nilpotent candidates left out; otherwise `find_sl2_triple`."""
    rec = recognition or recognize(lie)
    if rec.levi_dim != 3:
        raise AtlasError(f"no sl2-triple for a {rec.describe()} algebra")
    rad = IncrementalSpan(rec.radical_basis)
    section = [i for i in range(lie.dim) if rad.add(lie.basis_vector(i))]
    sec_vecs = [lie.basis_vector(i) for i in section]
    # [u, v] modulo rad g, in the coordinates of the section vectors
    brackets = [lie.bracket(u, v) for u in sec_vecs for v in sec_vecs]
    coords = [c[:3] for c in coordinates(sec_vecs + list(rec.radical_basis), brackets)]
    quotient = LieAlgebra([lie.labels[i] for i in section],
                          {(a, b): coords[3 * a + b] for a in range(3) for b in range(a + 1, 3)})
    lift = Matrix(list(zip(*sec_vecs))).apply

    last_error = None
    for combo in _candidate_elements(3):
        cand = tuple(combo.get(k, ZERO) for k in range(3))
        try:
            eig = eigen_small(quotient.ad_matrix(cand))
        except ExtensionRequiredError as exc:
            last_error = exc
            continue
        nonzero = [(v, mult, vecs) for v, mult, vecs in eig.pairs if not v.is_zero]
        if len(nonzero) != 2:
            continue
        (v1, m1, vecs1), (v2, m2, vecs2) = nonzero
        if m1 != 1 or m2 != 1 or v1 != -v2:
            continue
        lam, evecs, fvecs = (v1, vecs1, vecs2)
        if (lam.b, lam.a) < (ZERO.b, ZERO.a):  # canonical sign: b > 0, else a > 0
            lam, evecs, fvecs = (v2, vecs2, vecs1)
        h = tuple(c * (Scalar(2) / lam) for c in cand)
        e = _canonical_eigvec(evecs[0])
        f0 = _canonical_eigvec(fvecs[0])
        gamma = _proportionality(quotient.bracket(e, f0), h)
        if gamma is None or gamma.is_zero:
            continue
        f = tuple(c / gamma for c in f0)
        if Sl2Triple(e, h, f).verify(quotient):
            return Sl2Triple(lift(e), lift(h), lift(f), common_domain(e + h + f))
    if last_error is not None:
        raise last_error
    raise AtlasError("no candidate worked for the sl2-triple search")


def _triple_or_error(search, lie, rec):
    try:
        return search(lie, rec)
    except AtlasError as exc:
        return type(exc), str(exc)


@pytest.fixture
def solved(monkeypatch):
    """The ad matrices of the candidates whose +-lam eigenvectors are solved,
    in call order: by `classify._root_vectors` in `find_sl2_triple`, and by
    `eigen_small` in `_sl2_triple_every_candidate`."""
    import poisson_atlas.classify as classify

    seen = []

    def counted_roots(ad, lam, original=classify._root_vectors):
        seen.append(ad)
        return original(ad, lam)

    def counted_eigen(m, original=eigen_small):
        seen.append(m)
        return original(m)

    monkeypatch.setattr(classify, "_root_vectors", counted_roots)
    monkeypatch.setitem(globals(), "eigen_small", counted_eigen)
    return seen


def _nilpotent(m):
    return (m * m * m).is_zero  # ad x on the 3-dimensional s


def test_the_triple_search_skips_only_ad_nilpotent_candidates(solved):
    """Skipping the candidates of Killing square 0 keeps every triple found on
    the catalog algebras with dim s = 3, and no candidate whose eigenvectors
    are solved is ad-nilpotent."""
    searched = 0
    for label, lie in _catalog_algebras():
        rec = recognize(lie)
        if rec.levi_dim == 3:
            searched += 1
            want = _triple_or_error(_sl2_triple_every_candidate, lie, rec)
            del solved[:]
            assert _triple_or_error(find_sl2_triple, lie, rec) == want, label
            assert not any(_nilpotent(m) for m in solved), label
    assert searched == 29


def test_kirillov_kostant_origin_eigensolves_one_candidate(solved):
    """At the origin of sl2*, the first basis candidate is ad-nilpotent and the
    second is semisimple: one candidate solved, where the full search
    eigensolved two."""
    from poisson_atlas.catalog import Context, get_entry

    ctx = Context(get_entry("kirillov-kostant-sl2"))
    (ideal,) = [i for i in ctx.ideals if all(c.is_zero for c in i.values)]
    lie = ctx.lie(ideal)
    rec = recognize(lie)
    every = _sl2_triple_every_candidate(lie, rec)
    assert [_nilpotent(m) for m in solved] == [True, False]
    del solved[:]
    assert find_sl2_triple(lie, rec) == every
    assert [_nilpotent(m) for m in solved] == [False]


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_the_triple_search_skip_keeps_the_triple_in_any_basis(data):
    """The same triple, or the same refusal, on sl2 constructions in a random
    basis over Q or Q(sqrt(-1))."""
    lie, _ = data.draw(_constructions(("sl2_on", "heis", "sl2_on_simple")))
    conjugated = lie.change_basis(data.draw(_random_bases(lie.dim)))
    rec = recognize(conjugated)
    assert _triple_or_error(find_sl2_triple, conjugated, rec) == _triple_or_error(
        _sl2_triple_every_candidate, conjugated, rec
    )


I = Scalar(0, 1, -1)
# bases of sl2 over Q(sqrt(-1)), as (e, h, f) coordinates of their vectors
KILLING_BASES = {
    # kappa(x, x) / 2 = 2 sqrt(-1) = (1 + sqrt(-1))^2 at the first vector
    "irrational square": [(0, (1 + I) / 2, 0), (1, 0, 0), (0, 0, 1)],
    # sqrt(-1) at the first vector, not a square in Q(sqrt(-1)); h follows
    "irrational non-square first": [(1, 0, I / 4), (0, 1, 0), (0, 0, 1)],
    # 2 at the first vector: its root sqrt(2) lies in another extension
    "rational, root in another field": [(1, 0, Fraction(1, 2)), (0, I, 0), (0, 0, 1)],
    # every candidate irrational and no square in Q(sqrt(-1)): a refusal
    "no square anywhere": [
        (1 + I, -1, 1 - 2 * I), (-2 * I, 1 + 2 * I, I), (-I, -1 + I, 2 + I),
    ],
}


def _is_square_in_gaussian_field(c: Scalar) -> bool:
    import sympy

    t = sympy.symbols("t")
    value = sympy.Rational(c.a.numerator, c.a.denominator) + sympy.Rational(
        c.b.numerator, c.b.denominator) * sympy.I
    field = sympy.QQ.algebraic_field(sympy.I)
    return not sympy.Poly(t**2 - value, t, domain=field).is_irreducible


@pytest.mark.parametrize("name", list(KILLING_BASES))
def test_the_triple_from_the_killing_square_matches_the_eigensolves(name, solved):
    """Over Q(sqrt(-1)), lam = sqrt(kappa(x, x) / 2) is taken in the field of
    ad x: the triple, or the refusal, is the one the eigensolve of every
    candidate gives, whether kappa / 2 is a square there or not."""
    columns = [tuple(Scalar.coerce(c) for c in v) for v in KILLING_BASES[name]]
    lie = SL2.change_basis(Matrix(list(zip(*columns))))
    rec = recognize(lie)
    halves = [
        trace_product(lie.ad_matrix(x), lie.ad_matrix(x)) / 2
        for x in (tuple(combo.get(k, ZERO) for k in range(3)) for combo in _candidate_elements(3))
    ]
    squares = [_is_square_in_gaussian_field(c) for c in halves]
    want = _triple_or_error(_sl2_triple_every_candidate, lie, rec)
    del solved[:]
    got = _triple_or_error(find_sl2_triple, lie, rec)
    assert got == want
    if name == "irrational square":
        assert not halves[0].is_rational and squares[0]
        assert len(solved) == 1 and got.discriminant == -1 and got.verify(lie)
    elif name == "no square anywhere":
        assert not any(c.is_rational or squares[k] for k, c in enumerate(halves))
        assert got == (ExtensionRequiredError, "extension beyond quadratic required")
    else:
        assert not squares[0] and squares[1]
        assert len(solved) == 1 and got.verify(lie)


# -- constructions with a known (dim s, k) ----------------------------------------

SL2_TABLE = {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}}


def sl2_on(dims, heis=False):
    """sl2 acting on the sum of its simple modules V_n, n in `dims` (V_1 the
    trivial one).  With `heis`, a central z and [w0, w1] = z on the first V_2
    make that block a Heisenberg algebra, whose radical sl2 leaves no quotient
    character.  (dim s, k) = (3, number of V_1)."""
    labels, table = ["e", "h", "f"], dict(SL2_TABLE)
    for b, n in enumerate(dims):
        w = [f"w{b}_{j}" for j in range(n)]
        labels += w
        for j in range(n):
            if n - 1 - 2 * j:
                table[("h", w[j])] = {w[j]: n - 1 - 2 * j}
            if j >= 1:
                table[("e", w[j])] = {w[j - 1]: j * (n - j)}
            if j < n - 1:
                table[("f", w[j])] = {w[j + 1]: 1}
    if heis:
        b = dims.index(2)
        labels.append("z")
        table[(f"w{b}_0", f"w{b}_1")] = {"z": 1}
    return LieAlgebra.from_brackets(labels, table)


def sl2_sum(copies=2, abelian=0):
    """copies x sl2 + abelian(k): (dim s, k) = (3 * copies, k)."""
    labels, table = [], {}
    for c in range(copies):
        e, h, f = f"e{c}", f"h{c}", f"f{c}"
        labels += [e, h, f]
        table.update({(h, e): {e: 2}, (h, f): {f: -2}, (e, f): {h: 1}})
    return LieAlgebra.from_brackets(labels + [f"c{i}" for i in range(abelian)], table)


def derivation_extension(rows):
    """C^m extended by t acting as the matrix `rows`: solvable, and
    (dim s, k) = (0, m + 1 - rank)."""
    m = len(rows)
    labels = ("t",) + tuple(f"v{i}" for i in range(m))
    table = {
        ("t", f"v{i}"): {f"v{j}": rows[j][i] for j in range(m) if rows[j][i]}
        for i in range(m)
    }
    return LieAlgebra.from_brackets(labels, {key: row for key, row in table.items() if row})


@st.composite
def _constructions(draw, kinds=("sl2_on", "heis", "double", "solvable")):
    """(g, (dim s, k)) for one of the constructions above."""
    kind = draw(st.sampled_from(kinds))
    if kind == "sl2_on":
        dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
        return sl2_on(dims), (3, dims.count(1))
    if kind == "sl2_on_simple":
        return sl2_on([draw(st.integers(2, 5))]), (3, 0)
    if kind == "heis":
        dims = [2] + draw(st.lists(st.integers(1, 3), max_size=1))
        return sl2_on(dims, heis=True), (3, dims.count(1))
    if kind == "double":
        k = draw(st.integers(0, 2))
        return sl2_sum(2, k), (6, k)
    m = draw(st.integers(1, 3))
    rows = draw(st.lists(
        st.lists(st.integers(-1, 1), min_size=m, max_size=m), min_size=m, max_size=m
    ))
    return derivation_extension(rows), (0, m + 1 - rank([[Scalar(c) for c in r] for r in rows]))


@st.composite
def _random_bases(draw, n, discriminants=(0, -1)):
    """An invertible n x n matrix L U, L and U unit-triangular, over Q or Q(sqrt(-1))."""
    d = draw(st.sampled_from(discriminants))
    entry = st.builds(lambda a, b: Scalar(a, b if d else 0, d), st.integers(-2, 2), st.integers(-1, 1))

    def triangle(lower):
        return Matrix([
            [Scalar(1) if i == j else draw(entry) if (j < i) == lower else Scalar(0)
             for j in range(n)]
            for i in range(n)
        ])

    return triangle(True) * triangle(False)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_recognition_pair_matches_the_construction_in_any_basis(data):
    lie, pair = data.draw(_constructions())
    conjugated = lie.change_basis(data.draw(_random_bases(lie.dim)))
    rec = recognize(conjugated)
    assert (rec.levi_dim, rec.k) == pair
    assert rec.derived_dims == recognize(lie).derived_dims


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_recognize_matches_the_reference_where_the_ladder_recognizes(data):
    # the ladder's shapes: sl2 on a simple module, solvable
    lie, _ = data.draw(_constructions(("sl2_on_simple", "solvable")))
    basis = data.draw(_random_bases(lie.dim))
    conjugated = lie.change_basis(basis)
    want = _recognize_reference(conjugated)
    assume(want[0] != "unrecognized")
    rec = recognize(conjugated)
    assert _recognition_fields(rec) == want
    if rec.levi_dim != 3:
        return
    try:
        triple = find_sl2_triple(conjugated, rec)
    except ExtensionRequiredError:
        # the search admits one quadratic extension, so over Q(sqrt(-1)) the
        # eigenvalue rescaling can need a second one
        assert any(not c.is_rational for row in basis.rows for c in row)
        return
    assert _is_triple_modulo(conjugated, triple, rec.radical_basis)
    if _basis_levi_section(conjugated, rec.radical_basis):
        assert triple == _sl2_triple_reference(conjugated, rec)


# sl2 on V_3 in the basis L U, L and U unit-triangular over Z[sqrt(-1)],
# given as their entries off the diagonal {(row, column): entry}
GAUSSIAN_LU_BASES = {
    "L20=-1-sqrt(-1),U01=-sqrt(-1)": ({(2, 0): -1 - I}, {(0, 1): -I}),
    "L20=-2-sqrt(-1),U01=2": ({(2, 0): -2 - I}, {(0, 1): 2}),
}


def _unit_triangular(n, entries):
    return Matrix([[Scalar(1) if i == j else Scalar.coerce(entries.get((i, j), 0))
                    for j in range(n)] for i in range(n)])


@pytest.mark.xfail(strict=True, raises=ExtensionRequiredError, reason=(
    "ROADMAP item 8: the triple search tries basis vectors of g/rad g and their "
    "pairwise sums and differences, and its rescaling admits one quadratic extension"))
@pytest.mark.parametrize("factors", list(GAUSSIAN_LU_BASES.values()),
                         ids=list(GAUSSIAN_LU_BASES))
def test_a_gaussian_basis_of_sl2_on_v3_finds_its_split_triple(factors):
    """The (e, h, f) of sl2 ⋉ V_3, read in the new basis, is a split triple
    over Q(sqrt(-1)); `find_sl2_triple` should find one there."""
    lie = sl2_on([3])
    basis = _unit_triangular(lie.dim, factors[0]) * _unit_triangular(lie.dim, factors[1])
    conjugated = lie.change_basis(basis)
    e, h, f = coordinates(list(zip(*basis.rows)), [lie.basis_vector(k) for k in range(3)])
    assert Sl2Triple(e, h, f, -1).verify(conjugated)
    rec = recognize(conjugated)
    assert rec.describe() == "sl2_semidirect(3)"
    assert _is_triple_modulo(conjugated, find_sl2_triple(conjugated, rec), rec.radical_basis)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_sl2_irreps_build_in_any_rational_basis(data):
    """sl2 on a sum of its simple modules V_n, in a basis that hides the Levi
    subalgebra: the triple found in g / rad g builds a simple module of each
    dimension, the radical acting as zero."""
    lie = sl2_on(data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=2)))
    conjugated = lie.change_basis(data.draw(_random_bases(lie.dim, (0,))))
    rec = recognize(conjugated)
    triple = find_sl2_triple(conjugated, rec)
    assert _is_triple_modulo(conjugated, triple, rec.radical_basis)
    for d in range(1, 5):
        rep = sl2_irrep(conjugated, d, triple, rec.radical_basis)  # LieRep checks the brackets
        assert is_simple(rep.mats, d)


def _recognize_through_the_killing_form(lie):
    """`recognize` as it was before a solvable g skipped the Killing form:
    every g but an abelian one builds it and takes rad g from its kernel."""
    spans = _derived_spans(lie)
    dims = [len(span) for span in spans]
    basis, derived = spans[0], spans[1]
    k = lie.dim - len(derived)
    if not derived:
        return LieRecognition("abelian", dims, 0, k)
    killing = killing_matrix([lie.ad_matrix(u) for u in basis])
    radical = list(row_space_basis(kernel_basis([list(killing.apply(w)) for w in derived])))
    levi_dim = lie.dim - len(radical)
    if levi_dim == 0:
        heisenberg = lie.dim == 3 and len(derived) == 1 and not _bracket_span(lie, basis, derived)
        return LieRecognition("heisenberg" if heisenberg else "solvable", dims, 0, k)
    tag = "reductive" if (levi_dim, k) != (3, 0) else "sl2_semidirect" if radical else "sl2"
    return LieRecognition(tag, dims, levi_dim, k, tuple(radical))


@st.composite
def _every_recognition_shape(draw):
    """abelian, nilpotent, Heisenberg, other solvable, sl2, sl2 on V_n,
    sl2 + abelian or sl2 + sl2."""
    kind = draw(st.sampled_from(("abelian", "nilpotent", "heisenberg", "solvable", "sl2",
                                 "sl2_on", "sl2+abelian", "sl2+sl2")))
    if kind == "abelian":
        return sl2_sum(0, draw(st.integers(1, 3)))
    if kind == "heisenberg":
        return LieAlgebra.from_brackets(("x", "y", "z"), {("x", "y"): {"z": 1}})
    if kind == "sl2":
        return sl2_sum(1)
    if kind == "sl2_on":
        return sl2_on([draw(st.integers(2, 4))])
    if kind == "sl2+abelian":
        return sl2_sum(1, draw(st.integers(1, 2)))
    if kind == "sl2+sl2":
        return sl2_sum(2, draw(st.integers(0, 1)))
    m = draw(st.integers(2, 3))
    entry = st.integers(-1, 1)
    # t acting by a strictly upper triangular matrix gives a nilpotent g
    rows = [[draw(entry) if kind == "solvable" or j > i else 0 for j in range(m)]
            for i in range(m)]
    return derivation_extension(rows)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_recognize_matches_the_killing_form_route_in_any_basis(data):
    """A solvable g is recognized from its derived series alone; the tag, the
    derived dims, dim s, k and the radical basis are those the Killing form
    gives, over Q and Q(sqrt(-1))."""
    lie = data.draw(_every_recognition_shape())
    conjugated = lie.change_basis(data.draw(_random_bases(lie.dim)))
    rec = recognize(conjugated)
    want = _recognize_through_the_killing_form(conjugated)
    assert (rec.tag, rec.derived_dims, rec.levi_dim, rec.k, rec.radical_basis) == (
        want.tag, want.derived_dims, want.levi_dim, want.k, want.radical_basis)


def gl(n):
    """gl_n on the matrix units e_ij: [e_ij, e_kl] = delta_jk e_il - delta_li e_kj."""
    e = lambda i, j: f"e{i}{j}"
    units = [(i, j) for i in range(n) for j in range(n)]
    table = {}
    for a, (i, j) in enumerate(units):
        for k, l in units[a + 1 :]:
            row = {e(i, l): 1} if j == k else {}
            if l == i:
                row[e(k, j)] = -1
            if row:
                table[e(i, j), e(k, l)] = row
    return LieAlgebra.from_brackets([e(i, j) for i, j in units], table)


def _assert_killing_form_by_ad_matrices(lie, label=""):
    """`killing_form` is tr(ad e_a ad e_b) from the ad matrices, and on every
    basis triple kappa([x, y], z) = kappa(x, [y, z])."""
    form = lie.killing_form()
    basis = [lie.basis_vector(i) for i in range(lie.dim)]
    assert form == killing_matrix([lie.ad_matrix(u) for u in basis]), label
    # kappa(w, e_c) is entry c of form w, as the form is symmetric
    kappa = [[form.apply(lie.bracket(x, y)) for y in basis] for x in basis]
    for a, b, c in itertools.product(range(lie.dim), repeat=3):
        assert kappa[a][b][c] == kappa[b][c][a], (label, a, b, c)


def test_the_killing_form_is_the_ad_matrix_form_on_every_catalog_algebra():
    algebras = list(_catalog_algebras())
    assert len(algebras) == 77
    for label, lie in algebras:
        _assert_killing_form_by_ad_matrices(lie, label)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_killing_form_of_gl_n_is_the_ad_matrix_form(n):
    lie = gl(n)
    _assert_killing_form_by_ad_matrices(lie)
    # kappa(x, y) = 2n tr(xy) - 2 tr(x) tr(y) on gl_n
    form = lie.killing_form().rows
    assert form[0][0] == Scalar(2 * n - 2) and form[1][n] == Scalar(2 * n)


@pytest.mark.parametrize("discriminant", [0, -1], ids=["Q", "Q(sqrt(-1))"])
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_the_killing_form_is_the_ad_matrix_form_in_any_basis(discriminant, data):
    lie = data.draw(st.one_of(_every_recognition_shape(), st.builds(gl, st.integers(2, 3))))
    conjugated = lie.change_basis(data.draw(_random_bases(lie.dim, (discriminant,))))
    _assert_killing_form_by_ad_matrices(conjugated)


def test_recognize_past_the_former_dimension_cap():
    lie = sl2_on([11])  # sl2 on its 11-dimensional simple module: dimension 14
    rec = recognize(lie)
    assert rec.describe() == "sl2_semidirect(11)"
    assert (rec.levi_dim, rec.k) == (3, 0)
    triple = find_sl2_triple(lie, rec)
    assert _support(triple) == (0, 1, 2)
    assert triple.verify(lie)


@pytest.mark.parametrize("name", catalog_names())
def test_recognize_points_matches_recognize_at_each_point(name):
    """One recognition per distinct gradient key is the recognition of g(J)
    at every point of the 4/2 box."""
    entry = get_entry(name)
    pres = entry.presentation or entry.invariants.ambient
    box = dataclasses.replace(entry.box, num=4, den=2)
    points = find_poisson_maximal(pres, box)
    fields = lambda rec: (rec.describe(), rec.derived_dims, rec.simple_modules())
    got = [fields(rec) for rec in recognize_points(pres, points)]
    assert got == [fields(recognize(lie_from_point(pres, pt))) for pt in points]


def test_recognize_points_refuses_a_point_that_is_not_poisson(torus_pres):
    vs = torus_pres.varset
    points = [PointP(vs, [2, 2, 2]), PointP(vs, [1, 1, 1])]
    recs = recognize_points(torus_pres, points)
    assert next(recs).describe() == "sl2"
    with pytest.raises(NotPoissonMaximalError, match=r"\(1, 1, 1\) is not a Poisson-maximal"):
        next(recs)


@pytest.mark.parametrize("name", ["torus-so3", "whitney", "abelian(3)", "uqsl2-4hom"])
def test_a_presentation_recognizes_each_distinct_g_once_across_calls(name, monkeypatch):
    """The recognitions are kept on the presentation: `recognize_points` and
    then `homogeneity_report` on the same points recognize each distinct
    g(J) once in all."""
    import poisson_atlas.classify as classify

    entry = get_entry(name)
    pres = entry.presentation
    points = find_poisson_maximal(pres, entry.box)
    distinct = []
    for pt in points:
        lie = lie_from_point(pres, pt)
        if lie not in distinct:
            distinct.append(lie)
    calls = []
    real = classify._recognize_rows
    monkeypatch.setattr(classify, "_recognize_rows", lambda rows: calls.append(rows) or real(rows))
    first = list(recognize_points(pres, points))
    report = homogeneity_report(pres, points)
    assert report.tags == first and len(calls) == len(distinct)
    assert all(a is b for a, b in zip(report.tags, first))
    assert list(recognize_points(pres, points)) == first and len(calls) == len(distinct)


def test_kept_recognitions_leave_equality_hash_and_repr_alone():
    """Two equal presentations stay equal, with equal hashes and reprs, after
    one of them has filled its three memos: recognitions, g(J) at each point
    and the axiom obligations of one lift."""
    from poisson_atlas import lift_module, verify_poisson_axioms

    kept, fresh = (get_entry("torus-so3").presentation for _ in range(2))
    before = repr(kept)
    points = find_poisson_maximal(kept, get_entry("torus-so3").box)
    assert len(list(recognize_points(kept, points))) == 5
    lies = [lie_from_point(kept, pt) for pt in points]
    pt = PointP(kept.varset, (2, 2, 2))
    lie = lie_from_point(kept, pt)
    assert verify_poisson_axioms(lift_module(kept, pt, sl2_irrep(lie, 2, find_sl2_triple(lie)))).ok
    assert len(kept._recognitions) == len(kept._lies) == len(lies) == 5
    assert len(kept._obligations) == 1
    assert not (fresh._recognitions or fresh._lies or fresh._obligations)
    assert kept == fresh and hash(kept) == hash(fresh)
    assert repr(kept) == repr(fresh) == before
    assert {kept: 1}[fresh] == 1


def test_recognize_points_keeps_no_g():
    """`recognize_points` keeps its recognitions only: once it has run over
    whitney's 27 points of the 6/3 box, no g(J) it built is alive and the
    presentation keeps none."""
    import gc

    entry = get_entry("whitney")
    pres = entry.presentation
    points = find_poisson_maximal(pres, dataclasses.replace(entry.box, num=6, den=3))
    assert len(points) == 27
    gc.collect()
    before = {id(o) for o in gc.get_objects() if isinstance(o, LieAlgebra)}
    recs = list(recognize_points(pres, points))
    gc.collect()
    alive = [o for o in gc.get_objects() if isinstance(o, LieAlgebra) and id(o) not in before]
    assert len(recs) == 27 and pres._recognitions
    assert not alive and not pres._lies


def _three_variable_inputs():
    """(name, box) for each perfbench input on three variables that parses:
    box 6/3, and 4/2 for abelian(3), whose every point of 6/3 is Poisson."""
    for path in PERFBENCH_FILES:
        try:
            pf = parse_presentation(path.read_text(encoding="utf-8"))
        except ParseError:
            continue  # c-theta and d-phi: the known serializer defect
        if len(pf.varset) == 3:
            yield path.stem, (4, 2) if path.stem == "abelian(3)" else (6, 3)


@pytest.mark.parametrize("name, box", [pytest.param(*case, id=case[0])
                                       for case in _three_variable_inputs()])
def test_the_memo_keeps_one_shared_recognition_per_distinct_rows(name, box):
    """On three variables the memo holds one entry per distinct pair rows,
    under their flat int key; points with equal rows share it, and each
    entry is one of the five shared recognitions."""
    pf = parse_presentation((INPUTS / f"{name}.pa").read_text(encoding="utf-8"))
    pres = pf.presentation
    points = find_poisson_maximal(pres, SearchBox(*box, tuple(pf.points)))
    recs = list(recognize_points(pres, points))
    rows = [pair_gradients(pres, pt) for pt in points]
    distinct = {}
    for row, rec in zip(rows, recs):
        assert distinct.setdefault(tuple(row.items()), rec) is rec
    kept = pres._recognitions
    assert len(kept) == len(distinct)
    assert all(kept[_rows_key(dict(items))] is rec for items, rec in distinct.items())
    assert all(type(v) is int for key in kept for v in key)
    assert all(any(rec is s for s in _RECOGNITIONS_3.values()) for rec in kept.values())


_ENTRY = st.sampled_from([ZERO, Scalar(1), Scalar(-2), Scalar(Fraction(1, 2)), Scalar(0, 1, -1),
                          Scalar(Fraction(1, 2), -1, -1), Scalar(0, 1, 2)])


@st.composite
def _pair_rows(draw):
    """Rows as `pair_gradients` gives them: some pairs (i, j) in order, each
    with three scalars, a zero row among them now and then."""
    zero_row = st.just((ZERO,) * 3)
    row = st.one_of(zero_row, st.tuples(_ENTRY, _ENTRY, _ENTRY))
    return {ij: draw(row) for ij in ((0, 1), (0, 2), (1, 2)) if draw(st.booleans())}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_pair_rows(), st.data())
def test_two_row_keys_are_equal_exactly_when_the_rows_are(a, data):
    """Equal rows built apart give equal keys of ints, and unequal rows, in
    their pairs or in any scalar (sqrt(2) against sqrt(-1) too), give
    unequal keys.  The second rows are drawn anew, or are the first with one
    scalar drawn again."""
    b = data.draw(_pair_rows())
    if a and data.draw(st.booleans()):
        ij, k = data.draw(st.sampled_from(sorted(a))), data.draw(st.integers(0, 2))
        b = {**a, ij: a[ij][:k] + (data.draw(_ENTRY),) + a[ij][k + 1:]}
    rebuilt = {ij: tuple(Scalar(c.a, c.b, c.d) for c in row) for ij, row in a.items()}
    assert _rows_key(rebuilt) == _rows_key(a) and hash(_rows_key(rebuilt)) == hash(_rows_key(a))
    assert all(type(v) is int for v in _rows_key(a))
    assert (_rows_key(a) == _rows_key(b)) == (list(a.items()) == list(b.items()))


def test_no_caller_changes_a_shared_recognition():
    """The five shared recognitions, `derived_dims` lists and all, are as they
    were after every report that reads recognitions has run: classify and
    homogeneity on each three-variable input, module and verify at an sl2 and
    a heisenberg point, and the whole catalog."""
    import contextlib
    import copy
    import io

    from poisson_atlas.cli import main

    before = copy.deepcopy(_RECOGNITIONS_3)
    requests = [[cmd, str(INPUTS / f"{name}.pa"), "--box-num", "2", "--box-den", "1"]
                for name, _ in _three_variable_inputs() for cmd in ("classify", "homogeneity")]
    requests += [[cmd, str(INPUTS / f"{name}.pa"), "--point", point, "--dim", "1"]
                 for cmd in ("module", "verify")
                 for name, point in (("torus-so3", "(2, 2, 2)"), ("whitney", "(0, 0, 0)"))]
    with contextlib.redirect_stdout(io.StringIO()):
        assert [main(argv) for argv in requests] == [0] * len(requests)
        assert main(["catalog", "run-all"]) == 0
    assert _RECOGNITIONS_3 == before
    assert [rec.derived_dims for rec in _RECOGNITIONS_3.values()] == [
        [3, 3], [3, 0], [3, 1, 0], [3, 1, 0], [3, 2, 0]]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_gl_table_script_parses_to_gl(n):
    """`tests/gl_table.py N`, which writes the CI smokes' gl_N inputs, parses
    to a table whose g(J) at the origin is `gl(n)`, so the two cannot drift."""
    import subprocess
    import sys
    from pathlib import Path

    from poisson_atlas.presfile import parse_presentation

    script = Path(__file__).with_name("gl_table.py")
    text = subprocess.run([sys.executable, str(script), str(n)], capture_output=True,
                          text=True, check=True).stdout
    pres = parse_presentation(text).presentation
    assert pres.varset.names == tuple(f"e{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1))
    origin = PointP(pres.varset, [0] * (n * n))
    assert lie_from_point(pres, origin).structure_table() == gl(n).structure_table()


def _recognize_general(lie):
    """`recognize` as it was before a 3-dimensional g was read off the rank of
    its pair rows: the derived series for every g, and the Killing form for
    one that is not solvable."""
    spans = _derived_spans(lie)
    dims = [len(span) for span in spans]
    basis, derived = spans[0], spans[1]
    k = lie.dim - len(derived)
    if not spans[-1]:
        if not derived:
            return LieRecognition("abelian", dims, 0, k)
        heisenberg = lie.dim == 3 and len(derived) == 1 and not _bracket_span(lie, basis, derived)
        return LieRecognition("heisenberg" if heisenberg else "solvable", dims, 0, k)
    killing = killing_matrix([lie.ad_matrix(u) for u in basis])
    radical = list(row_space_basis(kernel_basis([list(killing.apply(w)) for w in derived])))
    levi_dim = lie.dim - len(radical)
    tag = "reductive" if (levi_dim, k) != (3, 0) else "sl2_semidirect" if radical else "sl2"
    return LieRecognition(tag, dims, levi_dim, k, tuple(radical))


def bianchi(n, a):
    """The 3-dimensional Lie algebra c^k_ij = eps_ijl n^lk + delta^k_j a_i -
    delta^k_i a_j (Ellis & MacCallum), n symmetric with n a = 0."""
    eps = lambda i, j, l: (i - j) * (j - l) * (l - i) // 2
    brackets = {
        (i, j): [sum(eps(i, j, l) * n[l][k] for l in range(3)) + a[i] * (k == j) - a[j] * (k == i)
                 for k in range(3)]
        for i, j in ((0, 1), (0, 2), (1, 2))
    }
    return LieAlgebra(("e1", "e2", "e3"), brackets)


@st.composite
def _bianchi_algebras(draw, klass, rank_n):
    """A Bianchi algebra of class A (a = 0) or B (a = (a1, 0, 0), a1 != 0), n
    diagonal of rank `rank_n`, its zero entries first (in class B, n1 = 0)."""
    nonzero = st.sampled_from((-2, -1, 1, 2))
    diag = [0] * (3 - rank_n) + [draw(nonzero) for _ in range(rank_n)]
    a1 = 0 if klass == "A" else draw(st.sampled_from((1, 2, Fraction(1, 2), -1)))
    n = [[diag[i] if i == j else 0 for j in range(3)] for i in range(3)]
    return bianchi(n, [a1, 0, 0])


@pytest.mark.parametrize("discriminant", [0, -1], ids=["Q", "Q(sqrt(-1))"])
@pytest.mark.parametrize("klass, rank_n", [("A", 0), ("A", 1), ("A", 2), ("A", 3),
                                           ("B", 0), ("B", 1), ("B", 2)])
@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_a_bianchi_algebra_is_recognized_as_the_general_path_does(klass, rank_n, discriminant,
                                                                   data):
    """Every field of a 3-dimensional recognition, read off the rank of the
    pair rows, is the one the derived series and the Killing form give, in a
    random basis over Q and over Q(sqrt(-1))."""
    lie = data.draw(_bianchi_algebras(klass, rank_n))
    conjugated = lie.change_basis(data.draw(_random_bases(3, (discriminant,))))
    assert recognize(conjugated) == _recognize_general(conjugated)


def _recognized_rows(lie, data):
    """`_recognize_rows` on the pair rows of a 3-dimensional `lie`, given as
    `pair_gradients` gives them, {(i, j): [e_i, e_j]} with each row three
    scalars, less some zero rows that `data` draws; asserts that it is the
    recognition that `recognize` and the derived series and Killing form give
    on the algebra those rows build."""
    e = [lie.basis_vector(i) for i in range(3)]
    rows = {(i, j): lie.bracket(e[i], e[j]) for i, j in ((0, 1), (0, 2), (1, 2))}
    dropped = data.draw(st.sets(st.sampled_from(sorted(rows))))
    rows = {ij: row for ij, row in rows.items()
            if not (ij in dropped and all(c.is_zero for c in row))}
    built = LieAlgebra(lie.labels, rows)
    got = _recognize_rows(rows)
    assert got == recognize(built) == _recognize_general(built)
    return got


@pytest.mark.parametrize("discriminant", [0, -1], ids=["Q", "Q(sqrt(-1))"])
@pytest.mark.parametrize("klass, rank_n", [("A", 0), ("A", 1), ("A", 2), ("A", 3),
                                           ("B", 0), ("B", 1), ("B", 2)])
@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_the_pair_rows_of_a_bianchi_algebra_are_recognized_as_the_general_path_does(
        klass, rank_n, discriminant, data):
    lie = data.draw(_bianchi_algebras(klass, rank_n))
    _recognized_rows(lie.change_basis(data.draw(_random_bases(3, (discriminant,)))), data)


@pytest.mark.parametrize("discriminant", [0, -1], ids=["Q", "Q(sqrt(-1))"])
@pytest.mark.parametrize("table, tag, dims", [
    ({}, "abelian", [3, 0]),
    ({("x", "y"): {"z": 1}}, "heisenberg", [3, 1, 0]),  # [g,g] = <z>, central
    ({("x", "y"): {"y": 1}}, "solvable", [3, 1, 0]),  # [g,g] = <y>, not central
    ({("x", "y"): {"y": 1}, ("x", "z"): {"z": 1}}, "solvable", [3, 2, 0]),
    ({("x", "y"): {"z": 1}, ("y", "z"): {"x": 1}, ("z", "x"): {"y": 1}}, "sl2", [3, 3]),
    ({("x", "y"): {"y": 2}, ("x", "z"): {"z": -2}, ("y", "z"): {"x": 1}}, "sl2", [3, 3]),
], ids=["abelian", "heisenberg", "x-y-y", "bianchi-v", "so3", "sl2"])
@settings(max_examples=8, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_the_pair_rows_are_recognized_as_the_general_path_does(table, tag, dims, discriminant,
                                                                 data):
    """Each rank r of the pair rows, and at r = 1 a central [g,g] and one
    that is not, in a random basis."""
    lie = LieAlgebra.from_brackets(("x", "y", "z"), table)
    got = _recognized_rows(lie.change_basis(data.draw(_random_bases(3, (discriminant,)))), data)
    assert (got.tag, got.derived_dims) == (tag, dims)


@pytest.mark.parametrize("table, tag, dims", [
    ({("x", "y"): {"y": 1}}, "solvable", [3, 1, 0]),  # z central, [g,g] not central
    ({("x", "y"): {"z": 1}}, "heisenberg", [3, 1, 0]),
    ({}, "abelian", [3, 0]),
    ({("x", "y"): {"y": 1}, ("x", "z"): {"z": 1}}, "solvable", [3, 2, 0]),
    ({("x", "y"): {"z": 1}, ("y", "z"): {"x": 1}, ("z", "x"): {"y": 1}}, "sl2", [3, 3]),
], ids=["x-y-y", "heisenberg", "abelian", "bianchi-v", "so3"])
def test_each_rank_of_the_pair_rows_is_recognized_as_the_general_path_does(table, tag, dims):
    lie = LieAlgebra.from_brackets(("x", "y", "z"), table)
    rec = recognize(lie)
    assert (rec.tag, rec.derived_dims) == (tag, dims)
    assert rec == _recognize_general(lie)


def test_every_three_generator_catalog_point_is_recognized_as_the_general_path_does():
    algebras = [(label, lie) for label, lie in _catalog_algebras() if lie.dim == 3]
    assert len(algebras) == 74
    for label, lie in algebras:
        assert recognize(lie) == _recognize_general(lie), label


@pytest.mark.parametrize("lie, dims", [(SL2, [3, 3]), (whitney_lie(1), [3, 2, 0])],
                         ids=["sl2", "whitney"])
def test_a_three_dimensional_g_builds_no_ad_matrix_killing_form_or_derived_span(
        monkeypatch, lie, dims):
    import poisson_atlas.classify as classify

    calls = {"ad_matrix": 0, "killing_form": 0, "_derived_spans": 0}
    for owner, name in ((LieAlgebra, "ad_matrix"), (LieAlgebra, "killing_form"),
                        (classify, "_derived_spans")):
        original = getattr(owner, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
    assert recognize(lie).derived_dims == dims
    assert calls == {"ad_matrix": 0, "killing_form": 0, "_derived_spans": 0}
