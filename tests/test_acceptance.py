"""Acceptance suite: one test per criterion, exact comparisons throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion; everything is exact arithmetic, so there are no tolerances.
"""

import io
import sys
import time
from fractions import Fraction

import pytest

from poisson_atlas import (
    Exact,
    LaurentPoly,
    PointP,
    PoissonPresentation,
    Scaled,
    SearchBox,
    SubstitutionMap,
    VarSet,
    analyze_submodules,
    catalog_names,
    composition_series,
    find_poisson_maximal,
    find_sl2_triple,
    get_entry,
    homogeneity_report,
    is_poisson_maximal,
    is_simple_module,
    lie_from_invariants,
    lie_from_point,
    lift_module,
    poisson_modules_isomorphic,
    recognize,
    restrict_to_lie,
    restrict_to_subalgebra,
    run_entry,
    sl2_irrep,
    solvable_character_module,
    twist,
    verify_poisson_axioms,
    verify_poisson_map,
)
from poisson_atlas.catalog import RunConfig
from poisson_atlas.cli import main
from poisson_atlas.errors import AtlasError
from poisson_atlas.linalg import eigen_small
from poisson_atlas.modules import SplitMix, lie_rep_restrict, restrict_action
from poisson_atlas.scalars import Scalar

SEED = 0x9E3779B9
TRIALS = 32


def announce(number, ok, text):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def eig_multiset(matrix):
    out = []
    for value, mult, _ in eigen_small(matrix).pairs:
        out.extend([value] * mult)
    return sorted(out, key=Scalar.sort_key)


def scal_sorted(values):
    return sorted((Scalar.coerce(v) for v in values), key=Scalar.sort_key)


def entry_pres(name):
    entry = get_entry(name)
    return entry, entry.presentation


def test_criterion_1_torus():
    entry, pres = entry_pres("torus-so3")
    ideals = find_poisson_maximal(pres, entry.box)
    found = {tuple(str(v) for v in i.point.values) for i in ideals}
    expected = {
        ("0", "0", "0"),
        ("2", "2", "2"),
        ("2", "-2", "-2"),
        ("-2", "2", "-2"),
        ("-2", "-2", "2"),
    }
    ok = found == expected and len(ideals) == 5
    tags = [recognize(lie_from_point(pres, i.point)) for i in ideals]
    ok = ok and all(t.tag == "sl2" for t in tags)
    f = pres.relations[0]
    ok = ok and homogeneity_report(pres, ideals).verdict == "5-homogeneous"
    ok = ok and homogeneity_report(pres, ideals, f).verdict == "4-homogeneous"
    ok = ok and homogeneity_report(pres, ideals, f - 4).verdict == "1-homogeneous"
    announce(1, ok, "torus: five ideals, all sl2; A 5-, A_0 4-, A_4 1-homogeneous")


def test_criterion_2_kleinian_a1():
    entry, pres = entry_pres("kleinian-a1")
    ideals = find_poisson_maximal(pres, entry.box)
    ok = len(ideals) == 1 and str(ideals[0].point) == "(0, 0, 0)"
    origin = ideals[0].point
    lie = lie_from_point(pres, origin)
    rec = recognize(lie)
    ok = ok and rec.tag == "sl2"
    triple = find_sl2_triple(lie, rec)
    ok = ok and triple.verify(lie)
    for d in range(1, 7):
        module = lift_module(pres, origin, sl2_irrep(lie, d, triple))
        report = verify_poisson_axioms(module, TRIALS, SEED)
        ok = ok and report.ok
        got = eig_multiset(module.mats[2])
        ok = ok and got == scal_sorted(Fraction(2 * j + 1 - d, 2) for j in range(d))
    announce(
        2, ok, "A1: unique ideal, explicit sl2-triple, d=1..6 axioms and spectra"
    )


def test_criterion_3_uqsl2_family():
    ok = True
    for name in ("uqsl2", "uqsl2-equitable"):
        entry, pres = entry_pres(name)
        ideals = find_poisson_maximal(pres, entry.box)
        ok = ok and len(ideals) == 2
        tags = [recognize(lie_from_point(pres, i.point)) for i in ideals]
        ok = ok and all(t.tag == "sl2" for t in tags)
        ok = ok and homogeneity_report(pres, ideals).verdict == "2-homogeneous"
    # eta verifies as a Poisson map (scaled -> equitable; inverse back)
    vs = VarSet(("x", "y", "z"), laurent=("z",))
    x, y, z = (LaurentPoly.variable(vs, n) for n in vs.names)
    scaled = PoissonPresentation(vs, Scaled(2 * z, x * y + z + z**-1))
    equitable = PoissonPresentation(vs, Exact(2 * (x + y + z - x * y * z)))
    eta = SubstitutionMap.from_dict(vs, {"x": 1 - z * y, "y": x - z**-1, "z": z})
    eta_inv = SubstitutionMap.from_dict(
        vs, {"x": y + z**-1, "y": z**-1 * (1 - x), "z": z}
    )
    ok = ok and verify_poisson_map(eta, scaled, equitable).ok
    ok = ok and verify_poisson_map(eta_inv, equitable, scaled).ok
    # the 4-homogeneous variant: four ideals, each sl2
    entry4, pres4 = entry_pres("uqsl2-4hom")
    ideals4 = find_poisson_maximal(pres4, entry4.box)
    tags4 = {
        i.point: recognize(lie_from_point(pres4, i.point)) for i in ideals4
    }
    ok = ok and len(ideals4) == 4 and all(t.tag == "sl2" for t in tags4.values())
    ok = (
        ok
        and homogeneity_report(pres4, ideals4, recognitions=tags4).verdict
        == "4-homogeneous"
    )
    announce(3, ok, "4.5: both presentations 2-homogeneous, eta Poisson, variant 4-homogeneous")


def test_criterion_4_whitney():
    entry, pres = entry_pres("whitney")
    ideals = find_poisson_maximal(pres, entry.box)
    alphas = entry.box.coordinate_values()
    ok = [i.point for i in ideals] == sorted(
        (PointP(pres.varset, [Scalar(a), 0, 0]) for a in alphas),
        key=PointP.sort_key,
    )
    for ideal in ideals:
        rec = recognize(lie_from_point(pres, ideal.point))
        want = "heisenberg" if ideal.point.values[0].is_zero else "solvable"
        ok = ok and rec.tag == want
    # alpha * rho = 0: at alpha != 0 the character space excludes the y-direction
    at1 = PointP(pres.varset, [1, 0, 0])
    module = solvable_character_module(pres, at1, (Scalar(3), 0, 0))
    ok = ok and verify_poisson_axioms(module, TRIALS, SEED).ok
    try:
        solvable_character_module(pres, at1, (0, Scalar(1), 0))
        ok = False
    except AtlasError:
        pass
    at0 = PointP(pres.varset, [0, 0, 0])
    module0 = solvable_character_module(pres, at0, (Scalar(2), Scalar(5), 0))
    ok = ok and verify_poisson_axioms(module0, TRIALS, SEED).ok
    announce(4, ok, "Whitney: (alpha,0,0) points, Heisenberg at 0, alpha*rho = 0")


def test_criterion_5_kleinian_family():
    ok = True
    for n in (3, 4, 5):
        entry, pres = entry_pres(f"kleinian-an({n})")
        ideals = find_poisson_maximal(pres, entry.box)
        ok = ok and len(ideals) == 1
        lie = lie_from_point(pres, ideals[0].point)
        rec = recognize(lie)
        ok = ok and rec.tag == "solvable"
        ok = ok and rec.is_solvable_type
    # restriction: the d-dim B^pi2 module splits into d one-dimensional modules
    a1_entry, a1 = entry_pres("kleinian-a1")
    emb, sub = a1_entry.embeds["pi4"]
    origin = PointP(a1.varset, [0, 0, 0])
    lie = lie_from_point(a1, origin)
    triple = find_sl2_triple(lie)
    for d in range(1, 5):
        module = lift_module(a1, origin, sl2_irrep(lie, d, triple))
        restricted = restrict_to_subalgebra(module, emb, sub)
        analysis = analyze_submodules(restricted.mats, d)
        ok = ok and analysis.semisimple is True
        ok = ok and [len(s) for s in analysis.decomposition] == [1] * d
        got = eig_multiset(restricted.mats[2])
        ok = ok and got == scal_sorted(Fraction(2 * j + 1 - d, 4) for j in range(d))
    for name in ("kleinian-d(4)", "kleinian-d(5)", "kleinian-e6", "kleinian-e7", "kleinian-e8"):
        entry, pres = entry_pres(name)
        ideals = find_poisson_maximal(pres, entry.box)
        rec = recognize(lie_from_point(pres, ideals[0].point))
        ok = ok and rec.is_solvable_type
    announce(5, ok, "A_{n-1} solvable with tau-characters; restriction splits; D/E solvable")


def test_criterion_6_section_47():
    c_entry, ctheta = entry_pres("c-theta")
    g = ctheta.relations[0]
    all_c = find_poisson_maximal(ctheta, c_entry.box)
    with_g = [i for i in all_c if g.evaluate(i.point).is_zero]
    ok = len(with_g) == 4

    d_entry, dphi = entry_pres("d-phi")
    h = dphi.relations[0]
    all_d = find_poisson_maximal(dphi, d_entry.box)
    with_h = [i for i in all_d if h.evaluate(i.point).is_zero]
    ok = ok and len(with_h) == 4

    # restricted J2- and J3-modules: simple, isomorphic, annihilated at I1
    torus = get_entry("torus-so3").presentation
    emb, sub = c_entry.embeds["theta"]
    i1 = PointP(ctheta.varset, [2, 2, 2])
    for d in range(1, 5):
        restricted = []
        for coords in ((2, 2, 2), (2, -2, -2)):
            pt = PointP(torus.varset, list(coords))
            lie = lie_from_point(torus, pt)
            module = lift_module(torus, pt, sl2_irrep(lie, d, find_sl2_triple(lie)))
            r = restrict_to_subalgebra(module, emb, sub)
            ok = ok and r.point == i1 and is_simple_module(r)
            restricted.append(r)
        ok = ok and poisson_modules_isomorphic(restricted[0], restricted[1]) is not None

    # the maximal ideal of C over L1 is not Poisson: {y,z}(2,0,0) = -4
    pt = PointP(torus.varset, [2, 0, 0])
    ok = ok and not is_poisson_maximal(torus, pt)
    witness = torus.bracket_spec.pair(torus.varset, 1, 2).evaluate(pt)
    ok = ok and witness == Scalar(-4)

    # the projection-label discrepancy is reported as a flagged note
    ok = ok and any("label swap" in note for note in d_entry.notes)
    announce(6, ok, "4.7: four+four ideals, restrictions simple/isomorphic at I1, L1 not Poisson")


def test_criterion_7_weyl_a2():
    report = run_entry(get_entry("weyl-a2"), RunConfig(TRIALS, SEED))
    failures = [(r.key, r.detail) for r in report.results if not r.ok]
    keys = {r.key for r in report.results}
    ok = report.ok and {
        "structure_constants",
        "recognition",
        "radical_weights",
        "homogeneity",
        "prop52_module",
        "sl2_restriction",
    } <= keys
    announce(7, ok, f"Weyl A2: constants, sl2_semidirect(4), Prop 5.2 module {failures}")


def test_criterion_8_weyl_b2_g2():
    ok = True
    for name, radical in (("weyl-b2", 5), ("weyl-g2", 7)):
        report = run_entry(get_entry(name), RunConfig(TRIALS, SEED))
        ok = ok and report.ok
        entry = get_entry(name)
        lie = lie_from_invariants(entry.invariants)
        rec = recognize(lie)
        ok = ok and rec.tag == "sl2_semidirect" and rec.radical_dim == radical
    announce(8, ok, "Weyl B2 and G2: derived constants, sl2_semidirect(5) and (7)")


def _sl2_point_modules(max_dim=4):
    """(presentation, point, lie, triple) for every sl2-type catalog ideal."""
    out = []
    for name in (
        "kleinian-a1",
        "torus-so3",
        "laurent-inv",
        "uqsl2",
        "uqsl2-equitable",
        "uqsl2-4hom",
        "c-theta",
        "d-phi",
        "kirillov-kostant-sl2",
        "kleinian-an(2)",
    ):
        entry, pres = entry_pres(name)
        for ideal in find_poisson_maximal(pres, entry.box):
            lie = lie_from_point(pres, ideal.point)
            rec = recognize(lie)
            if rec.is_sl2_type:
                out.append((name, pres, ideal.point, lie, find_sl2_triple(lie, rec)))
    return out


def test_criterion_9_round_trips_and_twists():
    ok = True
    count = 0
    per_entry = {}
    for name, pres, point, lie, triple in _sl2_point_modules():
        for d in range(1, 5):
            rep = sl2_irrep(lie, d, triple)
            module = lift_module(pres, point, rep)
            back = restrict_to_lie(module)
            ok = ok and back.mats == rep.mats
            ok = ok and lift_module(pres, point, back) == module
            count += 1
        per_entry.setdefault(name, []).append((pres, point, lie, triple))
    # lifted modules at distinct points are never isomorphic
    for name, items in per_entry.items():
        if len(items) < 2:
            continue
        (p1, pt1, l1, t1), (p2, pt2, l2, t2) = items[0], items[1]
        m1 = lift_module(p1, pt1, sl2_irrep(l1, 2, t1))
        m2 = lift_module(p2, pt2, sl2_irrep(l2, 2, t2))
        ok = ok and poisson_modules_isomorphic(m1, m2) is None
    # twists permute annihilators as the preimage of J
    torus_entry, torus = entry_pres("torus-so3")
    j2 = PointP(torus.varset, [2, 2, 2])
    lie = lie_from_point(torus, j2)
    module = lift_module(torus, j2, sl2_irrep(lie, 2, find_sl2_triple(lie)))
    expected = {
        "theta_x": (2, -2, -2),
        "theta_y": (-2, 2, -2),
        "theta_z": (-2, -2, 2),
    }
    for auto_name, coords in expected.items():
        twisted = twist(module, torus_entry.automorphisms[auto_name])
        ok = ok and twisted.point == PointP(torus.varset, list(coords))
    li_entry, li = entry_pres("laurent-inv")
    j1 = PointP(li.varset, [0, 0, 2])
    lie = lie_from_point(li, j1)
    m = lift_module(li, j1, sl2_irrep(lie, 3, find_sl2_triple(lie)))
    moved = twist(m, li_entry.automorphisms["phi"])
    ok = ok and moved.point == PointP(li.varset, [0, 0, -2])
    announce(9, ok, f"dagger/star round trips over {count} lift/restrict pairs; twists permute")


def test_criterion_10_mutation_robustness():
    targets = []
    for name, dim in (("kleinian-a1", 3), ("torus-so3", 2), ("uqsl2", 2)):
        entry, pres = entry_pres(name)
        ideal = find_poisson_maximal(pres, entry.box)[-1]
        lie = lie_from_point(pres, ideal.point)
        triple = find_sl2_triple(lie)
        targets.append(lift_module(pres, ideal.point, sl2_irrep(lie, dim, triple)))
    rng = SplitMix(SEED)
    ok = True
    for k in range(20):
        module = targets[rng.below(len(targets))]
        g = rng.below(len(module.mats))
        r = rng.below(module.dim)
        c = rng.below(module.dim)
        report = verify_poisson_axioms(module.perturbed(g, r, c), TRIALS, SEED)
        ok = ok and (not report.ok) and bool(report.failures)
    announce(10, ok, "20 seeded +1 perturbations across 3 catalog modules all detected")


def test_criterion_11_catalog_run_all():
    start = time.monotonic()
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = main(["catalog", "run-all", "--format", "machine"])
    finally:
        sys.stdout = old
    elapsed = time.monotonic() - start
    out = buf.getvalue()
    lines = out.splitlines()
    ok = code == 0 and lines[0] == "poisson-atlas-report v1"
    fact_lines = [
        l for l in lines
        if " = pass" in l or " = FAIL" in l
    ]
    ok = ok and all("[" in l and "]" in l for l in fact_lines)
    ok = ok and len(fact_lines) >= 100
    ok = ok and elapsed < 60
    announce(11, ok, f"catalog run-all exit 0, {len(fact_lines)} cited facts in {elapsed:.1f}s")
