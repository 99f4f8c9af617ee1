import json
from dataclasses import replace
from pathlib import Path

import pytest

from poisson_atlas import (
    LaurentPoly, PointP, catalog_names, get_entry, lie_from_point, restrict_to_lie, run_entry,
)
from poisson_atlas.catalog import RunConfig
from poisson_atlas.errors import AtlasError
from poisson_atlas.lie import LieAlgebra

FAST = RunConfig(trials=4)


@pytest.mark.parametrize("name", [
    "kleinian-an(\u0663)", "kleinian-an(\uff13)", "abelian(0_3)", "kleinian-an( 3)",
    "kleinian-an(+3)", "kleinian-an(3 )", "kleinian-an()",
])
def test_an_entry_parameter_is_ascii_digits(name, capsys):
    """`int()` also reads other scripts' digits, '_', '+' and blanks; an entry
    parameter is ASCII digits after an optional '-', and anything else is
    the bad-parameter error, exit 1 from the CLI."""
    from poisson_atlas.cli import main

    with pytest.raises(AtlasError) as exc:
        get_entry(name)
    assert str(exc.value) == f"bad parameter in {name!r}"
    assert main(["catalog", "run", name]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: bad parameter in {name!r}\n"


def test_a_negative_entry_parameter_is_below_the_least_n():
    with pytest.raises(AtlasError, match=r"^kleinian-an needs n >= 2$"):
        get_entry("kleinian-an(-3)")


def test_names_cover_the_worked_examples():
    names = catalog_names()
    for required in (
        "kleinian-a1",
        "torus-so3",
        "laurent-inv",
        "uqsl2",
        "uqsl2-equitable",
        "uqsl2-4hom",
        "whitney",
        "kleinian-an(2)",
        "kleinian-an(3)",
        "kleinian-an(4)",
        "kleinian-an(5)",
        "kleinian-d(4)",
        "kleinian-e6",
        "kleinian-e7",
        "kleinian-e8",
        "c-theta",
        "d-phi",
        "weyl-a2",
        "weyl-b2",
        "weyl-g2",
        "kirillov-kostant-sl2",
        "abelian(3)",
    ):
        assert required in names


def test_unknown_entry_rejected():
    with pytest.raises(AtlasError):
        get_entry("no-such-example")
    with pytest.raises(AtlasError):
        get_entry("kleinian-an(1)")


@pytest.mark.parametrize("argv, error", [
    (["catalog", "run", "abelian"], "abelian takes a parameter: abelian(n), n >= 1"),
    (["catalog", "file", "kleinian-d"], "kleinian-d takes a parameter: kleinian-d(n), n >= 4"),
    (["catalog", "run", "whitney(3)"], "whitney takes no parameter"),
])
def test_a_misused_entry_name_names_the_mistake(argv, error, capsys):
    """A family named without its parameter, or a single entry given one, is
    not an unknown entry: the error says which mistake it is, exit 1."""
    from poisson_atlas.cli import main

    with pytest.raises(AtlasError) as exc:
        get_entry(argv[2])
    assert str(exc.value) == error
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {error}\n"


def test_e8_potential():
    entry = get_entry("kleinian-e8")
    # graded-lex puts the highest-degree term first
    assert str(entry.presentation.bracket_spec.potential) == "z^5 + y^3 + x^2"


def test_abelian_zero_table():
    entry = get_entry("abelian(3)")
    table = entry.presentation.bracket_spec.pairs
    assert all(p.is_zero for p in table.values())


def test_every_fact_cites_a_source():
    for name in catalog_names():
        entry = get_entry(name)
        assert entry.checks, name
        for key, cite, fn in entry.checks:
            assert cite, (name, key)


@pytest.mark.parametrize(
    "name",
    ["kleinian-a1", "torus-so3", "whitney", "weyl-a2", "c-theta", "uqsl2-4hom"],
)
def test_run_entry_green(name):
    report = run_entry(get_entry(name), FAST)
    failures = [(r.key, r.detail) for r in report.results if not r.ok]
    assert report.ok, failures


def test_torus_facts_have_expected_keys():
    report = run_entry(get_entry("torus-so3"), FAST)
    keys = {r.key for r in report.results}
    assert {"ideal_points", "leaf_partition", "homogeneity", "twist"} <= keys


def test_flagged_notes_present():
    assert any("label swap" in n for n in get_entry("d-phi").notes)
    assert any("g in J^2" in n or "g^2" in n for n in get_entry("c-theta").notes)
    assert any("m3" in n for n in get_entry("weyl-b2").notes)
    assert any(
        "normalization slip" in n for n in get_entry("kleinian-an(3)").notes
    )


GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)["catalog"]["facts"]


def _fact_line(name, result):
    mark = "pass" if result.ok else "FAIL"
    detail = f" -- {result.detail}" if result.detail else ""
    return f"{name}.{result.key} = {mark} [{result.cite}]{detail}"


def test_every_fact_line_matches_the_recorded_report():
    lines = {}
    for name in catalog_names():
        for result in run_entry(get_entry(name)).results:
            lines[f"{name}.{result.key}"] = _fact_line(name, result)
    assert lines == GOLDEN


@pytest.mark.parametrize("name", catalog_names())
def test_each_fact_alone_reports_as_in_the_full_run(name):
    # e.g. torus-so3.homogeneity needs the ideals that ideal_points also uses
    for fact in get_entry(name).checks:
        entry = get_entry(name)
        entry.checks = [c for c in entry.checks if c[0] == fact[0]]
        (result,) = run_entry(entry, FAST).results
        assert _fact_line(name, result) == GOLDEN[f"{name}.{fact[0]}"]


def test_invariant_consistency_compares_two_routes(monkeypatch):
    import poisson_atlas.catalog as catalog

    wrong = LieAlgebra.from_brackets(("x", "y", "z"), {("x", "y"): {"x": 1}})
    monkeypatch.setattr(catalog, "lie_from_invariants", lambda ip: wrong)
    for name in ("kleinian-a1", "kleinian-an(3)"):
        report = run_entry(get_entry(name), FAST)
        failed = [r.key for r in report.results if not r.ok]
        assert failed == ["invariant_consistency"], name


def test_a_failing_derived_value_is_computed_once(monkeypatch):
    import poisson_atlas.catalog as catalog

    calls = []

    def scan(pres, box):
        calls.append(pres)
        raise RuntimeError("scan unavailable")

    monkeypatch.setattr(catalog, "find_poisson_maximal", scan)
    report = run_entry(get_entry("torus-so3"), FAST)
    assert len(calls) == 1
    error = "error: RuntimeError: scan unavailable"
    for result in report.results:
        if result.key in ("ideal_points", "recognition", "homogeneity", "leaf_partition"):
            assert (result.ok, result.detail) == (False, error), result.key
        else:
            assert _fact_line("torus-so3", result) == GOLDEN[f"torus-so3.{result.key}"]


@pytest.mark.parametrize("name", ["torus-so3", "whitney"])
def test_an_entry_run_recognizes_each_ideal_once(name, monkeypatch):
    """The recognition, homogeneity and per-point facts share one memo: a
    run recognizes g(J) at most once per ideal."""
    import poisson_atlas.catalog as catalog
    import poisson_atlas.classify as classify

    calls = []
    real = classify.recognize

    def counted(lie):
        calls.append(lie)
        return real(lie)

    monkeypatch.setattr(catalog, "recognize", counted)
    monkeypatch.setattr(classify, "recognize", counted)
    assert run_entry(get_entry(name), FAST).ok
    assert len(calls) <= len(catalog.Context(get_entry(name)).ideals)


@pytest.mark.parametrize("name", catalog_names())
def test_an_entry_run_recognizes_each_distinct_g_once(name, monkeypatch):
    """Points with equal g(J) share one recognition: no two `recognize` calls
    in one run receive equal algebras, through `catalog` or `classify`."""
    import poisson_atlas.catalog as catalog
    import poisson_atlas.classify as classify

    calls = []
    real = classify.recognize

    def counted(lie):
        calls.append(lie)
        return real(lie)

    monkeypatch.setattr(catalog, "recognize", counted)
    monkeypatch.setattr(classify, "recognize", counted)
    assert run_entry(get_entry(name), FAST).ok
    assert not [(i, j) for j, b in enumerate(calls) for i, a in enumerate(calls[:j]) if a == b]


@pytest.mark.parametrize("name", ["torus-so3", "kleinian-a1"])
def test_an_entry_run_builds_g_once_per_point(name, monkeypatch):
    """`lie_from_point` keeps g(J) on the presentation by point value, so no
    two of its builds, read off the caller of `LieAlgebra`, share one
    presentation and one point value, however many point objects the run
    makes at that value."""
    import sys

    builds = []
    real = LieAlgebra.__init__

    def spied(self, labels, brackets):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "lie_from_point":
            builds.append((caller.f_locals["pres"], caller.f_locals["pt"]))
        real(self, labels, brackets)

    monkeypatch.setattr(LieAlgebra, "__init__", spied)
    assert run_entry(get_entry(name), FAST).ok
    assert builds
    assert not [b for k, b in enumerate(builds)
                if any(a[0] is b[0] and a[1] == b[1] for a in builds[:k])]


@pytest.mark.parametrize("name, count", [("kleinian-a1", 2), ("c-theta", 3)])
def test_pullbacks_to_one_value_share_one_g(name, count, monkeypatch):
    """The restrictions of the lifts at one point pull back to one value,
    and the sub-presentation keeps g(J) by that value, so `lie_from_point`
    builds it there once: kleinian-a1's pi4 origin once for d = 1..4, and
    c-theta's I1 once for both torus points and d = 1..4.  In all,
    kleinian-a1 builds g(J) at its origin and the pi4 origin, and c-theta at
    I1 and the two torus points, once each."""
    import sys

    entry = get_entry(name)
    (sub,) = [sub for _, sub in entry.embeds.values() if sub is not None]
    builds = []
    real = LieAlgebra.__init__

    def spied(self, labels, brackets):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "lie_from_point":
            builds.append((caller.f_locals["pres"], caller.f_locals["pt"]))
        real(self, labels, brackets)

    monkeypatch.setattr(LieAlgebra, "__init__", spied)
    assert run_entry(entry, FAST).ok
    assert len(builds) == len(set(builds)) == count
    assert len([pres for pres, _ in builds if pres is sub]) == 1


def test_a_context_reads_one_g_per_point_value():
    """A lift at `(0, 0, 0)` and one at an equal `PointP` read one g(J)."""
    from poisson_atlas.catalog import Context

    ctx = Context(get_entry("kleinian-a1"))
    origin = PointP(ctx.pres.varset, (0, 0, 0))
    assert ctx.point((0, 0, 0)) == origin and ctx.point(origin) is origin
    two, three = ctx.lift((0, 0, 0), 2), ctx.lift(origin, 3)
    assert two.point == three.point == origin
    lie = lie_from_point(ctx.pres, origin)
    assert ctx.lie((0, 0, 0)) is lie and ctx.lie(origin) is lie
    assert restrict_to_lie(two).lie is lie and restrict_to_lie(three).lie is lie


@pytest.mark.parametrize("name", ["weyl-a2", "weyl-b2", "weyl-g2"])
def test_a_context_builds_irreps_of_an_sl2_semidirect_g(name):
    """g of a Weyl-group quotient is sl2 semidirect an abelian radical: its
    irreps are those of sl2, the radical acting by zero."""
    from poisson_atlas.catalog import Context

    ctx = Context(get_entry(name))
    radical = ctx.rec().radical_basis
    assert radical
    for d in (1, 2, 3):
        rep = ctx.irrep(None, d)  # LieRep checks every bracket
        assert rep.dim == d
        assert all(rep.rho(v).is_zero for v in radical)


def test_lifted_modules_draws_one_set_of_trial_polynomials(monkeypatch):
    import poisson_atlas.modules as modules
    from poisson_atlas.catalog import Context

    entry = get_entry("kleinian-a1")
    draws = []
    real = modules._random_poly
    monkeypatch.setattr(modules, "_random_poly", lambda *a: draws.append(1) or real(*a))
    (fact,) = [fn for key, _, fn in entry.checks if key == "lifted_modules"]
    ok, _ = fact(Context(entry), RunConfig())
    # six lifts at the origin, 32 trial pairs: 64 draws, not 6 * 64 = 384
    assert ok and len(draws) == 2 * RunConfig().trials == 64


# The torus with the shear z -> z + 1, which is not a Poisson map.
SHEAR = """vars x, y, z;
bracket exact f = x*y*z - x^2 - y^2 - z^2 + 4;
relation x*y*z - x^2 - y^2 - z^2 + 4;
auto shear { x -> x; y -> y; z -> z + 1; };
"""


def _shear_maps():
    from poisson_atlas import parse_presentation

    pf = parse_presentation(SHEAR)
    return [("shear", pf.autos["shear"], pf.presentation, pf.presentation)]


def _not_whitney(pt, rec):
    return rec.tag != ("heisenberg" if pt.values[0].is_zero else "solvable")


# (shape, entry, expected values from the entry) with one value wrong
SHAPE_FAILURES = {
    "ideal_points": ("_ideal_points", "torus-so3",
                     lambda e: ([(0, 0, 0), (2, 2, 2), (2, -2, -2), (-2, 2, -2)],)),
    "recognition": ("_recognition", "kleinian-a1", lambda e: ("solvable", (0, 0, 0))),
    "at_ideals": ("_at_ideals", "whitney", lambda e: (_not_whitney, "negated")),
    "homogeneity": ("_homogeneity", "kleinian-a1", lambda e: ("2-homogeneous",)),
    "sl2_everywhere": ("_sl2_everywhere", "uqsl2", lambda e: ("1-homogeneous",)),
    "quotient_homogeneity": ("_quotient_homogeneity", "uqsl2",
                             lambda e: (("A'_2", 2, "2-homogeneous"),)),
    "constants": ("_constants", "kleinian-a1", lambda e: (
        {("x", "y"): {"z": 3}, ("y", "z"): {"y": -1}, ("z", "x"): {"x": -1}}, (0, 0, 0))),
    "invariance": ("_invariance", "kleinian-a1", lambda e: ("identity", lambda: False)),
    "leaves": ("_leaves", "torus-so3", lambda e: (["0"],)),
    "poisson_maps": ("_poisson_maps", "torus-so3", lambda e: (_shear_maps(), "shear")),
    "characters_valid_refused": ("_characters", "whitney",
                                 lambda e: ([((1, 0, 0), (5, 0, 0), False)], "wrong")),
    "characters_invalid_accepted": ("_characters", "whitney",
                                    lambda e: ([((1, 0, 0), (0, 1, 0), True)], "wrong")),
    "lift_spectra": ("_lift_spectra", "uqsl2", lambda e: (
        (0, 0, 1), e.presentation.gen("z") - 1, {2: [2, 0]}, "shifted")),
    "radical_weights": ("_radical_weights", "weyl-a2", lambda e: ([3, 1, -1, -1], "wrong")),
    "phi_swap": ("_phi_swap", "laurent-inv", lambda e: ((0, 0, 2), (0, 0, 2), "wrong")),
    "sl2_everywhere_not_sl2": ("_sl2_everywhere", "whitney", lambda e: ("1-homogeneous",)),
}


@pytest.mark.parametrize("case", SHAPE_FAILURES)
def test_every_shared_shape_can_fail(case):
    """Each fact shape, run on a real entry's context with one expected value
    wrong, reports (False, detail) and raises nothing."""
    import poisson_atlas.catalog as catalog

    shape, name, expected = SHAPE_FAILURES[case]
    entry = get_entry(name)
    ok, detail = getattr(catalog, shape)(catalog.Context(entry), FAST, *expected(entry))
    assert ok is False
    assert isinstance(detail, str) and detail


def _swapped(t):
    """The sl2-triple (f, -h, e) of a triple (e, h, f)."""
    return replace(t, e=t.f, h=tuple(-c for c in t.h), f=t.e)


def _moved_generator(ctx):
    """kleinian-a1's invariants with x1, which pi moves, as the generator x."""
    ip = ctx.entry.invariants
    x1 = LaurentPoly.variable(ip.ambient.varset, "x1")
    return replace(ctx.entry, invariants=replace(ip, generators=(x1,) + ip.generators[1:]))


# (entry, fact, context attribute, its wrong value from the context) for the
# facts whose wrong value comes from the context: a closure's expected value
# is its own, so the context hands it a wrong triple, lift, algebra or
# invariant generator instead
CONTEXT_FAILURES = {
    "triple": ("kleinian-a1", "sl2_triple", "triple",
               lambda ctx, real: lambda at=None: _swapped(real(at))),
    "triple_disc": ("torus-so3", "sl2_triple_extension", "triple",
                    lambda ctx, real: lambda at=None: replace(real(at), discriminant=0)),
    "twist_check": ("torus-so3", "twist", "lift",
                    lambda ctx, real: lambda at, d: real((2, -2, -2), d)),
    "consistency": ("kleinian-a1", "invariant_consistency", "lie",
                    lambda ctx, real: lambda at=None: real(at) if at else LieAlgebra("xyz", {})),
    "invariance_generator": ("kleinian-a1", "invariant_presentation", "entry",
                             lambda ctx, real: _moved_generator(ctx)),
}

# the witness each failing fact names
WITNESSES = {
    "phi_swap": "phi twists the lift to (0, 0, -2)",
    "radical_weights": "weights [-3, -1, 1, 3]",
    "invariance": "the bracket identity fails",
    "sl2_everywhere": "2-homogeneous",
    "sl2_everywhere_not_sl2": "at (-4, 0, 0): g(J) is solvable",
    "triple": "found (e, h, f) = [[-1, 0, 0], [0, 0, -2], [0, 1, 0]]",
    "triple_disc": "found (e, h, f) = [[0, 1, sqrt(-1)], [-sqrt(-1), 0, 0], "
                   "[0, -1/4, 1/4*sqrt(-1)]], discriminant 0",
    "twist_check": "twist annihilated at (2, 2, 2), simple True -> True",
    "consistency": "mismatch at [x,y], [x,z], [y,z]",
    "invariance_generator": "the automorphism [-x1, -x2] moves x",
}


@pytest.mark.parametrize("case", WITNESSES)
def test_a_failing_fact_names_what_it_found(case):
    """A fact that fails, on a wrong expected value (SHAPE_FAILURES) or on a
    context patched to hold a wrong value, reports what it found, never its
    passing text; the same fact on an unpatched context passes."""
    import poisson_atlas.catalog as catalog

    if case in SHAPE_FAILURES:
        shape, name, expected = SHAPE_FAILURES[case]
        args = expected(get_entry(name))
        passing = next(a for a in args if isinstance(a, str))
        ok, detail = getattr(catalog, shape)(catalog.Context(get_entry(name)), FAST, *args)
    else:
        name, key, attr, wrong = CONTEXT_FAILURES[case]
        entry = get_entry(name)
        (fact,) = [fn for k, _, fn in entry.checks if k == key]
        ok, passing = fact(catalog.Context(entry), FAST)
        assert ok is True
        ctx = catalog.Context(entry)
        setattr(ctx, attr, wrong(ctx, getattr(ctx, attr)))
        ok, detail = fact(ctx, FAST)
    assert ok is False
    assert detail != passing
    assert detail == WITNESSES[case]
