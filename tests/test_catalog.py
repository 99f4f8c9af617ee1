import json
from pathlib import Path

import pytest

from poisson_atlas import catalog_names, get_entry, run_entry
from poisson_atlas.catalog import RunConfig
from poisson_atlas.errors import AtlasError
from poisson_atlas.lie import LieAlgebra

FAST = RunConfig(trials=4)


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


def test_a_context_keeps_one_point_per_coordinate_tuple():
    from poisson_atlas.catalog import Context

    ctx = Context(get_entry("kleinian-a1"))
    origin = ctx.point((0, 0, 0))
    assert ctx.point((0, 0, 0)) is origin and ctx.point(origin) is origin
    assert ctx.lift((0, 0, 0), 2).point is origin and ctx.lift(origin, 3).point is origin


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
