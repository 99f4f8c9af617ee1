"""Machine-readable encodings of the worked examples, with self-verifying facts.

An entry is data plus cited facts.  The data: a presentation and search box
(or, for a Lie-level entry, only invariants), the invariant presentation of a
presented ring, named automorphisms and embeddings, and `containing`, a
polynomial the example's ideals contain when the scan finds others too.  The
facts: `(key, cite, fn(ctx, cfg))` triples, run in order by `run_entry`.  A
fact of a shared shape comes from that shape's one function applied to its
expected values (`_ideal_points`, `_recognition`, `_sl2_everywhere`,
`_homogeneity`, `_quotient_homogeneity`, `_constants`, `_invariance`,
`_consistency`, `_leaves`, `_phi_swap`, `_weyl_trio`); a fact found in one
example only is a closure in that example's builder.

Facts hand nothing to each other: each reads the ideals, g(J) at a point or
from the invariants, its recognition, sl2-triple and irreducible lifts from
the run's `Context`, which computes each value on first use and keeps it
until `run_entry` returns.  A fact run alone therefore reports what it
reports after the facts before it.  The citations make reports an audit trail.

To add an example, write a builder that returns `_entry(name, cite, pres,
facts=[...], **data)` and add a row to `_REGISTRY`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .brackets import (
    Exact,
    PoissonPresentation,
    Scaled,
    SubstitutionMap,
    Table,
    bracket,
    verify_poisson_map,
)
from .classify import find_sl2_triple, homogeneity_report, recognize
from .errors import AtlasError
from .ideals import (
    SearchBox,
    find_poisson_maximal,
    is_poisson_maximal,
    leaf_report,
    relation_in_J_squared,
)
from .lie import (
    InvariantPresentation,
    LieAlgebra,
    lie_from_invariants,
    lie_from_point,
    verify_invariance,
)
from .linalg import eigen_small
from .modules import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    ActionTable,
    analyze_submodules,
    composition_series,
    is_simple_module,
    lie_rep_restrict,
    lift_module,
    module_from_table,
    poisson_modules_isomorphic,
    restrict_action,
    restrict_to_lie,
    restrict_to_subalgebra,
    sl2_irrep,
    solvable_character_module,
    twist,
    verify_poisson_axioms,
)
from .poly import LaurentPoly, PointP, VarSet
from .presfile import EmbedClause, PresentationFile, lincomb_text
from .scalars import Scalar, scalar_sqrt


@dataclass
class RunConfig:
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED


@dataclass
class FactResult:
    key: str
    cite: str
    ok: bool
    detail: str = ""


@dataclass
class EntryReport:
    name: str
    results: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


@dataclass
class CatalogEntry:
    """One worked example: data plus citation-tagged expected facts."""

    name: str
    cite: str
    presentation: PoissonPresentation | None = None
    box: SearchBox = field(default_factory=SearchBox)
    invariants: InvariantPresentation | None = None
    automorphisms: dict = field(default_factory=dict)
    embeds: dict = field(default_factory=dict)  # name -> (SubstitutionMap, sub pres)
    grading_name: str | None = None
    checks: list = field(default_factory=list)  # (key, cite, fn(ctx, cfg))
    notes: list = field(default_factory=list)
    containing: LaurentPoly | None = None  # kept ideals contain it

    def presentation_file(self) -> PresentationFile | None:
        pres = self.presentation
        autos = dict(self.automorphisms)
        if pres is None:
            if self.invariants is None:
                return None
            # Lie-level entries document their ambient ring and group action
            pres = self.invariants.ambient
            autos.update(
                (f"w{k + 1}", auto) for k, auto in enumerate(self.invariants.automorphisms)
            )
        points = find_poisson_maximal(pres, self.box)
        grading = None
        if self.grading_name and self.grading_name in pres.varset.names:
            grading = pres.gen(self.grading_name)
        embeds = {
            name: EmbedClause(
                name,
                sub.varset,
                dict(zip(emb.source.names, emb.images)),
                sub.bracket_spec,
                sub.relations,
            )
            for name, (emb, sub) in self.embeds.items()
        }
        return PresentationFile(
            pres.bracket_spec,
            {},
            list(pres.relations),
            points,
            autos,
            embeds,
            grading,
        )


class Context:
    """The derived values of one entry, each computed on first use and kept
    for one `run_entry` call.

    A point `at` is a coordinate tuple or a `PointP` of the presentation; no
    point means the algebra of a Lie-level entry, read off its invariants.
    `point` returns one `PointP` per point, the first one it was given or
    built, so every lift and fact at a point shares the jets, g(J) and the
    axiom obligations that the point keeps.
    """

    def __init__(self, entry: CatalogEntry):
        self.entry = entry
        self.pres = entry.presentation
        self._memo = {}

    def memo(self, key, compute):
        """compute() on the first use of key; a value it returns or an
        exception it raises is kept, and returned or raised again later."""
        if key not in self._memo:
            try:
                self._memo[key] = (compute(), None)
            except Exception as exc:
                self._memo[key] = (None, exc)
        value, exc = self._memo[key]
        if exc is not None:
            raise exc
        return value

    def point(self, at):
        if at is None:
            return None
        pt = at if isinstance(at, PointP) else _pt(self.pres.varset, at)
        return self.memo(("point", pt), lambda: pt)

    @property
    def ideals(self):
        """The Poisson points in the entry's box, those on `containing` only."""
        def scan():
            g = self.entry.containing
            found = find_poisson_maximal(self.pres, self.entry.box)
            return [pt for pt in found if g is None or g.evaluate(pt).is_zero]

        return self.memo("ideals", scan)

    def lie(self, at=None) -> LieAlgebra:
        pt = self.point(at)
        if pt is None:
            return self.memo("lie", lambda: lie_from_invariants(self.entry.invariants))
        return lie_from_point(self.pres, pt)  # the point keeps its g(J)

    def rec(self, at=None):
        pt = self.point(at)
        return self.memo(("rec", pt), lambda: recognize(self.lie(pt)))

    def triple(self, at=None):
        pt = self.point(at)
        return self.memo(("triple", pt), lambda: find_sl2_triple(self.lie(pt), self.rec(pt)))

    def irrep(self, at, d: int):
        """The d-dimensional simple g(J)-module, built on the sl2-triple; the
        radical acts by zero."""
        pt = self.point(at)
        return self.memo(("irrep", pt, d), lambda: sl2_irrep(
            self.lie(pt), d, self.triple(pt), self.rec(pt).radical_basis))

    def lift(self, at, d: int):
        """The d-dimensional simple Poisson module annihilated by J."""
        pt = self.point(at)
        return self.memo(("lift", pt, d), lambda: lift_module(self.pres, pt, self.irrep(pt, d)))

    def tags(self, ideals=None) -> dict:
        """Recognition of g(J) at each ideal (default: all of them), by point."""
        ideals = self.ideals if ideals is None else ideals
        return {pt: self.rec(pt) for pt in ideals}

    def homogeneity(self, relation=None, ideals=None):
        ideals = self.ideals if ideals is None else ideals
        return homogeneity_report(self.pres, ideals, relation, self.tags(ideals))


def run_entry(entry: CatalogEntry, config: RunConfig | None = None) -> EntryReport:
    """Execute every expected fact; exact comparisons, one result per fact."""
    config = config or RunConfig()
    report = EntryReport(entry.name, notes=list(entry.notes))
    ctx = Context(entry)
    for key, cite, fn in entry.checks:
        try:
            ok, detail = fn(ctx, config)
        except Exception as exc:  # a failed fact, not a crashed run
            ok, detail = False, f"error: {type(exc).__name__}: {exc}"
        report.results.append(FactResult(key, cite, ok, detail))
    return report


# -- small helpers ---------------------------------------------------------------

ORIGIN = (0, 0, 0)


def _vars(names, laurent=()):
    return VarSet(tuple(names), tuple(laurent))


def _gens(varset):
    return [LaurentPoly.variable(varset, n) for n in varset.names]


def _pt(varset, coords):
    return PointP(varset, [Scalar.coerce(c) for c in coords])


def _sc_equal(lie: LieAlgebra, table: dict):
    got = lie.structure_table()
    expected = LieAlgebra.from_brackets(lie.labels, table).structure_table()
    if got == expected:
        return True, "all displayed structure constants reproduced"
    diffs = [
        f"[{lie.labels[i]},{lie.labels[j]}]"
        for i, j in sorted(got.keys() | expected.keys())
        if got.get((i, j)) != expected.get((i, j))
    ]
    return False, "mismatch at " + ", ".join(diffs)


def _eig_multiset(matrix):
    return _expect_eigs(v for v, mult, _ in eigen_small(matrix).pairs for _ in range(mult))


def _expect_eigs(values):
    return sorted((Scalar.coerce(v) for v in values), key=Scalar.sort_key)


def _entry(name, cite, presentation, facts, **data) -> CatalogEntry:
    """An entry whose facts are `(key, cite, fn)` triples or `(key, fn)` pairs,
    the latter cited like the entry."""
    checks = [fact if len(fact) == 3 else (fact[0], cite, fact[1]) for fact in facts]
    return CatalogEntry(name, cite, presentation, checks=checks, **data)


def _verdict_ok(report, verdict) -> bool:
    """`verdict` None expects "not t-homogeneous"."""
    return report.is_homogeneous is False if verdict is None else report.verdict == verdict


# -- fact shapes: one function each, applied to an entry's expected values -------


def _ideal_points(want, note=None):
    """The kept ideals sit exactly at `want`: coordinate tuples, or a function
    of the search box giving them."""

    def fact(ctx, cfg):
        coords = want(ctx.entry.box) if callable(want) else want
        got = ctx.ideals
        expected = sorted((ctx.point(c) for c in coords), key=PointP.sort_key)
        detail = f"found {[str(p) for p in got]}"
        return got == expected, detail if note is None else f"{detail} ({note})"

    return fact


def _recognition(tag, at=None, radical_dim=0):
    """g(J) at `at` is recognized as `tag`, with a radical of that dimension."""

    def fact(ctx, cfg):
        rec = ctx.rec(at)
        return rec.tag == tag and rec.radical_dim == radical_dim, rec.describe()

    return fact


def _sl2_everywhere(verdict=None, detail=None):
    """g(J) is sl2 at every ideal; with a verdict, the entry is that homogeneous
    and the verdict is the detail."""

    def fact(ctx, cfg):
        ok = all(t.tag == "sl2" for t in ctx.tags().values())
        if verdict is None:
            return ok, detail
        rep = ctx.homogeneity()
        return ok and rep.verdict == verdict, rep.verdict

    return fact


def _homogeneity(verdict, first_only=False):
    """The homogeneity verdict (None: not t-homogeneous); `first_only` judges
    the first ideal alone, for a family of alike ones."""

    def fact(ctx, cfg):
        rep = ctx.homogeneity(ideals=ctx.ideals[:1] if first_only else None)
        return _verdict_ok(rep, verdict), rep.verdict

    return fact


def _quotient_homogeneity(*quotients):
    """Verdicts on quotients A_lam = A / (f - lam) of the potential f: each
    quotient is (label, lam, verdict), lam None for A itself."""

    def fact(ctx, cfg):
        potential = ctx.pres.bracket_spec.potential
        reps = [
            (label, ctx.homogeneity(None if lam is None else potential - lam), verdict)
            for label, lam, verdict in quotients
        ]
        ok = all(_verdict_ok(rep, verdict) for _, rep, verdict in reps)
        return ok, "; ".join(f"{label}: {rep.verdict}" for label, rep, _ in reps)

    return fact


def _constants(table, at=None):
    """g(J) at `at` (or of a Lie-level entry) has the displayed brackets."""
    return lambda ctx, cfg: _sc_equal(ctx.lie(at), table)


def _invariance(detail, identity=lambda: True):
    """The group fixes the invariant generators, the relations hold, and so
    does the bracket `identity` when one is given."""
    return lambda ctx, cfg: (verify_invariance(ctx.entry.invariants).ok and identity(), detail)


def _consistency(detail):
    """lie_from_invariants and lie_from_point at the origin agree."""
    return lambda ctx, cfg: (
        ctx.lie().structure_table() == ctx.lie(ORIGIN).structure_table(), detail)


def _leaves(lambdas, per=None, detail=None):
    """The singular points lie on the leaves f = lam for exactly `lambdas`."""

    def fact(ctx, cfg):
        by_lambda = leaf_report(ctx.pres, ctx.ideals)
        lam = [str(s) for s in by_lambda]
        counts = {str(k): len(v) for k, v in by_lambda.items()}
        ok = lam == lambdas and (per is None or counts == per)
        return ok, detail or f"singular lambdas {lam}, points per lambda {counts}"

    return fact


def _phi_swap(src, dst, detail):
    """phi is Poisson and twists the 2-dimensional lift at `src` to `dst`."""

    def fact(ctx, cfg):
        phi = ctx.entry.automorphisms["phi"]
        if not verify_poisson_map(phi, ctx.pres, ctx.pres).ok:
            return False, "phi is not Poisson"
        return twist(ctx.lift(src, 2), phi).point == ctx.point(dst), detail

    return fact


def _weyl_trio(cite, weights, weights_detail):
    """recognition, radical_weights and homogeneity of a Weyl-group quotient:
    g = sl2 semidirect an abelian radical with the given h-weights."""

    def radical_weights(ctx, cfg):
        adh = ctx.lie().ad_matrix(ctx.triple().h)
        got = _eig_multiset(restrict_action([adh], ctx.rec().radical_basis)[0])
        return got == _expect_eigs(weights), weights_detail

    def homogeneity(ctx, cfg):
        # unique Poisson maximal ideal (V <= {V, V}), sl2-type g(J)
        return (
            ctx.rec().is_sl2_type,
            "1-homogeneous (unique Poisson maximal ideal, sl2-type g(J))",
        )

    return [
        ("recognition", cite, _recognition("sl2_semidirect", radical_dim=len(weights))),
        ("radical_weights", cite, radical_weights),
        ("homogeneity", cite, homogeneity),
    ]


# -- shared data -------------------------------------------------------------------


def _exact(potential, names="xyz"):
    """C[names]/(f) with the exact bracket of f = potential(*generators)."""
    f = potential(*_gens(_vars(names)))
    return PoissonPresentation(Exact(f), relations=(f,))


def _scaled(potential):
    """C[x, y, z^+-1] with 2z times the exact bracket of potential(x, y, z)."""
    x, y, z = _gens(_vars("xyz", laurent=("z",)))
    return PoissonPresentation(Scaled(2 * z, potential(x, y, z)))


def _table_pres(varset, brackets):
    """A presentation given by its generator brackets {(a, b): {a,b}}."""
    return PoissonPresentation(Table.from_dict(varset, brackets))


def _sign_flip(varset, signs):
    """The automorphism scaling each generator by its sign (+1 or -1)."""
    return SubstitutionMap(
        varset, tuple(g if s > 0 else -g for g, s in zip(_gens(varset), signs))
    )


def _torus_presentation():
    return _exact(lambda x, y, z: x * y * z - x * x - y * y - z * z + 4)


def _c_theta_presentation():
    return _exact(
        lambda x, v, w: 2 * x * v * w - x * x * v - 2 * v * v - 2 * w * w + 4 * v,
        ("x", "v", "w"),
    )


def _rejected(pres, at, betas) -> bool:
    """solvable_character_module refuses the character `betas` at `at`."""
    try:
        solvable_character_module(pres, at, betas)
    except AtlasError:
        return True
    return False


def _half_steps(d: int, denom: int):
    """The weights (2j + 1 - d)/denom, j < d, of a d-dimensional sl2-module."""
    return _expect_eigs([Fraction(2 * j + 1 - d, denom) for j in range(d)])


def _kleinian_invariants(n: int, f) -> InvariantPresentation:
    """x = x1^n/a, y = x2^n/a, z = x1 x2/n with a^2 = n^n in the Weyl bracket."""
    avs = _vars(("x1", "x2"))
    x1, x2 = _gens(avs)
    amb = _table_pres(avs, {("x1", "x2"): LaurentPoly.const(avs, 1)})
    inv_a = scalar_sqrt(n**n).inverse()
    gens = (x1**n * inv_a, x2**n * inv_a, x1 * x2 * Fraction(1, n))
    autos = ()
    if n == 2:
        autos = (_sign_flip(avs, (-1, -1)),)
    elif n == 4:
        i = Scalar(0, 1, -1)
        autos = (SubstitutionMap.from_dict(avs, {"x1": x1 * i, "x2": x2 * (-i)}),)
    return InvariantPresentation(amb, ("x", "y", "z"), gens, automorphisms=autos, relations=(f,))


# -- entry builders ----------------------------------------------------------------


def _entry_kleinian_a1() -> CatalogEntry:
    pres = _exact(lambda x, y, z: z * z - x * y)
    x, y, z = _gens(pres.varset)
    # z^2 - xy expands to the zero ambient polynomial
    ip = _kleinian_invariants(2, pres.relations[0])

    # B^{pi4} sub-presentation for the restriction scenario: uv = w^4/4
    svs = _vars("uvw")
    u, v, w = _gens(svs)
    f4 = w**4 * Fraction(1, 4) - u * v
    sub = PoissonPresentation(Exact(f4), relations=(f4,))
    emb = SubstitutionMap.from_dict(
        svs,
        {"u": x * x * Fraction(1, 8), "v": y * y * Fraction(1, 8), "w": z * Fraction(1, 2)},
    )

    def triple(ctx, cfg):
        tri = ctx.triple(ORIGIN)
        expected = tuple(
            tuple(Scalar.coerce(c) for c in vec) for vec in ((0, 1, 0), (0, 0, 2), (-1, 0, 0))
        )
        ok = tri.verify(ctx.lie(ORIGIN)) and (tri.e, tri.h, tri.f) == expected
        return ok, "triple (e, h, f) = (y, 2z, -x)"

    def lifts(ctx, cfg):
        for d in range(1, 7):
            module = ctx.lift(ORIGIN, d)
            ax = verify_poisson_axioms(module, cfg.trials, cfg.seed)
            if not ax.ok:
                return False, f"axioms fail at d={d}: {ax.failures[:1]}"
            if _eig_multiset(module.mats[2]) != _half_steps(d, 2):
                return False, f"{{z,-}} spectrum off at d={d}"
        return True, "d = 1..6 lift axioms and {z,-} spectra (2j+1-d)/2"

    def restriction(ctx, cfg):
        if not verify_poisson_map(emb, sub, pres).ok:
            return False, "embedding is not Poisson"
        for d in range(1, 5):
            restricted = restrict_to_subalgebra(ctx.lift(ORIGIN, d), emb, sub)
            if restricted.point != _pt(svs, ORIGIN):
                return False, "sub-point is not the origin"
            analysis = analyze_submodules(restricted.mats, d)
            if analysis.semisimple is not True or [
                len(s) for s in analysis.decomposition
            ] != [1] * d:
                return False, f"no split into {d} one-dimensional summands"
            if _eig_multiset(restricted.mats[2]) != _half_steps(d, 4):
                return False, f"{{w,-}} spectrum off at d={d}"
        return True, "B^pi2 module splits into d characters, {w,-} = (2j+1-d)/4"

    return _entry(
        "kleinian-a1", "section 4.2", pres, invariants=ip,
        embeds={"pi4": (emb, sub)}, grading_name="z",
        facts=[
            ("ideal_points", _ideal_points([ORIGIN])),
            ("recognition", _recognition("sl2", ORIGIN)),
            ("structure_constants", _constants(
                {("x", "y"): {"z": 2}, ("y", "z"): {"y": -1}, ("z", "x"): {"x": -1}},
                ORIGIN,
            )),
            ("sl2_triple", "section 4.2 (derived)", triple),
            ("homogeneity", _homogeneity("1-homogeneous")),
            ("invariant_presentation",
             _invariance("pi fixes generators; xy = z^2 identically")),
            ("invariant_consistency",
             _consistency("lie_from_invariants agrees with lie_from_point")),
            ("lifted_modules", "example 4.4 display / theorem 3.4", lifts),
            ("pi4_restriction", "example 4.4", restriction),
        ],
    )


def _entry_torus() -> CatalogEntry:
    pres = _torus_presentation()
    vs = pres.varset
    autos = {
        "theta_x": _sign_flip(vs, (1, -1, -1)),
        "theta_y": _sign_flip(vs, (-1, 1, -1)),
        "theta_z": _sign_flip(vs, (-1, -1, 1)),
    }
    five = [ORIGIN, (2, 2, 2), (2, -2, -2), (-2, 2, -2), (-2, -2, 2)]
    j2 = five[1]

    # invariants of the 2-torus; z is the pi'-image of the displayed generator
    tvs = _vars(("x1", "x2"), laurent=("x1", "x2"))
    x1, x2 = _gens(tvs)
    tor = _table_pres(tvs, {("x1", "x2"): x1 * x2})
    pi = SubstitutionMap.from_dict(tvs, {"x1": x1**-1, "x2": x2**-1})
    inv_x = x1 + x1**-1
    inv_y = x2 + x2**-1
    inv_z = x1 * x2**-1 + x1**-1 * x2
    ip = InvariantPresentation(
        tor, ("x", "y", "z"), (inv_x, inv_y, inv_z), automorphisms=(pi,),
        relations=pres.relations,
    )

    def triple_disc(ctx, cfg):
        tri = ctx.triple(ORIGIN)
        return (
            tri.verify(ctx.lie(ORIGIN)) and tri.discriminant == -1,
            "g(J1) triple lives in Q(sqrt(-1))",
        )

    def autos_permute(ctx, cfg):
        # theta_x, theta_y, theta_z send J2 to J3, J4, J5
        for (name, auto), want in zip(autos.items(), five[2:]):
            if not verify_poisson_map(auto, pres, pres).ok:
                return False, f"{name} is not Poisson"
            if auto.pull_point(ctx.point(j2)) != ctx.point(want):
                return False, f"{name}(J2) is not as displayed"
        return True, "theta_x, theta_y, theta_z are Poisson and permute the ideals"

    def twist_check(ctx, cfg):
        module = ctx.lift(j2, 2)
        twisted = twist(module, autos["theta_x"])
        ok = twisted.point == ctx.point(five[2]) and is_simple_module(
            twisted
        ) == is_simple_module(module)
        return ok, "theta_x twist annihilated at J3, simplicity preserved"

    return _entry(
        "torus-so3", "section 4.3", pres, invariants=ip, automorphisms=autos,
        notes=[
            "invariant generator z is taken as x1*x2^-1 + x1^-1*x2; with the displayed "
            "x1*x2 + x1^-1*x2^-1 every bracket identity acquires a global sign flip",
            "theta twists realize J3 = theta_x(J2), J4 = theta_y(J2), J5 = theta_z(J2)",
        ],
        facts=[
            ("ideal_points", _ideal_points(five)),
            ("leaf_partition", _leaves(["0", "4"], {"0": 4, "4": 1})),
            ("recognition", _sl2_everywhere(detail="all five g(J_i) recognized sl2")),
            ("g_J1_constants", _constants(
                {("y", "x"): {"z": 2}, ("z", "y"): {"x": 2}, ("x", "z"): {"y": 2}},
                ORIGIN,
            )),
            ("g_J2_constants", _constants(
                {
                    ("x", "y"): {"x": 2, "y": 2, "z": -2},
                    ("y", "z"): {"x": -2, "y": 2, "z": 2},
                    ("z", "x"): {"x": 2, "y": -2, "z": 2},
                },
                j2,
            )),
            ("sl2_triple_extension", "section 4.3 (derived)", triple_disc),
            ("homogeneity", _quotient_homogeneity(
                ("A", None, "5-homogeneous"),
                ("A_0", 0, "4-homogeneous"),
                ("A_4", 4, "1-homogeneous"),
            )),
            ("theta_automorphisms", autos_permute),
            ("twist", "remark 2.9 / section 4.3", twist_check),
            ("invariant_presentation", _invariance(
                "pi fixes x, y, z; relation f = 0; {x,y} = xy - 2z in invariants",
                lambda: bracket(tor.bracket_spec, inv_x, inv_y) == inv_x * inv_y - 2 * inv_z,
            )),
        ],
    )


def _entry_laurent_inv() -> CatalogEntry:
    pres = _exact(lambda x, y, z: x * (4 - z * z) + y * y)
    bvs = _vars(("x1", "x2"), laurent=("x1",))
    x1, x2 = _gens(bvs)
    bpres = _table_pres(bvs, {("x1", "x2"): x1})
    pi = SubstitutionMap.from_dict(bvs, {"x1": x1**-1, "x2": -x2})
    gens = (x2 * x2, x2 * (x1 - x1**-1), x1 + x1**-1)
    ip = InvariantPresentation(
        bpres, ("x", "y", "z"), gens, automorphisms=(pi,), relations=pres.relations
    )
    return _entry(
        "laurent-inv", "section 4.4", pres, invariants=ip,
        automorphisms={"phi": _sign_flip(pres.varset, (1, -1, -1))},
        facts=[
            ("ideal_points", _ideal_points([(0, 0, 2), (0, 0, -2)])),
            ("g_J1_constants", _constants(
                {("x", "y"): {"x": -4}, ("y", "z"): {"z": -4}, ("z", "x"): {"y": 2}},
                (0, 0, 2),
            )),
            ("recognition_homogeneity", _sl2_everywhere("2-homogeneous")),
            ("phi_swap", _phi_swap((0, 0, 2), (0, 0, -2), "phi swaps the J1- and J2-modules")),
            ("invariant_presentation",
             _invariance("pi fixes x, y, z; relation x(4 - z^2) + y^2 = 0")),
        ],
    )


def _uqsl2_presentation():
    return _scaled(lambda x, y, z: x * y + z + z**-1)


def _entry_uqsl2() -> CatalogEntry:
    pres = _uqsl2_presentation()
    z = _gens(pres.varset)[2]

    def lift_spectrum(ctx, cfg):
        module = ctx.lift((0, 0, 1), 2)
        if not verify_poisson_axioms(module, cfg.trials, cfg.seed).ok:
            return False, "axioms fail"
        got = _eig_multiset(module.action_of(z - 1))
        return got == _expect_eigs([1, -1]), "{z - 1, -} eigenvalues {1, -1} at d = 2"

    return _entry(
        "uqsl2", "section 4.5", pres,
        automorphisms={"phi": _sign_flip(pres.varset, (1, -1, -1))},
        facts=[
            ("ideal_points", _ideal_points([(0, 0, 1), (0, 0, -1)])),
            ("recognition_homogeneity", _sl2_everywhere("2-homogeneous")),
            ("quotient_homogeneity", _quotient_homogeneity(
                ("A'_2", 2, "1-homogeneous"), ("A'_-2", -2, "1-homogeneous")
            )),
            ("lift_spectrum", "section 4.5 (derived)", lift_spectrum),
            ("phi_swap", _phi_swap((0, 0, 1), (0, 0, -1), "phi transposes J1 and J2")),
        ],
    )


def _entry_uqsl2_equitable() -> CatalogEntry:
    scaled = _uqsl2_presentation()
    vs = scaled.varset
    x, y, z = _gens(vs)
    pres = PoissonPresentation(Exact(2 * (x + y + z - x * y * z)))
    eta = SubstitutionMap.from_dict(vs, {"x": 1 - z * y, "y": x - z**-1, "z": z})
    eta_inv = SubstitutionMap.from_dict(
        vs, {"x": y + z**-1, "y": z**-1 * (1 - x), "z": z}
    )

    def eta_poisson(ctx, cfg):
        fwd = verify_poisson_map(eta, scaled, pres)
        bwd = verify_poisson_map(eta_inv, pres, scaled)
        return fwd.ok and bwd.ok, "eta and eta^-1 verify as Poisson maps"

    def eta_inverse(ctx, cfg):
        ok = all(
            img == gen
            for comp in (eta.compose(eta_inv), eta_inv.compose(eta))
            for img, gen in zip(comp.images, (x, y, z))
        )
        return ok, "eta and eta^-1 compose to the identity"

    return _entry(
        "uqsl2-equitable", "section 4.5", pres,
        notes=[
            "eta is Poisson from the scaled presentation to the equitable one (the "
            "stated direction is the reverse; on the (x, y) generator pair only "
            "this orientation verifies)"
        ],
        facts=[
            ("ideal_points", _ideal_points([(1, 1, 1), (-1, -1, -1)])),
            ("recognition_homogeneity", _sl2_everywhere("2-homogeneous")),
            ("eta_poisson_map", eta_poisson),
            ("eta_round_trip", eta_inverse),
        ],
    )


def _entry_uqsl2_4hom() -> CatalogEntry:
    pres = _scaled(lambda x, y, z: x * y + z * z + z**-2)
    i = Scalar(0, 1, -1)
    points = [(0, 0, 1), (0, 0, -1), (0, 0, i), (0, 0, -i)]
    return _entry(
        "uqsl2-4hom", "section 4.5", pres,
        box=SearchBox(extra=tuple(_pt(pres.varset, c) for c in points[2:])),
        facts=[
            ("ideal_points", "section 4.5 (4-homogeneous variant)", _ideal_points(points)),
            ("recognition_homogeneity", _sl2_everywhere("4-homogeneous")),
        ],
    )


def _entry_whitney() -> CatalogEntry:
    pres = _exact(lambda x, y, z: x * y * y - z * z)

    def tags(ctx, cfg):
        for point, rec in ctx.tags().items():
            alpha = point.values[0]
            want = "heisenberg" if alpha.is_zero else "solvable"
            if rec.tag != want:
                return False, f"alpha = {alpha}: got {rec.tag}"
        return True, "Heisenberg at alpha = 0, solvable non-nilpotent otherwise"

    def characters(ctx, cfg):
        at1 = ctx.point((1, 0, 0))
        module = solvable_character_module(pres, at1, (Scalar(5), 0, 0))
        if not verify_poisson_axioms(module, cfg.trials, cfg.seed).ok:
            return False, "valid character fails axioms"
        if not _rejected(pres, at1, (0, Scalar(1), 0)):
            return False, "rho != 0 accepted at alpha = 1"
        at0 = ctx.point(ORIGIN)
        solvable_character_module(pres, at0, (Scalar(2), Scalar(3), 0))
        if not _rejected(pres, at0, (0, 0, Scalar(1))):
            return False, "beta_z != 0 accepted at alpha = 0"
        return True, "alpha*rho = 0 constraint enforced on 1-dim characters"

    def catalog_dims(ctx, cfg):
        for point, rec in ctx.tags().items():
            want = 2 if point.values[0].is_zero else 1
            if rec.k != want:
                return False, f"character space at {point} is {rec.k}"
        return True, "character space dim 2 at alpha = 0, else 1"

    return _entry(
        "whitney", "example 4.3", pres,
        facts=[
            ("ideal_points", _ideal_points(
                lambda box: [(a, 0, 0) for a in sorted(box.coordinate_values())]
            )),
            ("leaf_partition", _leaves(["0"], detail="all singular points lie on S_0")),
            ("recognition", tags),
            ("characters", characters),
            ("module_catalog", catalog_dims),
            ("homogeneity", _homogeneity(None)),
        ],
    )


def _entry_kleinian_an(n: int) -> CatalogEntry:
    pres = _exact(lambda x, y, z: z**n - x * y)
    notes = []
    if n > 2:
        notes.append(
            "faithful linearization gives [y,z] = -y and [z,x] = -x; the displayed "
            "[y,z] = -ny, [z,x] = -nx is a normalization slip (solvability "
            "unaffected)"
        )
    if n not in (2, 4):
        notes.append(
            f"pi_{n} needs a primitive {n}th root of unity outside Q(sqrt d); "
            "generator fixing is not checkable in the scalar domain"
        )

    def solvable(ctx, cfg):
        rec = ctx.rec(ORIGIN)
        expected = {("x", "y"): {}, ("y", "z"): {"y": -1}, ("z", "x"): {"x": -1}}
        ok = rec.tag == "solvable" and _sc_equal(ctx.lie(ORIGIN), expected)[0]
        return ok, f"{rec.describe()}; [x,y] = 0, [y,z] = -y, [z,x] = -x"

    def characters(ctx, cfg):
        if n == 2:
            return True, "n = 2 is the sl2 case; no character family"
        origin = ctx.point(ORIGIN)
        module = solvable_character_module(pres, origin, (0, 0, Scalar(7)))
        ok = verify_poisson_axioms(module, cfg.trials, cfg.seed).ok
        if not _rejected(pres, origin, (Scalar(1), 0, 0)):
            return False, "beta_x != 0 accepted"
        return ok, "{z, v} = tau v family; characters supported on z only"

    return _entry(
        f"kleinian-an({n})", "example 4.4", pres,
        invariants=_kleinian_invariants(n, pres.relations[0]), grading_name="z", notes=notes,
        facts=[
            ("ideal_points", _ideal_points([ORIGIN])),
            ("recognition", _recognition("sl2", ORIGIN) if n == 2 else solvable),
            ("invariant_presentation",
             _invariance("generators fixed (where checkable); xy = z^n identically")),
            ("invariant_consistency",
             _consistency("lie_from_invariants matches lie_from_point")),
            ("characters", characters),
            ("homogeneity", _homogeneity("1-homogeneous" if n == 2 else None)),
        ],
    )


def _entry_kleinian_de(name: str, potential_fn, note=None) -> CatalogEntry:
    pres = _exact(potential_fn)

    def solvable(ctx, cfg):
        rec = ctx.rec(ORIGIN)
        return rec.is_solvable_type, f"g(J) is {rec.describe()} (solvable)"

    return _entry(
        name, "remark 4.5", pres, notes=[note] if note else [],
        facts=[
            ("ideal_points", _ideal_points([ORIGIN])),
            ("solvability", solvable),
        ],
    )


def _entry_c_theta() -> CatalogEntry:
    pres = _c_theta_presentation()
    cvs = pres.varset
    (g,) = pres.relations

    # ambient C = B^pi as the torus exact presentation
    cpres = _torus_presentation()
    vs = cpres.varset
    x, y, z = _gens(vs)
    emb = SubstitutionMap.from_dict(
        cvs, {"x": x, "v": y * y * Fraction(1, 2), "w": y * z * Fraction(1, 2)}
    )

    def g_in_j2(ctx, cfg):
        for pt in ctx.ideals:
            if not relation_in_J_squared(pres, g, pt):
                return False, f"g not in J^2 at {pt}"
        return True, "g in J^2 at I1, I2, L1, L2"

    def restriction(ctx, cfg):
        if not verify_poisson_map(emb, pres, cpres).ok:
            return False, "embedding C^theta -> C is not Poisson"
        i1 = _pt(cvs, (2, 2, 2))
        torus = Context(CatalogEntry("torus-so3", "section 4.3", cpres))
        for d in range(1, 5):
            restricted = []
            for pt in ((2, 2, 2), (2, -2, -2)):
                r = restrict_to_subalgebra(torus.lift(pt, d), emb, pres)
                if r.point != i1 or not is_simple_module(r):
                    return False, f"restriction at {pt}, d={d} not simple at I1"
                restricted.append(r)
            if poisson_modules_isomorphic(restricted[0], restricted[1]) is None:
                return False, f"J2/J3 restrictions not isomorphic at d={d}"
        return True, "J2- and J3-modules restrict simple, isomorphic, killed by I1"

    def l_points_not_poisson(ctx, cfg):
        pt = _pt(vs, (2, 0, 0))
        if is_poisson_maximal(cpres, pt):
            return False, "(2,0,0) unexpectedly Poisson in C"
        witness = bracket(cpres.bracket_spec, y, z).evaluate(pt)
        return witness == Scalar(-4), "{y,z}(2,0,0) = -4, so the ideal is not Poisson"

    return _entry(
        "c-theta", "section 4.7", pres, embeds={"theta": (emb, pres)}, containing=g,
        notes=[
            'the displayed claim reads "g^2 in J"; the verified fact is g in J^2 '
            "(value and gradient vanish at all four points)"
        ],
        facts=[
            ("ideal_points", _ideal_points(
                [(2, 2, 2), (-2, 2, -2), (2, 0, 0), (-2, 0, 0)], "ideals containing g"
            )),
            ("g_in_J_squared", "section 4.7 (flagged)", g_in_j2),
            ("recognition_homogeneity", _sl2_everywhere("4-homogeneous")),
            ("restriction_scenario", restriction),
            ("L_overpoint_not_poisson", "section 4.7 (derived)", l_points_not_poisson),
        ],
    )


def _entry_d_phi() -> CatalogEntry:
    dvs = _vars(("a", "u", "v"))
    da, du, dv = _gens(dvs)
    h = (
        2 * da * du * dv
        - 2 * da * da
        - du * du * dv
        - du * dv * dv
        + 2 * du * dv
    )
    pres = PoissonPresentation(Exact(2 * h), relations=(h,))

    ctheta = _c_theta_presentation()
    cvs = ctheta.varset
    cx, cv, cw = _gens(cvs)
    emb = SubstitutionMap.from_dict(
        dvs,
        {"a": cx * cw * Fraction(1, 2), "u": cx * cx * Fraction(1, 2), "v": cv},
    )

    def emb_poisson(ctx, cfg):
        rep = verify_poisson_map(emb, pres, ctheta)
        return rep.ok, "u = x^2/2, a = xw/2, v = v is a Poisson map into C^theta"

    def projections(ctx, cfg):
        # C^theta point -> its image: I1, I2 -> L4-point, L1, L2 -> L3-point
        images = {
            (2, 2, 2): (2, 2, 2),
            (-2, 2, -2): (2, 2, 2),
            (2, 0, 0): (0, 2, 0),
            (-2, 0, 0): (0, 2, 0),
        }
        ok = all(emb.pull_point(_pt(cvs, c)) == _pt(dvs, want) for c, want in images.items())
        return ok, "I-points project to the L4-point, L-points to the L3-point"

    return _entry(
        "d-phi", "section 4.7", pres, embeds={"phi": (emb, pres)}, containing=h,
        notes=[
            "computed projections send the L1-point (2,0,0) to the L3-point (0,2,0) "
            "and the I1-point (2,2,2) to the L4-point (2,2,2): the reverse of the "
            "stated correspondence; recorded as an apparent label swap"
        ],
        facts=[
            ("ideal_points", _ideal_points(
                [ORIGIN, (0, 0, 2), (0, 2, 0), (2, 2, 2)], "ideals containing 2h"
            )),
            ("recognition_homogeneity", _sl2_everywhere("4-homogeneous")),
            ("embedding", emb_poisson),
            ("projections", "section 4.7 (flagged)", projections),
        ],
    )


def _weyl_ambient():
    vs = _vars(("a1", "a2", "b1", "b2"))
    a1, a2, b1, b2 = _gens(vs)
    six = LaurentPoly.const(vs, 6)
    m3 = LaurentPoly.const(vs, -3)
    amb = _table_pres(
        vs,
        {("a1", "b1"): six, ("a2", "b2"): six, ("a1", "b2"): m3, ("a2", "b1"): m3},
    )
    ninth = Fraction(1, 9)
    g1 = (a1 * a1 + a2 * a2 + a1 * a2) * ninth
    g2 = (b1 * b1 + b2 * b2 + b1 * b2) * ninth
    g3 = (2 * a1 * b1 + a1 * b2 + a2 * b1 + 2 * a2 * b2) * Fraction(-1, 9)
    m1 = (a1 * a2 * a2 + a2 * a1 * a1) * ninth
    m2 = (b1 * b2 * b2 + b2 * b1 * b1) * ninth
    m3p = (2 * a1 * b1 * b2 + 2 * a2 * b1 * b2 + a1 * b2 * b2 + a2 * b1 * b1) * ninth
    m4 = (2 * b1 * a1 * a2 + 2 * b2 * a1 * a2 + b1 * a2 * a2 + b2 * a1 * a1) * ninth
    swap = SubstitutionMap.from_dict(vs, {"a1": a2, "a2": a1, "b1": b2, "b2": b1})
    cycle = SubstitutionMap.from_dict(
        vs, {"a1": a2, "a2": -a1 - a2, "b1": b2, "b2": -b1 - b2}
    )
    return amb, (g1, g2, g3, m1, m2, m3p, m4), (swap, cycle)


_P7_TABLE = {
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
}


def _prop52_table():
    labels = ("g1", "g2", "g3", "m1", "m2", "m3", "m4")
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
    return ActionTable(labels, rl, entries)


def _entry_weyl_a2() -> CatalogEntry:
    amb, gens, autos = _weyl_ambient()
    ip = InvariantPresentation(
        amb, ("g1", "g2", "g3", "m1", "m2", "m3", "m4"), gens, automorphisms=autos
    )

    def m5(ctx):
        return ctx.memo("m5", lambda: module_from_table(ctx.lie(), _prop52_table()))

    def prop52(ctx, cfg):
        rep = m5(ctx)
        if _eig_multiset(rep.mats[2]) != _expect_eigs([-2, -1, 0, 1, 2]):
            return False, "g3 grading spectrum is not {-2..2}"
        # a False verdict needs a grading, so the socle is exact; a simple proper
        # socle with a simple quotient is then the only proper submodule
        analysis = analyze_submodules(rep.mats, 5)
        series = composition_series(rep.mats, 5)
        ok = (
            [len(s) for s in analysis.minimal] == [3]
            and analysis.semisimple is False
            and series == [3, 2]
            and not analysis.simple
        )
        return ok, "unique proper submodule dim 3; series (3,2); not semisimple"

    def remark53(ctx, cfg):
        rep = m5(ctx)
        sub = lie_rep_restrict(
            rep,
            [rep.lie.basis_vector(i) for i in range(3)],
            ("g1", "g2", "g3"),
        )
        analysis = analyze_submodules(sub.mats, 5)
        dims = sorted(len(s) for s in (analysis.decomposition or []))
        return (
            analysis.semisimple is True and dims == [2, 3],
            "sl2-restriction splits as N + N' (dims 3 and 2)",
        )

    return _entry(
        "weyl-a2", "example 5.1 / proposition 5.2", None, invariants=ip,
        grading_name="g3",
        notes=[
            "the displayed g1 reads a1*a3; the S3-invariant reading a1*a2 is used "
            "(the a1*a3 form breaks the displayed constants)"
        ],
        facts=[
            ("invariance", "example 5.1", _invariance("W = S3 fixes all seven generators")),
            ("structure_constants", "example 5.1", _constants(_P7_TABLE)),
            *_weyl_trio("example 5.1", [3, 1, -1, -3], "radical h-weights {3,1,-1,-3}"),
            ("prop52_module", "proposition 5.2", prop52),
            ("sl2_restriction", "remark 5.3", remark53),
        ],
    )


def _entry_weyl_b2() -> CatalogEntry:
    vs = _vars(("x1", "x2", "y1", "y2"))
    x1, x2, y1, y2 = _gens(vs)
    one = LaurentPoly.const(vs, 1)
    amb = _table_pres(vs, {("x1", "y1"): one, ("x2", "y2"): one})
    g1 = x1 * x1 + x2 * x2
    g2 = y1 * y1 + y2 * y2
    g3 = x1 * y1 + x2 * y2
    m1 = x1 * x1 * x2 * x2
    m2 = y1 * y1 * y2 * y2
    m3 = x1 * x2 * y1 * y2  # derived; the displayed m3 duplicates g3
    m4 = x1 * y1**3 + x2 * y2**3
    m5 = x1**3 * y1 + x2**3 * y2
    s1 = _sign_flip(vs, (-1, 1, -1, 1))
    s2 = SubstitutionMap.from_dict(vs, {"x1": x2, "y1": y2, "x2": x1, "y2": y1})
    names = ("g1", "g2", "g3", "m1", "m2", "m3", "m4", "m5")
    ip = InvariantPresentation(
        amb, names, (g1, g2, g3, m1, m2, m3, m4, m5), automorphisms=(s1, s2)
    )

    table = {
        ("g1", "g2"): {"g3": 4},
        ("g1", "g3"): {"g1": 2},
        ("g2", "g3"): {"g2": -2},
        ("g1", "m2"): {"m4": -4},
        ("g1", "m3"): {"m5": -2},
        ("g1", "m4"): {"m3": -12},
        ("g1", "m5"): {"m1": -4},
        ("g2", "m1"): {"m5": 4},
        ("g2", "m3"): {"m4": 2},
        ("g2", "m4"): {"m2": 4},
        ("g2", "m5"): {"m3": 12},
        ("g3", "m1"): {"m1": -4},
        ("g3", "m2"): {"m2": 4},
        ("g3", "m4"): {"m4": 2},
        ("g3", "m5"): {"m5": -2},
    }

    def m3_derivation(ctx, cfg):
        # the three invariants of weight 0 and bidegree (2, 2)
        A = x1 * x1 * y1 * y1 + x2 * x2 * y2 * y2
        B = x1 * x1 * y2 * y2 + x2 * x2 * y1 * y1
        C = m3
        for inv in (A, B, C):
            if any(auto.apply(inv) != inv for auto in (s1, s2)):
                return False, "candidate space is not W-invariant"
        # mod J^2: g1 g2 = A + B and g3^2 = A + 2C, so B = -A and C = -A/2
        if g1 * g2 != A + B or g3 * g3 != A + 2 * C:
            return False, "reduction identities fail"
        # the bracket constraints pin the class of m3 = C
        spec = amb.bracket_spec
        ok = bracket(spec, g2, C) == 2 * m4 - 2 * g2 * g3
        ok = ok and bracket(spec, g1, C) == 2 * g1 * g3 - 2 * m5
        return ok, "{g2,m3} = 2m4 - 2 g2 g3 and {g1,m3} = -2m5 + 2 g1 g3 exactly"

    return _entry(
        "weyl-b2", "example 5.5", None, invariants=ip, grading_name="g3",
        notes=[
            "m3 derived by brute force over weight-0 bidegree-(2,2) W-invariants "
            "span{A = x1^2 y1^2 + x2^2 y2^2, B = x1^2 y2^2 + x2^2 y1^2, C = x1 x2 y1 y2}: "
            "[g2, m3] = 2 m4 and [g1, m3] = -2 m5 force the class -A/2 = C mod J^2; "
            "representative m3 = x1 x2 y1 y2"
        ],
        facts=[
            ("invariance", _invariance("W (dihedral of order 8) fixes the generators")),
            ("m3_derivation", "example 5.5 (derived)", m3_derivation),
            ("structure_constants", _constants(table)),
            *_weyl_trio("example 5.5", [4, 2, 0, -2, -4], "radical weights {4,2,0,-2,-4}"),
        ],
    )


def _entry_weyl_g2() -> CatalogEntry:
    amb, a2_gens, autos = _weyl_ambient()
    g1, g2, g3, m1, m2, m3, m4 = a2_gens
    vs = amb.varset
    neg = _sign_flip(vs, (-1,) * 4)
    names = ("g1", "g2", "g3", "n1", "n2", "n3", "n4", "n5", "n6", "n7")
    gens = (g1, g2, g3, m1 * m1, m2 * m2, m1 * m2, m1 * m3, m1 * m4, m2 * m3, m2 * m4)
    ip = InvariantPresentation(amb, names, gens, automorphisms=autos + (neg,))

    def constants(ctx, cfg):
        L = ctx.lie()
        return True, "; ".join(
            f"[{L.labels[i]},{L.labels[j]}] = {lincomb_text(L.labels, row)}"
            for (i, j), row in L.structure_table().items()
        )

    return _entry(
        "weyl-g2", "example 5.4", None, invariants=ip, grading_name="g3",
        notes=[
            "n_j built programmatically as the stated products of the A2 m's; the "
            "sixteen relations are not displayed at the source, so derived "
            "constants are recorded without display comparison"
        ],
        facts=[
            ("invariance", _invariance("W' = W x <pi> fixes all ten generators")),
            ("derived_constants", "example 5.4 (recorded)", constants),
            *_weyl_trio(
                "example 5.4", [6, 4, 2, 0, -2, -4, -6],
                "radical is the 7-dimensional simple sl2-module",
            ),
        ],
    )


def _entry_kirillov_kostant_sl2() -> CatalogEntry:
    vs = _vars(("e", "h", "f"))
    e, h, f = _gens(vs)
    sl2 = LieAlgebra.from_brackets(
        vs.names, {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}}
    )
    table = Table.from_dict(vs, {("h", "e"): 2 * e, ("h", "f"): -2 * f, ("e", "f"): h})
    pres = PoissonPresentation(table)

    def lie_matches(ctx, cfg):
        return ctx.lie(ORIGIN) == sl2, "g(J) carries the input structure constants"

    def round_trips(ctx, cfg):
        origin = ctx.point(ORIGIN)
        for d in range(1, 5):
            rep, module = ctx.irrep(origin, d), ctx.lift(origin, d)
            if restrict_to_lie(module).mats != rep.mats:
                return False, f"restrict(lift) differs at d={d}"
            again = lift_module(pres, origin, restrict_to_lie(module))
            if again != module:
                return False, f"lift(restrict) differs at d={d}"
        return True, "M*dagger = M and N dagger* = N matrix-exactly, d <= 4"

    return _entry(
        "kirillov-kostant-sl2", "example 3.5", pres,
        facts=[
            ("ideal_points", _ideal_points([ORIGIN])),
            ("lie_identification", lie_matches),
            ("recognition_homogeneity", _sl2_everywhere("1-homogeneous")),
            ("round_trips", "theorem 3.4(iii)", round_trips),
        ],
    )


def _entry_abelian(n: int) -> CatalogEntry:
    names = tuple(f"x{i+1}" for i in range(n))
    vs = _vars(names)
    pres = PoissonPresentation(Table(vs, ()))

    def ideals(ctx, cfg):
        want = len(ctx.entry.box.coordinate_values()) ** n
        return len(ctx.ideals) == want, f"every box point is Poisson ({want})"

    def abelian_tag(ctx, cfg):
        pt = ctx.ideals[0]
        rec = ctx.rec(pt)
        ok = rec.tag == "abelian" and rec.k == n
        return ok, f"abelian; {n}-parameter family of characters"

    def character_formula(ctx, cfg):
        alphas = [Scalar(i + 1) for i in range(n)]
        betas = [Scalar(2 * i - 1) for i in range(n)]
        pt = _pt(vs, alphas)
        module = solvable_character_module(pres, pt, betas)
        if not verify_poisson_axioms(module, cfg.trials, cfg.seed).ok:
            return False, "character module fails axioms"
        gens = _gens(vs)
        sample = gens[0] * gens[0] * gens[n - 1] + 3 * gens[n - 1]
        action = module.action_of(sample)[0, 0]
        expected = sum(
            (b * sample.partial(name).evaluate(pt) for b, name in zip(betas, names)),
            Scalar(0),
        )
        return action == expected, "{f, m} = sum beta_i df/dx_i(alpha) m"

    return _entry(
        f"abelian({n})", "example 3.5", pres, box=SearchBox(1, 1),
        facts=[
            ("ideal_points", ideals),
            ("recognition", abelian_tag),
            ("character_formula", character_formula),
            ("homogeneity", _homogeneity(None, first_only=True)),
        ],
    )


# -- registry -----------------------------------------------------------------------

# name -> builder of a single entry, or family -> (builder(n), the parameters
# `catalog run-all` samples, the least valid parameter)
_REGISTRY = {
    "kleinian-a1": _entry_kleinian_a1,
    "torus-so3": _entry_torus,
    "laurent-inv": _entry_laurent_inv,
    "uqsl2": _entry_uqsl2,
    "uqsl2-equitable": _entry_uqsl2_equitable,
    "uqsl2-4hom": _entry_uqsl2_4hom,
    "whitney": _entry_whitney,
    "c-theta": _entry_c_theta,
    "d-phi": _entry_d_phi,
    "weyl-a2": _entry_weyl_a2,
    "weyl-b2": _entry_weyl_b2,
    "weyl-g2": _entry_weyl_g2,
    "kirillov-kostant-sl2": _entry_kirillov_kostant_sl2,
    "kleinian-e6": lambda: _entry_kleinian_de(
        "kleinian-e6", lambda x, y, z: x * x + y**3 + z**4
    ),
    "kleinian-e7": lambda: _entry_kleinian_de(
        "kleinian-e7",
        lambda x, y, z: x * x + y * y + y * z**3,
        note="potential taken literally from the source display (x^2 + y^2 + "
        "y*z^3); likely a typo for x^2 + y^3 + y*z^3, solvability unaffected",
    ),
    "kleinian-e8": lambda: _entry_kleinian_de(
        "kleinian-e8", lambda x, y, z: x * x + y**3 + z**5
    ),
    "kleinian-an": (_entry_kleinian_an, (2, 3, 4, 5), 2),
    "kleinian-d": (
        lambda n: _entry_kleinian_de(
            f"kleinian-d({n})", lambda x, y, z: x * x + y * y * z + z ** (n - 1)
        ),
        (4, 5),
        4,
    ),
    "abelian": (_entry_abelian, (3,), 1),
}


def catalog_names():
    """Entry names run by `catalog run-all` (parametrized samples expanded)."""
    names = []
    for base, row in _REGISTRY.items():
        names.extend([f"{base}({n})" for n in row[1]] if isinstance(row, tuple) else [base])
    return sorted(names)


def get_entry(name: str) -> CatalogEntry:
    base, arg = name, None
    if name.endswith(")") and "(" in name:
        base, arg = name[:-1].split("(", 1)
    row = _REGISTRY.get(base)
    if row is None or (arg is None) == isinstance(row, tuple):
        raise AtlasError(f"unknown catalog entry {name!r}")
    if arg is None:
        return row()
    builder, _, least = row
    try:
        n = int(arg)
    except ValueError:
        raise AtlasError(f"bad parameter in {name!r}") from None
    if n < least:
        raise AtlasError(f"{base} needs n >= {least}")
    return builder(n)
