"""Machine-readable encodings of the worked examples, with self-verifying facts.

An entry is data plus cited facts.  The data: a presentation and search box
(or, for a Lie-level entry, only invariants), the invariant presentation of a
presented ring, named automorphisms and embeddings, and `containing`, a
polynomial the example's ideals contain when the scan finds others too.  The
facts: rows `(key, [cite,] fn, *expected)`, a row with no citation cited like
the entry; `fn(ctx, cfg, *expected)` returns `(ok, detail)`.  `_entry` binds
each row to the `(key, cite, fn(ctx, cfg))` triple that `run_entry` runs, in
order.  A fact of a shared shape names that shape's one plain function and
its expected values (`_ideal_points`, `_recognition`, `_at_ideals`,
`_sl2_everywhere`, `_homogeneity`, `_quotient_homogeneity`, `_constants`,
`_invariance`, `_consistency`, `_leaves`, `_characters`, `_lift_spectra`,
`_poisson_maps`, `_phi_swap`, `_solvable`, and the three rows of
`_weyl_trio`); a scenario found in one example only is a closure in that
example's builder, in a row with no expected values.

Facts hand nothing to each other: each reads the ideals, g(J) at a point or
from the invariants, its recognition, sl2-triple and irreducible lifts from
the run's `Context`, which computes each value on first use and keeps it
until `run_entry` returns.  A fact run alone therefore reports what it
reports after the facts before it.  The citations make reports an audit trail.

To add an example, write its presentation as file text (automorphisms,
embeddings, points and grading included) and read it with
`presfile.parse_presentation`; its builder returns `_entry(name, cite, file,
facts=[rows], **data)`, and a row in `_REGISTRY` names it.  Each fact is a row
of a shared shape where one fits, e.g. `("homogeneity", _homogeneity,
"1-homogeneous")`, and a closure `fn(ctx, cfg)` only where none does.
Invariant generators, which the file format has no clause for, are
polynomials over the parsed ambient's generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .brackets import PoissonPresentation, bracket, verify_poisson_map
from .classify import find_sl2_triple, homogeneity_report, recognize, recognize_points
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
from .poly import LaurentPoly, PointP
from .presfile import PresentationFile, lincomb_text, parse_presentation
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
    grading: LaurentPoly | None = None
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
        return PresentationFile(pres, {}, points, autos, self.embeds, self.grading)


class Context:
    """The derived values of one entry, each computed on first use and kept
    for one `run_entry` call.

    A point `at` is a coordinate tuple or a `PointP` of the presentation; no
    point means the algebra of a Lie-level entry, read off its invariants.
    The memos here are keyed by point value, and g(J), its recognition and
    the axiom obligations at a point are kept on the presentation by value,
    so every lift and fact at equal points shares them.
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
        return at if isinstance(at, PointP) else PointP(self.pres.varset, at)

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
        return lie_from_point(self.pres, pt)  # the presentation keeps g(J)

    def rec(self, at=None):
        """The recognition of g(J): at a point, the one `recognize_points`
        keeps on the presentation, which points with equal g(J) share."""
        pt = self.point(at)
        if pt is None:
            return self.memo("rec", lambda: recognize(self.lie()))
        return next(recognize_points(self.pres, [pt]))

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


def _gens(varset):
    return [LaurentPoly.variable(varset, n) for n in varset.names]


def _eig_multiset(matrix):
    return _expect_eigs(v for v, mult, _ in eigen_small(matrix).pairs for _ in range(mult))


def _expect_eigs(values):
    return sorted((Scalar.coerce(v) for v in values), key=Scalar.sort_key)


def _text(values) -> str:
    """Values, or tuples of them, as `[a, b, ...]`."""
    return "[" + ", ".join(_text(v) if isinstance(v, tuple) else str(v) for v in values) + "]"


def _entry(name, cite, pf, facts, **data) -> CatalogEntry:
    """An entry with the presentation, automorphisms, embeddings and grading
    of the parsed file `pf` (None for a Lie-level entry) unless `data` gives
    them; each fact row `(key, [cite,] fn, *expected)` becomes the triple
    `(key, cite, fact)` with fact(ctx, cfg) = fn(ctx, cfg, *expected), cited
    like the entry when the row names no citation."""
    if pf is not None:
        data = {"presentation": pf.presentation, "automorphisms": pf.autos,
                "embeds": pf.embeds, "grading": pf.grading, **data}
    checks = []
    for key, *row in facts:
        fact_cite = row.pop(0) if isinstance(row[0], str) else cite
        fn, *expected = row
        checks.append((key, fact_cite, lambda ctx, cfg, fn=fn, args=expected: fn(ctx, cfg, *args)))
    return CatalogEntry(name, cite, checks=checks, **data)


# -- fact shapes: one plain function each, fn(ctx, cfg, *expected) -> (ok, detail) --


def _ideal_points(ctx, cfg, want, note=None):
    """The kept ideals sit exactly at `want`: coordinate tuples, or a function
    of the search box giving them."""
    coords = want(ctx.entry.box) if callable(want) else want
    got = ctx.ideals
    expected = sorted((ctx.point(c) for c in coords), key=PointP.sort_key)
    detail = f"found {[str(p) for p in got]}"
    return got == expected, detail if note is None else f"{detail} ({note})"


def _recognition(ctx, cfg, tag, at=None, radical_dim=0):
    """g(J) at `at` is recognized as `tag`, with a radical of that dimension."""
    rec = ctx.rec(at)
    return rec.tag == tag and rec.radical_dim == radical_dim, rec.describe()


def _at_ideals(ctx, cfg, holds, detail):
    """`holds(point, rec)` at every ideal, rec the recognition of g(J) there;
    the first point where it fails is the witness."""
    for point in ctx.ideals:
        rec = ctx.rec(point)
        if not holds(point, rec):
            return False, f"at {point}: g(J) is {rec.describe()}, k = {rec.k}"
    return True, detail


def _sl2_everywhere(ctx, cfg, verdict):
    """g(J) is sl2 at every ideal and the entry is `verdict` homogeneous; the
    verdict is the detail, or the first point where g(J) is not sl2."""
    for pt in ctx.ideals:
        if ctx.rec(pt).tag != "sl2":
            return False, f"at {pt}: g(J) is {ctx.rec(pt).describe()}"
    rep = homogeneity_report(ctx.pres, ctx.ideals)
    return rep.verdict == verdict, rep.verdict


def _homogeneity(ctx, cfg, verdict):
    """The homogeneity verdict is `verdict`."""
    rep = homogeneity_report(ctx.pres, ctx.ideals)
    return rep.verdict == verdict, rep.verdict


def _quotient_homogeneity(ctx, cfg, *quotients):
    """Verdicts on quotients A_lam = A / (f - lam) of the potential f: each
    quotient is (label, lam, verdict), lam None for A itself."""
    potential = ctx.pres.bracket_spec.potential
    reps = [
        (label, homogeneity_report(ctx.pres, ctx.ideals, None if lam is None else potential - lam),
         verdict)
        for label, lam, verdict in quotients
    ]
    ok = all(rep.verdict == verdict for _, rep, verdict in reps)
    return ok, "; ".join(f"{label}: {rep.verdict}" for label, rep, _ in reps)


def _constants(ctx, cfg, table, at=None, detail="all displayed structure constants reproduced"):
    """g(J) at `at` (or of a Lie-level entry) has the displayed brackets."""
    lie = ctx.lie(at)
    return _same_table(lie, LieAlgebra.from_brackets(lie.labels, table), detail)


def _same_table(lie, other, detail):
    """(True, detail) when the structure tables of two algebras on the same
    labels agree, else (False, the brackets where they differ, in pair order)."""
    got, expected = lie.structure_table(), other.structure_table()
    return (True, detail) if got == expected else (False, "mismatch at " + ", ".join(
        f"[{lie.labels[i]},{lie.labels[j]}]" for i, j in sorted(got.keys() | expected.keys())
        if got.get((i, j)) != expected.get((i, j))))


def _solvable(ctx, cfg):
    """g(J) at the origin is of solvable type."""
    rec = ctx.rec(ORIGIN)
    return rec.is_solvable_type, f"g(J) is {rec.describe()} (solvable)"


def _invariance(ctx, cfg, detail, identity=None):
    """The group fixes the invariant generators, the relations hold, and so
    does the bracket `identity()` when one is given; else the first failure."""
    ip = ctx.entry.invariants
    for kind, *what in verify_invariance(ip).failures:
        if kind == "relation":
            return False, f"relation {what[0]} is not 0 on the generators"
        return False, f"the automorphism {_text(ip.automorphisms[what[0]].images)} moves {what[1]}"
    if identity is not None and not identity():
        return False, "the bracket identity fails"
    return True, detail


def _consistency(ctx, cfg, detail):
    """lie_from_invariants and lie_from_point at the origin agree."""
    return _same_table(ctx.lie(), ctx.lie(ORIGIN), detail)


def _leaves(ctx, cfg, lambdas, per=None, detail=None):
    """The singular points lie on the leaves f = lam for exactly `lambdas`."""
    by_lambda = leaf_report(ctx.pres, ctx.ideals)
    lam = [str(s) for s in by_lambda]
    counts = {str(k): len(v) for k, v in by_lambda.items()}
    ok = lam == lambdas and (per is None or counts == per)
    return ok, detail or f"singular lambdas {lam}, points per lambda {counts}"


def _characters(ctx, cfg, cases, detail):
    """Each case (at, beta, valid): the one-dimensional module of the
    character beta at `at` is built and passes the axioms when valid, and is
    refused when not."""
    for at, beta, valid in cases:
        pt = ctx.point(at)
        try:
            module = solvable_character_module(ctx.pres, pt, beta)
        except AtlasError as exc:
            if valid:
                return False, f"beta = {beta} at {pt} refused: {exc}"
            continue
        if not valid:
            return False, f"beta = {beta} at {pt} accepted"
        ax = verify_poisson_axioms(module, cfg.trials, cfg.seed)
        if not ax.ok:
            return False, f"beta = {beta} at {pt} fails the axioms: {ax.failures[:1]}"
    return True, detail


def _lift_spectra(ctx, cfg, at, element, spectra, detail):
    """For each d in `spectra`, the d-dimensional lift at `at` passes the
    axioms and `element` acts on it with the eigenvalues spectra[d]."""
    for d, weights in spectra.items():
        module = ctx.lift(at, d)
        ax = verify_poisson_axioms(module, cfg.trials, cfg.seed)
        if not ax.ok:
            return False, f"axioms fail at d={d}: {ax.failures[:1]}"
        if _eig_multiset(module.action_of(element)) != _expect_eigs(weights):
            return False, f"{{{element}, -}} spectrum off at d={d}"
    return True, detail


def _poisson_maps(ctx, cfg, maps, detail):
    """Each (name, map, source, target) is a Poisson map."""
    for name, smap, source, target in maps:
        if not verify_poisson_map(smap, source, target).ok:
            return False, f"{name} is not Poisson"
    return True, detail


def _phi_swap(ctx, cfg, src, dst, detail):
    """phi twists the 2-dimensional lift at `src` to `dst`; `twist` refuses a
    phi that is not Poisson."""
    got = twist(ctx.lift(src, 2), ctx.entry.automorphisms["phi"]).point
    return (True, detail) if got == ctx.point(dst) else (False, f"phi twists the lift to {got}")


def _radical_weights(ctx, cfg, weights, detail):
    """h of g's sl2-triple acts on the radical with the eigenvalues `weights`."""
    adh = ctx.lie().ad_matrix(ctx.triple().h)
    got = _eig_multiset(restrict_action([adh], ctx.rec().radical_basis)[0])
    return (True, detail) if got == _expect_eigs(weights) else (False, f"weights {_text(got)}")


def _sl2_type(ctx, cfg):
    """1-homogeneous: a unique Poisson maximal ideal (V <= {V, V}) with an
    sl2-type g(J)."""
    return ctx.rec().is_sl2_type, "1-homogeneous (unique Poisson maximal ideal, sl2-type g(J))"


def _weyl_trio(cite, weights, weights_detail):
    """The recognition, radical_weights and homogeneity rows of a Weyl-group
    quotient: g = sl2 semidirect an abelian radical with the given h-weights."""
    return [
        ("recognition", cite, _recognition, "sl2_semidirect", None, len(weights)),
        ("radical_weights", cite, _radical_weights, weights, weights_detail),
        ("homogeneity", cite, _sl2_type),
    ]


# -- shared data -------------------------------------------------------------------


def _surface(potential: str, names="x, y, z") -> str:
    """The text of C[names]/(f) with the exact bracket of f = potential."""
    return f"vars {names}; bracket exact f = {potential}; relation f;\n"


_TORUS = _surface("x*y*z - x^2 - y^2 - z^2 + 4")
_C_THETA = "2*x*v*w - x^2*v - 2*v^2 - 2*w^2 + 4*v"  # over x, v, w
_UQSL2 = "vars x, y, z laurent(z); bracket scaled a = 2*z; f = x*y + z + z^-1;\n"
_PHI = "auto phi { x -> x; y -> -y; z -> -z; };"
_CONTINUUM = "not t-homogeneous (continuum of 1-dimensional classes)"
_WEYL_A2 = """vars a1, a2, b1, b2;
bracket table { [a1,b1] = 6; [a2,b2] = 6; [a1,b2] = -3; [a2,b1] = -3; };
auto swap { a1 -> a2; a2 -> a1; b1 -> b2; b2 -> b1; };
auto cycle { a1 -> a2; a2 -> -a1 - a2; b1 -> b2; b2 -> -b1 - b2; };
"""


def _invariants(amb: PresentationFile, names, gens, relations=()) -> InvariantPresentation:
    """The invariants `gens` of the file's ring under its automorphisms."""
    return InvariantPresentation(amb.presentation, tuple(names), tuple(gens),
                                 tuple(amb.autos.values()), tuple(relations))


def _half_steps(d: int, denom: int):
    """The weights (2j + 1 - d)/denom, j < d, of a d-dimensional sl2-module."""
    return _expect_eigs([Fraction(2 * j + 1 - d, denom) for j in range(d)])


def _kleinian_invariants(n: int, f) -> InvariantPresentation:
    """x = x1^n/a, y = x2^n/a, z = x1 x2/n with a^2 = n^n in the Weyl bracket."""
    pi = {2: "auto pi { x1 -> -x1; x2 -> -x2; };",
          4: "auto pi { x1 -> sqrt(-1)*x1; x2 -> -sqrt(-1)*x2; };"}
    amb = parse_presentation("vars x1, x2; bracket table { [x1,x2] = 1; };" + pi.get(n, ""))
    x1, x2 = _gens(amb.varset)
    inv_a = scalar_sqrt(n**n).inverse()
    gens = (x1**n * inv_a, x2**n * inv_a, x1 * x2 * Fraction(1, n))
    return _invariants(amb, "xyz", gens, (f,))


# -- entry builders ----------------------------------------------------------------


def _entry_kleinian_a1() -> CatalogEntry:
    pf = parse_presentation(_surface("z^2 - x*y") + """
        embed pi4(u, v, w) { bracket exact F = w^4/4 - u*v; relation F;
          u -> x^2/8; v -> y^2/8; w -> z/2; };
        grading z;""")
    pres = pf.presentation
    # z^2 - xy expands to the zero ambient polynomial
    ip = _kleinian_invariants(2, pres.relations[0])
    # B^{pi4} sub-presentation for the restriction scenario: uv = w^4/4
    emb, sub = pf.embeds["pi4"]

    def triple(ctx, cfg):
        tri = ctx.triple(ORIGIN)
        expected = tuple(
            tuple(Scalar.coerce(c) for c in vec) for vec in ((0, 1, 0), (0, 0, 2), (-1, 0, 0))
        )
        ok = tri.verify(ctx.lie(ORIGIN)) and (tri.e, tri.h, tri.f) == expected
        found = f"found (e, h, f) = {_text((tri.e, tri.h, tri.f))}"
        return ok, "triple (e, h, f) = (y, 2z, -x)" if ok else found

    def restriction(ctx, cfg):
        for d in range(1, 5):
            restricted = restrict_to_subalgebra(ctx.lift(ORIGIN, d), emb, sub)
            if restricted.point != PointP(sub.varset, ORIGIN):
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
        "kleinian-a1", "section 4.2", pf, invariants=ip,
        facts=[
            ("ideal_points", _ideal_points, [ORIGIN]),
            ("recognition", _recognition, "sl2", ORIGIN),
            ("structure_constants", _constants,
             {("x", "y"): {"z": 2}, ("y", "z"): {"y": -1}, ("z", "x"): {"x": -1}}, ORIGIN),
            ("sl2_triple", "section 4.2 (derived)", triple),
            ("homogeneity", _homogeneity, "1-homogeneous"),
            ("invariant_presentation", _invariance, "pi fixes generators; xy = z^2 identically"),
            ("invariant_consistency", _consistency,
             "lie_from_invariants agrees with lie_from_point"),
            ("lifted_modules", "example 4.4 display / theorem 3.4", _lift_spectra, ORIGIN,
             pres.gen("z"), {d: _half_steps(d, 2) for d in range(1, 7)},
             "d = 1..6 lift axioms and {z,-} spectra (2j+1-d)/2"),
            ("pi4_restriction", "example 4.4", restriction),
        ],
    )


def _entry_torus() -> CatalogEntry:
    pf = parse_presentation(_TORUS + """
        auto theta_x { x -> x; y -> -y; z -> -z; };
        auto theta_y { x -> -x; y -> y; z -> -z; };
        auto theta_z { x -> -x; y -> -y; z -> z; };""")
    pres, autos = pf.presentation, pf.autos
    five = [ORIGIN, (2, 2, 2), (2, -2, -2), (-2, 2, -2), (-2, -2, 2)]
    j2 = five[1]

    # invariants of the 2-torus; z is the pi'-image of the displayed generator
    tor = parse_presentation("""vars x1, x2 laurent(x1, x2);
        bracket table { [x1,x2] = x1*x2; };
        auto pi { x1 -> x1^-1; x2 -> x2^-1; };""")
    x1, x2 = _gens(tor.varset)
    inv_x = x1 + x1**-1
    inv_y = x2 + x2**-1
    inv_z = x1 * x2**-1 + x1**-1 * x2
    ip = _invariants(tor, "xyz", (inv_x, inv_y, inv_z), pres.relations)

    def triple_disc(ctx, cfg):
        tri = ctx.triple(ORIGIN)
        ok = tri.verify(ctx.lie(ORIGIN)) and tri.discriminant == -1
        found = f"found (e, h, f) = {_text((tri.e, tri.h, tri.f))}, discriminant {tri.discriminant}"
        return ok, "g(J1) triple lives in Q(sqrt(-1))" if ok else found

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
        simple = is_simple_module(module), is_simple_module(twisted)
        ok = twisted.point == ctx.point(five[2]) and simple[0] == simple[1]
        found = f"twist annihilated at {twisted.point}, simple {simple[0]} -> {simple[1]}"
        return ok, "theta_x twist annihilated at J3, simplicity preserved" if ok else found

    return _entry(
        "torus-so3", "section 4.3", pf, invariants=ip,
        notes=[
            "invariant generator z is taken as x1*x2^-1 + x1^-1*x2; with the displayed "
            "x1*x2 + x1^-1*x2^-1 every bracket identity acquires a global sign flip",
            "theta twists realize J3 = theta_x(J2), J4 = theta_y(J2), J5 = theta_z(J2)",
        ],
        facts=[
            ("ideal_points", _ideal_points, five),
            ("leaf_partition", _leaves, ["0", "4"], {"0": 4, "4": 1}),
            ("recognition", _at_ideals, lambda pt, rec: rec.tag == "sl2",
             "all five g(J_i) recognized sl2"),
            ("g_J1_constants", _constants,
             {("y", "x"): {"z": 2}, ("z", "y"): {"x": 2}, ("x", "z"): {"y": 2}}, ORIGIN),
            ("g_J2_constants", _constants, {("x", "y"): {"x": 2, "y": 2, "z": -2},
                                            ("y", "z"): {"x": -2, "y": 2, "z": 2},
                                            ("z", "x"): {"x": 2, "y": -2, "z": 2}}, j2),
            ("sl2_triple_extension", "section 4.3 (derived)", triple_disc),
            ("homogeneity", _quotient_homogeneity, ("A", None, "5-homogeneous"),
             ("A_0", 0, "4-homogeneous"), ("A_4", 4, "1-homogeneous")),
            ("theta_automorphisms", autos_permute),
            ("twist", "remark 2.9 / section 4.3", twist_check),
            ("invariant_presentation", _invariance,
             "pi fixes x, y, z; relation f = 0; {x,y} = xy - 2z in invariants",
             lambda: bracket(tor.presentation.bracket_spec, inv_x, inv_y)
             == inv_x * inv_y - 2 * inv_z),
        ],
    )


def _entry_laurent_inv() -> CatalogEntry:
    pf = parse_presentation(_surface("x*(4 - z^2) + y^2") + _PHI)
    amb = parse_presentation("""vars x1, x2 laurent(x1);
        bracket table { [x1,x2] = x1; };
        auto pi { x1 -> x1^-1; x2 -> -x2; };""")
    x1, x2 = _gens(amb.varset)
    gens = (x2 * x2, x2 * (x1 - x1**-1), x1 + x1**-1)
    return _entry(
        "laurent-inv", "section 4.4", pf,
        invariants=_invariants(amb, "xyz", gens, pf.presentation.relations),
        facts=[
            ("ideal_points", _ideal_points, [(0, 0, 2), (0, 0, -2)]),
            ("g_J1_constants", _constants,
             {("x", "y"): {"x": -4}, ("y", "z"): {"z": -4}, ("z", "x"): {"y": 2}}, (0, 0, 2)),
            ("recognition_homogeneity", _sl2_everywhere, "2-homogeneous"),
            ("phi_swap", _phi_swap, (0, 0, 2), (0, 0, -2), "phi swaps the J1- and J2-modules"),
            ("invariant_presentation", _invariance,
             "pi fixes x, y, z; relation x(4 - z^2) + y^2 = 0"),
        ],
    )


def _entry_uqsl2() -> CatalogEntry:
    pf = parse_presentation(_UQSL2 + _PHI)
    return _entry(
        "uqsl2", "section 4.5", pf,
        facts=[
            ("ideal_points", _ideal_points, [(0, 0, 1), (0, 0, -1)]),
            ("recognition_homogeneity", _sl2_everywhere, "2-homogeneous"),
            ("quotient_homogeneity", _quotient_homogeneity,
             ("A'_2", 2, "1-homogeneous"), ("A'_-2", -2, "1-homogeneous")),
            ("lift_spectrum", "section 4.5 (derived)", _lift_spectra, (0, 0, 1),
             pf.presentation.gen("z") - 1, {2: [1, -1]},
             "{z - 1, -} eigenvalues {1, -1} at d = 2"),
            ("phi_swap", _phi_swap, (0, 0, 1), (0, 0, -1), "phi transposes J1 and J2"),
        ],
    )


def _entry_uqsl2_equitable() -> CatalogEntry:
    scaled = parse_presentation(_UQSL2 + """
        auto eta { x -> 1 - z*y; y -> x - z^-1; z -> z; };
        auto eta_inv { x -> y + z^-1; y -> z^-1*(1 - x); z -> z; };""")
    pf = parse_presentation("vars x, y, z laurent(z); bracket exact f = 2*(x + y + z - x*y*z);")
    pres, eta, eta_inv = pf.presentation, scaled.autos["eta"], scaled.autos["eta_inv"]

    def eta_inverse(ctx, cfg):
        ok = all(
            img == gen
            for comp in (eta.compose(eta_inv), eta_inv.compose(eta))
            for img, gen in zip(comp.images, _gens(pres.varset))
        )
        return ok, "eta and eta^-1 compose to the identity"

    return _entry(
        "uqsl2-equitable", "section 4.5", pf,
        notes=[
            "eta is Poisson from the scaled presentation to the equitable one (the "
            "stated direction is the reverse; on the (x, y) generator pair only "
            "this orientation verifies)"
        ],
        facts=[
            ("ideal_points", _ideal_points, [(1, 1, 1), (-1, -1, -1)]),
            ("recognition_homogeneity", _sl2_everywhere, "2-homogeneous"),
            ("eta_poisson_map", _poisson_maps,
             [("eta", eta, scaled.presentation, pres),
              ("eta^-1", eta_inv, pres, scaled.presentation)],
             "eta and eta^-1 verify as Poisson maps"),
            ("eta_round_trip", eta_inverse),
        ],
    )


def _entry_uqsl2_4hom() -> CatalogEntry:
    pf = parse_presentation("""vars x, y, z laurent(z);
        bracket scaled a = 2*z; f = x*y + z^2 + z^-2;
        point (0, 0, sqrt(-1)); point (0, 0, -sqrt(-1));""")
    return _entry(
        "uqsl2-4hom", "section 4.5", pf, box=SearchBox(extra=tuple(pf.points)),
        facts=[
            ("ideal_points", "section 4.5 (4-homogeneous variant)", _ideal_points,
             [(0, 0, 1), (0, 0, -1), *pf.points]),
            ("recognition_homogeneity", _sl2_everywhere, "4-homogeneous"),
        ],
    )


def _entry_whitney() -> CatalogEntry:
    return _entry(
        "whitney", "example 4.3", parse_presentation(_surface("x*y^2 - z^2")),
        facts=[
            ("ideal_points", _ideal_points,
             lambda box: [(a, 0, 0) for a in sorted(box.coordinate_values())]),
            ("leaf_partition", _leaves, ["0"], None, "all singular points lie on S_0"),
            ("recognition", _at_ideals,
             lambda pt, rec: rec.tag == ("heisenberg" if pt.values[0].is_zero else "solvable"),
             "Heisenberg at alpha = 0, solvable non-nilpotent otherwise"),
            ("characters", _characters,
             [((1, 0, 0), (5, 0, 0), True), ((1, 0, 0), (0, 1, 0), False),
              (ORIGIN, (2, 3, 0), True), (ORIGIN, (0, 0, 1), False)],
             "alpha*rho = 0 constraint enforced on 1-dim characters"),
            ("module_catalog", _at_ideals,
             lambda pt, rec: rec.k == (2 if pt.values[0].is_zero else 1),
             "character space dim 2 at alpha = 0, else 1"),
            ("homogeneity", _homogeneity, _CONTINUUM),
        ],
    )


def _entry_kleinian_an(n: int) -> CatalogEntry:
    pf = parse_presentation(_surface(f"z^{n} - x*y") + "grading z;")
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
        ok = rec.tag == "solvable" and _constants(ctx, cfg, expected, ORIGIN)[0]
        return ok, f"{rec.describe()}; [x,y] = 0, [y,z] = -y, [z,x] = -x"

    return _entry(
        f"kleinian-an({n})", "example 4.4", pf,
        invariants=_kleinian_invariants(n, pf.presentation.relations[0]), notes=notes,
        facts=[
            ("ideal_points", _ideal_points, [ORIGIN]),
            ("recognition", _recognition, "sl2", ORIGIN) if n == 2 else ("recognition", solvable),
            ("invariant_presentation", _invariance,
             "generators fixed (where checkable); xy = z^n identically"),
            ("invariant_consistency", _consistency, "lie_from_invariants matches lie_from_point"),
            ("characters", _characters, [], "n = 2 is the sl2 case; no character family")
            if n == 2 else
            ("characters", _characters, [(ORIGIN, (0, 0, 7), True), (ORIGIN, (1, 0, 0), False)],
             "{z, v} = tau v family; characters supported on z only"),
            ("homogeneity", _homogeneity, "1-homogeneous" if n == 2 else _CONTINUUM),
        ],
    )


def _entry_kleinian_de(name: str, potential: str, note=None) -> CatalogEntry:
    return _entry(
        name, "remark 4.5", parse_presentation(_surface(potential)),
        notes=[note] if note else [],
        facts=[("ideal_points", _ideal_points, [ORIGIN]), ("solvability", _solvable)],
    )


def _entry_c_theta() -> CatalogEntry:
    # C^theta and its embedding into the torus presentation C = B^pi
    pf = parse_presentation(_TORUS + f"""
        embed theta(x, v, w) {{ bracket exact F = {_C_THETA}; relation F;
          x -> x; v -> y^2/2; w -> y*z/2; }};""")
    cpres = pf.presentation
    emb, pres = pf.embeds["theta"]
    (g,) = pres.relations
    y, z = cpres.gen("y"), cpres.gen("z")

    def g_in_j2(ctx, cfg):
        for pt in ctx.ideals:
            if not relation_in_J_squared(pres, g, pt):
                return False, f"g not in J^2 at {pt}"
        return True, "g in J^2 at I1, I2, L1, L2"

    def restriction(ctx, cfg):
        i1 = PointP(pres.varset, (2, 2, 2))
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
        pt = PointP(cpres.varset, (2, 0, 0))
        if is_poisson_maximal(cpres, pt):
            return False, "(2,0,0) unexpectedly Poisson in C"
        witness = bracket(cpres.bracket_spec, y, z).evaluate(pt)
        return witness == Scalar(-4), "{y,z}(2,0,0) = -4, so the ideal is not Poisson"

    return _entry(
        "c-theta", "section 4.7", pf, presentation=pres, containing=g,
        notes=[
            'the displayed claim reads "g^2 in J"; the verified fact is g in J^2 '
            "(value and gradient vanish at all four points)"
        ],
        facts=[
            ("ideal_points", _ideal_points,
             [(2, 2, 2), (-2, 2, -2), (2, 0, 0), (-2, 0, 0)], "ideals containing g"),
            ("g_in_J_squared", "section 4.7 (flagged)", g_in_j2),
            ("recognition_homogeneity", _sl2_everywhere, "4-homogeneous"),
            ("restriction_scenario", restriction),
            ("L_overpoint_not_poisson", "section 4.7 (derived)", l_points_not_poisson),
        ],
    )


def _entry_d_phi() -> CatalogEntry:
    # D^phi, 2h for h = 2auv - 2a^2 - u^2 v - u v^2 + 2uv, and its embedding into C^theta
    pf = parse_presentation(_surface(_C_THETA, "x, v, w") + """
        embed phi(a, u, v) { bracket exact F = 2*(2*a*u*v - 2*a^2 - u^2*v - u*v^2 + 2*u*v);
          relation F/2; a -> x*w/2; u -> x^2/2; v -> v; };""")
    ctheta = pf.presentation
    emb, pres = pf.embeds["phi"]

    def projections(ctx, cfg):
        # C^theta point -> its image: I1, I2 -> L4-point, L1, L2 -> L3-point
        images = {
            (2, 2, 2): (2, 2, 2),
            (-2, 2, -2): (2, 2, 2),
            (2, 0, 0): (0, 2, 0),
            (-2, 0, 0): (0, 2, 0),
        }
        ok = all(emb.pull_point(PointP(ctheta.varset, c)) == PointP(pres.varset, want)
                 for c, want in images.items())
        return ok, "I-points project to the L4-point, L-points to the L3-point"

    return _entry(
        "d-phi", "section 4.7", pf, presentation=pres, containing=pres.relations[0],
        notes=[
            "computed projections send the L1-point (2,0,0) to the L3-point (0,2,0) "
            "and the I1-point (2,2,2) to the L4-point (2,2,2): the reverse of the "
            "stated correspondence; recorded as an apparent label swap"
        ],
        facts=[
            ("ideal_points", _ideal_points,
             [ORIGIN, (0, 0, 2), (0, 2, 0), (2, 2, 2)], "ideals containing 2h"),
            ("recognition_homogeneity", _sl2_everywhere, "4-homogeneous"),
            ("embedding", _poisson_maps, [("the embedding into C^theta", emb, pres, ctheta)],
             "u = x^2/2, a = xw/2, v = v is a Poisson map into C^theta"),
            ("projections", "section 4.7 (flagged)", projections),
        ],
    )


def _a2_generators(a1, a2, b1, b2):
    """g1, g2, g3, m1, m2, m3, m4 of example 5.1."""
    ninth = Fraction(1, 9)
    return (
        (a1 * a1 + a2 * a2 + a1 * a2) * ninth,
        (b1 * b1 + b2 * b2 + b1 * b2) * ninth,
        (2 * a1 * b1 + a1 * b2 + a2 * b1 + 2 * a2 * b2) * -ninth,
        (a1 * a2 * a2 + a2 * a1 * a1) * ninth,
        (b1 * b2 * b2 + b2 * b1 * b1) * ninth,
        (2 * a1 * b1 * b2 + 2 * a2 * b1 * b2 + a1 * b2 * b2 + a2 * b1 * b1) * ninth,
        (2 * b1 * a1 * a2 + 2 * b2 * a1 * a2 + b1 * a2 * a2 + b2 * a1 * a1) * ninth,
    )


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
    amb = parse_presentation(_WEYL_A2)
    ip = _invariants(amb, ("g1", "g2", "g3", "m1", "m2", "m3", "m4"),
                     _a2_generators(*_gens(amb.varset)))

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
        notes=[
            "the displayed g1 reads a1*a3; the S3-invariant reading a1*a2 is used "
            "(the a1*a3 form breaks the displayed constants)"
        ],
        facts=[
            ("invariance", "example 5.1", _invariance, "W = S3 fixes all seven generators"),
            ("structure_constants", "example 5.1", _constants, _P7_TABLE),
            *_weyl_trio("example 5.1", [3, 1, -1, -3], "radical h-weights {3,1,-1,-3}"),
            ("prop52_module", "proposition 5.2", prop52),
            ("sl2_restriction", "remark 5.3", remark53),
        ],
    )


def _entry_weyl_b2() -> CatalogEntry:
    amb = parse_presentation("""vars x1, x2, y1, y2;
        bracket table { [x1,y1] = 1; [x2,y2] = 1; };
        auto s1 { x1 -> -x1; x2 -> x2; y1 -> -y1; y2 -> y2; };
        auto s2 { x1 -> x2; x2 -> x1; y1 -> y2; y2 -> y1; };""")
    x1, x2, y1, y2 = _gens(amb.varset)
    g1 = x1 * x1 + x2 * x2
    g2 = y1 * y1 + y2 * y2
    g3 = x1 * y1 + x2 * y2
    m1 = x1 * x1 * x2 * x2
    m2 = y1 * y1 * y2 * y2
    m3 = x1 * x2 * y1 * y2  # derived; the displayed m3 duplicates g3
    m4 = x1 * y1**3 + x2 * y2**3
    m5 = x1**3 * y1 + x2**3 * y2
    names = ("g1", "g2", "g3", "m1", "m2", "m3", "m4", "m5")
    ip = _invariants(amb, names, (g1, g2, g3, m1, m2, m3, m4, m5))

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
            if any(auto.apply(inv) != inv for auto in ip.automorphisms):
                return False, "candidate space is not W-invariant"
        # mod J^2: g1 g2 = A + B and g3^2 = A + 2C, so B = -A and C = -A/2
        if g1 * g2 != A + B or g3 * g3 != A + 2 * C:
            return False, "reduction identities fail"
        # the bracket constraints pin the class of m3 = C
        spec = amb.presentation.bracket_spec
        ok = bracket(spec, g2, C) == 2 * m4 - 2 * g2 * g3
        ok = ok and bracket(spec, g1, C) == 2 * g1 * g3 - 2 * m5
        return ok, "{g2,m3} = 2m4 - 2 g2 g3 and {g1,m3} = -2m5 + 2 g1 g3 exactly"

    return _entry(
        "weyl-b2", "example 5.5", None, invariants=ip,
        notes=[
            "m3 derived by brute force over weight-0 bidegree-(2,2) W-invariants "
            "span{A = x1^2 y1^2 + x2^2 y2^2, B = x1^2 y2^2 + x2^2 y1^2, C = x1 x2 y1 y2}: "
            "[g2, m3] = 2 m4 and [g1, m3] = -2 m5 force the class -A/2 = C mod J^2; "
            "representative m3 = x1 x2 y1 y2"
        ],
        facts=[
            ("invariance", _invariance, "W (dihedral of order 8) fixes the generators"),
            ("m3_derivation", "example 5.5 (derived)", m3_derivation),
            ("structure_constants", _constants, table),
            *_weyl_trio("example 5.5", [4, 2, 0, -2, -4], "radical weights {4,2,0,-2,-4}"),
        ],
    )


def _entry_weyl_g2() -> CatalogEntry:
    amb = parse_presentation(_WEYL_A2 + "auto neg { a1 -> -a1; a2 -> -a2; b1 -> -b1; b2 -> -b2; };")
    g1, g2, g3, m1, m2, m3, m4 = _a2_generators(*_gens(amb.varset))
    names = ("g1", "g2", "g3", "n1", "n2", "n3", "n4", "n5", "n6", "n7")
    gens = (g1, g2, g3, m1 * m1, m2 * m2, m1 * m2, m1 * m3, m1 * m4, m2 * m3, m2 * m4)
    ip = _invariants(amb, names, gens)

    def constants(ctx, cfg):
        L = ctx.lie()
        return True, "; ".join(
            f"[{L.labels[i]},{L.labels[j]}] = {lincomb_text(L.labels, row)}"
            for (i, j), row in L.structure_table().items()
        )

    return _entry(
        "weyl-g2", "example 5.4", None, invariants=ip,
        notes=[
            "n_j built programmatically as the stated products of the A2 m's; the "
            "sixteen relations are not displayed at the source, so derived "
            "constants are recorded without display comparison"
        ],
        facts=[
            ("invariance", _invariance, "W' = W x <pi> fixes all ten generators"),
            ("derived_constants", "example 5.4 (recorded)", constants),
            *_weyl_trio(
                "example 5.4", [6, 4, 2, 0, -2, -4, -6],
                "radical is the 7-dimensional simple sl2-module",
            ),
        ],
    )


def _entry_kirillov_kostant_sl2() -> CatalogEntry:
    pf = parse_presentation(
        "vars e, h, f; bracket table { [h,e] = 2*e; [h,f] = -2*f; [e,f] = h; };")
    pres = pf.presentation

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
        "kirillov-kostant-sl2", "example 3.5", pf,
        facts=[
            ("ideal_points", _ideal_points, [ORIGIN]),
            ("lie_identification", _constants,
             {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}}, ORIGIN,
             "g(J) carries the input structure constants"),
            ("recognition_homogeneity", _sl2_everywhere, "1-homogeneous"),
            ("round_trips", "theorem 3.4(iii)", round_trips),
        ],
    )


def _entry_abelian(n: int) -> CatalogEntry:
    names = [f"x{i + 1}" for i in range(n)]
    pf = parse_presentation(f"vars {', '.join(names)}; bracket table {{ }};")
    pres = pf.presentation

    def ideals(ctx, cfg):
        want = len(ctx.entry.box.coordinate_values()) ** n
        return len(ctx.ideals) == want, f"every box point is Poisson ({want})"

    def character_formula(ctx, cfg):
        alphas = [Scalar(i + 1) for i in range(n)]
        betas = [Scalar(2 * i - 1) for i in range(n)]
        pt = PointP(pres.varset, alphas)
        module = solvable_character_module(pres, pt, betas)
        if not verify_poisson_axioms(module, cfg.trials, cfg.seed).ok:
            return False, "character module fails axioms"
        gens = _gens(pres.varset)
        sample = gens[0] * gens[0] * gens[n - 1] + 3 * gens[n - 1]
        action = module.action_of(sample)[0, 0]
        expected = sum(
            (b * sample.partial(name).evaluate(pt) for b, name in zip(betas, names)),
            Scalar(0),
        )
        return action == expected, "{f, m} = sum beta_i df/dx_i(alpha) m"

    return _entry(
        f"abelian({n})", "example 3.5", pf, box=SearchBox(1, 1),
        facts=[
            ("ideal_points", ideals),
            ("recognition", _at_ideals, lambda pt, rec: rec.tag == "abelian" and rec.k == n,
             f"abelian; {n}-parameter family of characters"),
            ("character_formula", character_formula),
            ("homogeneity", _homogeneity, _CONTINUUM),
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
    "kleinian-e6": lambda: _entry_kleinian_de("kleinian-e6", "x^2 + y^3 + z^4"),
    "kleinian-e7": lambda: _entry_kleinian_de(
        "kleinian-e7",
        "x^2 + y^2 + y*z^3",
        note="potential taken literally from the source display (x^2 + y^2 + "
        "y*z^3); likely a typo for x^2 + y^3 + y*z^3, solvability unaffected",
    ),
    "kleinian-e8": lambda: _entry_kleinian_de("kleinian-e8", "x^2 + y^3 + z^5"),
    "kleinian-an": (_entry_kleinian_an, (2, 3, 4, 5), 2),
    "kleinian-d": (
        lambda n: _entry_kleinian_de(f"kleinian-d({n})", f"x^2 + y^2*z + z^{n - 1}"),
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
    if row is None:
        raise AtlasError(f"unknown catalog entry {name!r}")
    if not isinstance(row, tuple):
        if arg is not None:
            raise AtlasError(f"{base} takes no parameter")
        return row()
    builder, _, least = row
    if arg is None:
        raise AtlasError(f"{base} takes a parameter: {base}(n), n >= {least}")
    if not (arg.isascii() and arg.removeprefix("-").isdigit()):  # int() reads '_', '+', blanks
        raise AtlasError(f"bad parameter in {name!r}")
    n = int(arg)
    if n < least:
        raise AtlasError(f"{base} needs n >= {least}")
    return builder(n)
