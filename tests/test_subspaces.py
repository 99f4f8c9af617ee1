"""Reference tests for the subspace routines of linalg: coordinates,
restrict_action, closure, the density hull, and LieAlgebra.change_basis on a
subalgebra.  The references are the per-vector `solve_linear` loops these
routines replaced, and brute-force spans of words.  The submodule analysis,
which finds its weight grading among the module's own matrices, is checked
against the trace-form criterion for semisimplicity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rref_coordinates, rref_kernel, solve_linear, trace_product
from poisson_atlas.errors import AtlasError
from poisson_atlas.lie import LieAlgebra
from poisson_atlas import linalg, modules
from poisson_atlas.linalg import (
    IncrementalSpan,
    Matrix,
    _weight_seeds,
    associative_hull_is_full,
    closure,
    coordinates,
    eigen_small,
    rank,
    restrict_action,
    row_space_basis,
    unit_vector,
    weight_graph,
)
from poisson_atlas.errors import ExtensionRequiredError
from poisson_atlas.modules import (
    SubmoduleAnalysis,
    analyze_submodules,
    composition_series,
    is_simple,
    lie_rep_restrict,
    sl2_irrep,
)
from poisson_atlas.classify import find_sl2_triple
from poisson_atlas.scalars import Scalar

SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)

SL2 = LieAlgebra.from_brackets(
    ("e", "h", "f"),
    {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
)
HEIS = LieAlgebra.from_brackets(("p", "q", "c"), {("p", "q"): {"c": 1}})
# sl2 acting on its 2-dimensional simple module span(v1, v2), v1 of weight 1
SL2_V2 = LieAlgebra.from_brackets(
    ("e", "h", "f", "v1", "v2"),
    {
        ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1},
        ("e", "v2"): {"v1": 1}, ("f", "v1"): {"v2": 1},
        ("h", "v1"): {"v1": 1}, ("h", "v2"): {"v2": -1},
    },
)


# -- references: the per-vector loops the linalg routines replaced -------------


def coordinates_reference(basis, vectors):
    rows = [list(r) for r in zip(*basis)]
    out = [solve_linear(rows, list(v)) for v in vectors]
    return None if any(c is None for c in out) else out


def restrict_action_reference(mats, basis):
    cols = [list(col) for col in zip(*[list(v) for v in basis])]
    out = []
    for m in mats:
        new_cols = []
        for v in basis:
            coords = solve_linear(cols, list(m.apply(v)))
            if coords is None:
                raise AtlasError("subspace is not invariant")
            new_cols.append(coords)
        out.append(Matrix(list(zip(*new_cols))))
    return out


def structure_constants_reference(lie, vectors):
    """The structure constants of span(vectors), one solve per bracket."""
    n = len(vectors)
    cols = [list(c) for c in zip(*vectors)]
    sc = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            coords = solve_linear(cols, list(lie.bracket(vectors[i], vectors[j])))
            if coords is None:
                return None
            sc[i][j] = coords
    return sc


def words_span(seeds, mats, dim):
    """rref of every word of length <= dim in `mats` applied to the seeds."""
    level = [tuple(s) for s in seeds]
    words = list(level)
    for _ in range(dim):
        level = [m.apply(v) for v in level for m in mats]
        words.extend(level)
    return row_space_basis(words)


def inverse(p: Matrix) -> Matrix:
    n = p.nrows
    unit = [[Scalar(int(i == j)) for i in range(n)] for j in range(n)]
    return Matrix(list(zip(*coordinates_reference(list(zip(*p.rows)), unit))))


# -- strategies ------------------------------------------------------------------


def _entries(d):
    """Small entries over Q (d = 0) or Q(sqrt(-1)) (d = -1), zero included."""
    return st.builds(
        lambda a, b: Scalar(a, b if d else 0, d), st.integers(-3, 3), st.integers(-2, 2)
    )


def _vector(draw, entry, n):
    return tuple(draw(st.lists(entry, min_size=n, max_size=n)))


def _combination(draw, entry, vectors, n):
    out = [Scalar(0)] * n
    for v in vectors:
        c = draw(entry)
        out = [a + c * b for a, b in zip(out, v)]
    return tuple(out)


def _matrix(draw, entry, n):
    return Matrix([_vector(draw, entry, n) for _ in range(n)])


def _invertible(draw, entry, n):
    p = _matrix(draw, entry, n)
    while rank([list(r) for r in p.rows]) < n:
        p = p + Matrix.identity(n)
    return p


@st.composite
def _bases_and_vectors(draw):
    """A basis (sometimes dependent) of a subspace of an n-space, and vectors
    each inside its span or drawn freely (then usually outside it)."""
    entry = _entries(draw(st.sampled_from([0, -1])))
    n, k, m = draw(st.integers(1, 5)), draw(st.integers(0, 4)), draw(st.integers(0, 4))
    basis = [_vector(draw, entry, n) for _ in range(k)]
    if basis and draw(st.booleans()):
        basis.append(_combination(draw, entry, basis, n))
    vectors = [
        _combination(draw, entry, basis, n) if draw(st.booleans()) else _vector(draw, entry, n)
        for _ in range(m)
    ]
    return basis, vectors


@st.composite
def _with_invariant_subspace(draw):
    """Matrices P B_i P^-1 with B_i block upper triangular (top-left block k x k),
    the first k columns of P spanning an invariant subspace; sometimes a
    basis that is not invariant instead."""
    entry = _entries(draw(st.sampled_from([0, -1])))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    p = _invertible(draw, entry, n)
    p_inv = inverse(p)
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        b = [list(r) for r in _matrix(draw, entry, n).rows]
        for i in range(k, n):
            for j in range(k):
                b[i][j] = Scalar(0)
        mats.append(p * Matrix(b) * p_inv)
    basis = list(zip(*p.rows))[:k]
    if draw(st.booleans()):
        basis = [_vector(draw, entry, n) for _ in range(k)]
    return mats, basis


# -- coordinates -----------------------------------------------------------------


@SETTINGS
@given(_bases_and_vectors())
def test_coordinates_match_one_solve_per_vector(case):
    basis, vectors = case
    got = coordinates(basis, vectors)
    assert got == coordinates_reference(basis, vectors) == rref_coordinates(basis, vectors)
    n = len((basis + vectors)[0]) if basis + vectors else 0
    outside = rank(basis + vectors) > rank(basis) if basis else any(
        not c.is_zero for v in vectors for c in v
    )
    assert (got is None) == outside
    if got is not None:
        for v, coords in zip(vectors, got):
            recombined = [Scalar(0)] * n
            for c, b in zip(coords, basis):
                recombined = [a + c * x for a, x in zip(recombined, b)]
            assert tuple(recombined) == v


def test_coordinates_dependent_basis_and_outside_vector():
    one, zero = Scalar(1), Scalar(0)
    basis = [(one, zero), (Scalar(2), zero)]
    assert coordinates(basis, [(Scalar(3), zero)]) == [(Scalar(3), zero)]
    assert coordinates(basis, [(Scalar(3), zero), (zero, one)]) is None
    assert coordinates([], [(zero, zero)]) == [()]
    assert coordinates([], [(one, zero)]) is None


# -- restrict_action -------------------------------------------------------------


@SETTINGS
@given(_with_invariant_subspace())
def test_restrict_action_matches_one_solve_per_image(case):
    mats, basis = case
    try:
        want = restrict_action_reference(mats, basis)
    except AtlasError:
        with pytest.raises(AtlasError):
            restrict_action(mats, basis)
        return
    got = restrict_action(mats, basis)
    assert got == want
    assert all(m == Matrix(m.rows) for m in got)


# -- closure ---------------------------------------------------------------------


@st.composite
def _closure_cases(draw):
    """Seeds and matrices on an n-space; block triangular matrices half the
    time, so proper closures occur."""
    entry = _entries(draw(st.sampled_from([0, -1])))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    mats = []
    for _ in range(draw(st.integers(0, 3))):
        b = [list(r) for r in _matrix(draw, entry, n).rows]
        if draw(st.booleans()):
            for i in range(k, n):
                for j in range(k):
                    b[i][j] = Scalar(0)
        mats.append(Matrix(b))
    seeds = [_vector(draw, entry, n) for _ in range(draw(st.integers(1, 2)))]
    return seeds, mats, n


@SETTINGS
@given(_closure_cases())
def test_closure_is_the_span_of_all_words(case):
    seeds, mats, n = case
    span = closure(seeds, [m.apply for m in mats])
    assert span.basis() == words_span(seeds, mats, n)


def test_closure_without_maps_or_seeds():
    one, zero = Scalar(1), Scalar(0)
    assert closure([(one, zero), (Scalar(2), zero)], []).basis() == ((one, zero),)
    assert closure([], []).rank == 0
    assert closure([(zero, zero)], [lambda v: v]).rank == 0


# -- density hull ----------------------------------------------------------------


def irrep(d):
    return sl2_irrep(SL2, d, find_sl2_triple(SL2)).mats


def block(a, b, c):
    """[[a, c], [0, b]] from blocks of sizes p x p, q x q and p x q."""
    top = [tuple(ra) + tuple(rc) for ra, rc in zip(a.rows, c.rows)]
    bottom = [(Scalar(0),) * a.nrows + tuple(rb) for rb in b.rows]
    return Matrix(top + bottom)


@st.composite
def _modules(draw):
    """(matrices, dim, simple?): an sl2 irrep, a direct sum of two, or an
    extension of one by another with a random corner; in a random basis."""
    entry = _entries(draw(st.sampled_from([0, -1])))
    shape = draw(st.sampled_from(["irrep", "sum", "extension"]))
    p_dim = draw(st.integers(1, 3))
    if shape == "irrep":
        mats, dim = irrep(p_dim), p_dim
    else:
        q_dim = draw(st.integers(1, 2))
        corner = [
            Matrix([_vector(draw, entry, q_dim) for _ in range(p_dim)])
            if shape == "extension"
            else Matrix([[0] * q_dim for _ in range(p_dim)])
            for _ in range(3)
        ]
        mats = [block(a, b, c) for a, b, c in zip(irrep(p_dim), irrep(q_dim), corner)]
        dim = p_dim + q_dim
    p = _invertible(draw, entry, dim)
    p_inv = inverse(p)
    return mats, [p_inv * m * p for m in mats], dim, shape == "irrep"


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_modules())
def test_hull_decides_simplicity_in_any_basis(case):
    mats, conjugated, dim, simple = case
    assert associative_hull_is_full(mats, dim) is simple
    assert associative_hull_is_full(conjugated, dim) is simple
    assert is_simple(mats, dim) is simple
    assert is_simple(conjugated, dim) is simple


@pytest.mark.parametrize("position", [0, 1, 2])
def test_every_weight_vector_is_tried(position):
    """h = diag of three distinct weights and x with x e2 = e1 + e3,
    x e3 = e1 + e2: span(e1) is the only proper submodule, and e1 is the only
    eigenvector of h that does not generate; its weight ranks `position`."""
    weights = {0: (0, 1, 2), 1: (1, 0, 2), 2: (2, 0, 1)}[position]
    h = Matrix([[w if i == j else 0 for j in range(3)] for i, w in enumerate(weights)])
    x = Matrix([[0, 1, 1], [0, 0, 1], [0, 1, 0]])
    assert not associative_hull_is_full([h, x], 3)
    assert has_weight_grading([h, x])
    assert is_simple([h, x], 3) is False
    assert is_simple([x, h], 3) is False


# -- change_basis on a subalgebra ------------------------------------------------


def generated_subalgebra(lie, vectors):
    span = row_space_basis(vectors)
    while True:
        grown = row_space_basis(list(span) + [lie.bracket(u, v) for u in span for v in span])
        if len(grown) == len(span):
            return list(span)
        span = grown


@st.composite
def _subalgebras(draw):
    """A Lie algebra in a random basis and vectors in it: the basis of the
    subalgebra some drawn vectors generate, or the drawn vectors themselves."""
    entry = _entries(draw(st.sampled_from([0, -1])))
    lie = draw(st.sampled_from([SL2, HEIS, SL2_V2]))
    lie = lie.change_basis(_invertible(draw, entry, lie.dim))
    drawn = [_vector(draw, entry, lie.dim) for _ in range(draw(st.integers(1, 3)))]
    if not any(not c.is_zero for v in drawn for c in v):
        drawn = [lie.basis_vector(0)]
    if draw(st.booleans()):
        return lie, generated_subalgebra(lie, drawn)
    return lie, list(row_space_basis(drawn))


@SETTINGS
@given(_subalgebras())
def test_change_basis_on_a_subalgebra_matches_one_solve_per_bracket(case):
    lie, vectors = case
    labels = tuple(f"s{i}" for i in range(len(vectors)))
    columns = Matrix(list(zip(*vectors)))
    sc = structure_constants_reference(lie, vectors)
    if sc is None:
        with pytest.raises(ValueError):
            lie.change_basis(columns, labels)
        return
    sub = lie.change_basis(columns, labels)
    n = len(vectors)
    assert sub == LieAlgebra(labels, {(i, j): sc[i][j] for i in range(n) for j in range(i + 1, n)})


def test_lie_rep_restrict_keeps_its_error():
    rep = sl2_irrep(SL2, 2, find_sl2_triple(SL2))
    e, h, f = (SL2.basis_vector(i) for i in range(3))
    borel = lie_rep_restrict(rep, [e, h], ("e", "h"))
    assert borel.lie.bracket(borel.lie.basis_vector(1), borel.lie.basis_vector(0)) == (
        Scalar(2), Scalar(0),
    )
    # the AtlasError keeps the reason `change_basis` gives
    for vectors, labels, reason in (
        ([e, e, h], ("a", "b", "c"), "the columns are linearly dependent"),
        ([e, h], ("e",), "1 labels for 2 columns"),
        ([e, f], ("e", "f"), "the columns do not span a subalgebra"),
    ):
        with pytest.raises(AtlasError, match=f"^cannot restrict: {reason}$"):
            lie_rep_restrict(rep, vectors, labels)


# -- submodule analysis: the grading comes from the module's own matrices -------


def semisimple_reference(mats, dim):
    """Dickson's criterion: over a field of characteristic 0 the unital algebra
    A the matrices generate acts semisimply iff the trace form tr(ab) on A is
    nondegenerate (its kernel is the radical of A)."""
    def square(flat):
        return Matrix([flat[i : i + dim] for i in range(0, dim * dim, dim)])

    maps = [lambda x, g=g: (square(x) * g).flat() for g in mats]
    hull = [square(v) for v in closure([Matrix.identity(dim).flat()], maps).basis()]
    gram = [[trace_product(a, b) for b in hull] for a in hull]
    return rank(gram) == len(hull)


def has_weight_grading(mats):
    """Some action matrix has a spectrum in one extension and 1-dim eigenspaces."""
    for m in mats:
        try:
            pairs = eigen_small(m).pairs
        except ExtensionRequiredError:
            continue
        if all(len(vecs) == 1 for _, _, vecs in pairs):
            return True
    return False


def _analyze_reference(mats, dim):
    """The analysis built from every sum of seed closures (2^k of them), with
    the minimal members filtered out of that whole family: the former body of
    `analyze_submodules`.  Its simplicity verdict is the density hull's."""
    mats = tuple(mats)
    seeds, complete = _weight_seeds(mats, dim)
    maps = [m.apply for m in mats]
    closures = []
    for s in seeds:
        c = closure([s], maps).basis()
        if c not in closures:
            closures.append(c)
    found = {(): ()}
    for c in closures:
        for vectors in list(found.values()):
            merged = row_space_basis(list(vectors) + list(c))
            found.setdefault(merged, merged)
    all_spaces = sorted(found.values(), key=lambda b: (len(b), str(b)))
    minimal = []
    for space in all_spaces:
        if not space:
            continue
        span = IncrementalSpan(space)
        if any(
            other and len(other) < len(space) and all(span.contains(v) for v in other)
            for other in all_spaces
        ):
            continue
        minimal.append(space)
    socle = row_space_basis([v for s in minimal for v in s])
    decomposition = None
    if len(socle) == dim:
        decomposition = []
        current: list = []
        for s in sorted(minimal, key=lambda b: (len(b), str(b))):
            merged = row_space_basis(current + [v for v in s])
            if len(merged) == len(current) + len(s):
                decomposition.append(s)
                current = list(merged)
            if len(current) == dim:
                break
        if all(is_simple(restrict_action(mats, s), len(s)) for s in decomposition):
            semisimple = True
        else:
            semisimple = None
            decomposition = None
    elif complete:
        semisimple = False
    else:
        semisimple = None
    simple = associative_hull_is_full(mats, dim)
    return SubmoduleAnalysis(
        dim, complete, simple, minimal, len(socle), semisimple, decomposition)


@st.composite
def _characters(draw):
    """A direct sum of n one-dimensional modules in a random basis: generator k
    acts on summand i by scalars[k][i], so equal scalars (eigenspaces above
    dimension 1) are common."""
    entry = _entries(draw(st.sampled_from([0, -1])))
    n, g = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    scalars = [[draw(entry) for _ in range(n)] for _ in range(g)]
    diagonal = [
        Matrix([[row[i] if i == j else Scalar(0) for j in range(n)] for i in range(n)])
        for row in scalars
    ]
    p = _invertible(draw, entry, n)
    p_inv = inverse(p)
    return [p_inv * m * p for m in diagonal], n, scalars


@st.composite
def _triangular(draw):
    """Block upper triangular matrices (blocks k and n - k) in a random basis:
    extensions that may or may not split, with Jordan blocks among them."""
    entry = _entries(draw(st.sampled_from([0, -1])))
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n - 1))
    mats = []
    for _ in range(draw(st.integers(1, 2))):
        b = [list(r) for r in _matrix(draw, entry, n).rows]
        for i in range(k, n):
            for j in range(k):
                b[i][j] = Scalar(0)
        mats.append(Matrix(b))
    p = _invertible(draw, entry, n)
    p_inv = inverse(p)
    return [p_inv * m * p for m in mats], n


def check_verdict(mats, dim):
    """The verdict is never wrong, and it is decided whenever some action
    matrix has one-dimensional eigenspaces; a semisimple verdict comes with a
    direct decomposition into simple summands.  The analysis agrees with the
    one built from every sum of seed closures."""
    analysis = analyze_submodules(mats, dim)
    reference = _analyze_reference(mats, dim)
    assert analysis.complete is reference.complete
    assert analysis.simple is reference.simple
    assert analysis.minimal == reference.minimal
    assert analysis.socle_dim == reference.socle_dim
    assert analysis.semisimple is reference.semisimple
    assert analysis.decomposition == reference.decomposition
    truth = semisimple_reference(mats, dim)
    assert is_simple(mats, dim) is associative_hull_is_full(mats, dim)
    assert analysis.semisimple in (truth, None)
    if has_weight_grading(mats):
        assert analysis.complete
        assert analysis.semisimple is truth
    if analysis.semisimple:
        summands = analysis.decomposition
        assert rank([v for s in summands for v in s]) == dim
        assert all(associative_hull_is_full(restrict_action(mats, s), len(s)) for s in summands)
    return analysis


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_characters())
def test_submodules_of_a_sum_of_characters(case):
    mats, n, scalars = case
    analysis = check_verdict(mats, n)
    assert semisimple_reference(mats, n)
    if has_weight_grading(mats):
        # a generator with n distinct scalars grades n one-dimensional summands
        assert any(len(set(row)) == n for row in scalars)
        assert analysis.semisimple is True
        assert [len(s) for s in analysis.minimal] == [1] * n
        assert len(analysis.decomposition) == n


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_modules())
def test_submodules_of_sl2_sums_and_extensions(case):
    _, conjugated, dim, _ = case
    check_verdict(conjugated, dim)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_triangular())
def test_submodules_of_triangular_extensions(case):
    check_verdict(*case)


@pytest.mark.parametrize("dim, message", [
    (3, "the remaining factor is not simple"),
    (4, "a minimal seed closure is not simple"),
])
def test_a_composition_series_without_a_grading_is_refused(dim, message):
    """x: e4 -> e3 -> e1 and y: e3 -> e2, on span(e1, e2, e3) for dim 3,
    each with an eigenspace of dimension 2 or more, in the basis e1 + e3,
    e2 + e3, e1 + e2 + e3 (and e4): every seed closure holds span(e1, e2, e3),
    which is not simple, so the closures cannot give a composition series."""
    x = Matrix([[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    y = Matrix([[0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    p = Matrix([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 1, 0], [0, 0, 0, 1]])
    mats = [Matrix([r[:dim] for r in (inverse(p) * m * p).rows[:dim]]) for m in (x, y)]
    analysis = analyze_submodules(mats, dim)
    assert not analysis.complete and not analysis.simple
    assert [len(s) for s in analysis.minimal] == [3] and analysis.semisimple is None
    with pytest.raises(AtlasError, match=message):
        composition_series(mats, dim)


@pytest.mark.parametrize("d", [0, -1])
def test_a_jordan_block_is_not_semisimple(d):
    jordan = Matrix([[2, 1, 0], [0, 2, 0], [0, 0, 1]])
    p = Matrix([[1, 2, 0], [0, 1, Scalar(1, 1 if d else 0, d)], [1, 0, 1]])
    for mats in ([jordan], [Matrix.identity(3), p * jordan * inverse(p)]):
        analysis = analyze_submodules(mats, 3)
        assert analysis.complete and analysis.semisimple is False
        assert analysis.socle_dim == 2


def test_a_diagonal_module_is_semisimple():
    analysis = analyze_submodules([Matrix([[1, 0], [0, 2]])], 2)
    assert analysis.complete and analysis.semisimple is True
    assert [len(s) for s in analysis.minimal] == [1, 1]


def test_only_the_sinks_get_a_canonical_basis(monkeypatch):
    """The 5-dimensional irrep in a unitriangular basis, h acting first: no
    combination is diagonal, h's five eigenvectors seed, and the one sink,
    the whole module, is the only subspace put in canonical form.  Every
    canonical basis is one `IncrementalSpan.basis`, counted there; the seeds
    are found before counting, since the kernels of their eigensolves are
    read off spans too."""
    d = 5
    e, h, f = irrep(d)
    p = Matrix([[int(j >= i) for j in range(d)] for i in range(d)])
    mats = [inverse(p) * m * p for m in (h, e, f)]
    assert weight_graph(mats, d) is None
    seeds = _weight_seeds(mats, d)
    assert seeds[1] and len(seeds[0]) == d
    calls = []

    def counted(span, original=IncrementalSpan.basis):
        calls.append(span.rank)
        return original(span)

    monkeypatch.setattr(modules, "_weight_seeds", lambda mats, dim: seeds)
    monkeypatch.setattr(IncrementalSpan, "basis", counted)
    analysis = analyze_submodules(mats, d)
    assert analysis.simple and analysis.semisimple and analysis.socle_dim == d
    assert len(analysis.minimal) == 1 and len(analysis.minimal[0]) == d
    assert calls == [d]


@st.composite
def _digraphs(draw):
    """(dim, edges): a random digraph on dim vertices, without loops."""
    dim = draw(st.integers(1, 7))
    pairs = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    return dim, draw(st.sets(pairs.filter(lambda e: e[0] != e[1])))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_digraphs())
def test_the_graph_route_keeps_the_text_order_of_its_sinks(case):
    """h diagonal with distinct weights and x with x e_i having an e_j
    component for each edge i -> j: the minimal submodules are the unit
    vectors on the sink components, the minimal reach sets, listed in the
    former order by (dimension, text), and the simplicity verdict is the
    density hull's."""
    dim, edges = case
    h = Matrix([[i if i == j else 0 for j in range(dim)] for i in range(dim)])
    x = Matrix([[int((i, j) in edges) for i in range(dim)] for j in range(dim)])
    assert weight_graph([h, x], dim) is not None
    reach = []
    for i in range(dim):
        seen, stack = {i}, [i]
        while stack:
            k = stack.pop()
            for a, b in edges:
                if a == k and b not in seen:
                    seen.add(b)
                    stack.append(b)
        reach.append(frozenset(seen))
    sinks = {r for r in reach if not any(other < r for other in reach)}
    expected = sorted(
        (tuple(unit_vector(dim, i) for i in sorted(r)) for r in sinks),
        key=lambda b: (len(b), str(b)),
    )
    analysis = analyze_submodules([h, x], dim)
    assert analysis.minimal == expected
    assert analysis.simple is associative_hull_is_full([h, x], dim)


def test_a_spectrum_in_another_extension_grades_nothing():
    # x has eigenvalues (1 +- sqrt(5))/2 while y has entries in Q(sqrt(-1)):
    # x's eigenvectors cannot be closed under y, so y grades the module
    i = Scalar(0, 1, -1)
    mats = [Matrix([[1, 1], [1, 0]]), Matrix([[i, 0], [0, -i]])]
    analysis = analyze_submodules(mats, 2)
    assert analysis.complete and analysis.minimal == [row_space_basis(Matrix.identity(2).rows)]
    assert is_simple(mats, 2) and associative_hull_is_full(mats, 2)


# -- the weight graph: unit vectors that are weight vectors ---------------------


@st.composite
def _weight_basis_modules(draw):
    """(entry field, matrices, dim): an sl2 irrep, a sum of two, or an
    extension of one by another with random e and f corners, in the weight
    basis (h stays diagonal)."""
    entry = _entries(draw(st.sampled_from([0, -1])))
    shape = draw(st.sampled_from(["irrep", "sum", "extension"]))
    p_dim = draw(st.integers(1, 4))
    if shape == "irrep":
        return entry, irrep(p_dim), p_dim
    q_dim = draw(st.integers(1, 3))
    corner = [
        Matrix([_vector(draw, entry, q_dim) for _ in range(p_dim)])
        if shape == "extension" and k != 1
        else Matrix([[0] * q_dim for _ in range(p_dim)])
        for k in range(3)
    ]
    mats = [block(a, b, c) for a, b, c in zip(irrep(p_dim), irrep(q_dim), corner)]
    return entry, mats, p_dim + q_dim


def _by_unit_vector_closures(fn, *args):
    """`fn` with the weight graph switched off and the unit vectors as the
    seeds: the closure route on the same weight vectors."""
    def units(mats, dim):
        return tuple(unit_vector(dim, i) for i in range(dim)), True

    def no_graph(mats, dim):
        return None

    with pytest.MonkeyPatch.context() as patch:
        for module in (linalg, modules):
            patch.setattr(module, "weight_graph", no_graph)
            patch.setattr(module, "_weight_seeds", units)
        return fn(*args)


def _series_or_error(mats, dim):
    try:
        return composition_series(mats, dim)
    except AtlasError as exc:
        return str(exc)


def _check_the_graph_route(mats, dim):
    """Where the weight graph applies, it gives the simplicity verdict, every
    field of the submodule analysis and the composition series of the
    closures seeded by the unit vectors."""
    analysis = analyze_submodules(mats, dim)
    assert analysis == _by_unit_vector_closures(analyze_submodules, mats, dim)
    assert analysis.complete
    assert is_simple(mats, dim) is _by_unit_vector_closures(is_simple, mats, dim)
    assert _series_or_error(mats, dim) == _by_unit_vector_closures(_series_or_error, mats, dim)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(_weight_basis_modules(), st.data())
def test_the_weight_graph_matches_closures_of_the_unit_vectors(case, data):
    """Conjugated by a permutation times a diagonal scaling, the unit vectors
    stay weight vectors: the graph applies exactly where it does in the
    weight basis, and then agrees with the closures of the unit vectors.  A
    general conjugation keeps the verdicts; where it still admits a graph,
    that graph agrees with the unit-vector closures too."""
    entry, mats, dim = case
    order = data.draw(st.permutations(range(dim)))
    scales = [data.draw(entry.filter(lambda c: not c.is_zero)) for _ in range(dim)]
    q = Matrix([[scales[j] if i == order[j] else Scalar(0) for j in range(dim)]
                for i in range(dim)])
    q_inv = inverse(q)
    monomial = [q_inv * m * q for m in mats]
    assert (weight_graph(tuple(monomial), dim) is None) is (weight_graph(tuple(mats), dim) is None)
    if weight_graph(tuple(monomial), dim) is not None:
        _check_the_graph_route(monomial, dim)
    if dim >= 2:
        lower = Matrix([[Scalar(1) if i == j else data.draw(entry.filter(lambda c: not c.is_zero))
                         if j < i else Scalar(0) for j in range(dim)] for i in range(dim)])
        p = lower * Matrix([[Scalar(int(i <= j)) for j in range(dim)] for i in range(dim)])
        general = [inverse(p) * m * p for m in mats]
        if weight_graph(tuple(general), dim) is not None:
            _check_the_graph_route(general, dim)
        assert is_simple(general, dim) is is_simple(mats, dim)
        assert analyze_submodules(general, dim).semisimple in (
            analyze_submodules(mats, dim).semisimple, None)


def _weight_graph_kernel(mats, dim):
    """The kernel `weight_graph` reads its weights off, recorded at its one
    `_kernel` call; None when it returns before that."""
    seen = []

    def recorded(*args, original=linalg._kernel):
        seen.append(original(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_kernel", recorded)
        weight_graph(mats, dim)
    return seen[0] if seen else None


def _two_elimination_kernel(mats, dim):
    """The weight graph's kernel as it was solved in two eliminations: the
    off-diagonal conditions gathered in a span, then its rows, as they lie,
    solved again by the dense `rref_kernel`; None when only H = 0 is
    diagonal."""
    n = len(mats)
    conditions = IncrementalSpan()
    for i in range(dim):
        for j in range(dim):
            entries = tuple(m.rows[j][i] for m in mats)
            if i != j and any(not x.is_zero for x in entries):
                conditions.add(entries)
                if conditions.rank == n:
                    return None
    rows = [[row.get(k, Scalar(0)) for k in range(n)] for row in conditions.rows.values()]
    return rref_kernel(rows) if rows else [unit_vector(n, k) for k in range(n)]


@st.composite
def _matrix_families(draw):
    """(mats, dim): n matrices whose off-diagonal parts are combinations of
    r <= n drawn ones, so that for r < n some combination is diagonal, each
    plus a drawn diagonal."""
    entry = _entries(draw(st.sampled_from([0, -1])))
    dim, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    off = [[[draw(entry) if i != j else Scalar(0) for j in range(dim)] for i in range(dim)]
           for _ in range(draw(st.integers(0, n)))]
    mats = []
    for _ in range(n):
        cs = [draw(entry) for _ in off]
        mats.append(Matrix([
            [draw(entry) if i == j else sum((c * b[i][j] for c, b in zip(cs, off)), Scalar(0))
             for j in range(dim)]
            for i in range(dim)
        ]))
    return tuple(mats), dim


@SETTINGS
@given(_matrix_families())
def test_the_weight_graph_kernel_matches_the_two_elimination_solve(case):
    """One elimination gives the diagonal combinations entry for entry as the
    span followed by a dense kernel solve did."""
    mats, dim = case
    assert _weight_graph_kernel(mats, dim) == _two_elimination_kernel(mats, dim)


def test_a_general_conjugation_can_keep_a_weight_graph():
    """p = [[1, 1], [1, 2]], a lower times an upper unitriangular matrix,
    conjugates the 2-dimensional irrep to matrices with a diagonal
    combination of distinct entries, so the graph applies there too, and the
    verdicts are those of the weight basis."""
    mats = irrep(2)
    p = Matrix([[Scalar(1), Scalar(1)], [Scalar(1), Scalar(2)]])
    general = [inverse(p) * m * p for m in mats]
    assert [m.rows for m in general] == [
        tuple(tuple(Scalar(c) for c in row) for row in rows)
        for rows in (((2, 4), (-1, -2)), ((3, 4), (-2, -3)), ((-1, -1), (1, 1)))
    ]
    assert weight_graph(tuple(general), 2) is not None
    _check_the_graph_route(general, 2)
    assert is_simple(general, 2) is is_simple(mats, 2) is True
    assert analyze_submodules(general, 2).semisimple == analyze_submodules(mats, 2).semisimple
