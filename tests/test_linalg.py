from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rref_coordinates, rref_kernel, rref_reference, solve_linear
from poisson_atlas import linalg
from poisson_atlas.errors import ExtensionRequiredError
from poisson_atlas.lie import LieAlgebra
from poisson_atlas.linalg import (
    IncrementalSpan,
    Matrix,
    associative_hull_is_full,
    charpoly,
    coordinates,
    eigen_small,
    kernel_basis,
    linear_combination,
    rank,
    relation_test,
    rref,
)
from poisson_atlas.modules import SplitMix
from poisson_atlas.scalars import Scalar


SL2 = LieAlgebra.from_brackets(
    ("e", "h", "f"),
    {("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1}},
)


def test_solve_identity():
    b = [Scalar(3), Scalar(-1), Scalar(Fraction(1, 2))]
    sol = solve_linear([list(r) for r in Matrix.identity(3).rows], b)
    assert list(sol) == b


def test_solve_inconsistent():
    assert solve_linear([[Scalar(1)], [Scalar(1)]], [Scalar(0), Scalar(1)]) is None


def test_kernel_zero_map():
    zero = [[Scalar(0), Scalar(0)], [Scalar(0), Scalar(0)]]
    assert len(kernel_basis(zero)) == 2


def test_kernel_of_ad_h_on_sl2():
    # oracle: ad(h) in basis (e, h, f) is diag(2, 0, -2) from the constants
    adh = SL2.ad_matrix(SL2.basis_vector(1))
    assert adh == Matrix([[2, 0, 0], [0, 0, 0], [0, 0, -2]])
    kern = kernel_basis([list(r) for r in adh.rows])
    assert kern == [(Scalar(0), Scalar(1), Scalar(0))]


def test_back_substitution_random():
    rng = SplitMix(23)
    for _ in range(10):
        rows = [
            [Scalar(rng.below(7) - 3) for _ in range(4)] for _ in range(3)
        ]
        x = [Scalar(rng.below(5) - 2) for _ in range(4)]
        b = Matrix(rows).apply(x)
        sol, kern = solve_linear(rows, list(b)), kernel_basis(rows)
        assert sol is not None
        assert Matrix(rows).apply(sol) == b
        for vec in kern:
            assert all(c.is_zero for c in Matrix(rows).apply(vec))


@st.composite
def _systems(draw):
    """(M, b) with small integer entries over Q or Q(sqrt(-1)); b is M x0 for a
    drawn x0 or an independent draw, so both consistent and inconsistent
    systems occur."""
    d = draw(st.sampled_from([0, -1]))
    entry = st.builds(
        lambda a, b: Scalar(a, b if d else 0, d), st.integers(-3, 3), st.integers(-2, 2)
    )
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        x0 = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        b = list(Matrix(rows).apply(x0))
    else:
        b = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    return rows, b


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_systems())
def test_solution_and_kernel_readouts_agree(system):
    rows, b = system
    ncols = len(rows[0])
    sol, kern = solve_linear(rows, b), kernel_basis(rows)
    assert len(kern) == ncols - rank(rows)
    assert rank(kern) == len(kern)
    for vec in kern:
        assert all(c.is_zero for c in Matrix(rows).apply(vec))
    augmented = [row + [c] for row, c in zip(rows, b)]
    if sol is None:
        assert rank(augmented) == rank(rows) + 1
    else:
        assert list(Matrix(rows).apply(sol)) == b


def test_eigen_diagonal():
    result = eigen_small(Matrix([[2, 0, 0], [0, 0, 0], [0, 0, -2]]))
    assert [(str(v), m) for v, m, _ in result.pairs] == [("-2", 1), ("0", 1), ("2", 1)]
    assert result.discriminant == 0


def test_eigen_ad_g3_on_p7_radical():
    # ad(g3) on span(m1..m4) from the displayed constants: weights 3, -3, -1, 1
    m = Matrix([[3, 0, 0, 0], [0, -3, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]])
    values = sorted(str(v) for v, _, _ in eigen_small(m).pairs)
    assert values == ["-1", "-3", "1", "3"]


def test_eigen_quadratic_extension():
    # ad(z) for the torus g(J1): characteristic polynomial t^3 + 4t
    adz = Matrix([[0, 2, 0], [-2, 0, 0], [0, 0, 0]])
    cp = charpoly(adz)
    assert cp == [Scalar(1), Scalar(0), Scalar(4), Scalar(0)]
    result = eigen_small(adz)
    assert result.discriminant == -1
    got = sorted(str(v) for v, _, _ in result.pairs)
    assert got == ["-2*sqrt(-1)", "0", "2*sqrt(-1)"]
    for value, mult, vecs in result.pairs:
        assert mult == 1 and len(vecs) == 1
        image = adz.apply(vecs[0])
        assert image == tuple(value * c for c in vecs[0])


def test_eigen_extension_entries():
    i = Scalar(0, 1, -1)
    m = Matrix([[i, Scalar(0)], [Scalar(0), -i]])
    result = eigen_small(m)
    assert sorted(str(v) for v, _, _ in result.pairs) == ["-sqrt(-1)", "sqrt(-1)"]


def test_eigen_beyond_quadratic_rejected():
    # companion matrix of t^3 - 2: roots need a cubic extension
    m = Matrix([[0, 0, 2], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(ExtensionRequiredError):
        eigen_small(m)


def test_eigen_two_extensions_rejected():
    m = Matrix([[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 1, 0]])
    with pytest.raises(ExtensionRequiredError):
        eigen_small(m)


def test_eigen_even_polynomial_same_extension():
    # (t^2 + 4)(t^2 + 16): all roots in Q(sqrt(-1))
    m = Matrix([[0, -4, 0, 0], [1, 0, 0, 0], [0, 0, 0, -16], [0, 0, 1, 0]])
    result = eigen_small(m)
    assert result.discriminant == -1
    assert sum(mult for _, mult, _ in result.pairs) == 4


def test_eigen_has_no_dimension_cap():
    assert [(str(v), m, len(vs)) for v, m, vs in eigen_small(Matrix.identity(13)).pairs] == [
        ("1", 13, 13)
    ]
    # h of the 32-dimensional sl2 irrep, halved: weights 31/2, 29/2, ..., -31/2
    h = Matrix([[Fraction(31 - 2 * i, 2) if i == j else 0 for j in range(32)]
                for i in range(32)])
    pairs = eigen_small(h).pairs
    assert [v for v, _, _ in pairs] == [Scalar(Fraction(k, 2)) for k in range(-31, 32, 2)]
    assert all(m == 1 and len(vs) == 1 for _, m, vs in pairs)


def check_eigenpairs(m, expected):
    """`eigen_small(m)` has the expected {value: (multiplicity, eigenspace
    dimension)}, and every vector it returns is an eigenvector."""
    pairs = eigen_small(m).pairs
    assert {v: (mult, len(vs)) for v, mult, vs in pairs} == expected
    for value, _, vectors in pairs:
        for v in vectors:
            assert any(not c.is_zero for c in v)
            assert m.apply(v) == tuple(value * c for c in v)


def test_eigen_repeated_root_in_the_extension():
    # norm polynomial (t^2 - 4t + 5)^2: a repeated quadratic factor
    i = Scalar(0, 1, -1)
    check_eigenpairs(Matrix([[2 + i, 1], [0, 2 + i]]), {2 + i: (2, 1)})


def test_eigen_two_quadratic_factors_in_one_extension():
    # norm polynomial t^2 (t^2 + 1)^2 (t^2 - 2t + 2): not even, two quadratics
    i = Scalar(0, 1, -1)
    zero = Scalar(0)
    m = Matrix([[(0, i, -i, 1 + i)[r] if r == c else zero for c in range(4)]
                for r in range(4)])
    check_eigenpairs(m, {zero: (1, 1), i: (1, 1), -i: (1, 1), 1 + i: (1, 1)})


def test_eigen_root_search_reaches_its_bounds():
    i = Scalar(0, 1, -1)
    zero = Scalar(0)
    # purely imaginary entries: the bound must count the sqrt(-1) parts
    diag = [2 * i, 3 * i, Scalar(1)]
    check_eigenpairs(
        Matrix([[diag[r] if r == c else zero for c in range(3)] for r in range(3)]),
        {2 * i: (1, 1), 3 * i: (1, 1), Scalar(1): (1, 1)},
    )
    # factors t^2 -+ 6t + 10 of degree-4 t^4 - 16t^2 + 100: |b| = 6 > row sum 4
    rotations = Matrix([[3, -1, 0, 0], [1, 3, 0, 0], [0, 0, -3, -1], [0, 0, 1, -3]])
    check_eigenpairs(rotations, {3 + i: (1, 1), 3 - i: (1, 1), -3 + i: (1, 1), -3 - i: (1, 1)})
    # t^2 + 1/2: the roots scale by 2^ceil(1/2) = 2 to make it monic over Z
    half = Scalar(0, Fraction(1, 2), -2)
    check_eigenpairs(Matrix([[0, Fraction(-1, 2)], [1, 0]]), {half: (1, 1), -half: (1, 1)})


def test_eigen_rejects_a_large_irreducible_quartic_quickly():
    # t^4 + t + 10^9: the row-sum bound is 10^9, the polynomial's own bound 2^9
    companion = Matrix([[0, 0, 0, -10**9], [1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(ExtensionRequiredError):
        eigen_small(companion)


@st.composite
def _spectra(draw):
    """(matrix, expected eigenpairs): diagonal and Jordan blocks and, over Q,
    rotation blocks [[a, -r], [r, a]] (eigenvalues a +- r sqrt(-1)), in a
    random basis over Q or Q(sqrt(-1)); values have denominators up to 3."""
    d = draw(st.sampled_from([0, -1]))
    part = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    blocks, expected = [], {}

    def add(value, mult):
        old = expected.get(value, (0, 0))
        expected[value] = (old[0] + mult, old[1] + 1)

    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(part), draw(part)
        kind = draw(st.sampled_from(["diagonal", "jordan", "rotation"]))
        if kind == "rotation" and not d and b:
            blocks.append([[a, -b], [b, a]])
            add(Scalar(a, b, -1), 1)
            add(Scalar(a, -b, -1), 1)
            continue
        value = Scalar(a, b if d else 0, -1)
        if kind == "jordan":
            blocks.append([[value, 1], [0, value]])
            add(value, 2)
        else:
            blocks.append([[value]])
            add(value, 1)
    n = sum(len(b) for b in blocks)
    rows, at = [[Scalar(0)] * n for _ in range(n)], 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                rows[at + i][at + j] = Scalar.coerce(x)
        at += len(block)
    entry = st.builds(lambda x, y: Scalar(x, y if d else 0, d),
                      st.integers(-3, 3), st.integers(-2, 2))
    p = Matrix([[draw(entry) for _ in range(n)] for _ in range(n)])
    while rank([list(r) for r in p.rows]) < n:
        p = p + Matrix.identity(n)
    units = [[Scalar(int(i == j)) for i in range(n)] for j in range(n)]
    p_inv = Matrix(list(zip(*(solve_linear([list(r) for r in p.rows], u) for u in units))))
    return p_inv * Matrix(rows) * p, expected


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(_spectra())
def test_eigen_finds_every_eigenvalue_in_a_random_basis(case):
    check_eigenpairs(*case)


def test_incremental_span():
    span = IncrementalSpan()
    assert span.add((Scalar(1), Scalar(2)))
    assert not span.add((Scalar(2), Scalar(4)))
    assert span.add((Scalar(0), Scalar(1)))
    assert span.rank == 2
    assert span.contains((Scalar(5), Scalar(-7)))
    assert IncrementalSpan([(Scalar(1), Scalar(0))]).contains((Scalar(3), Scalar(0)))


def test_hull_density():
    # e, h, f matrices of the 2-dim irrep generate all of End(C^2)
    e = Matrix([[0, 1], [0, 0]])
    h = Matrix([[1, 0], [0, -1]])
    f = Matrix([[0, 0], [1, 0]])
    assert associative_hull_is_full([e, h, f], 2)
    # a single diagonal matrix does not
    assert not associative_hull_is_full([h], 2)


def test_rank():
    rows = [[Scalar(1), Scalar(2)], [Scalar(2), Scalar(4)], [Scalar(0), Scalar(1)]]
    assert rank(rows) == 2


def _entries(d):
    """Small entries over Q (d = 0) or Q(sqrt(-1)) (d = -1), zero included."""
    return st.builds(
        lambda a, b: Scalar(a, b if d else 0, d), st.integers(-3, 3), st.integers(-2, 2)
    )


def _matrices(draw, entry, nrows, ncols):
    return Matrix(draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                                min_size=nrows, max_size=nrows)))


@st.composite
def _combinations(draw):
    """(coefficients, matrices, nrows, ncols); coefficients may be ints or 0."""
    entry = _entries(draw(st.sampled_from([0, -1])))
    nrows, ncols, k = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 4))
    mats = [_matrices(draw, entry, nrows, ncols) for _ in range(k)]
    coeffs = draw(st.lists(st.one_of(entry, st.integers(-2, 2)), min_size=k, max_size=k))
    return coeffs, mats, nrows, ncols


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_combinations())
def test_linear_combination_matches_the_scale_chain(case):
    coeffs, mats, nrows, ncols = case
    want = Matrix([[0] * ncols for _ in range(nrows)])
    for c, m in zip(coeffs, mats):
        want = want + m.scale(c)
    got = linear_combination(coeffs, mats, nrows, ncols)
    assert got == want
    assert got == Matrix(got.rows)


@st.composite
def _operands(draw):
    """a, b of one shape, c composable with a, and a scalar s."""
    entry = _entries(draw(st.sampled_from([0, -1])))
    r, n, m = (draw(st.integers(1, 4)) for _ in range(3))
    a, b = _matrices(draw, entry, r, n), _matrices(draw, entry, r, n)
    return a, b, _matrices(draw, entry, n, m), draw(st.one_of(entry, st.integers(-2, 2)))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_operands())
def test_matrix_arithmetic_results_are_checked_matrices(case):
    a, b, c, s = case
    product = a * c
    for result in (a + b, a - b, -a, a.scale(s), a * s, s * a, product):
        assert result == Matrix(result.rows)
        with pytest.raises(AttributeError):
            result.rows = ()
    k = Scalar.coerce(s)
    for i in range(a.nrows):
        for j in range(a.ncols):
            assert (a + b)[i, j] == a[i, j] + b[i, j]
            assert (a - b)[i, j] == a[i, j] - b[i, j]
            assert (-a)[i, j] == -a[i, j]
            assert a.scale(s)[i, j] == (a * s)[i, j] == (s * a)[i, j] == a[i, j] * k
        for j in range(c.ncols):
            want = Scalar(0)
            for l in range(a.ncols):
                want = want + a[i, l] * c[l, j]
            assert product[i, j] == want


# -- elimination -------------------------------------------------------------


@st.composite
def _elimination_rows(draw, d=None):
    """Rows over Q (d = 0) or Q(sqrt(-1)) (d = -1) with fractional entries;
    sparse or dense, and with some rows combinations of earlier ones so that
    the rank falls short."""
    d = draw(st.sampled_from([0, -1])) if d is None else d
    part = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    entry = st.builds(lambda a, b: Scalar(a, b if d else 0, d), part, part)
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    density = draw(st.sampled_from([1, 3, 10]))  # nonzero entries per 10
    rows = []
    for _ in range(nrows):
        if rows and draw(st.integers(0, 3)) == 0:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(entry)
            rows.append([x + k * y for x, y in zip(a, b)])
            continue
        rows.append([
            draw(entry) if draw(st.integers(0, 9)) < density else Scalar(0)
            for _ in range(ncols)
        ])
    return rows


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_elimination_rows())
def test_rref_matches_dense_elimination(rows):
    """`rref` and every readout of the one span match the dense elimination
    entry for entry: the canonical basis and leads, the kernel, and the
    columns `relation_test` reads."""
    snapshot = [list(r) for r in rows]
    reduced, pivots = rref_reference(rows)
    assert rref(rows) == (reduced, pivots)
    assert rows == snapshot  # the input is not modified
    span = IncrementalSpan(rows)
    assert span.basis() == tuple(map(tuple, reduced[: len(pivots)]))
    assert span.leads == pivots and rank(rows) == len(pivots)
    assert kernel_basis(rows) == rref_kernel(rows)
    assert _columns_read(rows) == [tuple(r[c] for r in rows) for c in pivots]


def _columns_read(vectors):
    """The columns `relation_test(vectors)` reads, in order: each test of a
    combination is one `_dot` with a column, here recorded and read as 0."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_dot", lambda coeffs, col: seen.append(col) or Scalar(0))
        relation_test(vectors)([Scalar(0)] * len(vectors))
    return seen


@st.composite
def _coordinate_cases(draw):
    """(basis, vectors): the basis is the first k rows of one draw, dependent
    when a combination of earlier rows falls among them; each vector is a
    combination of the basis or one of the other rows, which mostly lies
    outside its span."""
    rows = [tuple(r) for r in draw(_elimination_rows())]
    k = draw(st.integers(0, len(rows)))
    basis, rest, vectors = rows[:k], rows[k:], []
    for _ in range(draw(st.integers(0, 4))):
        if rest and draw(st.integers(0, 3)) == 0:
            vectors.append(rest.pop())
            continue
        coeffs = [Scalar(draw(st.integers(-2, 2))) for _ in basis]
        vectors.append(tuple(sum((c * b[j] for c, b in zip(coeffs, basis)), Scalar(0))
                             for j in range(len(rows[0]))))
    return basis, vectors


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_coordinate_cases())
def test_coordinates_and_solutions_match_dense_elimination(case):
    """Coordinates in a basis, and the solution of M x = b on the columns of
    M, match the dense elimination of [basis | vectors] entry for entry: 0 at
    each dependent basis vector, and None for a vector outside the span."""
    basis, vectors = case
    assert coordinates(basis, vectors) == rref_coordinates(basis, vectors)
    matrix = [list(row) for row in zip(*basis)]
    if basis:
        for v in vectors:
            coords = rref_coordinates(basis, [v])
            assert solve_linear(matrix, list(v)) == (None if coords is None else coords[0])


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_elimination_rows(d=0))
def test_rref_matches_sympy_over_q(rows):
    import sympy

    reduced, pivots = rref(rows)
    expected, sympy_pivots = sympy.Matrix(
        [[sympy.Rational(x.n, x.q) for x in row] for row in rows]
    ).rref()
    assert list(sympy_pivots) == pivots
    assert [[Fraction(x.n, x.q) for x in row] for row in reduced] == [
        [Fraction(int(x.p), int(x.q)) for x in expected.row(i)] for i in range(expected.rows)
    ]


def test_relation_test_reads_every_column_of_the_basis():
    """On independent vectors each single coefficient leaves a nonzero
    combination, seen on one column only."""
    for n in range(1, 6):
        vanishes = relation_test(Matrix.identity(n).rows)
        assert vanishes([Scalar(0)] * n)
        for k in range(n):
            assert not vanishes([Scalar(1) if i == k else Scalar(0) for i in range(n)])


@st.composite
def _relation_cases(draw):
    """(vectors, coefficients): the coefficients are a random vector, a left
    kernel vector of the vectors, or such a kernel vector plus one unit."""
    vectors = draw(_elimination_rows())
    k = len(vectors)
    kernel = kernel_basis([list(col) for col in zip(*vectors)])
    kind = draw(st.sampled_from(["random", "kernel", "kernel+unit"]))
    if kind == "random" or not kernel:
        part = st.integers(-3, 3)
        return vectors, [Scalar(draw(part)) for _ in range(k)]
    coeffs = list(draw(st.sampled_from(kernel)))
    if kind == "kernel+unit":
        i = draw(st.integers(0, k - 1))
        coeffs[i] = coeffs[i] + Scalar(1)
    return vectors, coeffs


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_relation_cases())
def test_relation_test_matches_the_full_combination(case):
    vectors, coeffs = case
    ncols = len(vectors[0])
    full = [Scalar(0)] * ncols
    for c, v in zip(coeffs, vectors):
        full = [a + c * b for a, b in zip(full, v)]
    assert relation_test(vectors)(coeffs) is all(x.is_zero for x in full)
    # a shorter coefficient vector leaves the rest at 0
    assert relation_test(vectors)(coeffs[:1]) is all((coeffs[0] * x).is_zero for x in vectors[0])
