from pathlib import Path

import pytest

from poisson_atlas import (
    Exact,
    LaurentPoly,
    LieAlgebra,
    Matrix,
    PoissonModule,
    PoissonPresentation,
    Scaled,
    VarSet,
)
from poisson_atlas.classify import _derived_spans
from poisson_atlas.errors import ParseError, VarSetMismatchError
from poisson_atlas.linalg import IncrementalSpan, coordinates
from poisson_atlas.modules import SplitMix
from poisson_atlas.scalars import Scalar

ZERO, ONE = Scalar(0), Scalar(1)


@pytest.fixture
def xyz():
    vs = VarSet(("x", "y", "z"))
    return (vs,) + tuple(LaurentPoly.variable(vs, n) for n in vs.names)


@pytest.fixture
def xyz_laurent():
    vs = VarSet(("x", "y", "z"), laurent=("z",))
    return (vs,) + tuple(LaurentPoly.variable(vs, n) for n in vs.names)


@pytest.fixture
def a1_pres(xyz):
    vs, x, y, z = xyz
    f = z * z - x * y
    return PoissonPresentation(Exact(f), relations=(f,))


@pytest.fixture
def torus_pres(xyz):
    vs, x, y, z = xyz
    f = x * y * z - x * x - y * y - z * z + 4
    return PoissonPresentation(Exact(f), relations=(f,))


def random_poly(rng: SplitMix, varset, max_terms=4, degree=3):
    """Small random polynomial with integer coefficients in -3..3."""
    terms = {}
    for _ in range(1 + rng.below(max_terms)):
        exps = []
        budget = degree
        for flag in varset.laurent:
            lo = -1 if flag else 0
            e = lo + rng.below(budget - lo + 1)
            exps.append(e)
            budget -= max(e, 0)
        c = rng.below(6) + 1
        c = c - 7 if c > 3 else c
        key = tuple(exps)
        terms[key] = Scalar.coerce(terms.get(key, 0)) + Scalar(c)
    return LaurentPoly(varset, terms)


# -- dense elimination: the reference for every readout of linalg's one span --


def rref_reference(rows):
    """Dense Gauss-Jordan elimination: every row operation runs over every
    column.  The reference that `rref` must match entry for entry."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rref_kernel(matrix):
    """The null space read off `rref_reference`: one vector per free column,
    with 1 there, 0 at the other free columns and minus the reduced rows'
    entries at the pivot columns."""
    if not matrix:
        return []
    reduced, pivots = rref_reference(matrix)
    kernel = []
    for f in (c for c in range(len(matrix[0])) if c not in pivots):
        vec = [ZERO] * len(matrix[0])
        vec[f] = ONE
        for row, c in zip(reduced, pivots):
            vec[c] = -row[f]
        kernel.append(tuple(vec))
    return kernel


def rref_coordinates(basis, vectors):
    """Coordinates of every vector in `basis`, read from one `rref_reference`
    of the columns [basis | vectors]: 0 at a basis vector without a pivot,
    and None when some vector's column holds one (it lies outside the span)."""
    k = len(basis)
    reduced, pivots = rref_reference([list(row) for row in zip(*basis, *vectors)])
    if pivots and pivots[-1] >= k:
        return None
    out = [[ZERO] * k for _ in vectors]
    for row, c in zip(reduced, pivots):
        for coords, x in zip(out, row[k:]):
            coords[c] = x
    return [tuple(coords) for coords in out]


# -- independent routes and mutants that the tests compare src/ against --


def bracket_via_jacobian(spec, p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Independent route for Exact/Scaled: det of the Jacobian of (f, p, q)."""
    if isinstance(spec, Exact):
        f, mult = spec.potential, None
    elif isinstance(spec, Scaled):
        f, mult = spec.potential, spec.multiplier
    else:
        raise TypeError("jacobian route applies to Exact/Scaled only")
    names = p.varset.names
    rows = [[g.partial(n) for n in names] for g in (f, p, q)]
    det = (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )
    return det if mult is None else mult * det


def solve_linear(matrix, rhs):
    """One exact solution of M x = b, its free coordinates 0, or None if
    inconsistent: the coordinates of b on the columns of M."""
    coords = coordinates(list(zip(*matrix)), [rhs])
    return None if coords is None else coords[0]


def express_in_span(target: LaurentPoly, basis) -> tuple | None:
    """Exact coefficients c with sum c_i * basis_i == target, or None.

    Each basis member that is a combination of the ones before it, the zero
    polynomial among them, gets the coefficient 0; the others are then
    unique.
    """
    basis = list(basis)
    for b in basis:
        if b.varset != target.varset:
            raise VarSetMismatchError("basis over a different variable set")
    span = IncrementalSpan()
    for i, b in enumerate(basis):
        span.add(b.terms, i)
    coords = span.coordinates(target.terms)
    return None if coords is None else tuple(coords.get(i, ZERO) for i in range(len(basis)))


def derived_series(lie: LieAlgebra):
    """Dimensions L >= [L,L] >= ... until zero or stable."""
    return [len(span) for span in _derived_spans(lie)]


def trace_product(a: Matrix, b: Matrix) -> Scalar:
    """trace(a @ b) without forming the product."""
    total = ZERO
    for i, row in enumerate(a.rows):
        for k, x in enumerate(row):
            if not x.is_zero:
                y = b.rows[k][i]
                if not y.is_zero:
                    total = total + x * y
    return total


def killing_matrix(ads) -> Matrix:
    """The Killing form tr(ad_i ad_j) from the ad matrices of a basis: the
    reference `LieAlgebra.killing_form` is checked against."""
    n = len(ads)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = trace_product(ads[i], ads[j])
    return Matrix(rows)


def count_in_dimension(rec, d: int):
    """N_s(d) classes of simple g-modules of dimension d, 'continuum' when
    k > 0, 'undetermined' for an unidentified s: the reference the report
    text is checked against.

    N_0(d) is 1 at d = 1 and 0 otherwise, N_sl2(d) = 1, and
    N_{sl2+sl2}(d) = tau(d), from the modules V_a (x) V_b with ab = d."""
    if rec.levi_dim not in (0, 3, 6):
        return "undetermined"
    tau = sum(1 for a in range(1, d + 1) if d % a == 0)
    count = {0: int(d == 1), 3: 1, 6: tau}[rec.levi_dim]
    return "continuum" if count and rec.k else count


def perturbed(module: PoissonModule, gen_index: int, row: int, col: int) -> PoissonModule:
    """Copy with +1 added to one action-matrix entry (for mutation tests)."""
    mats = list(module.mats)
    rows = [list(r) for r in mats[gen_index].rows]
    rows[row][col] = rows[row][col] + ONE
    mats[gen_index] = Matrix(rows)
    return PoissonModule(module.pres, module.point, tuple(mats))


# -- the presentation-file scanner's reference and mutants of the .pa files --

REPO = Path(__file__).resolve().parent.parent
PERFBENCH_FILES = sorted((REPO / "perfbench" / "inputs").glob("*.pa"))
PA_FILES = PERFBENCH_FILES + sorted((REPO / "tests").glob("*.pa"))


def tokenize_reference(text: str):
    """The character-loop scanner that `presfile._tokenize` must match: its
    (kind, text, line, col) tokens, the last one eof, or the ParseError at
    the first character that starts no token.  A comment does not advance
    the column."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if "0" <= c <= "9":  # ASCII digits only: int() reads others too
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if text.startswith("->", i):
            tokens.append(("sym", "->", line, col))
            i += 2
            col += 2
            continue
        if c in "(){}[],;=+-*/^":
            tokens.append(("sym", c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


def _token_spans(text: str):
    """(start, end) offsets of the reference tokens of `text`, eof left out."""
    starts = [0] + [i + 1 for i, c in enumerate(text) if c == "\n"]
    return [(starts[line - 1] + col - 1, starts[line - 1] + col - 1 + len(t))
            for kind, t, line, col in tokenize_reference(text)[:-1]]


def token_mutants(paths, seed: int, count: int):
    """`count` texts, each one of `paths` with one token deleted, inserted,
    replaced or copied; a new token is one of the same file's."""
    rng, texts = SplitMix(seed), [p.read_text(encoding="utf-8") for p in paths]
    for _ in range(count):
        text = texts[rng.below(len(texts))]
        spans = _token_spans(text)
        a, b = spans[rng.below(len(spans))]
        c, d = spans[rng.below(len(spans))]
        new = text[c:d]
        yield [text[:a] + text[b:],
               text[:a] + new + " " + text[a:],
               text[:a] + new + text[b:],
               text[:b] + " " + text[a:b] + text[b:]][rng.below(4)]


ODD_CHARACTERS = "²½٣Ⅷé_\r\t\n #-> ;,()x9"


def character_mutants(paths, seed: int, count: int):
    """`count` texts, each one of `paths` with one character deleted, inserted
    or replaced, or cut at some point and then maybe ended in blanks with no
    newline; new characters include non-ASCII letters and digits."""
    rng, texts = SplitMix(seed), [p.read_text(encoding="utf-8") for p in paths]
    for _ in range(count):
        text = texts[rng.below(len(texts))]
        i = rng.below(len(text) + 1)
        c = ODD_CHARACTERS[rng.below(len(ODD_CHARACTERS))]
        yield [text[:i] + text[i + 1:],
               text[:i] + c + text[i:],
               text[:i] + c + text[i + 1:],
               text[:i],
               text[:i] + " \t "[:1 + rng.below(3)]][rng.below(5)]
