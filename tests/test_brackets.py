from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bracket_via_jacobian, random_poly
from poisson_atlas import (
    Exact,
    LaurentPoly,
    LieAlgebra,
    PointP,
    PoissonPresentation,
    Scaled,
    SubstitutionMap,
    Table,
    VarSet,
    bracket,
    lie_from_point,
    verify_jacobi,
    verify_poisson_map,
)
from poisson_atlas import brackets
from poisson_atlas.brackets import CheckReport
from poisson_atlas.errors import LieStructureError, ScalarDomainError, VarSetMismatchError
from poisson_atlas.modules import SplitMix
from poisson_atlas.scalars import Scalar


def _bracket_reference(spec, p, q):
    """{p, q} = sum_{i<j} (dp/dx_i dq/dx_j - dp/dx_j dq/dx_i) * {x_i, x_j}, built
    from the partial-derivative polynomials and their products."""
    varset = p.varset
    names = varset.names
    table = spec.pairs
    dp = [p.partial(n) for n in names]
    dq = [q.partial(n) for n in names]
    out = LaurentPoly.zero(varset)
    for i in range(len(names)):
        if dp[i].is_zero and dq[i].is_zero:
            continue
        for j in range(i + 1, len(names)):
            coeff = dp[i] * dq[j] - dp[j] * dq[i]
            if coeff.is_zero:
                continue
            out = out + coeff * table[(i, j)]
    return out


def test_exact_bracket_pairs(xyz):
    vs, x, y, z = xyz
    spec = Exact(z * z - x * y)
    assert bracket(spec, x, y) == 2 * z
    assert bracket(spec, y, z) == -y
    assert bracket(spec, z, x) == -x


def test_scaled_bracket(xyz_laurent):
    vs, x, y, z = xyz_laurent
    spec = Scaled(2 * z, x * y + z + z**-1)
    assert bracket(spec, y, z) == 2 * z * y
    assert bracket(spec, z, x) == 2 * z * x
    assert bracket(spec, x, y) == 2 * (z - z**-1)


def test_antisymmetry_random(xyz):
    vs, x, y, z = xyz
    spec = Exact(x * y * z - x * x - y * y - z * z + 4)
    rng = SplitMix(3)
    for _ in range(8):
        p, q = random_poly(rng, vs), random_poly(rng, vs)
        assert bracket(spec, p, q) == -bracket(spec, q, p)
        assert bracket(spec, p, p).is_zero


def test_leibniz_random(xyz):
    vs, x, y, z = xyz
    spec = Exact(z * z - x * y)
    rng = SplitMix(9)
    for _ in range(8):
        a, p, q = (random_poly(rng, vs) for _ in range(3))
        assert bracket(spec, a, p * q) == bracket(spec, a, p) * q + p * bracket(
            spec, a, q
        )


def test_jacobian_determinant_cross_check(xyz):
    vs, x, y, z = xyz
    spec = Exact(x * y * z - x * x - y * y - z * z + 4)
    rng = SplitMix(21)
    for _ in range(8):
        p, q = random_poly(rng, vs), random_poly(rng, vs)
        assert bracket(spec, p, q) == bracket_via_jacobian(spec, p, q)


def test_jacobian_cross_check_scaled(xyz_laurent):
    vs, x, y, z = xyz_laurent
    spec = Scaled(2 * z, x * y + z + z**-1)
    rng = SplitMix(27)
    for _ in range(6):
        p, q = random_poly(rng, vs), random_poly(rng, vs)
        assert bracket(spec, p, q) == bracket_via_jacobian(spec, p, q)


def test_jacobian_cross_check_gaussian(xyz_laurent):
    """Both routes agree with Q(sqrt(-1)) coefficients in f, the multiplier and
    the operands."""
    vs, x, y, z = xyz_laurent
    i = Scalar(0, 1, -1)
    f = x * y * z + i * x * x - (1 + i) * z**-1 + 2 * y
    rng = SplitMix(33)
    for spec in (Exact(f), Scaled(i * z + 1, f)):
        for _ in range(6):
            p = random_poly(rng, vs) * i + random_poly(rng, vs)
            q = random_poly(rng, vs) + random_poly(rng, vs) * (2 - i)
            assert bracket(spec, p, q) == bracket_via_jacobian(spec, p, q)


def test_operands_from_two_extensions_raise():
    vs = VarSet(("x", "y"))
    x, y = LaurentPoly.variable(vs, "x"), LaurentPoly.variable(vs, "y")
    spec = Table.from_dict(vs, {("x", "y"): LaurentPoly.const(vs, 1)})
    root2, root3 = Scalar(0, 1, 2), Scalar(0, 1, 3)
    for p, q in ((root2 * x * y, root3 * x), (root2 * x * y, root3 * x * y)):
        with pytest.raises(ScalarDomainError, match=r"sqrt\(2\).*sqrt\(3\)"):
            bracket(spec, p, q)


@st.composite
def _bracket_cases(draw):
    """A spec of each kind, and operands p, q, over Q or Q(sqrt(-1)).

    Exact and Scaled specs live on 3 variables, tables on 2 to 6; a
    Kirillov-Kostant spec is a table with a drawn linear entry on every pair.  Laurent variables carry exponents down to -2.  Some cases pair
    p with itself, or with the potential, where the bracket cancels to 0.
    """
    d = draw(st.sampled_from([0, -1]))
    scalar = st.builds(
        lambda a, b, q: Scalar(Fraction(a, q), Fraction(b, q) if d else 0, d),
        st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3),
    )
    kind = draw(st.sampled_from(["exact", "scaled", "table", "kirillov-kostant"]))
    n = 3 if kind in ("exact", "scaled") else draw(st.integers(2, 6))
    names = tuple(f"x{k}" for k in range(n))
    vs = VarSet(names, tuple(v for v in names if draw(st.booleans())))
    exps = st.tuples(*(st.integers(-2 if flag else 0, 2) for flag in vs.laurent))

    def poly(max_size=4):
        return LaurentPoly(vs, draw(st.dictionaries(exps, scalar, max_size=max_size)))

    potential = None
    if kind == "exact":
        spec = Exact(potential := poly())
    elif kind == "scaled":
        spec = Scaled(poly(2), potential := poly())
    elif kind == "table":
        spec = Table.from_dict(vs, {
            (a, b): poly(3) for k, a in enumerate(names) for b in names[k + 1:]
            if draw(st.booleans())
        })
    else:
        units = [tuple(int(k == m) for m in range(n)) for k in range(n)]
        spec = Table.from_dict(vs, {
            (a, b): LaurentPoly(vs, {unit: draw(scalar) for unit in units})
            for k, a in enumerate(names) for b in names[k + 1:]
        })
    p = poly()
    shape = draw(st.sampled_from(["random", "self", "potential"]))
    if shape == "self" or (shape == "potential" and potential is None):
        return spec, p, p, True
    if shape == "potential":
        return spec, p, potential, True
    return spec, p, poly(), False


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_bracket_cases())
def test_bracket_matches_the_partial_derivative_reference(case):
    spec, p, q, cancels = case
    got = bracket(spec, p, q)
    assert got == _bracket_reference(spec, p, q)
    assert got == -bracket(spec, q, p)
    if cancels:
        assert got.is_zero
    if isinstance(spec, (Exact, Scaled)):
        assert got == bracket_via_jacobian(spec, p, q)


def test_torus_table_bracket():
    vs = VarSet(("x1", "x2"), laurent=("x1", "x2"))
    x1 = LaurentPoly.variable(vs, "x1")
    x2 = LaurentPoly.variable(vs, "x2")
    spec = Table.from_dict(vs, {("x1", "x2"): x1 * x2})
    x = x1 + x1**-1
    y = x2 + x2**-1
    z = x1 * x2**-1 + x1**-1 * x2
    assert bracket(spec, x, y) == x * y - 2 * z


def test_verify_jacobi_pass(xyz, xyz_laurent):
    vs, x, y, z = xyz
    f = x * y * z - x * x - y * y - z * z + 4
    assert verify_jacobi(Exact(f)).ok
    lvs, lx, ly, lz = xyz_laurent
    assert verify_jacobi(Scaled(2 * lz, lx * ly + lz + lz**-1)).ok


@st.composite
def _potential_brackets(draw):
    """(a, f) on three variables, some of them Laurent, with coefficients in Q
    or in Q(sqrt(-1)) and exponents down to -2 at a Laurent variable."""
    d = draw(st.sampled_from([0, -1]))
    scalar = st.builds(
        lambda a, b, q: Scalar(Fraction(a, q), Fraction(b, q) if d else 0, d),
        st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 3),
    )
    names = ("x", "y", "z")
    vs = VarSet(names, tuple(v for v in names if draw(st.booleans())))
    exps = st.tuples(*(st.integers(-2 if flag else 0, 3) for flag in vs.laurent))

    def poly(max_size):
        return LaurentPoly(vs, draw(st.dictionaries(exps, scalar, max_size=max_size)))

    return poly(3), poly(5)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_potential_brackets())
def test_exact_and_scaled_brackets_satisfy_jacobi(case):
    """A presentation runs no Jacobi check on an exact or scaled bracket, as
    a*{-,-}_f is Poisson for every a and f on three variables: the check
    passes on every drawn pair, constants and 0 among them."""
    a, f = case
    assert verify_jacobi(Exact(f)).ok
    assert verify_jacobi(Scaled(a, f)).ok


def test_only_a_table_presentation_runs_the_jacobi_check(xyz, monkeypatch):
    vs, x, y, z = xyz
    checked = []
    monkeypatch.setattr(
        brackets, "verify_jacobi", lambda spec: checked.append(spec) or CheckReport(True))
    for spec in _spec_of_each_kind(vs, x, y, z):
        PoissonPresentation(spec)
    assert [type(spec) for spec in checked] == [Table, Table]


def test_verify_jacobi_fail_with_witness(xyz):
    vs, x, y, z = xyz
    bad = Table.from_dict(
        vs, {("x", "y"): z, ("y", "z"): y * y, ("z", "x"): LaurentPoly.zero(vs)}
    )
    report = verify_jacobi(bad)
    assert not report.ok
    assert report.failures == [(("x", "y", "z"), -2 * y * z)]


def _verify_jacobi_reference(spec, varset):
    """The Jacobiator on generator triples with every bracket computed, the
    inner generator brackets too."""
    n = len(varset)
    gens = [LaurentPoly.variable(varset, name) for name in varset.names]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                jac = (
                    bracket(spec, bracket(spec, gens[i], gens[j]), gens[k])
                    + bracket(spec, bracket(spec, gens[j], gens[k]), gens[i])
                    + bracket(spec, bracket(spec, gens[k], gens[i]), gens[j])
                )
                if not jac.is_zero:
                    names = varset.names
                    return CheckReport(False, [((names[i], names[j], names[k]), jac)])
    return CheckReport(True)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_bracket_cases())
def test_verify_jacobi_matches_the_all_bracket_reference(case):
    """Drawn tables, linear ones too, mostly fail Jacobi: the witness triple and the Jacobiator are the reference's."""
    spec, p, _, _ = case
    report, reference = verify_jacobi(spec), _verify_jacobi_reference(spec, p.varset)
    assert report == reference
    assert [str(j) for _, j in report.failures] == [str(j) for _, j in reference.failures]


def test_verify_jacobi_makes_three_brackets_per_triple(xyz, monkeypatch):
    vs, x, y, z = xyz
    calls = []

    def counted(spec, p, q, real=bracket):
        calls.append(1)
        return real(spec, p, q)

    monkeypatch.setattr(brackets, "bracket", counted)
    for spec in _spec_of_each_kind(vs, x, y, z):
        calls.clear()
        verify_jacobi(spec)
        assert len(calls) == 3, type(spec).__name__


def test_curl_free_table_is_actually_poisson(xyz):
    # {x,y} = z, {y,z} = 0, {z,x} = y^2 has identically zero Jacobiator
    vs, x, y, z = xyz
    table = Table.from_dict(
        vs, {("x", "y"): z, ("y", "z"): LaurentPoly.zero(vs), ("z", "x"): y * y}
    )
    assert verify_jacobi(table).ok


def test_presentation_rejects_non_jacobi(xyz):
    vs, x, y, z = xyz
    bad = Table.from_dict(
        vs, {("x", "y"): z, ("y", "z"): y * y, ("z", "x"): LaurentPoly.zero(vs)}
    )
    with pytest.raises(LieStructureError):
        PoissonPresentation(bad)


def test_kirillov_kostant_spec(xyz):
    """The Kirillov-Kostant bracket of a Lie algebra is the table with its
    brackets as linear entries, and g(J) at the origin is that algebra."""
    vs, x, y, z = xyz
    sl2 = LieAlgebra.from_brackets(
        ("x", "y", "z"),
        {("y", "x"): {"z": 2}, ("z", "y"): {"x": 2}, ("x", "z"): {"y": 2}},
    )
    spec = Table.from_dict(vs, {("y", "x"): 2 * z, ("z", "y"): 2 * x, ("x", "z"): 2 * y})
    assert bracket(spec, y, x) == 2 * z
    assert verify_jacobi(spec).ok
    assert lie_from_point(PoissonPresentation(spec), PointP(vs, [0, 0, 0])) == sl2


def test_a_spec_refuses_another_variable_set(xyz, xyz_laurent):
    """A spec's tables are over its own variables: operands or a relation over
    other ones are refused, not read through the spec's pairs, and a
    presentation has the spec's variables."""
    vs, x, y, z = xyz
    xy, uv = VarSet(("x", "y")), VarSet(("u", "v"))
    u, v = (LaurentPoly.variable(uv, n) for n in uv.names)
    table = Table.from_dict(xy, {("x", "y"): LaurentPoly.variable(xy, "x")})
    exact = Exact(x * y * z)
    assert table.varset == xy and exact.varset == vs
    _, lx, ly, _ = xyz_laurent  # the names of vs, with Laurent flags
    for spec, p, q in ((table, u, v), (exact, lx, ly)):
        with pytest.raises(VarSetMismatchError):
            bracket(spec, p, q)
        assert PoissonPresentation(spec).varset == spec.varset
        with pytest.raises(VarSetMismatchError):
            PoissonPresentation(spec, relations=(p,))


def test_table_refuses_a_pair_given_twice(xyz):
    """Both orders of one pair are one bracket: the table refuses the second
    as it refuses a diagonal pair, instead of keeping two entries."""
    vs, x, y, z = xyz
    for mapping in ({("x", "y"): z, ("y", "x"): -z}, {("y", "x"): -z, ("x", "y"): z},
                    {("x", "y"): z, ("y", "x"): z}):
        with pytest.raises(ValueError, match=r"^bracket \{\w,\w\} given twice$"):
            Table.from_dict(vs, mapping)
    with pytest.raises(ValueError, match=r"^diagonal bracket \{x,x\}$"):
        Table.from_dict(vs, {("x", "x"): z})
    assert Table.from_dict(vs, {("y", "x"): -z}) == Table.from_dict(vs, {("x", "y"): z})


def test_identity_map_is_poisson(torus_pres):
    vs = torus_pres.varset
    ident = SubstitutionMap.from_dict(
        vs, {n: LaurentPoly.variable(vs, n) for n in vs.names}
    )
    assert verify_poisson_map(ident, torus_pres, torus_pres).ok


def test_torus_inversion_is_poisson():
    vs = VarSet(("x1", "x2"), laurent=("x1", "x2"))
    x1 = LaurentPoly.variable(vs, "x1")
    x2 = LaurentPoly.variable(vs, "x2")
    pres = PoissonPresentation(Table.from_dict(vs, {("x1", "x2"): x1 * x2}))
    pi = SubstitutionMap.from_dict(vs, {"x1": x1**-1, "x2": x2**-1})
    assert verify_poisson_map(pi, pres, pres).ok


def test_eta_poisson_direction(xyz_laurent):
    vs, x, y, z = xyz_laurent
    scaled = PoissonPresentation(Scaled(2 * z, x * y + z + z**-1))
    equitable = PoissonPresentation(Exact(2 * (x + y + z - x * y * z)))
    eta = SubstitutionMap.from_dict(vs, {"x": 1 - z * y, "y": x - z**-1, "z": z})
    eta_inv = SubstitutionMap.from_dict(
        vs, {"x": y + z**-1, "y": z**-1 * (1 - x), "z": z}
    )
    # the verified orientation: scaled -> equitable (and its inverse back)
    assert verify_poisson_map(eta, scaled, equitable).ok
    assert verify_poisson_map(eta_inv, equitable, scaled).ok
    # the literal orientation stated in the source fails on the (x, y) pair
    assert not verify_poisson_map(eta, equitable, scaled).ok


def test_poisson_map_modulo_relation(a1_pres):
    vs = a1_pres.varset
    x, y, z = (LaurentPoly.variable(vs, n) for n in vs.names)
    svs = VarSet(("u", "v", "w"))
    u, v, w = (LaurentPoly.variable(svs, n) for n in svs.names)
    f4 = w**4 * Fraction(1, 4) - u * v
    sub = PoissonPresentation(Exact(f4), relations=(f4,))
    emb = SubstitutionMap.from_dict(
        svs,
        {
            "u": x * x * Fraction(1, 8),
            "v": y * y * Fraction(1, 8),
            "w": z * Fraction(1, 2),
        },
    )
    # {u, v} maps to a polynomial that differs from the target bracket by a
    # multiple of the single relation z^2 - xy
    assert verify_poisson_map(emb, sub, a1_pres).ok


def test_poisson_map_failure_reported(torus_pres):
    vs = torus_pres.varset
    x, y, z = (LaurentPoly.variable(vs, n) for n in vs.names)
    bad = SubstitutionMap.from_dict(vs, {"x": x, "y": y, "z": z + 1})
    report = verify_poisson_map(bad, torus_pres, torus_pres)
    assert not report.ok and report.failures


def test_poisson_central(xyz):
    """p is Poisson-central when {x_k, p} = 0 for every generator x_k."""
    vs, x, y, z = xyz
    f = z * z - x * y
    spec = Exact(f)
    for p in (f, LaurentPoly.const(vs, 1)):
        assert all(bracket(spec, g, p).is_zero for g in (x, y, z))
    assert not bracket(spec, y, x).is_zero


def test_hamiltonian(xyz):
    vs, x, y, z = xyz
    f = z * z - x * y
    spec = Exact(f)
    # ham(a) = {a, -} on the generators; {z, x} = -x and {z, y} = y
    assert [bracket(spec, z, g) for g in (x, y, z)] == [-x, y, LaurentPoly.zero(vs)]
    for a in (LaurentPoly.const(vs, 1), f):
        assert all(bracket(spec, a, g).is_zero for g in (x, y, z))


def _spec_of_each_kind(vs, x, y, z):
    f = x * y * z - x * x - y * y - z * z + 4
    return [
        Exact(f),
        Scaled(x + 1, f),
        Table.from_dict(vs, {("x", "y"): z, ("y", "z"): LaurentPoly.zero(vs)}),
        Table.from_dict(vs, {("x", "y"): z}),  # Kirillov-Kostant of the Heisenberg algebra
    ]


def test_pair_table_is_built_once_and_read_only(xyz, monkeypatch):
    """Each spec kind computes its generator brackets once, on first use:
    `spec.pairs` is that one table, and `nonzero`, `shifted` and every
    `bracket` read it."""
    vs, x, y, z = xyz
    for kind, spec in enumerate(_spec_of_each_kind(vs, x, y, z)):
        calls = []
        original = type(spec)._pair

        def counted(self, i, j, original=original):
            calls.append((i, j))
            return original(self, i, j)

        with monkeypatch.context() as patch:
            patch.setattr(type(spec), "_pair", counted)
            pres = PoissonPresentation(spec)  # a table's Jacobi check reads the pairs
            first = spec.pairs
            assert list(first) == [(0, 1), (0, 2), (1, 2)]
            assert first is spec.pairs is pres.bracket_spec.pairs
            assert bracket(spec, x * y, z) == bracket(spec, x, z) * y + x * bracket(spec, y, z)
            assert spec.nonzero is spec.nonzero and spec.shifted is spec.shifted
            assert spec.nonzero == tuple((ij, p) for ij, p in first.items() if not p.is_zero)
        assert calls == [(0, 1), (0, 2), (1, 2)], type(spec).__name__
        with pytest.raises(TypeError):
            first[(0, 1)] = first[(0, 2)]
        assert pres == PoissonPresentation(spec)
        assert spec == _spec_of_each_kind(vs, x, y, z)[kind]
