"""The exact-text writers against the implementations they replaced.

`LaurentPoly.__str__` (the report dialect), `poly_text` (the file dialect),
`lincomb_text` and `_scalar_text` share one writer in `poly.py`; the
references below are the separate writers each had before, copied verbatim,
so every byte of a report or a presentation file is pinned.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from poisson_atlas import LaurentPoly, VarSet
from poisson_atlas.presfile import _Parser, _scalar_text, lincomb_text, poly_text
from poisson_atlas.scalars import Scalar

# -- the former writers --------------------------------------------------------


def _str_reference(p):
    if p.is_zero:
        return "0"
    bits = []
    for exps, coeff in p.sorted_terms():
        factors = []
        for name, e in zip(p.varset.names, exps):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e}")
        mono = "*".join(factors)
        c = str(coeff)
        if not mono:
            piece = c
        elif c == "1":
            piece = mono
        elif c == "-1":
            piece = f"-{mono}"
        elif coeff.is_rational and coeff.b == 0 and "+" not in c:
            piece = f"{c}*{mono}"
        else:
            piece = f"({c})*{mono}"
        bits.append(piece)
    out = bits[0]
    for piece in bits[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


def _lincomb_text_reference(labels, row):
    bits = []
    for k in sorted(row):
        c = row[k]
        text = str(c)
        if text == "1":
            piece = labels[k]
        elif text == "-1":
            piece = f"-{labels[k]}"
        else:
            piece = f"({text})*{labels[k]}" if "sqrt" in text else f"{text}*{labels[k]}"
        bits.append(piece)
    if not bits:
        return "0"
    out = bits[0]
    for piece in bits[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


def _poly_text_reference(p):
    if p.is_zero:
        return "0"
    bits = []
    for exps, coeff in p.sorted_terms():
        factors = []
        for name, e in zip(p.varset.names, exps):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^({e})" if e < 0 else f"{name}^{e}")
        piece = "*".join(factors)
        cs = _scalar_text_reference(coeff)
        if not piece:
            piece = cs
        elif cs == "1":
            pass
        elif cs == "-1":
            piece = f"-{piece}"
        else:
            piece = f"{cs}*{piece}"
        bits.append(piece)
    out = bits[0]
    for piece in bits[1:]:
        out += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return out


def _scalar_text_reference(s):
    if s.is_rational:
        q = s.as_fraction()
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    parts = []
    if s.a != 0:
        parts.append(f"{s.a.numerator}" if s.a.denominator == 1 else f"{s.a.numerator}/{s.a.denominator}")
    b = s.b
    root = f"sqrt({s.d})"
    if abs(b) != 1:
        mag = abs(b)
        root = (f"{mag.numerator}" if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}") + f"*{root}"
    parts.append(root if b > 0 else f"-{root}" if not parts else f"- {root}")
    text = parts[0] if len(parts) == 1 else f"{parts[0]} {parts[1]}" if parts[1].startswith("-") else f"{parts[0]} + {parts[1]}"
    return f"({text})" if (s.a != 0 or b < 0) else text


# -- strategies ------------------------------------------------------------------

VARSETS = [
    VarSet(("x",)),
    VarSet(("x",), ("x",)),
    VarSet(("x", "y", "z")),
    VarSet(("x", "y", "z"), ("z",)),
    VarSet(("u", "v"), ("u", "v")),
]

_rationals = st.one_of(
    st.sampled_from([1, -1, 0, 2, -3]),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
)


@st.composite
def _scalars(draw, d):
    """A value a + b*sqrt(d): rational when d == 0 or b == 0, with 1 and -1
    drawn often."""
    a = draw(_rationals)
    if d == 0 or draw(st.booleans()):
        return Scalar(a)
    return Scalar(a, draw(_rationals.filter(bool)), d)


@st.composite
def _polys(draw):
    """A polynomial over one of VARSETS with coefficients in Q, Q(sqrt(-1)) or
    Q(sqrt(5)): up to four terms, a constant term often, none at times."""
    varset = draw(st.sampled_from(VARSETS))
    d = draw(st.sampled_from([0, -1, 5]))
    exponent = [st.integers(-2, 3) if flag else st.integers(0, 3) for flag in varset.laurent]
    monomial = st.one_of(st.just((0,) * len(varset)), st.tuples(*exponent))
    terms = draw(st.dictionaries(monomial, _scalars(d), max_size=4))
    return LaurentPoly(varset, terms)


VS = VarSet(("x", "y", "z"), ("z",))


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(_polys())
@example(LaurentPoly.zero(VS))
@example(LaurentPoly.const(VS, Scalar(1, 1, 5)))
@example(LaurentPoly.const(VS, Scalar(-1, 1, 5)))
@example(LaurentPoly(VS, {(1, 0, -1): Scalar(-1), (0, 2, 0): Scalar(0, -1, -1), (0, 0, 0): 1}))
def test_each_writer_matches_its_former_implementation(p):
    assert str(p) == _str_reference(p)
    assert poly_text(p) == _poly_text_reference(p)
    assert _Parser(poly_text(p)).parse_expr(p.varset, {}) == p
    for coeff in p.terms.values():
        assert _scalar_text(coeff) == _scalar_text_reference(coeff)
    row = dict(enumerate(p.terms.values()))
    labels = [f"w{k}" for k in row]
    assert lincomb_text(labels, row) == _lincomb_text_reference(labels, row)


def test_the_laurent_suffix_is_shared():
    assert repr(VS) == "VarSet(x, y, z laurent(z))"
    assert repr(VarSet(("x",))) == "VarSet(x)"
    assert VS.laurent_suffix() == " laurent(z)"
