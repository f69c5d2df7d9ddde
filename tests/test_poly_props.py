"""Property tests for ``Poly`` arithmetic in both bases.

``add``, ``scale``, ``mul_var``, ``mul`` and ``lin`` are compared with
sympy: the same polynomial written over one symbol per variable, reduced
modulo v^2 - v (boolean) or v^2 - 1 (fourier) for every symbol.  A twin
has its own symbol, so a variable times its twin is never folded.  Ring
laws and the constructor's normalisation are checked on pclab alone.
"""

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from pclab.algebra import BOOLEAN, FOURIER, Field, Poly, make_term, plain

SETTINGS = settings(max_examples=25, deadline=None)
FIELDS = (Field(3), Field(2**31 - 1))
BASES = (BOOLEAN, FOURIER)

BASE_VARS = [plain(n) for n in "abcdef"]
POOL = sorted(BASE_VARS + [v.twin for v in BASE_VARS])
SYMBOLS = sympy.symbols(" ".join(f"s{i}" for i in range(len(POOL))))
SYM = dict(zip(POOL, SYMBOLS))

fields = st.sampled_from(FIELDS)
bases = st.sampled_from(BASES)
variables = st.sampled_from(POOL)
scalars = st.integers(-(2**40), 2**40)
terms = st.lists(variables, max_size=4).map(make_term)
raw_terms = st.dictionaries(terms, scalars, max_size=5)


def to_sympy(q: Poly):
    return sum((c * sympy.Mul(*(SYM[v] for v in t)) for t, c in q.terms.items()), sympy.Integer(0))


def reduce_sympy(expr, field: Field, basis: str):
    """The multilinear normal form of a sympy expression as {term: coef},
    coefficients in 1..p-1: a Groebner reduction modulo the square
    relations, which are a Groebner basis of their ideal already."""
    square = (lambda s: s**2 - s) if basis == BOOLEAN else (lambda s: s**2 - 1)
    _, rem = sympy.reduced(sympy.expand(expr), [square(s) for s in SYMBOLS], *SYMBOLS, modulus=field.p)
    out = {}
    for monom, c in sympy.Poly(rem, *SYMBOLS, modulus=field.p).terms():
        assert max(monom, default=0) <= 1
        c = int(c) % field.p
        if c:
            out[tuple(v for v, e in zip(POOL, monom) if e)] = c
    return out


@st.composite
def operands(draw, count=2):
    field, basis = draw(fields), draw(bases)
    return (field, basis) + tuple(Poly(field, basis, draw(raw_terms)) for _ in range(count))


@SETTINGS
@given(operands())
def test_add_matches_sympy(ops):
    field, basis, p, q = ops
    assert p.add(q).terms == reduce_sympy(to_sympy(p) + to_sympy(q), field, basis)


@SETTINGS
@given(operands(1), scalars)
def test_scale_matches_sympy(ops, a):
    field, basis, p = ops
    assert p.scale(a).terms == reduce_sympy(a * to_sympy(p), field, basis)


@SETTINGS
@given(operands(1), variables)
def test_mul_var_matches_sympy(ops, v):
    field, basis, p = ops
    # p + v*p holds t and v*t together; in the boolean basis their products meet
    for q in (p, p.add(p.mul_var(v))):
        assert q.mul_var(v).terms == reduce_sympy(SYM[v] * to_sympy(q), field, basis)


@SETTINGS
@given(operands())
def test_mul_matches_sympy(ops):
    field, basis, p, q = ops
    assert p.mul(q).terms == reduce_sympy(to_sympy(p) * to_sympy(q), field, basis)


@SETTINGS
@given(operands(), scalars, scalars)
def test_lin_matches_sympy(ops, a, b):
    field, basis, p, q = ops
    assert p.lin(a, q, b).terms == reduce_sympy(a * to_sympy(p) + b * to_sympy(q), field, basis)


@settings(max_examples=60, deadline=None)
@given(operands(3), scalars, scalars)
def test_ring_laws(ops, a, b):
    _, _, p, q, r = ops
    assert p.add(q) == q.add(p)
    assert p.add(q).add(r) == p.add(q.add(r))
    assert p.mul(q) == q.mul(p)
    assert p.mul(q).mul(r) == p.mul(q.mul(r))
    assert p.mul(q.add(r)) == p.mul(q).add(p.mul(r))
    assert p.scale(a).scale(b) == p.scale(a * b)
    assert p.lin(a, q, b) == p.scale(a).add(q.scale(b))
    assert p.sub(p).is_zero and p.add(p.neg()).is_zero


@settings(max_examples=60, deadline=None)
@given(fields, bases, raw_terms)
def test_constructor_reduces_into_a_copy(field, basis, d):
    before = dict(d)
    q = Poly(field, basis, d)
    assert d == before
    assert q.terms == {t: c % field.p for t, c in d.items() if c % field.p}
    assert all(type(c) is int and 0 < c < field.p for c in q.terms.values())


@pytest.mark.parametrize("field", FIELDS)
def test_constructor_cases(field):
    p = field.p
    a, b, c = (plain(n) for n in "abc")
    d = {(a,): p, (b,): -1, (c,): 2 * p + 1, (): -p}
    q = Poly(field, BOOLEAN, d)
    assert q.terms == {(b,): p - 1, (c,): 1}
    assert d == {(a,): p, (b,): -1, (c,): 2 * p + 1, (): -p}
