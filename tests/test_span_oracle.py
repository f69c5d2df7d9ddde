"""Both span engines against an independent oracle: sympy Groebner bases.

The span of a twin-free family is the ideal of the family plus v^2 - v
({0,1} basis) or v^2 - 1 ({+1,-1} basis) for every universe variable,
and ``SpanBasis.reduce`` is the normal form modulo that ideal in graded
lex.  sympy's ``grlex`` compares exponent vectors from the first
generator on, so the generators go largest pclab variable first; then
its order is ``grlex_key``.
"""

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from pclab.algebra import BASES, BOOLEAN, DEFAULT_FIELD, Poly, format_var, make_term, plain
from pclab.degreelab import ResidueOracle, bop_context, span_basis

F = DEFAULT_FIELD
VARS = [plain(f"a{i}") for i in range(5)]
FREE = plain("free")  # in every universe, never in a family


class GroebnerReducer:
    """Normal forms modulo a family's span, computed by sympy."""

    def __init__(self, family, universe, basis):
        self.basis = basis
        self.gens = sorted(universe, reverse=True)
        self.syms = [sympy.Symbol(format_var(v)) for v in self.gens]
        self.sym = dict(zip(self.gens, self.syms))
        squares = [s**2 - (s if basis == BOOLEAN else 1) for s in self.syms]
        self.groebner = sympy.groebner(
            [self._expr(q) for q in family] + squares, *self.syms, modulus=F.p, order="grlex"
        )

    def _expr(self, q: Poly):
        return sum((c * sympy.Mul(*(self.sym[v] for v in t)) for t, c in q.terms.items()), sympy.Integer(0))

    def reduce(self, q: Poly) -> Poly:
        _, rem = self.groebner.reduce(self._expr(q))
        terms = {}
        for exps, c in sympy.Poly(rem, *self.syms, modulus=F.p).terms():
            assert max(exps, default=0) <= 1
            terms[make_term(v for v, e in zip(self.gens, exps) if e)] = int(c)
        return Poly(F, self.basis, terms)


def test_every_term_of_a_touch_key():
    """All 256 terms over the active variables of key {1} at (3, 1)."""
    oracle = ResidueOracle(bop_context(3, 1))
    sp = oracle.span_for({1})
    ctx = oracle.context
    family = [ctx.polys[i] for g in ("T", "BV(1)") for i in ctx.groups[g]]
    assert len(sp.active) == 8
    ref = GroebnerReducer(family, sp.universe, BOOLEAN)
    for k in range(1 << len(sp.active)):
        t = make_term(v for i, v in enumerate(sp.active) if (k >> i) & 1)
        q = Poly.from_term(F, BOOLEAN, t)
        assert sp.reduce(q) == ref.reduce(q), t


def polys(basis, variables):
    terms = st.lists(st.sampled_from(variables), max_size=3).map(make_term)
    coefs = st.sampled_from([1, F.p - 1]) | st.integers(1, F.p - 1)
    return st.dictionaries(terms, coefs, min_size=1, max_size=4).map(lambda d: Poly(F, basis, d))


@pytest.mark.parametrize("basis", BASES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_engines_match_groebner_normal_forms(basis, data):
    nv = data.draw(st.integers(1, len(VARS)))
    family = data.draw(st.lists(polys(basis, VARS[:nv]), max_size=3))
    universe = VARS[:nv] + [FREE]
    queries = data.draw(st.lists(polys(basis, universe), min_size=1, max_size=3))
    ref = GroebnerReducer(family, universe, basis)
    for method in ("points", "closure"):
        sp = span_basis(family, universe, basis, F, method=method)
        for q in queries:
            assert sp.reduce(q) == ref.reduce(q), (method, q)
