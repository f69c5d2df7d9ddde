"""The bit encoding of terms behind the brute-force oracles and the points
span engine: ``sat_oracle`` and ``semantic_implies`` against a brute
force over ``Poly.evaluate``, the points engine against the closure
engine, and the refusal of primes too large for int64 arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pclab.algebra import BASES, DEFAULT_FIELD, FOURIER, Field, Poly, make_term, plain
from pclab.degreelab import ResidueOracle, bop_context, span_basis
from pclab.formulas import CNF, AxiomSystem, Cube, NUMPY_PRIME_LIMIT, sat_oracle, semantic_implies

F = DEFAULT_FIELD
VARS = [plain(f"a{i}") for i in range(4)]
SETTINGS = settings(max_examples=60, deadline=None)

# terms may hold a variable together with its twin
literals = st.sampled_from(VARS + [v.twin for v in VARS])
terms = st.lists(literals, max_size=3).map(make_term)
plain_terms = st.lists(st.sampled_from(VARS), max_size=3).map(make_term)


def polys(basis, field=F, term_strategy=terms):
    coefs = st.sampled_from([1, field.p - 1]) | st.integers(1, field.p - 1)
    return st.dictionaries(term_strategy, coefs, min_size=1, max_size=4).map(
        lambda d: Poly(field, basis, d))


def assignments(universe):
    """Every assignment in the oracle's order: bit i of k is universe[i]."""
    for k in range(1 << len(universe)):
        yield {v: bool((k >> i) & 1) for i, v in enumerate(universe)}


def vanish(ps, a):
    return all(q.evaluate(a) == 0 for q in ps)


@pytest.mark.parametrize("basis", BASES)
@SETTINGS
@given(data=st.data())
def test_sat_oracle_on_axioms_is_first_brute_force_witness(basis, data):
    ps = data.draw(st.lists(polys(basis), max_size=4))
    ax = AxiomSystem(F, basis, tuple(ps), tuple(VARS))
    want = next((a for a in assignments(VARS) if vanish(ps, a)), None)
    assert sat_oracle(ax) == want


clauses = st.lists(st.sampled_from(VARS), min_size=0, max_size=3, unique=True).flatmap(
    lambda vs: st.tuples(*[st.sampled_from([v, v.twin]) for v in vs])).map(frozenset)


@SETTINGS
@given(st.lists(clauses, max_size=8))
def test_sat_oracle_on_cnf_is_first_brute_force_witness(cs):
    cnf = CNF(tuple(cs), tuple(VARS))
    want = next((a for a in assignments(VARS)
                 if all(any(a[v.base] != v.negated for v in c) for c in cs)), None)
    assert sat_oracle(cnf) == want


@pytest.mark.parametrize("basis", BASES)
@SETTINGS
@given(data=st.data())
def test_semantic_implies_matches_brute_force(basis, data):
    premises = data.draw(st.lists(polys(basis), max_size=3))
    g = data.draw(polys(basis))
    universe = sorted({v.base for q in premises + [g] for v in q.variables()})
    want = all(g.evaluate(a) == 0 for a in assignments(universe) if vanish(premises, a))
    assert semantic_implies(premises, g) == want


def _engines_agree(ps, queries, universe, basis, field=F):
    points = span_basis(ps, universe, basis, field, method="points")
    closure = span_basis(ps, universe, basis, field, method="closure")
    assert points.std_monomials == closure.std_monomials
    for q in queries:
        assert points.reduce(q) == closure.reduce(q)


@pytest.mark.parametrize("basis", BASES)
@SETTINGS
@given(data=st.data())
def test_points_engine_matches_closure(basis, data):
    ps = data.draw(st.lists(polys(basis, term_strategy=plain_terms), max_size=3))
    queries = data.draw(st.lists(polys(basis, term_strategy=plain_terms), max_size=3))
    _engines_agree(ps, queries, VARS + [plain("free")], basis)


@SETTINGS
@given(st.lists(literals, max_size=4))
def test_cube_masks_round_trip(lits):
    pos, neg = Cube(VARS).masks(make_term(lits))
    assert make_term(v for i, v in enumerate(VARS) if pos >> i & 1) == make_term(v for v in lits if not v.negated)
    assert make_term(v for i, v in enumerate(VARS) if neg >> i & 1) == make_term(v.base for v in lits if v.negated)


def test_fourier_monomials_above_sixteen_variables():
    """Monomial values read every bit of a 24-variable cube, the high
    half included, as ``Poly.evaluate`` gives them."""
    rng = np.random.default_rng(2024)
    wide = [plain(f"w{i:02d}") for i in range(24)]
    cube = Cube(wide, F, FOURIER)
    ks = rng.integers(0, 1 << 24, size=40, dtype=np.uint32)
    for _ in range(30):
        low = rng.choice(16, size=int(rng.integers(0, 5)), replace=False)
        high = 16 + rng.choice(8, size=int(rng.integers(1, 5)), replace=False)
        lits = [wide[i].twin if rng.random() < 0.5 else wide[i] for i in [*low, *high]]
        lits.append(lits[-1].twin)  # a variable beside its twin
        t = make_term(lits)
        got = cube.monomials(ks, *cube.masks(t))
        assert got.dtype == np.int64
        mono = Poly.from_term(F, FOURIER, t)
        want = [mono.evaluate(cube.assignment(int(k))) for k in ks]
        assert [int(v) % F.p for v in got] == want


@pytest.mark.parametrize("p", [3, 2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("basis", BASES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_large_primes_agree_or_refuse(p, basis, data):
    """Either the numpy paths give the exact answer, or they refuse the
    prime with a ValueError naming it; they never answer wrongly."""
    field = Field(p)
    ps = data.draw(st.lists(polys(basis, field, plain_terms), min_size=1, max_size=3))
    queries = data.draw(st.lists(polys(basis, field, plain_terms), max_size=2))
    g = data.draw(polys(basis, field))
    closure = span_basis(ps, universe=VARS, method="closure")
    zeros = [a for a in assignments(VARS) if vanish(ps, a)]
    for q in queries:
        assert closure.contains(q) == all(vanish([q], a) for a in zeros)
    if p >= NUMPY_PRIME_LIMIT:
        for call in (lambda: span_basis(ps, universe=VARS, method="points"),
                     lambda: semantic_implies(ps, g),
                     lambda: sat_oracle(AxiomSystem(field, basis, tuple(ps), tuple(VARS)))):
            with pytest.raises(ValueError, match=f"{p} is too large.*2\\^31"):
                call()
        return
    _engines_agree(ps, queries, VARS, basis, field)
    assert semantic_implies(ps, g) == all(vanish([g], a) for a in zeros)
    assert sat_oracle(AxiomSystem(field, basis, tuple(ps), tuple(VARS))) == (zeros[0] if zeros else None)


def test_reduction_operator_refuses_large_prime():
    oracle = ResidueOracle(bop_context(3, 1, field=Field(2**61 - 1)))
    with pytest.raises(ValueError, match="too large"):
        oracle.R(oracle.context.polys[0])
