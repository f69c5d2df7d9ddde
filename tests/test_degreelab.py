import random

import pytest

from pclab.algebra import (
    BOOLEAN,
    DEFAULT_FIELD,
    FOURIER,
    BasisMismatch,
    Poly,
    ScaleLimitExceeded,
    edge,
    grlex_key,
    make_term,
    plain,
    pointer,
)
from pclab.degreelab import (
    HeavySelection,
    LemmaReport,
    ResidueOracle,
    bop_context,
    heavy_split_round,
    heavy_term_selection,
    span_basis,
    verify_all,
    verify_residue_operator,
    verify_residue_product,
    verify_residue_properties,
    verify_residue_support,
    verify_touch_extension,
    verify_touch_superset,
)
from pclab.formulas import cnf_to_axioms, gen_bop_lifted, semantic_implies
from pclab.proofs import AxiomSystem, check_pc, proof_lines, random_derivation, touched

F = DEFAULT_FIELD


def _poly(basis, terms):
    return Poly(F, basis, terms)


def _rand_poly(rng, vs, basis, max_terms=5, max_degree=None):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        d = rng.randint(0, max_degree if max_degree is not None else len(vs))
        t = make_term(rng.sample(vs, d)) if d else ()
        terms[t] = rng.randrange(1, F.p)
    return _poly(basis, terms)


# ---------------------------------------------------------------------------
# span bases


def test_span_single_variable():
    x, y = plain("x"), plain("y")
    sp = span_basis([Poly.variable(F, BOOLEAN, x)], universe=[x, y])
    assert sp.active == (x,)
    assert sp.std_monomials == ((),)
    assert sp.leading_terms() == ((x,),)
    assert sp.basis_polys() == (Poly.variable(F, BOOLEAN, x),)
    assert sp.reduce(_poly(BOOLEAN, {(x, y): 5})).is_zero
    assert sp.reduce(Poly.variable(F, BOOLEAN, y)) == Poly.variable(F, BOOLEAN, y)
    assert sp.reduce(Poly.constant(F, BOOLEAN, 3)) == Poly.constant(F, BOOLEAN, 3)


def test_span_empty_family_is_identity():
    vs = [plain("a"), plain("b")]
    sp = span_basis([], universe=vs, basis=BOOLEAN, field=F)
    q = _poly(BOOLEAN, {(vs[0],): 2, (vs[0], vs[1]): 3, (): 1})
    assert sp.reduce(q) == q
    assert sp.std_monomials == ((),)
    assert sp.leading_terms() == ()
    assert sp.basis_polys() == ()


def test_span_fourier_sign_pinning():
    x = plain("x")
    # x - 1 pins x to +1, x + 1 pins it to -1
    lo = span_basis([_poly(FOURIER, {(x,): 1, (): F.p - 1})], universe=[x])
    assert lo.reduce(Poly.variable(F, FOURIER, x)) == Poly.constant(F, FOURIER, 1)
    hi = span_basis([_poly(FOURIER, {(x,): 1, (): 1})], universe=[x])
    assert hi.reduce(Poly.variable(F, FOURIER, x)) == Poly.constant(F, FOURIER, F.p - 1)


def test_span_zero_ring():
    x = plain("x")
    sp = span_basis([Poly.constant(F, BOOLEAN, 2)], universe=[x])
    assert sp.std_monomials == ()
    assert sp.reduce(Poly.variable(F, BOOLEAN, x)).is_zero
    assert sp.reduce(Poly.constant(F, BOOLEAN, 1)).is_zero
    assert not sp.contains(Poly.zero(F, BOOLEAN)) or sp.contains(Poly.constant(F, BOOLEAN, 1))
    assert sp.leading_terms() == ((),)
    assert sp.basis_polys() == (Poly.constant(F, BOOLEAN, 1),)


def test_span_contains_monomial_multiples():
    rng = random.Random(3)
    vs = [plain(f"v{i}") for i in range(6)]
    for basis in (BOOLEAN, FOURIER):
        polys = [_rand_poly(rng, vs, basis, max_degree=3) for _ in range(3)]
        sp = span_basis(polys, universe=vs)
        for f in polys:
            assert sp.contains(f)
            for _ in range(5):
                m = make_term(rng.sample(vs, rng.randint(0, 4)))
                assert sp.contains(f.mul_term(m))


def test_span_reduce_is_semantically_equal():
    # P - reduce(P) always lies in the span, i.e. vanishes wherever the
    # family does; checked against the brute-force point oracle.
    rng = random.Random(11)
    vs = [plain(f"v{i}") for i in range(7)]
    for basis in (BOOLEAN, FOURIER):
        polys = [_rand_poly(rng, vs, basis, max_degree=2) for _ in range(2)]
        sp = span_basis(polys, universe=vs)
        for _ in range(8):
            q = _rand_poly(rng, vs, basis)
            r = sp.reduce(q)
            assert semantic_implies(polys, q.sub(r))
            assert sp.contains(q) == semantic_implies(polys, q)


def test_span_reduce_never_grows_grlex():
    rng = random.Random(5)
    vs = [plain(f"v{i}") for i in range(6)]
    polys = [_rand_poly(rng, vs, BOOLEAN, max_degree=2) for _ in range(3)]
    sp = span_basis(polys, universe=vs)
    for d in range(4):
        for _ in range(10):
            t = make_term(rng.sample(vs, d))
            r = sp.reduce(Poly.from_term(F, BOOLEAN, t))
            assert r.is_zero or grlex_key(r.leading_term()) <= grlex_key(t)


def test_closure_route_matches_points_route():
    rng = random.Random(7)
    for trial in range(12):
        nv = rng.randint(1, 8)
        vs = [plain(f"v{i}") for i in range(nv)]
        basis = rng.choice([BOOLEAN, FOURIER])
        polys = [
            _rand_poly(rng, vs, basis, max_terms=4, max_degree=min(3, nv))
            for _ in range(rng.randint(0, 4))
        ]
        a = span_basis(polys, universe=vs, basis=basis, field=F, method="points")
        b = span_basis(polys, universe=vs, basis=basis, field=F, method="closure")
        assert a.std_monomials == b.std_monomials
        assert a.leading_terms() == b.leading_terms()
        for _ in range(8):
            q = _rand_poly(rng, vs, basis)
            assert a.reduce(q) == b.reduce(q)


def test_span_escalier_and_basis_poly_invariants():
    rng = random.Random(13)
    vs = [plain(f"v{i}") for i in range(6)]
    polys = [_rand_poly(rng, vs, BOOLEAN, max_degree=2) for _ in range(3)]
    sp = span_basis(polys, universe=vs)
    std = set(sp.std_monomials)
    for t in std:
        for v in t:
            assert tuple(u for u in t if u != v) in std
    gens = sp.basis_polys()
    assert len(gens) == len(sp.leading_terms())
    for g, m in zip(gens, sp.leading_terms()):
        assert g.leading_term() == m
        assert all(s == m or s in std for s in g.terms)
        assert sp.contains(g)


def test_span_argument_checks():
    x, y = plain("x"), plain("y")
    with pytest.raises(ValueError):
        span_basis([])
    with pytest.raises(ValueError):
        span_basis([Poly.variable(F, BOOLEAN, x.twin)], universe=[x])
    with pytest.raises(ValueError):
        span_basis([Poly.variable(F, BOOLEAN, x)], universe=[y])
    with pytest.raises(ValueError):
        span_basis([Poly.variable(F, BOOLEAN, x)], universe=[x], method="magic")
    with pytest.raises(BasisMismatch):
        span_basis([Poly.variable(F, BOOLEAN, x), Poly.variable(F, FOURIER, y)])
    sp = span_basis([Poly.variable(F, BOOLEAN, x)], universe=[x])
    with pytest.raises(ValueError):
        sp.reduce(Poly.variable(F, BOOLEAN, y))
    with pytest.raises(BasisMismatch):
        sp.reduce(Poly.variable(F, FOURIER, x))


def test_span_scale_limits():
    vs = [plain(f"v{i:02d}") for i in range(17)]
    with pytest.raises(ScaleLimitExceeded):
        span_basis([Poly.variable(F, BOOLEAN, vs[0])], universe=vs)
    with pytest.raises(ScaleLimitExceeded):
        span_basis([Poly.variable(F, BOOLEAN, vs[0])], universe=vs[:11], method="closure")
    # at the limits both engines still build
    span_basis([Poly.variable(F, BOOLEAN, vs[0])], universe=vs[:16])
    span_basis([Poly.variable(F, BOOLEAN, vs[0])], universe=vs[:10], method="closure")


# ---------------------------------------------------------------------------
# the touch-keyed reduction


def test_bop_context_shape():
    ctx = bop_context(3)
    assert ctx.basis == BOOLEAN and (ctx.n, ctx.ell) == (3, 1)
    assert "T" in ctx.groups and all(f"BV({j})" in ctx.groups for j in (1, 2, 3))
    assert all(not v.negated for p in ctx.polys for v in p.variables())
    assert len(ctx.universe) == 12


@pytest.fixture(scope="module")
def oracle():
    return ResidueOracle(bop_context(3, 1))


def test_span_for_is_cached_and_sized(oracle):
    a = oracle.span_for(frozenset())
    assert a is oracle.span_for(frozenset())
    # 19 strict partial orders on three labelled points
    assert len(a.std_monomials) == 19
    # each of the five surviving order-and-pointer configurations for {1,2}
    assert len(oracle.span_for({1, 2}).std_monomials) == 5
    with pytest.raises(ValueError):
        oracle.span_for({0})
    with pytest.raises(ValueError):
        oracle.span_for({4})


def test_residue_kills_order_violations(oracle):
    x12, x21, x23, x13 = edge(1, 2, 1), edge(2, 1, 1), edge(2, 3, 1), edge(1, 3, 1)
    assert oracle.R(_poly(BOOLEAN, {(x12, x21): 1})).is_zero
    # transitivity violation: 1->2->3 without 1->3
    tr = _poly(BOOLEAN, {(x12, x23): 1, (x12, x23, x13): F.p - 1})
    assert oracle.R(tr).is_zero
    # a pointer code naming the vertex itself is prohibited
    assert oracle.R(_poly(BOOLEAN, {(pointer(1, 1), pointer(1, 2)): 1})).is_zero
    # but leaving 1 and 2 unrelated is fine for a partial order
    tot = _poly(BOOLEAN, {(): 1, (x12,): F.p - 1, (x21,): F.p - 1, (x12, x21): 1})
    assert oracle.R(tot) == _poly(BOOLEAN, {(): 1, (x12,): F.p - 1, (x21,): F.p - 1})


def test_residue_rewrites_nontrivially_and_stays_sound(oracle):
    ctx = oracle.context
    t = (pointer(1, 1), edge(2, 1, 1))
    r = oracle.R_term(t)
    tau = touched(t, 3, 1).tau
    assert not r.is_zero and r != Poly.from_term(F, BOOLEAN, t)
    assert all(touched(s, 3, 1).tau <= tau for s in r.terms)
    # sound: term - remainder vanishes wherever the keyed family does
    fam = [ctx.polys[i] for i in ctx.groups["T"]]
    for j in sorted(tau):
        fam += [ctx.polys[i] for i in ctx.groups[f"BV({j})"]]
    assert semantic_implies(fam, Poly.from_term(F, BOOLEAN, t).sub(r))


def test_residue_idempotent(oracle):
    rng = random.Random(2)
    vs = list(oracle.context.universe)
    for _ in range(20):
        p = _rand_poly(rng, vs, BOOLEAN, max_terms=4, max_degree=3)
        r = oracle.R(p)
        assert oracle.R(r) == r


def test_residue_operator_report(oracle):
    rep = verify_residue_operator(3, 1, oracle=oracle)
    assert rep.ok and rep.cases == len(oracle.context.polys) + 1
    assert "ok" in str(rep)


def test_residue_unit_not_destroyed(oracle):
    one = Poly.constant(F, BOOLEAN, 1)
    assert oracle.R(one) == one


def test_touch_lemma_reports(oracle):
    ext = verify_touch_extension(3, 1, max_degree=3, oracle=oracle)
    sup = verify_touch_superset(3, 1, max_degree=3, oracle=oracle)
    srt = verify_residue_support(3, 1, max_degree=3, oracle=oracle)
    for rep in (ext, sup, srt):
        assert rep.ok and rep.cases > 100
        assert rep.counterexamples == ()


def test_residue_product_report(oracle):
    rep = verify_residue_product(3, 1, samples=120, seed=9, oracle=oracle)
    assert rep.ok and rep.cases == 120


def test_residue_properties_bundle(oracle):
    reports = verify_residue_properties(3, 1, pairs=60, seed=4, oracle=oracle)
    names = [r.name for r in reports]
    assert names == [
        "residue-linearity",
        "residue-axioms-vanish",
        "residue-unit-fixed",
        "residue-product-small",
    ]
    assert all(r.ok for r in reports)
    assert reports[0].cases == 60
    assert reports[1].cases == len(oracle.context.polys)


def test_verify_all_shares_one_oracle(oracle):
    reports = verify_all(3, 1, seed=1, oracle=oracle)
    assert len(reports) == 9
    assert all(isinstance(r, LemmaReport) and r.ok for r in reports)


def test_oracle_results_are_reproducible():
    a = ResidueOracle(bop_context(3, 1))
    b = ResidueOracle(bop_context(3, 1))
    rng = random.Random(6)
    vs = list(a.context.universe)
    for _ in range(10):
        p = _rand_poly(rng, vs, BOOLEAN, max_terms=3, max_degree=3)
        assert a.R(p) == b.R(p)


def test_oracle_rejects_bad_contexts():
    with pytest.raises(BasisMismatch):
        ResidueOracle(cnf_to_axioms(gen_bop_lifted(3, 1), FOURIER))
    with pytest.raises(ValueError):
        ResidueOracle(cnf_to_axioms(gen_bop_lifted(3, 1), BOOLEAN, twins=True))
    ctx = bop_context(3)
    bare = AxiomSystem(ctx.field, ctx.basis, ctx.polys, ctx.universe, {}, n=3, ell=1)
    with pytest.raises(ValueError):
        ResidueOracle(bare)
    anon = AxiomSystem(ctx.field, ctx.basis, ctx.polys, ctx.universe, dict(ctx.groups))
    with pytest.raises(ValueError):
        ResidueOracle(anon)


def test_oracle_scale_limit_at_larger_family():
    orc = ResidueOracle(bop_context(4, 1))  # 20 variables
    with pytest.raises(ScaleLimitExceeded):
        orc.R_term((pointer(1, 1),))


def test_oracle_mismatched_request(oracle):
    with pytest.raises(ValueError):
        verify_touch_extension(3, 2, oracle=oracle)


# ---------------------------------------------------------------------------
# heavy products and the split round


@pytest.fixture(scope="module")
def lifted_axioms():
    return cnf_to_axioms(gen_bop_lifted(3, 2), FOURIER)


def test_heavy_selection_frozen_instance(lifted_axioms):
    proof = random_derivation(lifted_axioms, 30, 0)
    sel = heavy_term_selection(proof, 2)
    assert sel.vertex == 1
    assert sel.l_choice == ((2, 1), (3, 1))
    assert sel.split_vars == tuple(
        sorted([pointer(1, 1), pointer(1, 2), edge(2, 1, 1), edge(3, 1, 1)])
    )
    assert len(sel.heavy) > 100
    assert all(len(touched(t, 3, 2).tau) >= 2 for t in sel.heavy)


def test_heavy_selection_argument_checks(lifted_axioms):
    proof = random_derivation(lifted_axioms, 10, 1)
    with pytest.raises(ValueError):
        heavy_term_selection(proof, 0)
    with pytest.raises(ValueError):
        heavy_term_selection(proof, 99)


def test_heavy_needs_family_context():
    from pclab.formulas import gen_cycle_tseitin

    ax = gen_cycle_tseitin(4)
    proof = random_derivation(ax, 8, 0)
    with pytest.raises(ValueError):
        heavy_term_selection(proof, 1)


def test_heavy_split_round_reduces_heavy_products(lifted_axioms):
    proof = random_derivation(lifted_axioms, 30, 0)
    out, rep = heavy_split_round(proof, 2)
    assert check_pc(out).valid
    assert rep.vertex == 1
    assert rep.after < rep.before
    assert rep.after <= 5
    assert rep.split_at == (edge(2, 1, 1), edge(3, 1, 1))
    assert rep.skipped == (pointer(1, 1), pointer(1, 2))
    # the split variables are gone from the produced proof
    survivors = {v.base for p in proof_lines(out) for t in p.terms for v in t}
    assert not (set(rep.split_at) & survivors)


def test_heavy_split_round_skips_twin_blocked_vars(lifted_axioms):
    proof = random_derivation(lifted_axioms, 30, 9)
    out, rep = heavy_split_round(proof, 2)
    assert check_pc(out).valid
    assert rep.split_at == (edge(3, 1, 2),)
    assert len(rep.skipped) == 3
    assert rep.after < rep.before
