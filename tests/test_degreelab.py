import collections
import hashlib
import itertools
import random
import re
import time

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import pclab.degreelab as degreelab
import pclab.proofs as proofs
from pclab.algebra import (
    BOOLEAN,
    DEFAULT_FIELD,
    FOURIER,
    BasisMismatch,
    Poly,
    ScaleLimitExceeded,
    TermCodec,
    cluster_var,
    edge,
    format_poly,
    format_var,
    grlex_key,
    make_term,
    plain,
    pointer,
)
from pclab.constructions import pcr_upper_bound
from pclab.degreelab import (
    CLOSURE_STD_LIMIT,
    CLOSURE_STEP_LIMIT,
    SPAN_POINTS_LIMIT,
    HeavySelection,
    LemmaReport,
    ResidueOracle,
    _family_terms,
    _in_regime,
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
from pclab.formulas import cnf_to_axioms, gen_bop_lifted, pointer_bits, semantic_implies
from pclab.proofs import (
    AxiomSystem,
    PCProof,
    check_pc,
    proof_lines,
    quadratic_set,
    random_derivation,
    special_degree,
    touched,
)
from test_span_oracle import GroebnerReducer

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
    assert sp.contains(Poly.variable(F, BOOLEAN, x))
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


def test_span_contains_monomial_multiples():
    rng = random.Random(3)
    vs = [plain(f"v{i}") for i in range(6)]
    for basis in (BOOLEAN, FOURIER):
        polys = [_rand_poly(rng, vs, basis, max_degree=3) for _ in range(3)]
        sp = span_basis(polys, universe=vs)
        for f in polys:
            assert sp.contains(f)
            for _ in range(5):
                g = f
                for v in rng.sample(vs, rng.randint(0, 4)):
                    g = g.mul_var(v)
                assert sp.contains(g)


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


@pytest.mark.parametrize("basis", [BOOLEAN, FOURIER])
def test_closure_route_on_rows_sharing_a_variable(basis):
    # every term of x*y + x holds x.  In {0,1}, x times it is itself, and
    # y times it is 2*x*y, which puts x in the span.  In {+1,-1}, x times
    # it is y + 1, which puts y in the leading terms.
    x, y, z = plain("x"), plain("y"), plain("z")
    fam = [_poly(basis, {(x, y): 1, (x,): 1})]
    a = span_basis(fam, universe=[x, y, z], basis=basis, field=F, method="points")
    b = span_basis(fam, universe=[x, y, z], basis=basis, field=F, method="closure")
    assert a.std_monomials == b.std_monomials
    assert a.leading_terms() == b.leading_terms()
    want = ((x,),) if basis == BOOLEAN else ((y,),)
    assert b.leading_terms() == want


@pytest.mark.parametrize("basis", [BOOLEAN, FOURIER])
def test_closure_basis_is_monic_and_reduced(basis):
    """A remainder is a full reduction by divisibility: each basis
    polynomial is monic and led by its key, and no term of a remainder,
    or of a basis polynomial past its lead, is divisible by a lead."""
    x, y, z = plain("x"), plain("y"), plain("z")
    # x*y - x holds t = x and t*y: in {0,1}, y times it is x*y - x*y = 0,
    # so x stays standard; dropping one of the two terms that meet would
    # put x*y, then x, in the span
    fams = [[_poly(basis, {(x, y): 1, (x,): -1})]]
    rng = random.Random(11)
    fams += [[_rand_poly(rng, [x, y, z], basis, max_terms=4) for _ in range(rng.randint(1, 3))] for _ in range(8)]
    if basis == BOOLEAN:
        ctx = bop_context(2, 3)
        fams.append([ctx.polys[i] for g in ("T", "BV(1)") for i in ctx.groups[g]])
    for fam in fams:
        universe = sorted({v for q in fam for v in q.variables()} | {x, y, z})
        b = span_basis(fam, universe=universe, basis=basis, field=F, method="closure")
        codec, gb = b._engine.codec, b._engine.groebner

        def divisible(m):
            return any(lead & m == lead for lead in gb)

        for lead, g in gb.items():
            assert g[lead] == 1 and codec.lead(g) == lead
            assert not any(divisible(m) for m in g if m != lead)
        for t in map(codec.term, _family_terms(codec, len(universe))):
            for s in b.reduce(Poly.from_term(F, basis, t)).terms:
                assert not divisible(codec.mask(v for v in s if v in codec.pos)), (t, s)
        a = span_basis(fam, universe=universe, basis=basis, field=F, method="points")
        assert a.std_monomials == b.std_monomials
    if basis == BOOLEAN:
        b = span_basis(fams[0], universe=[x, y], field=F, method="closure")
        assert b.std_monomials == ((), (x,), (y,))


def test_closure_matches_points_on_every_touch_key():
    """Both engines over the 12-variable universe of (3, 1): the same
    standard monomials and remainders on every key and every term."""
    oracle = ResidueOracle(bop_context(3, 1))
    ctx = oracle.context
    terms = [Poly.from_term(F, BOOLEAN, ctx.codec.term(m)) for m in _family_terms(ctx.codec, len(ctx.universe))]
    assert len(terms) == 4096
    for k in range(4):
        for key in itertools.combinations(range(1, 4), k):
            points = oracle.span_for(key)
            family = [ctx.polys[i] for g in ("T",) + tuple(f"BV({j})" for j in key) for i in ctx.groups[g]]
            closure = span_basis(family, universe=ctx.universe, method="closure")
            assert closure.std_monomials == points.std_monomials, key
            for q in terms:
                assert closure.reduce(q) == points.reduce(q), (key, q)


def test_closure_matches_points_on_larger_touch_keys(monkeypatch):
    """Past the old 12-variable universe cap: every in-regime key of
    (3, 2), and keys {1}, {1,2}, {1,2,3} of (4, 1), whose 18 active
    variables need the points cap raised.  Both engines give the same
    standard monomials and the same remainders of seeded terms."""
    monkeypatch.setattr(degreelab, "SPAN_VAR_LIMIT", 18)
    cases = [(3, 2, [k for r in range(3) for k in itertools.combinations((1, 2, 3), r)]),
             (4, 1, [(1,), (1, 2), (1, 2, 3)])]
    for n, ell, keys in cases:
        ctx = bop_context(n, ell)
        rng = random.Random(n)
        queries = [Poly.from_term(F, BOOLEAN, make_term(rng.sample(ctx.universe, rng.randint(0, 6))))
                   for _ in range(30)]
        for key in keys:
            assert _in_regime(frozenset(key), n)
            family = [ctx.polys[i] for g in ("T",) + tuple(f"BV({j})" for j in key) for i in ctx.groups[g]]
            points = span_basis(family, universe=ctx.universe)
            closure = span_basis(family, universe=ctx.universe, method="closure")
            assert closure.std_monomials == points.std_monomials, (n, ell, key)
            for q in queries:
                assert closure.reduce(q) == points.reduce(q), (n, ell, key, q)


def test_closure_matches_sympy_on_a_3_2_key():
    """An independent oracle at a size the old closure engine refused:
    key {1,2} of (3, 2), 16 active variables.  The standard monomials are
    exactly the squarefree monomials that no leading term of sympy's
    basis divides, and seeded remainders agree."""
    ctx = bop_context(3, 2)
    family = [ctx.polys[i] for g in ("T", "BV(1)", "BV(2)") for i in ctx.groups[g]]
    sp = span_basis(family, universe=ctx.universe, method="closure")
    assert len(sp.active) == 16
    ref = GroebnerReducer(family, sp.active, BOOLEAN)
    # bit i of a mask stands for ref.gens[i]; a square divides no
    # squarefree monomial
    monoms = [sympy.Poly(g, *ref.syms).monoms(order="grlex")[0] for g in ref.groebner.exprs]
    leads = [sum(1 << i for i, e in enumerate(exps) if e) for exps in monoms if max(exps) == 1]
    want = {m for m in range(1 << len(ref.gens)) if all(lead & m != lead for lead in leads)}
    got = {sum(1 << ref.gens.index(v) for v in t) for t in sp.std_monomials}
    assert got == want and len(got) == 117
    rng = random.Random(5)
    for _ in range(25):
        q = Poly.from_term(F, BOOLEAN, make_term(rng.sample(sp.active, rng.randint(0, 7))))
        assert sp.reduce(q) == ref.reduce(q), q


def _mixed_vars():
    kinds = st.one_of(
        st.builds(pointer, st.integers(1, 3), st.integers(1, 2)),
        st.builds(edge, st.integers(1, 2), st.integers(3, 4), st.integers(0, 2)),
        st.builds(cluster_var, st.integers(1, 2), st.integers(3, 4), st.integers(1, 2)),
        st.builds(plain, st.sampled_from("abcd")),
    )
    return st.one_of(kinds, kinds.map(lambda v: v.twin))


@settings(max_examples=60, deadline=None)
@given(st.lists(_mixed_vars().map(lambda v: v.base), max_size=8, unique=True), st.data())
def test_family_terms_matches_sorted_combinations(universe, data):
    universe = data.draw(st.permutations(universe))
    max_degree = data.draw(st.integers(0, len(universe) + 1))
    want = []
    for d in range(max_degree + 1):
        want.extend(sorted((make_term(c) for c in itertools.combinations(universe, d)), key=grlex_key))
    codec = TermCodec(universe)
    assert [codec.term(m) for m in _family_terms(codec, max_degree)] == want


def test_family_terms_lists_one_degree_at_a_time(monkeypatch):
    asked, combinations = [], itertools.combinations

    def recorded(pool, d):
        asked.append(d)
        return combinations(pool, d)

    monkeypatch.setattr(degreelab.itertools, "combinations", recorded)
    terms = iter(_family_terms(bop_context(3, 1).codec, 4))
    assert next(terms) == 0 and asked == [0]
    assert next(terms) and asked == [0, 1]


def test_span_escalier_and_basis_poly_invariants():
    rng = random.Random(13)
    vs = [plain(f"v{i}") for i in range(6)]
    polys = [_rand_poly(rng, vs, BOOLEAN, max_degree=2) for _ in range(3)]
    sp = span_basis(polys, universe=vs)
    std = set(sp.std_monomials)
    for t in std:
        for v in t:
            assert tuple(u for u in t if u != v) in std
    for m in sp.leading_terms():
        # the monomial minus its remainder keeps the monomial as leading term
        pm = Poly.from_term(F, BOOLEAN, m)
        g = pm.sub(sp.reduce(pm))
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
    vs = [plain(f"v{i:02d}") for i in range(40)]
    with pytest.raises(ScaleLimitExceeded):
        span_basis([Poly.variable(F, BOOLEAN, v) for v in vs[:17]], universe=vs[:17])
    # at the limit the points engine still builds; the closure engine
    # counts no variables
    span_basis([Poly.variable(F, BOOLEAN, vs[0])], universe=vs[:16])
    assert span_basis([Poly.variable(F, BOOLEAN, v) for v in vs], method="closure").std_monomials == ((),)
    # one monomial over k variables leaves 2^k - 1 standard monomials
    start = time.perf_counter()
    with pytest.raises(ScaleLimitExceeded, match=f"more than {CLOSURE_STD_LIMIT} standard monomials"):
        span_basis([Poly.from_term(F, BOOLEAN, make_term(vs[:13]))], method="closure")
    assert time.perf_counter() - start < 1.0
    sp = span_basis([Poly.from_term(F, BOOLEAN, make_term(vs[:12]))], method="closure")
    assert len(sp.std_monomials) == CLOSURE_STD_LIMIT - 1
    # a key of (5, 1), past every in-regime key of (4, 1), exceeds the steps
    ctx = bop_context(5, 1)
    family = [ctx.polys[i] for g in ("T", "BV(1)", "BV(2)", "BV(3)") for i in ctx.groups[g]]
    start = time.perf_counter()
    with pytest.raises(ScaleLimitExceeded, match=f"closure limit of {CLOSURE_STEP_LIMIT} steps"):
        span_basis(family, method="closure")
    assert time.perf_counter() - start < 1.0


def test_span_points_limit():
    # one monomial over k variables vanishes at all 2^k - 1 other points
    vs = [plain(f"v{i:02d}") for i in range(11)]
    start = time.perf_counter()
    with pytest.raises(ScaleLimitExceeded, match="2047 common zeros"):
        span_basis([Poly.from_term(F, BOOLEAN, make_term(vs))])
    assert time.perf_counter() - start < 1.0
    sp = span_basis([Poly.from_term(F, BOOLEAN, make_term(vs[:10]))])
    assert len(sp.std_monomials) == SPAN_POINTS_LIMIT - 1
    assert sp.leading_terms() == (make_term(vs[:10]),)


def _engine_pin(n, ell, seed=0, terms=50):
    """How many touch keys the points engine accepts at (n, ell), and a
    sha256 over each one's standard monomials and the remainders of
    seeded terms."""
    oracle = ResidueOracle(bop_context(n, ell))
    universe = list(oracle.context.universe)
    rng = random.Random(seed)
    queries = [make_term(rng.sample(universe, rng.randint(0, 5))) for _ in range(terms)]
    digest = hashlib.sha256()
    keys = 0
    for k in range(n + 1):
        for key in itertools.combinations(range(1, n + 1), k):
            try:
                sp = oracle.span_for(key)
            except ScaleLimitExceeded:
                continue
            keys += 1
            lines = [repr(key)]
            lines += ["*".join(format_var(v) for v in t) or "1" for t in sp.std_monomials]
            lines += [format_poly(sp.reduce(Poly.from_term(F, BOOLEAN, t))) for t in queries]
            digest.update(("\n".join(lines) + "\n").encode())
    return keys, digest.hexdigest()


@pytest.mark.parametrize(
    "n, ell, keys, sha",
    [
        (4, 1, 11, "854693e4153a98ad9447dc728e42f55ca0d4634c68a61fe5c03db0516b665721"),
        (3, 2, 7, "f32a2ada33679c0c026b0fcffd44a9b0f6f8ac35d8019d6c46e60cb9ef8f03aa"),
    ],
    ids=["4-1", "3-2"],
)
def test_points_engine_pinned_on_large_touch_keys(n, ell, keys, sha):
    """Spans of up to 16 active variables and 235 common zeros, where the
    candidate pruning matters: recorded before the Buchberger-Moeller
    build replaced the scan over every mask."""
    assert _engine_pin(n, ell) == (keys, sha)


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


@pytest.mark.parametrize("vertex", [2.5, 1.0, True])
def test_span_for_refuses_a_vertex_that_is_not_an_int(vertex):
    # 1.0 and True hash as the vertex 1, but no pointer group is named by them
    orc = ResidueOracle(bop_context(3, 1))
    orc.span_for({1})
    with pytest.raises(ValueError, match=re.escape(f"vertices [{vertex}] outside 1..3")):
        orc.span_for({vertex})


@pytest.mark.parametrize("vertices, listed", [
    ({"a", 2.5}, "[2.5, 'a']"),
    ({"b", 0, None, "a"}, "[None, 0, 'a', 'b']"),
    # sortable sets keep their numeric order
    ({0, 2.5, 10, 4}, "[0, 2.5, 4, 10]"),
    ({0, 4}, "[0, 4]"),
])
def test_span_for_refuses_mixed_vertex_types_in_a_fixed_order(oracle, vertices, listed):
    with pytest.raises(ValueError, match=re.escape(f"vertices {listed} outside 1..3")):
        oracle.span_for(vertices)


def test_tau_is_the_touch_key_interned():
    ctx = bop_context(3, 1)
    orc = ResidueOracle(ctx)
    terms = list(map(ctx.codec.term, _family_terms(ctx.codec, len(ctx.universe))))
    assert len(terms) == 4096
    keys = {}
    for t in terms:
        key = orc.tau(t)
        assert key == touched(t, 3, 1).tau
        assert keys.setdefault(key, key) is key
        assert orc.tau(t) is key
    assert len(keys) == 8


@pytest.mark.parametrize("bad", [(pointer(1, 1).twin,), (plain("w"),), (pointer(4, 1),), (edge(1, 2, 2),),
                                 (pointer(1, 3),), (pointer(1, 0),)])
def test_tau_does_not_cache_errors(bad):
    orc = ResidueOracle(bop_context(3, 1))
    t = make_term((edge(1, 2, 1),) + bad)
    with pytest.raises(ValueError) as want:
        touched(t, 3, 1)
    for _ in range(3):
        with pytest.raises(ValueError) as got:
            orc.tau(t)
        assert str(got.value) == str(want.value)
        with pytest.raises(ValueError):
            orc.R_term(t)
    assert orc.tau((edge(1, 2, 1),)) == frozenset({1, 2})


@pytest.mark.parametrize("n, ell", [(3, 2), (4, 2)])
def test_a_term_outside_the_codec_is_refused_before_any_span(n, ell):
    orc = ResidueOracle(bop_context(n, ell))
    t = (cluster_var(1, 2, 1),)
    for call in (lambda: orc.R_term(t), lambda: orc.R(Poly.from_term(orc.context.field, BOOLEAN, t))):
        with pytest.raises(ValueError, match=re.escape("variable z(1,2,1) outside the span universe")) as got:
            call()
        assert type(got.value) is ValueError
    assert orc._spans == {}


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


def _bench_sizes(n, ell):
    """The six runners at the sizes of the full residue-sweep pass, on one
    oracle."""
    o = ResidueOracle(bop_context(n, ell))
    return verify_residue_properties(n, ell, pairs=200, seed=1, oracle=o) + (
        verify_residue_operator(n, ell, oracle=o),
        verify_touch_extension(n, ell, max_degree=12, oracle=o),
        verify_touch_superset(n, ell, max_degree=12, oracle=o),
        verify_residue_support(n, ell, max_degree=12, oracle=o),
        verify_residue_product(n, ell, samples=500, seed=1, oracle=o),
    )


_REPORT_NAMES = ("residue-linearity", "residue-axioms-vanish", "residue-unit-fixed",
                 "residue-product-small", "residue-operator", "touch-extension",
                 "touch-superset", "residue-support", "residue-product")
_AXIOMS_1_2 = "2edbc8c9b6cebbdb"

# Per report, in order: case count, counterexample count and the sha256
# prefix of the counterexamples joined by newlines ("" when none).  At
# n = 2 the keys of axioms 1 and 2 and the product runner's vertex pool
# {1, 2} cover every vertex, so those failures lie outside the regime the
# operator is meant for; they are pinned as they stand.
_REPORT_PINS = {
    "all-3-1": (lambda: verify_all(3, 1, seed=0),
                [(200, 0, ""), (21, 0, ""), (1, 0, ""), (372, 0, ""), (22, 0, ""),
                 (1002, 0, ""), (184, 0, ""), (794, 0, ""), (500, 0, "")]),
    "bench-3-1": (lambda: _bench_sizes(3, 1),
                  [(200, 0, ""), (21, 0, ""), (1, 0, ""), (372, 0, ""), (22, 0, ""),
                   (1128, 0, ""), (205, 0, ""), (4096, 0, ""), (500, 0, "")]),
    "all-2-1": (lambda: verify_all(2, 1, seed=0),
                [(200, 0, ""), (5, 2, _AXIOMS_1_2), (1, 0, ""), (4, 0, ""), (6, 2, _AXIOMS_1_2),
                 (4, 0, ""), (5, 0, ""), (16, 0, ""), (500, 0, "")]),
    "all-2-2": (lambda: verify_all(2, 2, seed=0),
                [(200, 0, ""), (8, 2, _AXIOMS_1_2), (1, 0, ""), (28, 0, ""), (9, 2, _AXIOMS_1_2),
                 (28, 0, ""), (13, 0, ""), (57, 0, ""), (500, 22, "c0c53d76c8fa4352")]),
}


@pytest.mark.parametrize("run", sorted(_REPORT_PINS))
def test_lemma_reports_are_pinned(run):
    make, pins = _REPORT_PINS[run]
    reports = make()
    assert tuple(r.name for r in reports) == _REPORT_NAMES
    got = [(r.cases, len(r.counterexamples),
            hashlib.sha256("\n".join(r.counterexamples).encode()).hexdigest()[:16] if r.counterexamples else "")
           for r in reports]
    assert got == pins
    if run.startswith("all-2"):
        assert reports[1].counterexamples == ("axiom 1 survives the reduction",
                                              "axiom 2 survives the reduction")


@pytest.mark.parametrize("run", [
    lambda: verify_residue_properties(2, 1, pairs=-3),
    lambda: verify_residue_properties(2, 1, max_degree=-1),
    lambda: verify_residue_product(2, 1, samples=-1),
    lambda: verify_touch_extension(2, 1, max_degree=-1),
    lambda: verify_touch_superset(2, 1, max_degree=-1),
    lambda: verify_residue_support(2, 1, max_degree=-1),
], ids=["pairs", "properties-degree", "samples", "extension-degree", "superset-degree", "support-degree"])
def test_negative_sizes_are_refused(run):
    # each once ran no case and reported ok, with pairs=-3 as "-3 cases"
    with pytest.raises(ValueError, match="must be >= 0"):
        run()


def test_case_counts_are_counted():
    lin, axioms, unit, _ = verify_residue_properties(2, 1, pairs=0)
    assert (lin.cases, lin.ok) == (0, True)
    assert (axioms.cases, unit.cases) == (5, 1)
    assert verify_residue_product(2, 1, samples=0).cases == 0


def test_regime_predicate_matches_proper_spans():
    """``_in_regime`` holds exactly when the key's span is proper, i.e.
    leaves a standard monomial, on every touch key the points engine
    accepts at these sizes."""
    checked, refused = 0, []
    for n, ell in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]:
        orc = ResidueOracle(bop_context(n, ell))
        for k in range(n + 1):
            for key in itertools.combinations(range(1, n + 1), k):
                try:
                    proper = bool(orc.span_for(key).std_monomials)
                except ScaleLimitExceeded:
                    refused.append((n, ell, key))
                    continue
                assert proper == _in_regime(frozenset(key), n), (n, ell, key)
                checked += 1
    assert checked == 38
    # 18 or 20 active variables, over the points cap of 16
    assert refused == [(3, 2, (1, 2, 3)), (4, 1, (1, 2, 3)), (4, 1, (1, 2, 4)),
                       (4, 1, (1, 3, 4)), (4, 1, (2, 3, 4)), (4, 1, (1, 2, 3, 4))]


_REFERENCE_SIZES = {(3, 1): {}, (2, 2): {}}  # (n, ell) -> {key: span} of the reference


def _reference_R(ctx, poly):
    """The touch-keyed reduction written out term by term: each term
    reduced modulo the span of T and the pointer groups of the vertices
    ``touched`` names, the remainders summed."""
    spans = _REFERENCE_SIZES[ctx.n, ctx.ell]
    out = Poly.zero(F, BOOLEAN)
    for t, c in poly.terms.items():
        key = touched(t, ctx.n, ctx.ell).tau
        if key not in spans:
            family = [ctx.polys[i] for g in ["T"] + [f"BV({j})" for j in sorted(key)] for i in ctx.groups[g]]
            spans[key] = span_basis(family, ctx.universe)
        out = out.add(spans[key].reduce(Poly.from_term(F, BOOLEAN, t)).scale(c))
    return out


@pytest.fixture(scope="module")
def reference_oracles():
    return {size: ResidueOracle(bop_context(*size)) for size in _REFERENCE_SIZES}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_REFERENCE_SIZES)), st.data())
def test_oracle_matches_the_termwise_reference(reference_oracles, size, data):
    """``R`` on random polynomials whose every term is in regime equals
    the sum of per-term remainders under each term's touch key."""
    orc = reference_oracles[size]
    ctx = orc.context
    n, ell = size
    terms = st.lists(st.sampled_from(ctx.universe), max_size=5).map(make_term).filter(
        lambda t: _in_regime(touched(t, n, ell).tau, n))
    poly = Poly(F, BOOLEAN, data.draw(st.dictionaries(terms, st.integers(1, F.p - 1), max_size=6)))
    assert orc.R(poly) == _reference_R(ctx, poly)
    # every span lays out terms as the context codec does, so masks pass between them
    assert all(orc.span_for(key).codec.var_of == ctx.codec.var_of for key in _REFERENCE_SIZES[size])


def test_lemma_runners_build_no_poly_and_encode_no_term(monkeypatch):
    """On a warmed oracle, the lemma runners work on masks: the runners
    that walk every small term, and the unit check, build no ``Poly`` and
    mask no term per case; the axiom checks build no ``Poly``."""
    orc = ResidueOracle(bop_context(3, 1))
    verify_all(3, 1, oracle=orc)
    calls, per_report = collections.Counter(), {}
    init, mask, lemma = Poly.__init__, TermCodec.mask, degreelab._lemma

    def counted_init(self, *args):
        calls["Poly.__init__"] += 1
        init(self, *args)

    def counted_mask(self, t):
        calls["TermCodec.mask"] += 1
        return mask(self, t)

    def counted_lemma(name, *args):
        before = calls.copy()
        rep = lemma(name, *args)
        per_report[name] = dict(calls - before)
        return rep

    monkeypatch.setattr(Poly, "__init__", counted_init)
    monkeypatch.setattr(TermCodec, "mask", counted_mask)
    monkeypatch.setattr(degreelab, "_lemma", counted_lemma)
    verify_touch_extension(3, 1, oracle=orc)
    verify_touch_superset(3, 1, oracle=orc)
    verify_residue_support(3, 1, oracle=orc)
    verify_residue_properties(3, 1, oracle=orc)
    verify_residue_operator(3, 1, oracle=orc)
    for name in ("touch-extension", "touch-superset", "residue-support", "residue-product-small",
                 "residue-unit-fixed"):
        assert per_report[name] == {}, name
    # an axiom is masked once, term by term, and reduced as masks
    for name in ("residue-axioms-vanish", "residue-operator"):
        assert "Poly.__init__" not in per_report[name], name


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
        # a key of three vertices: 12 edge and 6 pointer variables active
        orc.R_term((pointer(1, 1), pointer(2, 1), pointer(3, 1)))


def test_points_cap_counts_active_variables_not_the_universe():
    # bop_context(3, 2) has 18 variables; a key of two vertices makes its
    # 12 edge and 4 pointer variables active, exactly the cap of 16
    ctx = bop_context(3, 2)
    orc = ResidueOracle(ctx)
    t = (pointer(1, 2), pointer(2, 2))
    assert touched(t, 3, 2).tau == {1, 2}
    assert len(ctx.universe) == 18 and len(orc.span_for({1, 2}).active) == 16
    r = orc.R_term(t)
    assert not r.is_zero
    premises = [ctx.polys[i] for g in ("T", "BV(1)", "BV(2)") for i in ctx.groups[g]]
    assert semantic_implies(premises, Poly.from_term(F, BOOLEAN, t).sub(r))


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


def heavy_terms_by_term(proof, threshold):
    """The heavy analysis on decoded terms: each product of
    ``quadratic_set``, its twins replaced by their bases, touched once."""
    n, ell = proof.axioms.n, proof.axioms.ell
    reports = {}
    for t in quadratic_set(proof).products:
        base = make_term(v.base for v in t)
        if base not in reports:
            reports[base] = touched(base, n, ell)
    return {t: rep for t, rep in reports.items() if len(rep.tau) >= threshold}


def selection_by_term(proof, threshold):
    """``heavy_term_selection`` recomputed on the decoded heavy terms of
    ``heavy_terms_by_term``, as the selection was first written."""
    n, ell = proof.axioms.n, proof.axioms.ell
    heavy = heavy_terms_by_term(proof, threshold)
    counts = collections.Counter(j for rep in heavy.values() for j in rep.strong)
    vertex = min(counts, key=lambda j: (-counts[j], j))
    copies = collections.Counter(v.index[::2] for t in heavy for v in t if v.kind == "x" and v.index[1] == vertex)
    l_choice = {i: min(range(1, ell + 1), key=lambda l: (-copies[i, l], l))
                for i in range(1, n + 1) if i != vertex}
    split_vars = [pointer(vertex, a) for a in range(1, pointer_bits(n) + 1)]
    split_vars += [edge(i, vertex, l) for i, l in l_choice.items()]
    return HeavySelection(vertex, tuple(sorted(l_choice.items())), tuple(sorted(split_vars)), frozenset(heavy))


@pytest.fixture(scope="module")
def bop_pool(lifted_axioms):
    """Every derivation of the fourier-transform workload's bop pool."""
    return [random_derivation(lifted_axioms, 30, seed) for seed in range(60)]


def test_heavy_analysis_matches_the_term_oracle(bop_pool):
    # the oracle selects on decoded terms and counts the round's output
    # the same way; the round must agree on every field it reports
    for proof in bop_pool:
        want = selection_by_term(proof, 2)
        assert heavy_term_selection(proof, 2) == want
        cur, rep = heavy_split_round(proof, 2)
        assert (rep.vertex, rep.before) == (want.vertex, len(want.heavy))
        assert rep.after == len(heavy_terms_by_term(cur, 2)) < rep.before
        assert sorted(rep.split_at + rep.skipped) == list(want.split_vars)


def test_the_round_decodes_nothing_and_builds_no_touch_report(bop_pool, monkeypatch):
    calls = collections.Counter()
    term, report = TermCodec.term, proofs.TouchReport

    def counted_term(self, mask):
        calls["term"] += 1
        return term(self, mask)

    def counted_report(*args):
        calls["report"] += 1
        return report(*args)

    monkeypatch.setattr(TermCodec, "term", counted_term)
    monkeypatch.setattr(proofs, "TouchReport", counted_report)
    for proof in bop_pool:
        heavy_split_round(proof, 2)
    assert calls == {}
    heavy = sum(len(heavy_term_selection(proof, 2).heavy) for proof in bop_pool)
    # one decode per heavy product, at the public boundary
    assert calls == {"term": heavy}


def test_special_degree_on_the_bop_pool(bop_pool):
    assert [special_degree(proof) for proof in bop_pool] == [3] * 60


def test_heavy_split_round_skips_twin_blocked_vars(lifted_axioms):
    proof = random_derivation(lifted_axioms, 30, 9)
    out, rep = heavy_split_round(proof, 2)
    assert check_pc(out).valid
    assert rep.split_at == (edge(3, 1, 2),)
    assert len(rep.skipped) == 3
    assert rep.after < rep.before


def test_touch_refuses_only_the_variables_a_term_holds(lifted_axioms):
    # plain w joins the universe but no line: the touch table is built over
    # a codec holding w, and no analysis refuses it
    ax = lifted_axioms
    proof = random_derivation(ax, 30, 0)
    with_w = AxiomSystem(ax.field, ax.basis, ax.polys, ax.universe + (plain("w"),), ax.groups, n=3, ell=2)
    wide = PCProof(with_w, proof.steps)
    assert special_degree(wide) == special_degree(proof) == 3
    sel = heavy_term_selection(wide, 2)
    assert sel == heavy_term_selection(proof, 2)
    assert len(sel.heavy) == 1383
    assert sel.vertex == 1


def test_valid_input_never_decodes_a_term_to_touch_it(lifted_axioms, monkeypatch):
    def refuse(*args):
        raise AssertionError("a term was decoded only to be touched")

    # degreelab holds the name too, for terms its codec cannot encode
    monkeypatch.setattr(proofs, "touched", refuse)
    monkeypatch.setattr(degreelab, "touched", refuse)
    proof = random_derivation(lifted_axioms, 30, 0)
    assert special_degree(proof) == 3
    assert special_degree(pcr_upper_bound(3, 1)) == 3
    assert special_degree(pcr_upper_bound(4, 2)) == 4
    out, rep = heavy_split_round(proof, 2)
    assert check_pc(out).valid
    assert (rep.vertex, rep.before, rep.after) == (1, 1383, 1)
    assert rep.split_at == (edge(2, 1, 1), edge(3, 1, 1))
    assert rep.skipped == (pointer(1, 1), pointer(1, 2))
    for run in ("all-3-1", "bench-3-1"):
        make, pins = _REPORT_PINS[run]
        reports = make()
        assert tuple(r.name for r in reports) == _REPORT_NAMES
        assert [(r.cases, len(r.counterexamples), "") for r in reports] == pins
