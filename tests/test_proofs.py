import gc
import random
import weakref
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings, strategies as st

from pclab.algebra import (
    BOOLEAN,
    FOURIER,
    DEFAULT_FIELD,
    BasisMismatch,
    Poly,
    TermCodec,
    Var,
    cluster_var,
    edge,
    grlex_key,
    make_term,
    plain,
    pointer,
    term_mul,
)
from pclab.constructions import pcr_upper_bound, tseitin_fourier_refutation
from pclab.formulas import (
    CNF,
    AxiomSystem,
    cnf_to_axioms,
    gen_bop_lifted,
    gen_cycle_tseitin,
    gen_lop,
    sat_oracle,
    write_axioms,
    write_dimacs,
)
from pclab.proofs import (
    PCProof,
    QuadraticSet,
    ResolutionProof,
    _mask_lines,
    _touch_rule,
    check_pc,
    check_resolution,
    proof_lines,
    quadratic_degree,
    quadratic_set,
    random_derivation,
    read_pcproof,
    read_resproof,
    resolution_lines,
    special_degree,
    touched,
    twin_axiom_poly,
    write_pcproof,
    write_resproof,
)

F = DEFAULT_FIELD
INV2 = (F.p + 1) // 2


def plain_system(basis, polys, names="abcd"):
    vs = tuple(sorted(plain(c) for c in names))
    return AxiomSystem(F, basis, tuple(polys), vs)


def x_pm_one_system():
    x = plain("a")
    minus = Poly(F, FOURIER, {(x,): 1, (): F.p - 1})  # x - 1
    pl = Poly(F, FOURIER, {(x,): 1, (): 1})  # x + 1
    return AxiomSystem(F, FOURIER, (minus, pl), (x,))


class TestCheckPC:
    def test_twin_axiom_derivation_not_refutation(self):
        x = plain("a")
        ax = AxiomSystem(F, BOOLEAN, (), (x,))
        proof = PCProof(ax, (("tw", x), ("lin", 1, 0, 0, 0)))
        rep = check_pc(proof)
        assert rep.valid and not rep.is_refutation
        assert rep.size == 3 + 3 and rep.degree == 1 and rep.num_lines == 2

    def test_hand_fourier_refutation_size_five(self):
        ax = x_pm_one_system()
        proof = PCProof(ax, (("ax", 0), ("ax", 1), ("lin", INV2, 1, F.p - INV2, 0)))
        rep = check_pc(proof)
        assert rep.valid and rep.is_refutation
        assert rep.size == 5 and rep.degree == 1

    def test_lines_materialized(self):
        ax = x_pm_one_system()
        proof = PCProof(ax, (("ax", 0), ("ax", 1), ("lin", INV2, 1, F.p - INV2, 0)))
        lines = proof_lines(proof)
        assert lines[2] == Poly(F, FOURIER, {(): 1})

    def test_dangling_reference(self):
        ax = x_pm_one_system()
        proof = PCProof(ax, (("ax", 0), ("lin", 1, 0, 1, 5)))
        rep = check_pc(proof)
        assert not rep.valid and rep.first_bad_line == 1
        assert "reference" in rep.message or "line" in rep.message

    def test_forward_reference_rejected(self):
        ax = x_pm_one_system()
        proof = PCProof(ax, (("ax", 0), ("lin", 1, 1, 1, 0)))
        assert not check_pc(proof).valid

    def test_bad_axiom_index(self):
        ax = x_pm_one_system()
        rep = check_pc(PCProof(ax, (("ax", 7),)))
        assert not rep.valid and rep.first_bad_line == 0

    def test_foreign_variable(self):
        ax = x_pm_one_system()
        rep = check_pc(PCProof(ax, (("ax", 0), ("mul", plain("zz"), 0))))
        assert not rep.valid and rep.first_bad_line == 1

    def test_malformed_step_reported_not_raised(self):
        ax = x_pm_one_system()
        for bad in (("lin", 1, 0), ("frob", 1), ("lin", "a", 0, 1, 0), ("mul", 3, 0), ()):
            rep = check_pc(PCProof(ax, (("ax", 0), bad)))
            assert not rep.valid and rep.first_bad_line == 1

    def test_messages_use_file_numbering(self):
        ax = x_pm_one_system()
        assert check_pc(PCProof(ax, (("ax", -1),))).message == "no axiom 0: the system has 2"
        assert check_pc(PCProof(ax, (("ax", 98),))).message == "no axiom 99: the system has 2"
        rep = check_pc(PCProof(ax, (("ax", 0), ("lin", 1, 0, 1, 5))))
        assert rep.message == "reference to L6 not before L2"

    def test_square_step_is_zero_line(self):
        x = plain("a")
        ax = x_pm_one_system()
        lines = proof_lines(PCProof(ax, (("sq", x),)))
        assert lines[0].is_zero

    def test_twin_axiom_shapes(self):
        x = plain("a")
        tb = twin_axiom_poly(x, F, BOOLEAN)
        assert tb == Poly(F, BOOLEAN, {(x,): 1, (x.twin,): 1, (): F.p - 1})
        tf = twin_axiom_poly(x.twin, F, FOURIER)
        assert tf == Poly(F, FOURIER, {make_term([x, x.twin]): 1, (): 1})

    def test_mul_folds_square_fourier(self):
        x = plain("a")
        ax = x_pm_one_system()
        lines = proof_lines(PCProof(ax, (("ax", 0), ("mul", x, 0))))
        # x*(x - 1) = 1 - x under v*v = 1
        assert lines[1] == Poly(F, FOURIER, {(): 1, (x,): F.p - 1})

    def test_empty_proof(self):
        rep = check_pc(PCProof(x_pm_one_system(), ()))
        assert rep.valid and not rep.is_refutation and rep.size == 0

    def test_recheck_deterministic(self):
        ax = cnf_to_axioms(gen_lop(3), BOOLEAN)
        proof = random_derivation(ax, 40, seed=5)
        r1, r2 = check_pc(proof), check_pc(proof)
        assert (r1.size, r1.degree, r1.valid) == (r2.size, r2.degree, r2.valid)

    def test_soundness_probe(self):
        # a valid refutation can only exist over axioms with no common zero
        ax = x_pm_one_system()
        proof = PCProof(ax, (("ax", 0), ("ax", 1), ("lin", INV2, 1, F.p - INV2, 0)))
        assert check_pc(proof).is_refutation
        used = [ax.polys[s[1]] for s in proof.steps if s[0] == "ax"]
        assert sat_oracle(AxiomSystem(F, FOURIER, tuple(used), ax.universe)) is None


def two_clause_proof(second):
    """The clauses {a, b} and ``second`` resolved on a."""
    x, y = plain("a"), plain("b")
    cnf = CNF((frozenset({x, y}), frozenset(second)), (x, y))
    return ResolutionProof(cnf, (("in", 0), ("in", 1), ("res", 0, 1, x)))


class TestResolution:
    def test_resolve_example(self):
        x, y = plain("a"), plain("b")
        assert resolution_lines(two_clause_proof({x.twin, y}))[-1] == frozenset({y})

    def test_non_complementary_pivot(self):
        x, y = plain("a"), plain("b")
        rep = check_resolution(two_clause_proof({x, y.twin}))
        assert (rep.valid, rep.first_bad_line, rep.message) == (False, 2, "pivot a is not complementary in the parents")

    def test_lop2_refutation(self):
        cnf = gen_lop(2)
        # inputs: {x21}, {x12}, {~x12, ~x21}
        proof = ResolutionProof(
            cnf,
            (
                ("in", 0),
                ("in", 1),
                ("in", 2),
                ("res", 2, 0, edge(2, 1)),
                ("res", 3, 1, edge(1, 2)),
            ),
        )
        rep = check_resolution(proof)
        assert rep.valid and rep.is_refutation
        assert rep.max_width == 2

    def test_bad_input_index(self):
        cnf = gen_lop(2)
        rep = check_resolution(ResolutionProof(cnf, (("in", 99),)))
        assert not rep.valid and rep.first_bad_line == 0

    def test_malformed_step_reported_not_raised(self):
        cnf = gen_lop(2)
        for bad in (("res", 0), ("res", 0, 1, 3), ("in", "a"), (), ("frob", 0)):
            rep = check_resolution(ResolutionProof(cnf, (("in", 0), bad)))
            assert not rep.valid and rep.first_bad_line == 1

    def test_messages_use_file_numbering(self):
        cnf = gen_lop(2)
        rep = check_resolution(ResolutionProof(cnf, (("in", -1),)))
        assert rep.message == "no input clause 0: the formula has 3"
        rep = check_resolution(ResolutionProof(cnf, (("in", 0), ("res", 0, 4, edge(1, 2)))))
        assert rep.message == "reference to L5 not before L2"

    def test_invalid_pivot_reported(self):
        cnf = gen_lop(2)
        proof = ResolutionProof(cnf, (("in", 0), ("in", 1), ("res", 0, 1, edge(2, 1))))
        rep = check_resolution(proof)
        assert not rep.valid and rep.first_bad_line == 2


def line_pairs(proof):
    """Every unordered pair (self-pairs included) of terms sharing a line, each ordered by grlex."""
    return {tuple(sorted((s, t), key=grlex_key)) for p in proof_lines(proof) for s in p.terms for t in p.terms}


class TestQuadratic:
    def test_two_term_line(self):
        x, y = plain("a"), plain("b")
        ax = plain_system(FOURIER, [Poly(F, FOURIER, {(x,): 1, (y,): 1})])
        proof = PCProof(ax, (("ax", 0),))
        qs = quadratic_set(proof)
        assert qs.products == frozenset({(), make_term([x, y])})
        assert qs.qdeg == 2
        pairs = line_pairs(proof)
        assert len(pairs) == 3  # (x,x), (x,y), (y,y)
        assert qs.products == {term_mul(a, b, FOURIER) for a, b in pairs}

    def test_quartic_cross_terms(self):
        x1, x2, x3, x4 = (plain(f"p{i}") for i in (1, 2, 3, 4))
        terms = [
            make_term([x1, x2, x3]),
            make_term([x2, x3, x4]),
            make_term([x3, x4, x1]),
            make_term([x4, x1, x2]),
        ]
        p = Poly(F, FOURIER, {t: 1 for t in terms})
        ax = plain_system(FOURIER, [p], names=["p1", "p2", "p3", "p4"])
        proof = PCProof(ax, (("ax", 0),))
        qs = quadratic_set(proof)
        assert qs.d0 == 3
        assert qs.qdeg == 2  # every cross product has degree 2, self-products 0
        assert quadratic_degree(proof) == 2

    def test_immutable(self):
        ax = plain_system(FOURIER, [Poly(F, FOURIER, {(plain("a"),): 1, (plain("b"),): 1})])
        qs = quadratic_set(PCProof(ax, (("ax", 0),)))
        assert [f.name for f in fields(QuadraticSet)] == ["products", "qdeg", "d0"]
        for name in ("products", "qdeg", "d0"):
            with pytest.raises(FrozenInstanceError):
                setattr(qs, name, None)
            getattr(qs, name)
        assert not hasattr(qs, "pairs") and not hasattr(qs, "proof")
        # a plain value: it does not keep its proof alive
        proof = random_derivation(cnf_to_axioms(gen_lop(3), FOURIER), 25, seed=3)
        ref = weakref.ref(proof)
        qs = quadratic_set(proof)
        del proof
        gc.collect()
        assert ref() is None and qs.products

    def test_single_term_line(self):
        x = plain("a")
        ax = plain_system(FOURIER, [Poly(F, FOURIER, {(x,): 3})])
        qs = quadratic_set(PCProof(ax, (("ax", 0),)))
        assert qs.products == frozenset({()})
        assert qs.qdeg == 0

    def test_boolean_rejected(self):
        ax = plain_system(BOOLEAN, [Poly(F, BOOLEAN, {(plain("a"),): 1})])
        with pytest.raises(BasisMismatch):
            quadratic_set(PCProof(ax, (("ax", 0),)))
        with pytest.raises(BasisMismatch):
            quadratic_degree(PCProof(ax, (("ax", 0),)))

    @pytest.mark.parametrize(
        "steps, products, qdeg, d0",
        [
            ((), set(), 0, 0),  # no line, no product
            ((("ax", 0), ("mul", plain("b"), 0)), {()}, 0, 1),  # one term per line
            ((("sq", plain("a")), ("sq", plain("b"))), set(), 0, 0),  # only zero lines: no product 0
            ((("ax", 1),), {(), (plain("a"), plain("a").twin)}, 2, 1),  # x and ~x on one line
            ((("tw", plain("b")), ("ax", 0)), {(), (plain("b"), plain("b").twin)}, 2, 2),
        ],
    )
    def test_edge_cases(self, steps, products, qdeg, d0):
        x = plain("a")
        ax = plain_system(FOURIER, [Poly(F, FOURIER, {(x,): 1}), Poly(F, FOURIER, {(x,): 1, (x.twin,): 2})])
        proof = PCProof(ax, steps)
        qs = quadratic_set(proof)
        assert (qs.products, qs.qdeg, qs.d0) == (products, qdeg, d0)
        assert quadratic_degree(proof) == qdeg

    @pytest.mark.parametrize("seed", range(6))
    def test_d0_matches_the_walked_lines(self, seed):
        """``d0`` is read off the steps, not the lines: pin it to the lines
        ``_line_rule`` derives, on linear axioms (a twin sets ``d0``) and
        on LOP axioms (an axiom does)."""
        linear = plain_system(FOURIER, [Poly(F, FOURIER, {(plain("a"),): 1, (plain("b"),): 1})])
        for ax in (linear, cnf_to_axioms(gen_lop(3), FOURIER)):
            proof = random_derivation(ax, 60, seed)
            assert {"tw", "sq"} <= {s[0] for s in proof.steps}
            walked = max(max(map(int.bit_count, line), default=0) for _, step, line in _mask_lines(proof)
                         if step[0] in ("ax", "sq", "tw"))
            assert quadratic_set(proof).d0 == walked

    def test_degree_without_the_set_on_a_long_proof(self):
        proof = tseitin_fourier_refutation(60)
        assert quadratic_degree(proof) == quadratic_set(proof).qdeg == 2

    def test_products_consistent_with_pairs(self):
        ax = cnf_to_axioms(gen_lop(3), FOURIER)
        proof = random_derivation(ax, 25, seed=3)
        qs = quadratic_set(proof)
        assert qs.products == frozenset(term_mul(a, b, FOURIER) for a, b in line_pairs(proof))


class TestTouched:
    def test_full_gadget_lights_tail(self):
        t = make_term([edge(1, 2, 1), edge(1, 2, 2)])
        rep = touched(t, n=3, ell=2)
        assert rep.strong == frozenset({2})
        assert rep.light == frozenset({1})
        assert rep.tau == frozenset({1, 2})

    def test_pointer_touches_strongly(self):
        rep = touched((pointer(3, 1),), n=3, ell=2)
        assert rep.strong == frozenset({3}) and rep.light == frozenset()

    def test_partial_gadget_no_light(self):
        rep = touched((edge(1, 2, 1),), n=3, ell=2)
        assert rep.strong == frozenset({2}) and rep.light == frozenset()

    def test_ell_one_edge_touches_both(self):
        rep = touched((edge(1, 2, 1),), n=3, ell=1)
        assert rep.tau == frozenset({1, 2})

    def test_cluster_vars_count_as_pairs(self):
        from pclab.algebra import cluster_var

        t = make_term([cluster_var(1, 2, 1), cluster_var(1, 2, 2)])
        rep = touched(t, n=3, ell=4)
        assert rep.light == frozenset({1})
        rep = touched((cluster_var(1, 2, 1),), n=3, ell=4)
        assert rep.light == frozenset()

    def test_foreign_and_negated_rejected(self):
        with pytest.raises(ValueError):
            touched((plain("a"),), n=3, ell=2)
        with pytest.raises(ValueError):
            touched((edge(1, 2, 1).twin,), n=3, ell=2)
        with pytest.raises(ValueError):
            touched((edge(1, 5, 1),), n=3, ell=1)

    def test_special_degree(self):
        cnf = gen_bop_lifted(3, 2)
        ax = cnf_to_axioms(cnf, FOURIER)
        proof = PCProof(ax, tuple(("ax", i) for i in range(len(ax.polys))))
        d = special_degree(proof)
        # transitivity terms mention all three vertices of their triple
        assert d == 3

    def test_special_degree_needs_context(self):
        ax = x_pm_one_system()
        with pytest.raises(ValueError):
            special_degree(PCProof(ax, (("ax", 0),)))

    def test_special_degree_reads_twins_as_bases(self):
        # both proofs hold twin lines, which touched() alone refuses
        assert special_degree(pcr_upper_bound(3, 1)) == 3
        assert special_degree(pcr_upper_bound(4, 2)) == 4
        ax = cnf_to_axioms(gen_bop_lifted(3, 2), FOURIER)
        assert special_degree(random_derivation(ax, 30, seed=0)) == 3


def touch_by_term(t, n, ell):
    """The touch rule read off a term's variables, written apart from
    ``proofs``: the strong vertices are the heads of its pointer bits and
    gadget variables; a vertex i is light when, for some head j, every copy
    of x(i,j,.) (ell of them) or of z(i,j,.) (ell // 2) is in the term."""
    held = set(t)
    strong = {v.index[0] for v in t if v.kind == "y"} | {v.index[1] for v in t if v.kind in ("x", "z")}
    light = {i for kind, copies in (("x", ell), ("z", ell // 2)) if copies
             for i in range(1, n + 1) for j in range(1, n + 1)
             if all(Var(kind, (i, j, l)) in held for l in range(1, copies + 1))}
    return strong, light


def _clustered_universe(n, ell):
    """The bases a clustered proof at (n, ell) speaks of: pointer bits and
    the ell // 2 pair variables z(i,j,l) of every edge."""
    cnf = gen_bop_lifted(n, ell)
    return tuple(sorted([v for v in cnf.universe if v.kind == "y"]
                        + [cluster_var(i, j, l) for i in range(1, n + 1) for j in range(1, n + 1) if i != j
                           for l in range(1, ell // 2 + 1)]))


_TOUCH_FAMILIES = {(n, ell): gen_bop_lifted(n, ell).universe for n, ell in [(3, 1), (3, 2), (4, 2)]}
_TOUCH_FAMILIES["clustered", 3, 4] = _clustered_universe(3, 4)


@st.composite
def family_terms(draw):
    """(n, ell, a term over that family's bases, the family's codec)."""
    family = draw(st.sampled_from(sorted(_TOUCH_FAMILIES, key=str)))
    universe = _TOUCH_FAMILIES[family]
    n, ell = family[-2:]
    return n, ell, make_term(draw(st.lists(st.sampled_from(universe), max_size=10))), TermCodec(universe)


@settings(max_examples=300, deadline=None)
@given(family_terms())
def test_mask_touch_key_matches_the_term_rule(case):
    n, ell, t, codec = case
    want = touch_by_term(t, n, ell)
    on_mask = _touch_rule(codec, n, ell)(codec.mask(t))
    assert (set(on_mask.strong), set(on_mask.light)) == want
    rep = touched(t, n, ell)
    assert (set(rep.strong), set(rep.light)) == want
    assert rep.tau == on_mask.tau == want[0] | want[1]


def test_clustered_pairs_light_their_tail():
    # both pair variables of edge (1,2) at ell = 4 light vertex 1, as the
    # four copies x(1,2,1..4) would
    codec = TermCodec(_clustered_universe(3, 4))
    touch = _touch_rule(codec, 3, 4)
    rep = touch(codec.mask(make_term([cluster_var(1, 2, 1), cluster_var(1, 2, 2), pointer(3, 1)])))
    assert (rep.strong, rep.light) == ({2, 3}, {1})
    assert touch(codec.mask((cluster_var(1, 2, 2),))).light == frozenset()


# Each bad term at (n=3, ell=2) with the message the term-walking rule gave
# for it; a term with two bad variables names the first in term order.
_TOUCH_REFUSALS = [
    ((edge(1, 2, 1).twin,), "touch analysis is over positive terms, got ~x(1,2,1)"),
    ((plain("w"),), "foreign variable w"),
    ((pointer(4, 1),), "vertex 4 outside 1..3"),
    ((edge(1, 2, 3),), "variable x(1,2,3) outside the (n=3, ell=2) family"),
    ((edge(1, 2),), "variable x(1,2) outside the (n=3, ell=2) family"),
    (make_term([edge(1, 2, 1), pointer(1, 1).twin, plain("w")]),
     "touch analysis is over positive terms, got ~y(1,1)"),
    (make_term([pointer(2, 1), edge(2, 3, 5), plain("w")]),
     "variable x(2,3,5) outside the (n=3, ell=2) family"),
]


@pytest.mark.parametrize("t, message", _TOUCH_REFUSALS)
def test_touch_refusals_keep_their_messages(t, message):
    with pytest.raises(ValueError) as got:
        touched(t, 3, 2)
    assert str(got.value) == message
    # over a codec of the whole family and the bad variables, the table is
    # built without complaint, and only a mask holding a bad bit is refused
    codec = TermCodec(gen_bop_lifted(3, 2).universe + tuple(v.base for v in t))
    touch = _touch_rule(codec, 3, 2)
    with pytest.raises(ValueError) as got:
        touch(codec.mask(t))
    assert str(got.value) == message
    assert touch(codec.mask((edge(1, 2, 1), edge(1, 2, 2)))).tau == {1, 2}


# The (3, 2) and (4, 2) families' codecs (36 and 64 bits), each widened by
# bases outside the family; every base brings its twin bit.
_BULK_CODECS = {
    (n, ell): TermCodec(gen_bop_lifted(n, ell).universe
                        + (plain("w"), pointer(n + 1, 1), edge(1, 2), edge(1, 2, ell + 1)))
    for n, ell in [(3, 2), (4, 2)]
}


@st.composite
def mask_lists(draw):
    """(n, ell, codec, masks): most masks hold only the family's own bases;
    the rest add one bit of any kind, a twin or an out-of-family base."""
    n, ell = draw(st.sampled_from(sorted(_BULK_CODECS)))
    codec = _BULK_CODECS[n, ell]
    own = st.builds(sum, st.lists(st.sampled_from([1 << codec.pos[v] for v in gen_bop_lifted(n, ell).universe]),
                                  unique=True, max_size=14))
    any_bit = st.sampled_from([1 << b for b in range(len(codec.var_of))])
    mixed = st.builds(int.__or__, own, any_bit)
    return n, ell, codec, draw(st.lists(st.one_of(own, own, own, mixed), max_size=20))


@settings(max_examples=200, deadline=None)
@given(mask_lists())
def test_bulk_touch_counts_match_touch(case):
    n, ell, codec, masks = case
    touch = _touch_rule(codec, n, ell)
    outcomes = []  # per mask, its touch count or the message refusing it
    for m in masks:
        try:
            outcomes.append(len(touch(m).tau))
        except ValueError as e:
            outcomes.append(str(e))
    counted = [o for o in outcomes if isinstance(o, int)]
    refusals = [o for o in outcomes if isinstance(o, str)]
    if refusals:
        with pytest.raises(ValueError) as got:
            touch.counts(masks)
        assert str(got.value) == refusals[0]
    else:
        assert touch.counts(masks) == outcomes
    assert touch.counts([m for m, o in zip(masks, outcomes) if isinstance(o, int)]) == counted


class TestRandomDerivation:
    def test_deterministic(self):
        ax = cnf_to_axioms(gen_lop(3), FOURIER)
        p1 = random_derivation(ax, 30, seed=42)
        p2 = random_derivation(ax, 30, seed=42)
        assert p1.steps == p2.steps
        assert p1.steps != random_derivation(ax, 30, seed=43).steps

    def test_zero_steps_axioms_only(self):
        ax = cnf_to_axioms(gen_lop(2), BOOLEAN)
        proof = random_derivation(ax, 0, seed=1)
        assert proof.steps == tuple(("ax", i) for i in range(len(ax.polys)))

    def test_negative_steps_refused(self):
        with pytest.raises(ValueError, match="steps must be >= 0, got -5"):
            random_derivation(gen_cycle_tseitin(4), -5, 0)

    def test_always_valid(self):
        for basis in (BOOLEAN, FOURIER):
            ax = cnf_to_axioms(gen_lop(3), basis)
            for seed in range(8):
                proof = random_derivation(ax, 35, seed=seed)
                assert check_pc(proof).valid


class TestProofFiles:
    def test_pcproof_round_trip(self, tmp_path):
        ax = cnf_to_axioms(gen_lop(3), FOURIER)
        write_axioms(ax, tmp_path / "ax.txt")
        proof = random_derivation(ax, 25, seed=9)
        write_pcproof(proof, tmp_path / "proof.txt", "ax.txt")
        back = read_pcproof(tmp_path / "proof.txt")
        assert back.steps == proof.steps
        assert back.axioms.polys == ax.polys
        assert check_pc(back).valid

    def test_pcproof_explicit_axioms(self, tmp_path):
        ax = x_pm_one_system()
        proof = PCProof(ax, (("ax", 0), ("ax", 1), ("lin", INV2, 1, F.p - INV2, 0)))
        write_pcproof(proof, tmp_path / "p.txt", "absent.txt")
        back = read_pcproof(tmp_path / "p.txt", axioms=ax)
        assert check_pc(back).is_refutation

    def test_label_sequence_enforced(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("pcproof v1 basis=fourier field=101 axioms=a\nL2 AX 1\n")
        from pclab.algebra import Field

        ax = AxiomSystem(Field(101), FOURIER, (Poly(Field(101), FOURIER, {(): 1}),), ())
        with pytest.raises(ValueError):
            read_pcproof(path, axioms=ax)

    def test_resproof_round_trip(self, tmp_path):
        cnf = gen_lop(2)
        write_dimacs(cnf, tmp_path / "f.cnf")
        proof = ResolutionProof(
            cnf,
            (("in", 0), ("in", 1), ("in", 2), ("res", 2, 0, edge(2, 1)), ("res", 3, 1, edge(1, 2))),
        )
        write_resproof(proof, tmp_path / "r.txt", "f.cnf")
        back = read_resproof(tmp_path / "r.txt")
        assert back.steps == proof.steps
        assert check_resolution(back).is_refutation
