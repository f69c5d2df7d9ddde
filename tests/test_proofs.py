import random

import pytest

from pclab.algebra import (
    BOOLEAN,
    FOURIER,
    DEFAULT_FIELD,
    BasisMismatch,
    Poly,
    edge,
    make_term,
    plain,
    pointer,
)
from pclab.formulas import (
    AxiomSystem,
    cnf_to_axioms,
    gen_bop_lifted,
    gen_lop,
    sat_oracle,
    write_axioms,
    write_dimacs,
)
from pclab.proofs import (
    PCProof,
    ResolutionProof,
    check_pc,
    check_resolution,
    proof_lines,
    quadratic_degree,
    quadratic_set,
    random_derivation,
    read_pcproof,
    read_resproof,
    resolve_clauses,
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
        assert lines[2] == Poly.constant(F, FOURIER, 1)

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


class TestResolution:
    def test_resolve_example(self):
        x, y = plain("a"), plain("b")
        c = resolve_clauses(frozenset({x, y}), frozenset({x.twin, y}), x)
        assert c == frozenset({y})

    def test_non_complementary_pivot(self):
        x, y = plain("a"), plain("b")
        with pytest.raises(Exception):
            resolve_clauses(frozenset({x, y}), frozenset({x, y.twin}), x)

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


class TestQuadratic:
    def test_two_term_line(self):
        x, y = plain("a"), plain("b")
        ax = plain_system(FOURIER, [Poly(F, FOURIER, {(x,): 1, (y,): 1})])
        qs = quadratic_set(PCProof(ax, (("ax", 0),)))
        assert qs.products == frozenset({(), make_term([x, y])})
        assert qs.qdeg == 2
        assert len(qs.pairs) == 3  # (x,x), (x,y), (y,y)

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

    def test_products_consistent_with_pairs(self):
        from pclab.algebra import term_mul

        ax = cnf_to_axioms(gen_lop(3), FOURIER)
        proof = random_derivation(ax, 25, seed=3)
        qs = quadratic_set(proof)
        assert qs.products == frozenset(term_mul(a, b, FOURIER) for a, b in qs.pairs)


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

        ax = AxiomSystem(Field(101), FOURIER, (Poly.constant(Field(101), FOURIER, 1),), ())
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
