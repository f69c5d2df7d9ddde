import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from pclab.algebra import (
    BOOLEAN,
    FOURIER,
    DEFAULT_FIELD,
    BasisMismatch,
    Field,
    Poly,
    ScaleLimitExceeded,
    Var,
    edge,
    format_poly,
    make_term,
    plain,
    pointer,
)
from pclab.formulas import (
    CNF,
    AxiomSystem,
    clause_of,
    clause_to_poly,
    cnf_to_axioms,
    gen_bop,
    gen_bop_lifted,
    gen_cycle_tseitin,
    gen_lop,
    or_lift,
    read_axioms,
    read_dimacs,
    sat_oracle,
    semantic_implies,
    write_axioms,
    write_dimacs,
)

F = DEFAULT_FIELD


def satisfies(cnf, witness):
    def truth(v):
        return not witness[v.base] if v.negated else witness[v]

    return all(any(truth(v) for v in c) for c in cnf.clauses)


class TestLop:
    def test_counts(self):
        assert len(gen_lop(4)) == 34  # 4 vertex + 24 transitivity + 6 antisymmetry
        assert len(gen_lop(3)) == 3 + 6 + 3
        assert len(gen_lop(2)) == 3

    def test_n2_exact(self):
        cnf = gen_lop(2)
        assert set(cnf.clauses) == {
            clause_of(edge(2, 1)),
            clause_of(edge(1, 2)),
            clause_of(edge(1, 2).twin, edge(2, 1).twin),
        }
        assert sat_oracle(cnf) is None

    def test_vertex_clause_width(self):
        cnf = gen_lop(3)
        assert cnf.clauses[cnf.groups["BV(1)"][0]] == clause_of(edge(2, 1), edge(3, 1))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            gen_lop(1)

    def test_at_most_two_negative_literals(self):
        for n in (2, 3, 5):
            for c in gen_lop(n).clauses:
                assert sum(1 for v in c if v.negated) <= 2

    def test_groups_partition(self):
        cnf = gen_lop(4)
        covered = sorted(i for idxs in cnf.groups.values() for i in idxs)
        assert covered == list(range(len(cnf)))

    def test_unsat_small(self):
        for n in (2, 3, 4):
            assert sat_oracle(gen_lop(n)) is None

    def test_drop_antisymmetry_is_sat(self):
        cnf = gen_lop(3)
        keep = [c for c in cnf.clauses if not (len(c) == 2 and all(v.negated for v in c))]
        relaxed = CNF(tuple(keep), cnf.universe)
        w = sat_oracle(relaxed)
        assert w is not None and satisfies(relaxed, w)


class TestBop:
    def test_counts_n3(self):
        cnf = gen_bop(3)
        assert len(cnf) == 21  # 12 pointer/prohibition + 6 transitivity + 3 antisymmetry
        assert len(cnf.universe) == 12

    def test_pointer_clause_shape(self):
        # j=2 pointing at i=3 (code 2 = binary 10): bit1 clear, bit2 set
        cnf = gen_bop(4)
        want = clause_of(pointer(2, 2).twin, pointer(2, 1), edge(3, 2))
        assert want in cnf.clauses
        assert cnf.clauses.index(want) in cnf.groups["BV(2)"]

    def test_width_bound(self):
        import math

        for n in (2, 3, 4, 5, 8):
            b = max(1, math.ceil(math.log2(n)))
            assert gen_bop(n).width <= b + 1
        assert gen_bop(4).width == 3

    def test_prohibitions_present(self):
        # j=1 must not point at itself: code 0 gives the all-positive clause
        cnf = gen_bop(3)
        assert clause_of(pointer(1, 1), pointer(1, 2)) in cnf.clauses
        # code 3 encodes 4 > n: prohibited for every j
        assert clause_of(pointer(2, 1).twin, pointer(2, 2).twin) in cnf.clauses

    def test_unsat_small(self):
        for n in (2, 3, 4):
            assert sat_oracle(gen_bop(n)) is None

    def test_without_prohibitions_sat(self):
        # prohibitions are the all-pointer clauses; dropping them lets
        # every pointer name the invalid code and the order stay empty
        cnf = gen_bop(3)
        keep = [c for c in cnf.clauses if any(v.kind == "x" for v in c)]
        relaxed = CNF(tuple(keep), cnf.universe)
        w = sat_oracle(relaxed)
        assert w is not None and satisfies(relaxed, w)


class TestOrLift:
    def test_antisymmetry_full_expansion(self):
        base = CNF(
            (clause_of(edge(1, 2).twin, edge(2, 1).twin),),
            (edge(1, 2), edge(2, 1)),
        )
        lifted = or_lift(base, 2, [edge(1, 2), edge(2, 1)])
        assert len(lifted) == 4
        assert set(lifted.clauses) == {
            clause_of(edge(1, 2, l1).twin, edge(2, 1, l2).twin) for l1 in (1, 2) for l2 in (1, 2)
        }

    def test_diagonal_expansion(self):
        base = CNF(
            (clause_of(edge(1, 2).twin, edge(2, 1).twin),),
            (edge(1, 2), edge(2, 1)),
        )
        lifted = or_lift(base, 2, [edge(1, 2), edge(2, 1)], diagonal=True)
        assert set(lifted.clauses) == {
            clause_of(edge(1, 2, l).twin, edge(2, 1, l).twin) for l in (1, 2)
        }

    def test_positive_occurrence_widens_in_place(self):
        cnf = gen_bop(3)
        lifted = or_lift(cnf, 3, [v for v in cnf.universe if v.kind == "x"])
        want = None
        for c in cnf.clauses:
            if edge(2, 1) in c:
                want = frozenset(
                    [v for v in c if v.kind == "y"] + [edge(2, 1, l) for l in (1, 2, 3)]
                )
                break
        assert want in lifted.clauses

    def test_ell_one_is_renaming(self):
        cnf = gen_bop(3)
        lifted = gen_bop_lifted(3, 1)
        assert len(lifted) == len(cnf)

        def rename(v):
            base = edge(v.index[0], v.index[1], 0) if v.kind == "x" else v.base
            return base.twin if v.negated else base

        back = {frozenset(rename(v) for v in c) for c in lifted.clauses}
        assert back == set(cnf.clauses)

    def test_groups_carried(self):
        lifted = gen_bop_lifted(3, 2)
        assert set(lifted.groups) == set(gen_bop(3).groups)
        covered = sorted(i for idxs in lifted.groups.values() for i in idxs)
        assert covered == list(range(len(lifted)))

    def test_unsat_small(self):
        for n, ell in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1)):
            assert sat_oracle(gen_bop_lifted(n, ell)) is None

    def test_diagonal_variant_sat_at_2_2(self):
        # the shared-index reading of the lift is satisfiable here
        cnf = gen_bop_lifted(2, 2, diagonal=True)
        w = sat_oracle(cnf)
        assert w is not None and satisfies(cnf, w)
        documented = {v: False for v in cnf.universe}
        documented[edge(2, 1, 1)] = True
        documented[edge(1, 2, 2)] = True
        documented[pointer(1, 1)] = True  # y_1 points at code 1 = vertex 2
        assert satisfies(cnf, documented)

    def test_rejects_bad_lift_targets(self):
        cnf = gen_bop(3)
        with pytest.raises(ValueError):
            or_lift(cnf, 2, [pointer(1, 1)])
        with pytest.raises(ValueError):
            or_lift(cnf, 0, [edge(1, 2)])


class TestCycleTseitin:
    def test_n3_exact(self):
        ax = gen_cycle_tseitin(3)
        x1, x2, x3 = (plain(f"x{k}") for k in (1, 2, 3))
        assert ax.basis == FOURIER
        assert ax.polys[0] == Poly(F, FOURIER, {make_term([x1, x2]): 1, (): F.p - 1})
        assert ax.polys[1] == Poly(F, FOURIER, {make_term([x2, x3]): 1, (): F.p - 1})
        assert ax.polys[2] == Poly(F, FOURIER, {make_term([x3, x1]): 1, (): 1})
        assert sat_oracle(ax) is None

    def test_drop_last_axiom_sat(self):
        ax = gen_cycle_tseitin(3)
        from pclab.formulas import AxiomSystem

        relaxed = AxiomSystem(ax.field, ax.basis, ax.polys[:-1], ax.universe)
        w = sat_oracle(relaxed)
        assert w is not None
        for p in relaxed.polys:
            assert p.evaluate(w) == 0

    def test_shape(self):
        ax = gen_cycle_tseitin(4)
        assert len(ax.polys) == 4
        assert all(p.monomial_count == 2 for p in ax.polys)
        with pytest.raises(ValueError):
            gen_cycle_tseitin(2)


class TestClauseToPoly:
    def test_boolean_twin_product(self):
        x, y = plain("a"), plain("b")
        p = clause_to_poly(clause_of(x, y.twin), BOOLEAN)
        assert p == Poly.from_term(F, BOOLEAN, make_term([x.twin, y]))

    def test_fourier_expansion(self):
        x, y = plain("a"), plain("b")
        p = clause_to_poly(clause_of(x, y), FOURIER)
        want = {(): 1, (x,): 1, (y,): 1, make_term([x, y]): 1}
        assert p == Poly(F, FOURIER, want)

    def test_fourier_width_monomials(self):
        vs = [plain(f"a{i}") for i in range(4)]
        for w in range(1, 5):
            p = clause_to_poly(clause_of(*vs[:w]), FOURIER)
            assert p.monomial_count == 2**w

    def test_fourier_has_no_twins(self):
        x, y = plain("a"), plain("b")
        p = clause_to_poly(clause_of(x.twin, y.twin), FOURIER)
        assert all(not v.negated for v in p.variables())

    def test_zero_exactly_on_satisfying(self):
        vs = [plain(f"a{i}") for i in range(4)]
        rng = random.Random(17)
        for width in range(1, 5):
            for _ in range(6):
                lits = [v.twin if rng.random() < 0.5 else v for v in rng.sample(vs, width)]
                clause = clause_of(*lits)
                for basis in (BOOLEAN, FOURIER):
                    for twins in ((True, False) if basis == BOOLEAN else (True,)):
                        p = clause_to_poly(clause, basis, twins=twins)
                        for bits in itertools.product([False, True], repeat=width):
                            w = dict(zip((v.base for v in lits), bits))
                            sat = any(
                                not w[v.base] if v.negated else w[v.base] for v in clause
                            )
                            assert (p.evaluate(w) == 0) == sat

    def test_boolean_twin_free_mode(self):
        x, y = plain("a"), plain("b")
        p = clause_to_poly(clause_of(x, y.twin), BOOLEAN, twins=False)
        # (1-a)*b = b - ab
        assert p == Poly(F, BOOLEAN, {(y,): 1, make_term([x, y]): F.p - 1})
        assert all(not v.negated for v in p.variables())

    def test_empty_clause(self):
        assert clause_to_poly(frozenset(), BOOLEAN) == Poly.constant(F, BOOLEAN, 1)
        assert clause_to_poly(frozenset(), FOURIER) == Poly.constant(F, FOURIER, 1)

    def test_both_polarities_of_a_base(self):
        # a CNF refuses such a clause, the translation takes it: the factors
        # (1 - a)a and (1 + a)(1 - a) are zero, the twin product keeps a and ~a
        a, b = plain("a"), plain("b")
        clause = clause_of(a, a.twin, b.twin)
        assert clause_to_poly(clause, BOOLEAN, twins=False).is_zero
        assert clause_to_poly(clause, FOURIER).is_zero
        assert clause_to_poly(clause, FOURIER, twins=False).is_zero
        assert format_poly(clause_to_poly(clause, BOOLEAN)) == "1 * a ~a b"
        assert format_poly(clause_to_poly(clause_of(a, a.twin), BOOLEAN)) == "1 * a ~a"

    def test_unknown_basis(self):
        for clause in (clause_of(plain("a")), clause_of(plain("a"), plain("a").twin)):
            with pytest.raises(BasisMismatch, match="unknown basis 'odd'"):
                clause_to_poly(clause, "odd")


def iterated_product(clause, basis, field, twins):
    """The translation as a product of one factor per literal, built by
    Poly arithmetic: (1 - x) or x in {0,1}, (1 +- x) in {+1,-1}."""
    lits = sorted(clause)
    if basis == BOOLEAN:
        if twins:
            return Poly.from_term(field, basis, make_term(v.twin for v in lits))
        out = Poly.constant(field, basis, 1)
        for v in lits:
            out = out.mul_var(v.base) if v.negated else out.sub(out.mul_var(v))
        return out
    out = Poly.constant(field, basis, 1)
    for v in lits:
        enc = Poly.variable(field, basis, v.base)
        out = out.mul(Poly.constant(field, basis, 1).add(enc.neg() if v.negated else enc))
    return out


CLAUSE_POOL = [plain("a"), plain("b"), edge(1, 2), edge(2, 1, 1), edge(2, 1, 2), pointer(1, 1), pointer(3, 2)]
CLAUSE_POOL += [v.twin for v in CLAUSE_POOL]


@settings(max_examples=200, deadline=None)
@given(st.frozensets(st.sampled_from(CLAUSE_POOL), max_size=8),
       st.sampled_from([(BOOLEAN, True), (BOOLEAN, False), (FOURIER, True)]),
       st.sampled_from([Field(3), DEFAULT_FIELD]))
def test_translation_matches_the_iterated_product(clause, route, field):
    # the same terms, coefficients and term order, both polarities included
    basis, twins = route
    got = clause_to_poly(clause, basis, field, twins=twins)
    assert list(got.terms.items()) == list(iterated_product(clause, basis, field, twins).terms.items())


class TestCnfToAxioms:
    def test_lop2(self):
        ax = cnf_to_axioms(gen_lop(2), BOOLEAN)
        assert len(ax.polys) == 3
        assert all(p.monomial_count == 1 for p in ax.polys)
        assert set(ax.groups) == {"BV(1)", "BV(2)", "T"}

    def test_bop3_count(self):
        ax = cnf_to_axioms(gen_bop(3), FOURIER)
        assert len(ax.polys) == 21
        assert ax.n == 3

    def test_unsat_by_semantics(self):
        ax = cnf_to_axioms(gen_lop(3), BOOLEAN)
        one = Poly.constant(F, BOOLEAN, 1)
        assert semantic_implies(list(ax.polys), one)


class TestOracle:
    def test_semantic_implies_examples(self):
        x, y = plain("a"), plain("b")
        f = Poly(F, BOOLEAN, {(x,): 1, (): F.p - 1})  # x - 1
        g = Poly(F, BOOLEAN, {make_term([x, y]): 1, (y,): F.p - 1})  # xy - y
        assert semantic_implies([f], g)
        assert not semantic_implies([], Poly.variable(F, BOOLEAN, x))
        assert semantic_implies([], Poly.zero(F, BOOLEAN))

    def test_semantic_implies_fourier(self):
        x = plain("a")
        sq = Poly(F, FOURIER, {make_term([x, x.twin]): 1, (): 1})  # x*~x + 1
        assert semantic_implies([], sq)

    def test_witness_is_first_in_order(self):
        a, b = plain("a"), plain("b")
        cnf = CNF((clause_of(a, b),), (a, b))
        w = sat_oracle(cnf)
        # k=0 falsifies; k=1 sets the lowest variable
        assert w == {a: True, b: False}

    def test_scale_limit(self):
        vs = tuple(plain(f"q{i}") for i in range(26))
        cnf = CNF((clause_of(*vs),), vs)
        with pytest.raises(ScaleLimitExceeded):
            sat_oracle(cnf)

    def test_axiom_oracle_agrees_with_cnf_oracle(self):
        rng = random.Random(23)
        vs = [plain(f"a{i}") for i in range(4)]
        for _ in range(20):
            clauses = []
            for _ in range(rng.randrange(1, 6)):
                lits = [v.twin if rng.random() < 0.5 else v for v in rng.sample(vs, rng.randrange(1, 4))]
                clauses.append(clause_of(*lits))
            cnf = CNF(tuple(clauses), tuple(vs))
            for basis in (BOOLEAN, FOURIER):
                ax = cnf_to_axioms(cnf, basis)
                assert (sat_oracle(cnf) is None) == (sat_oracle(ax) is None)


class TestFiles:
    def test_dimacs_round_trip(self, tmp_path):
        for cnf in (gen_lop(3), gen_bop(3), gen_bop_lifted(2, 2)):
            path = tmp_path / "f.cnf"
            write_dimacs(cnf, path)
            back = read_dimacs(path)
            assert back.clauses == cnf.clauses
            assert back.universe == cnf.universe
            assert back.groups == cnf.groups
            assert back.n == cnf.n and back.ell == cnf.ell

    def test_axiom_file_round_trip(self, tmp_path):
        for ax in (cnf_to_axioms(gen_bop(3), FOURIER), gen_cycle_tseitin(4)):
            path = tmp_path / "ax.txt"
            write_axioms(ax, path)
            back = read_axioms(path)
            assert back.polys == ax.polys
            assert back.groups == ax.groups
            assert back.basis == ax.basis and back.field.p == ax.field.p
            assert back.n == ax.n
            assert back.universe == ax.universe

    def test_axiom_file_keeps_spare_universe_vars(self, tmp_path):
        # vars that appear in no axiom must survive the round trip
        a, s = plain("a"), plain("spare")
        poly = Poly(F, BOOLEAN, {make_term([a]): 1, (): F.p - 1})
        ax = AxiomSystem(F, BOOLEAN, (poly,), (a, s), {"core": (0,)})
        path = tmp_path / "ax.txt"
        write_axioms(ax, path)
        back = read_axioms(path)
        assert back.universe == ax.universe
        assert back.polys == ax.polys
        assert back.groups == ax.groups


def test_groups_must_partition_the_list(tmp_path):
    tseitin = gen_cycle_tseitin(4)
    for groups in ({"A": (0,)}, {"A": (0, 1, 2, 3, 3)}, {"A": (0, 1), "B": (2, 4)}):
        with pytest.raises(ValueError, match="groups must partition the axiom list"):
            AxiomSystem(tseitin.field, tseitin.basis, tseitin.polys, tseitin.universe, groups)
    lop = gen_lop(3)
    with pytest.raises(ValueError, match="groups must partition the clause list"):
        CNF(lop.clauses, lop.universe, {"A": (0,)})
    path = tmp_path / "ax.txt"
    write_axioms(tseitin, path)
    path.write_text(path.read_text().replace("\n", "\ngroup A : 1\n", 1))
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: groups must partition the axiom list") + "$"):
        read_axioms(path)


@pytest.mark.parametrize("cnf", [
    gen_lop(5), gen_bop(6), gen_bop_lifted(4, 3), gen_bop_lifted(4, 3, diagonal=True),
], ids=["lop5", "bop6", "lifted4_3", "diagonal4_3"])
def test_translation_equals_clause_to_poly(cnf):
    # cnf_to_axioms builds the {0,1} axioms with twins from the codec's twins;
    # clause_to_poly stays the definition of every axiom in every route
    for basis, twins in ((BOOLEAN, True), (BOOLEAN, False), (FOURIER, True)):
        ax = cnf_to_axioms(cnf, basis, twins=twins)
        assert ax.polys == tuple(clause_to_poly(c, basis, twins=twins) for c in cnf.clauses)
        assert (ax.universe, ax.groups, ax.n, ax.ell) == (cnf.universe, cnf.groups, cnf.n, cnf.ell)


def test_translation_and_lift_build_no_twin_per_literal(monkeypatch):
    # one codec takes a twin per base: the translation and the lift may build
    # that many, not one per literal (a lifted formula holds about 7 per base)
    lifted, base = gen_bop_lifted(6, 2), gen_bop(6)
    calls = []
    twin = Var.twin.fget
    monkeypatch.setattr(Var, "twin", property(lambda v: calls.append(v) or twin(v)))
    cnf_to_axioms(lifted, BOOLEAN)
    assert len(calls) <= 2 * len(lifted.universe)
    calls.clear()
    out = or_lift(base, 2, [v for v in base.universe if v.kind == "x"])
    assert len(calls) <= 2 * len(out.universe)
    assert out.clauses == lifted.clauses


class TestUniverse:
    """A universe lists each base once, never a twin: one that does not
    wrote files that did not read back as the same system."""

    A, B = edge(1, 2), edge(2, 1)

    @pytest.mark.parametrize("universe, message", [
        ((A, A), "universe lists x(1,2) twice"),
        ((A.twin, A), "universe lists ~x(1,2) as a twin"),
        ((A.twin, B), "universe lists ~x(1,2) as a twin"),
        ((A, B, A.twin), "universe lists ~x(1,2) as a twin"),
        ((B, A, B), "universe lists x(2,1) twice"),
    ])
    def test_both_constructors_refuse(self, universe, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            CNF((clause_of(self.A),), universe)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            AxiomSystem(F, BOOLEAN, (Poly.variable(F, BOOLEAN, self.A),), universe)

    def test_dimacs_names_of_a_twin_are_refused(self, tmp_path):
        path = tmp_path / "f.cnf"
        path.write_text("p cnf 1 0\n")
        (tmp_path / "f.cnf.names").write_text("var 1 = ~x(1,2)\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: universe lists ~x(1,2) as a twin") + "$"):
            read_dimacs(path)
