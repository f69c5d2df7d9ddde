import copy
import pickle
import random
import re

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from pclab.algebra import (
    BOOLEAN,
    FOURIER,
    DEFAULT_FIELD,
    DEFAULT_PRIME,
    BasisMismatch,
    Field,
    Poly,
    TermCodec,
    Var,
    cluster_var,
    edge,
    format_poly,
    format_var,
    grlex_key,
    make_term,
    parse_poly,
    parse_var,
    plain,
    pointer,
    term_mul,
)
from pclab.formulas import AxiomSystem, read_axioms, write_axioms
from pclab.transforms import cluster, random_pairing

F = DEFAULT_FIELD


def pvars(*names):
    return [plain(n) for n in names]


class TestField:
    def test_default_prime(self):
        assert DEFAULT_PRIME == 2**31 - 1
        assert F.p == DEFAULT_PRIME

    def test_rejects_non_prime_and_two(self):
        with pytest.raises(ValueError):
            Field(4)
        with pytest.raises(ValueError):
            Field(2)
        Field(3)
        Field(101)

    @pytest.mark.parametrize("p", [5.0, np.int64(7), "7", True])
    def test_rejects_an_order_that_is_not_an_int(self, p):
        with pytest.raises(ValueError, match="field order must be an int"):
            Field(p)

    def test_accepts_exactly_the_odd_primes_below_the_proof_bound(self):
        bound = 318665857834031151167461
        strong_pseudoprimes = (2047, 3215031751, 3825123056546413051, bound, 3317044064679887385961981)
        for n in (*range(10**4), *strong_pseudoprimes, 2**31 - 1, 2**61 - 1):
            try:
                Field(n)
                accepted = True
            except ValueError as e:
                accepted = False
                assert (str(bound) in str(e)) == (n >= bound)
            assert accepted == (sympy.isprime(n) and n != 2 and n < bound), n
        assert not sympy.isprime(bound)
        assert 3317044064679887385961981 == 1287836182261 * 2575672364521

    def test_axioms_random(self):
        rng = random.Random(11)
        for p in (3, 101, DEFAULT_PRIME):
            f = Field(p)
            for _ in range(200):
                a = rng.randrange(1, p)
                assert a * f.inv(a) % p == 1

    def test_inv_zero(self):
        with pytest.raises(ZeroDivisionError):
            F.inv(0)


# the canonical order written out: kind rank, then index, then the twin
KIND_RANK = {"y": 0, "x": 1, "z": 2, "v": 3}


def canonical_key(v):
    return (KIND_RANK[v.kind], v.index, v.negated)


def fields(v):
    return (v.kind, v.index, v.negated)


_ints = st.integers(0, 9)
_ends = st.tuples(st.integers(1, 9), st.integers(1, 9)).filter(lambda ij: ij[0] != ij[1])
_names = st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True).filter(lambda s: s not in ("x", "y", "z"))
SETTINGS = settings(deadline=None)
variables = st.builds(
    lambda v, negated: v.twin if negated else v,
    st.one_of(
        st.builds(pointer, _ints, _ints),
        st.builds(lambda ij, l: edge(*ij, l), _ends, _ints),
        st.builds(lambda ij, l: cluster_var(*ij, l), _ends, _ints),
        st.builds(plain, _names),
    ),
    st.booleans(),
)


class TestVar:
    def test_order_kinds(self):
        # pointer < edge < cluster < plain
        y, x, z, v = pointer(1, 0), edge(1, 2, 1), Var_z(1, 2, 1), plain("a")
        assert y < x < z < v

    def test_order_indices_and_twins(self):
        assert edge(1, 2, 1) < edge(1, 3, 1) < edge(2, 1, 1)
        assert edge(1, 2, 1) < edge(1, 2, 1).twin
        assert pointer(1, 0) < pointer(1, 1) < pointer(2, 0)

    def test_twin_involution(self):
        v = edge(3, 1, 2)
        assert v.twin.twin == v
        assert v.twin.negated and not v.negated
        assert v.twin.base == v

    def test_edge_rejects_loop(self):
        with pytest.raises(ValueError):
            edge(2, 2)

    def test_hash_and_eq(self):
        assert edge(1, 2) == edge(1, 2, 0)
        assert len({edge(1, 2), edge(1, 2, 0), edge(1, 2).twin}) == 2

    @SETTINGS
    @given(st.lists(variables, max_size=12))
    def test_sorted_is_the_canonical_key(self, vs):
        assert sorted(vs) == sorted(vs, key=canonical_key)

    @SETTINGS
    @given(variables, variables)
    def test_order_eq_and_hash_follow_the_fields(self, a, b):
        assert (a < b) == (canonical_key(a) < canonical_key(b))
        assert (a == b) == (fields(a) == fields(b))
        if a == b:
            assert hash(a) == hash(b)

    @SETTINGS
    @given(variables)
    def test_twin_and_base(self, v):
        assert v.twin.twin == v
        assert v.twin != v and v.twin.negated != v.negated
        assert not v.base.negated and v.base in (v, v.twin)

    @SETTINGS
    @given(variables)
    def test_text_round_trip(self, v):
        assert parse_var(format_var(v)) == v

    @SETTINGS
    @given(variables)
    def test_pickle_and_copy_round_trip(self, v):
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(v, proto))
            assert back == v and type(back) is Var
        assert copy.deepcopy(v) == v and type(copy.deepcopy(v)) is Var
        assert copy.deepcopy((v, v.twin)) == (v, v.twin)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Var("q", (1,))

    @SETTINGS
    @given(variables)
    def test_lone_variable_is_not_clustered_as_a_term(self, v):
        with pytest.raises(TypeError):
            cluster(v, random_pairing(2, 2, 0))


def Var_z(i, j, l):
    from pclab.algebra import cluster_var

    return cluster_var(i, j, l)


class TestTerms:
    def test_make_term_sorts_and_dedups(self):
        a, b = plain("a"), plain("b")
        assert make_term([b, a, b]) == (a, b)
        assert make_term([]) == ()

    def test_mul_by_var_square_boolean(self):
        a, b = pvars("a", "b")
        assert Poly.from_term(F, BOOLEAN, (a, b)).mul_var(a).terms == {(a, b): 1}

    def test_mul_by_var_square_fourier(self):
        a, b = pvars("a", "b")
        assert Poly.from_term(F, FOURIER, (a, b)).mul_var(a).terms == {(b,): 1}

    def test_mul_by_var_insert_keeps_order(self):
        a, b, c = pvars("a", "b", "c")
        assert Poly.from_term(F, FOURIER, (a, c)).mul_var(b).terms == {(a, b, c): 1}

    def test_twin_not_folded(self):
        # a term may hold a variable and its twin; only a proof step removes them
        a = plain("a")
        for basis in (BOOLEAN, FOURIER):
            assert Poly.from_term(F, basis, (a,)).mul_var(a.twin).terms == {(a, a.twin): 1}

    def test_term_mul(self):
        a, b, c = pvars("a", "b", "c")
        assert term_mul((a, b), (b, c), BOOLEAN) == (a, b, c)
        assert term_mul((a, b), (b, c), FOURIER) == (a, c)
        assert term_mul((a,), (a,), FOURIER) == ()

    @pytest.mark.parametrize("k", [1, 3, 40])  # 40 bases: masks wider than 64 bits
    def test_codec_fold_reads_twins_as_bases(self, k):
        bases = [plain(f"v{i}") for i in range(k)]
        codec = TermCodec(bases)
        rng = random.Random(k)
        for _ in range(200):
            t = make_term(rng.sample(codec.var_of, rng.randint(0, 2 * k)))
            assert codec.fold(codec.mask(t)) == codec.mask(make_term(v.base for v in t))


class TestGrlex:
    def test_frozen_examples(self):
        x1, x2, x3 = pvars("x1", "x2", "x3")
        # degree dominates
        assert grlex_key(()) < grlex_key((x1,))
        assert grlex_key((x3,)) < grlex_key((x1, x2))
        # same degree: compare from the largest variable down
        assert grlex_key((x1,)) < grlex_key((x2,))
        assert grlex_key((x1, x3)) < grlex_key((x2, x3))
        assert grlex_key((x1, x2)) < grlex_key((x1, x3))
        assert grlex_key(make_term([x3, x2])) == grlex_key((x2, x3))
        assert grlex_key((x2, x3)) > grlex_key((x1, x3))

    def test_total_order_random(self):
        rng = random.Random(7)
        vs = pvars(*(f"v{i}" for i in range(8)))
        terms = [make_term(rng.sample(vs, rng.randrange(0, 6))) for _ in range(60)]
        s = sorted(terms, key=grlex_key)
        for t1, t2 in zip(s, s[1:]):
            assert grlex_key(t1) <= grlex_key(t2)
        # monotone under multiplication by a fresh disjoint variable
        fresh = pvars(*(f"w{i}" for i in range(4)))
        for _ in range(200):
            t1, t2 = rng.choice(terms), rng.choice(terms)
            u = make_term(rng.sample(fresh, 2))
            if grlex_key(t1) < grlex_key(t2):
                assert grlex_key(term_mul(t1, u, BOOLEAN)) <= grlex_key(term_mul(t2, u, BOOLEAN))


class TestPoly:
    def test_zero_and_constant(self):
        z = Poly.zero(F, BOOLEAN)
        assert z.is_zero and z.degree == 0 and z.monomial_count == 0
        c = Poly.constant(F, FOURIER, 5)
        assert c.coefficient(()) == 5 and c.degree == 0

    def test_coefficients_normalized(self):
        a = plain("a")
        p = Poly(F, BOOLEAN, {(a,): F.p, (): F.p + 3})
        assert p.coefficient((a,)) == 0 and p.coefficient(()) == 3
        assert p.monomial_count == 1

    def test_add_sub_scale(self):
        a, b = pvars("a", "b")
        p = parse_poly("2 * a ; 1 * b", F, BOOLEAN)
        q = parse_poly("-2 * a ; 3", F, BOOLEAN)
        s = p.add(q)
        assert s.coefficient((a,)) == 0
        assert s.coefficient((b,)) == 1 and s.coefficient(()) == 3
        assert p.sub(p).is_zero
        assert p.scale(0).is_zero
        assert p.scale(2).coefficient((a,)) == 4

    def test_mul_var_boolean_square(self):
        a, b = pvars("a", "b")
        p = parse_poly("1 * a ; 1 * b", F, BOOLEAN)
        q = p.mul_var(a)
        assert q.coefficient((a,)) == 1 and q.coefficient((a, b)) == 1

    def test_mul_var_fourier_square(self):
        a, b = pvars("a", "b")
        p = parse_poly("1 * a ; 1 * b", F, FOURIER)
        q = p.mul_var(a)
        assert q.coefficient(()) == 1 and q.coefficient((a, b)) == 1

    def test_mul_var_cancellation(self):
        # (a + b) * a in fourier where coefficients collide and cancel
        a, b = pvars("a", "b")
        p = parse_poly("1 ; -1 * a b", F, FOURIER)
        q = p.mul_var(a)
        assert q.coefficient((a,)) == 1 and q.coefficient((b,)) == F.p - 1
        r = parse_poly("1 ; -1", F, FOURIER)
        assert r.is_zero

    def test_mul_matches_repeated_mul_var(self):
        rng = random.Random(3)
        vs = pvars(*"abcde")
        for basis in (BOOLEAN, FOURIER):
            for _ in range(40):
                p = _random_poly(rng, vs, basis)
                t = make_term(rng.sample(vs, rng.randrange(0, 4)))
                q = Poly.from_term(F, basis, t, rng.randrange(1, F.p))
                rhs = p
                for v in t:
                    rhs = rhs.mul_var(v)
                assert p.mul(q) == rhs.scale(q.coefficient(t))

    def test_ring_properties_random(self):
        rng = random.Random(5)
        vs = pvars(*"abcd")
        for basis in (BOOLEAN, FOURIER):
            for _ in range(30):
                p, q, r = (_random_poly(rng, vs, basis) for _ in range(3))
                assert p.add(q) == q.add(p)
                assert p.mul(q) == q.mul(p)
                assert p.mul(q.add(r)) == p.mul(q).add(p.mul(r))
                assert p.mul(q.mul(r)) == p.mul(q).mul(r)

    def test_basis_mismatch(self):
        p = Poly.constant(F, BOOLEAN, 1)
        q = Poly.constant(F, FOURIER, 1)
        with pytest.raises(BasisMismatch):
            p.add(q)
        with pytest.raises(BasisMismatch):
            p.mul(q)

    def test_leading_term(self):
        p = parse_poly("1 * x1 x3 ; 1 * x2 x3 ; 1", F, BOOLEAN)
        assert p.leading_term() == make_term(pvars("x2", "x3"))
        with pytest.raises(ValueError):
            Poly.zero(F, BOOLEAN).leading_term()

    def test_sorted_terms_descending(self):
        p = parse_poly("1 ; 1 * a ; 1 * a b", F, BOOLEAN)
        ts = p.sorted_terms()
        assert [len(t) for t in ts] == [2, 1, 0]


class TestEvaluate:
    def test_boolean_encoding(self):
        a, b = pvars("a", "b")
        p = parse_poly("1 * a b ; -1 * a ; 2", F, BOOLEAN)
        assert p.evaluate({a: True, b: True}) == 2
        assert p.evaluate({a: True, b: False}) == 1
        assert p.evaluate({a: False, b: False}) == 2

    def test_fourier_encoding(self):
        # TRUE -> -1, FALSE -> +1
        a = plain("a")
        p = parse_poly("1 * a ; 1", F, FOURIER)
        assert p.evaluate({a: True}) == 0
        assert p.evaluate({a: False}) == 2

    def test_twin_lookup_and_consistency(self):
        a = plain("a")
        p = Poly.variable(F, BOOLEAN, a.twin)
        # twin value inferred by flipping the base assignment
        assert p.evaluate({a: False}) == 1
        assert p.evaluate({a: True}) == 0
        with pytest.raises(ValueError):
            p.evaluate({a: True, a.twin: True})
        with pytest.raises(ValueError):
            Poly.variable(F, BOOLEAN, plain("q")).evaluate({a: True})

    def test_boolean_axioms_vanish(self):
        a = plain("a")
        sq = parse_poly("1 * a ; -1 * a", F, BOOLEAN)  # a*a - a collapses already
        assert sq.is_zero
        comp = parse_poly("1 * a ; 1 * ~a ; -1", F, BOOLEAN)
        for val in (True, False):
            assert comp.evaluate({a: val}) == 0

    def test_fourier_axioms_vanish(self):
        a = plain("a")
        pair = parse_poly("1 * a ~a ; 1", F, FOURIER)
        for val in (True, False):
            assert pair.evaluate({a: val}) == 0


class TestGrammar:
    def test_var_round_trip(self):
        toks = ["x(1,2)", "~x(1,2)", "x(3,1,2)", "y(4,0)", "~y(4,1)", "z(1,2,1)", "alpha", "~v12"]
        for tok in toks:
            assert format_var(parse_var(tok)) == tok

    def test_edge_level_zero_is_implicit(self):
        assert parse_var("x(1,2,0)") == parse_var("x(1,2)")
        assert format_var(edge(1, 2, 0)) == "x(1,2)"

    def test_bad_tokens(self):
        for tok in ("", "x(1)", "y(1,2,3)", "x(2,2)", "1a", "x", "w(1,2)"):
            with pytest.raises(ValueError):
                parse_var(tok)

    def test_token_cache(self):
        # a bad token raises the same error every time: exceptions are not cached
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError) as e:
                parse_var("x(3,3)")
            messages.append(str(e.value))
        assert messages[0] == messages[1]
        assert parse_var(" ~x(1,2,1) ") == parse_var("~x(1,2,1)") == edge(1, 2, 1).twin
        assert parse_var("a") is parse_var("a")
        assert parse_var.cache_info().maxsize is not None

    def test_variable_cache(self):
        # every variable kind, each base and its twin, through the cache twice
        bases = ["x(1,2)", "x(3,1,2)", "y(4,0)", "z(1,2,1)", "alpha"]
        for tok in bases + ["~" + t for t in bases]:
            for _ in range(2):
                assert format_var(parse_var(tok)) == tok
        assert format_var(edge(1, 2, 1)) is format_var(edge(1, 2, 1))
        assert format_var.cache_info().maxsize is not None

    def test_poly_round_trip(self):
        rng = random.Random(9)
        vs = [edge(1, 2, 1), edge(2, 1, 1).twin, pointer(1, 0), plain("a")]
        for basis in (BOOLEAN, FOURIER):
            for _ in range(40):
                p = _random_poly(rng, vs, basis)
                assert parse_poly(format_poly(p), F, basis) == p

    def test_parse_forms(self):
        a = plain("a")
        assert parse_poly("3", F, BOOLEAN) == Poly.constant(F, BOOLEAN, 3)
        assert parse_poly("0", F, BOOLEAN).is_zero
        assert parse_poly("a", F, BOOLEAN) == Poly.variable(F, BOOLEAN, a)
        assert parse_poly("-1 * a", F, BOOLEAN) == Poly.variable(F, BOOLEAN, a).neg()
        # repeated term accumulates
        assert parse_poly("1 * a ; 1 * a", F, BOOLEAN).coefficient((a,)) == 2

    def test_duplicate_var_in_term_rejected(self):
        with pytest.raises(ValueError):
            parse_poly("1 * a a", F, BOOLEAN)

    def test_header_round_trip(self, tmp_path):
        f = Field(101)
        path = tmp_path / "ax.txt"
        write_axioms(AxiomSystem(f, FOURIER, (Poly.constant(f, FOURIER, 1),), ()), path)
        back = read_axioms(path)
        assert back.field.p == 101 and back.basis == FOURIER
        path.write_text("field=7\n1\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: header lacks basis= (line 1)") + "$"):
            read_axioms(path)

    def test_file_round_trip(self, tmp_path):
        rng = random.Random(13)
        vs = [edge(1, 2), edge(1, 2).twin, pointer(2, 1), plain("t")]
        polys = [_random_poly(rng, vs, FOURIER) for _ in range(5)] + [Poly.zero(F, FOURIER)]
        ax = AxiomSystem(F, FOURIER, tuple(polys), tuple(sorted({v.base for v in vs})))
        path = tmp_path / "polys.txt"
        write_axioms(ax, path)
        back = read_axioms(path)
        assert back.field.p == F.p and back.basis == FOURIER and list(back.polys) == polys


def _random_poly(rng, vs, basis, max_terms=5):
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        t = make_term(rng.sample(vs, rng.randrange(0, min(4, len(vs)) + 1)))
        terms[t] = rng.randrange(0, F.p)
    return Poly(F, basis, terms)
