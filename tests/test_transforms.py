import pytest

from pclab.algebra import (
    BOOLEAN,
    DEFAULT_FIELD,
    FOURIER,
    BasisMismatch,
    Poly,
    cluster_var,
    edge,
    make_term,
    plain,
    pointer,
    term_mul,
)
from pclab.formulas import (
    CNF,
    AxiomSystem,
    clause_of,
    clause_to_poly,
    cnf_to_axioms,
    gen_bop_lifted,
    gen_cycle_tseitin,
    sat_oracle,
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
    resolution_lines,
)
from pclab.transforms import (
    ClusterMap,
    Restriction,
    build_jcta,
    cluster,
    cluster_proof,
    cluster_retention,
    isolate_vertex_restriction,
    qdeg_to_deg,
    quadratic_containment_check,
    random_pairing,
    read_clustermap,
    read_restriction,
    res_to_pcr,
    restrict,
    restrict_axioms,
    restrict_cnf,
    restrict_poly,
    restrict_proof,
    split,
    strip_dead,
    write_clustermap,
    write_restriction,
)

F = DEFAULT_FIELD
X = [plain(f"x{i}") for i in range(9)]


def fpoly(terms):
    return Poly(F, FOURIER, terms)


# ---------------------------------------------------------------------------
# restrictions


def test_restriction_normalizes_twins():
    x = X[1]
    rho = Restriction({x.twin: True})
    assert rho.value(x) is False
    assert rho.value(x.twin) is True
    assert x in rho and x.twin in rho
    assert rho.variables() == (x,)


def test_restriction_conflict_raises():
    x = X[1]
    with pytest.raises(ValueError):
        Restriction([(x, True), (x.twin, True)])


def test_restrict_poly_boolean():
    x, y = X[1], X[2]
    p = Poly(F, BOOLEAN, {make_term([x, y]): 1, (y,): 2})
    assert restrict_poly(p, Restriction({x: True})) == Poly(F, BOOLEAN, {(y,): 3})
    assert restrict_poly(p, Restriction({x: False})) == Poly(F, BOOLEAN, {(y,): 2})
    assert restrict_poly(p, Restriction({x: False, y: False})).is_zero


def test_restrict_poly_fourier_signs():
    x, y = X[1], X[2]
    p = fpoly({(x,): 1, (y,): 1})
    # false maps to +1, true to -1
    assert restrict(p, Restriction({x: False})) == fpoly({(): 1, (y,): 1})
    assert restrict(p, Restriction({x: True})) == fpoly({(): F.p - 1, (y,): 1})


def test_restrict_poly_twin_factor():
    x = X[1]
    p = fpoly({(x.twin,): 1})
    assert restrict(p, Restriction({x: True})) == fpoly({(): 1})


def test_restrict_cnf_keeps_empty_clause():
    x, y = X[1], X[2]
    cnf = CNF(
        (clause_of(x, y), clause_of(x.twin), clause_of(y, x.twin)),
        (x, y),
        {"A": (0, 1), "B": (2,)},
    )
    out, cmap = restrict_cnf(cnf, Restriction({x: True, y: False}))
    # clause 0 satisfied by x; clause 1 loses its only literal; clause 2 satisfied? no:
    # x.twin is false and y is false, so clause 2 also empties
    assert cmap == (None, 0, 1)
    assert out.clauses == (frozenset(), frozenset())
    assert out.groups == {"A": (0,), "B": (1,)}
    assert out.universe == ()


def test_restrict_axioms_drops_satisfied():
    x, y = X[1], X[2]
    p1 = fpoly({(x,): 1, (): 1})        # vanishes iff x true
    p2 = fpoly({(y,): 1, (): F.p - 1})  # vanishes iff y false
    ax = AxiomSystem(F, FOURIER, (p1, p2), (x, y), {"G": (0, 1)})
    out, amap = restrict_axioms(ax, Restriction({x: True}))
    assert amap == (None, 0)
    assert len(out.polys) == 1 and out.polys[0] == p2
    assert out.groups == {"G": (0,)}
    assert out.universe == (y,)


def test_restrict_dispatches_every_system_kind():
    cnf = gen_bop_lifted(3, 2)
    ax = cnf_to_axioms(cnf, BOOLEAN)
    proof = random_derivation(ax, 20, seed=0)
    rho = build_jcta(3, 2, 1, extra_pointer_vertices=(2,))
    for target, restrict_kind in ((cnf, restrict_cnf), (ax, restrict_axioms), (proof, restrict_proof)):
        got, (want, _) = restrict(target, rho), restrict_kind(target, rho)
        assert got == want
        system = got.axioms if isinstance(got, PCProof) else got
        expected = want.axioms if isinstance(want, PCProof) else want
        assert system.groups == expected.groups and system.groups
        assert system.universe == expected.universe
        assert (system.n, system.ell) == (expected.n, expected.ell) == (3, 2)
    with pytest.raises(TypeError, match="cannot restrict str"):
        restrict("x1", rho)


def test_restriction_io_roundtrip(tmp_path):
    rho = Restriction({edge(1, 2, 1): True, pointer(3, 2): False, X[1]: True})
    path = tmp_path / "rho.txt"
    write_restriction(rho, path)
    assert read_restriction(path) == rho
    text = path.read_text()
    assert "set x(1,2,1) = true" in text


def test_read_restriction_rejects_garbage(tmp_path):
    path = tmp_path / "rho.txt"
    path.write_text("restriction v1\nset x(1,2,1) true\n")
    with pytest.raises(ValueError):
        read_restriction(path)
    path.write_text("set x(1,2,1) = true\n")
    with pytest.raises(ValueError):
        read_restriction(path)


def test_restrict_proof_matches_value_restriction():
    ax = _fourier_axioms_with_spares(4, 2)
    w = plain("w1")
    for seed in range(8):
        proof = random_derivation(ax, 30, seed=seed)
        vals = proof_lines(proof)
        rho = Restriction({w: bool(seed % 2), plain("x1"): True})
        out, lmap = restrict_proof(proof, rho)
        assert check_pc(out).valid
        new_vals = proof_lines(out)
        for old, new in enumerate(lmap):
            if new is not None:
                assert new_vals[new] == restrict_poly(vals[old], rho)
            else:
                assert restrict_poly(vals[old], rho).is_zero


def test_restrict_proof_boolean_false_kills_line():
    x, y = X[1], X[2]
    p = Poly(F, BOOLEAN, {(x,): 1, (y,): 1})
    ax = AxiomSystem(F, BOOLEAN, (p,), (x, y), {})
    proof = PCProof(ax, (("ax", 0), ("mul", x, 0), ("lin", 1, 1, 1, 0)))
    out, lmap = restrict_proof(proof, Restriction({x: False}))
    assert check_pc(out).valid
    assert lmap[1] is None  # multiplied by a false variable
    assert proof_lines(out)[lmap[2]] == Poly(F, BOOLEAN, {(y,): 1})


# ---------------------------------------------------------------------------
# named restrictions for the lifted families


def _mentions_vertex(clause, j):
    for v in clause:
        if v.kind == "x" and j in v.index[:2]:
            return True
        if v.kind == "y" and v.index[0] == j:
            return True
    return False


def test_build_jcta_kills_ordering_axioms_touching_j():
    for n, ell, j in ((3, 1, 2), (4, 2, 3)):
        cnf = gen_bop_lifted(n, ell)
        rho = build_jcta(n, ell, j)
        out, cmap = restrict_cnf(cnf, rho)
        for i in cnf.groups["T"]:
            if _mentions_vertex(cnf.clauses[i], j):
                assert cmap[i] is None, (n, ell, j, sorted(cnf.clauses[i]))
        assert not any(c == frozenset() for c in out.clauses)


def test_build_jcta_kills_pointer_clause_at_j_code():
    n, ell, j = 3, 1, 2
    cnf = gen_bop_lifted(n, ell)
    rho = build_jcta(n, ell, j)
    _, cmap = restrict_cnf(cnf, rho)
    for k in (1, 3):
        killed = [i for i in cnf.groups[f"BV({k})"] if cmap[i] is None]
        assert killed, f"expected the code-of-{j} clause of BV({k}) to vanish"


def test_build_jcta_extra_pointers_kill_whole_group():
    n, ell, j = 3, 2, 1
    cnf = gen_bop_lifted(n, ell)
    rho = build_jcta(n, ell, j, extra_pointer_vertices=(2, 3))
    _, cmap = restrict_cnf(cnf, rho)
    for k in (2, 3):
        assert all(cmap[i] is None for i in cnf.groups[f"BV({k})"])
    # j's own group shrinks but survives
    assert any(cmap[i] is not None for i in cnf.groups[f"BV({j})"])


def test_build_jcta_leaves_a_still_unsatisfiable_core():
    cnf = gen_bop_lifted(3, 1)
    out, _ = restrict_cnf(cnf, build_jcta(3, 1, 2))
    assert len(out.clauses) > 0
    assert sat_oracle(out) is None


def test_build_jcta_argument_checks():
    with pytest.raises(ValueError):
        build_jcta(3, 1, 4)
    with pytest.raises(ValueError):
        build_jcta(3, 1, 2, lk_choice={1: 1})
    with pytest.raises(ValueError):
        build_jcta(3, 2, 2, lk_choice={1: 3, 3: 1})


def test_isolate_vertex_frees_split_variables():
    n, ell, j = 3, 2, 2
    cnf = gen_bop_lifted(n, ell)
    ax = cnf_to_axioms(cnf, FOURIER)
    rho = isolate_vertex_restriction(n, ell, j)
    out, _ = restrict_axioms(ax, rho)
    gone = {pointer(j, 1), pointer(j, 2), edge(1, j, 1), edge(3, j, 1)}
    for p in out.polys:
        assert not {v.base for v in p.variables()} & gone
    # the chosen copies stay unassigned (split targets); the pointer bits
    # are assigned away, which is what kills the vertex's own axiom group
    assert edge(1, j, 1) not in rho and edge(3, j, 1) not in rho
    assert pointer(j, 1) in rho and pointer(j, 2) in rho


def test_isolate_vertex_needs_two_copies():
    with pytest.raises(ValueError):
        isolate_vertex_restriction(3, 1, 2)


def test_isolate_vertex_needs_two_vertices():
    with pytest.raises(ValueError, match="need n >= 2, got 1"):
        isolate_vertex_restriction(1, 2, 1)


@pytest.mark.parametrize("choice, vertex", [({7: 1}, 7), ({2: 1}, 2), ({0: 1, 1: 2}, 0), ({1: 2, 7: 1, 2: 5}, 2)])
def test_choice_keys_must_be_other_vertices(choice, vertex):
    # a key outside 1..n, or j itself, is refused by name, not ignored
    with pytest.raises(ValueError, match=f"l_choice names vertex {vertex}, not one of the vertices of 1..3 other than 2"):
        isolate_vertex_restriction(3, 2, 2, l_choice=choice)
    lk = {1: 1, 3: 1, **choice}
    with pytest.raises(ValueError, match=f"lk_choice names vertex {vertex}, not one of the vertices of 1..3 other than 2"):
        build_jcta(3, 2, 2, lk_choice=lk)
    # the choices of the other vertices alone still build
    assert len(isolate_vertex_restriction(3, 2, 2, l_choice={1: 2, 3: 1})) == 8
    assert len(build_jcta(3, 2, 2, lk_choice={1: 2, 3: 1})) == 6


# ---------------------------------------------------------------------------
# split


def _fourier_axioms_with_spares(n, spares):
    base = gen_cycle_tseitin(n)
    extra = tuple(plain(f"w{i}") for i in range(1, spares + 1))
    return AxiomSystem(
        base.field, base.basis, base.polys, base.universe + extra, dict(base.groups)
    )


def test_split_single_line_example():
    x1, x2, x3 = X[1], X[2], X[3]
    p0 = fpoly({make_term([x2, x3]): 1, (): F.p - 1})
    ax = AxiomSystem(F, FOURIER, (p0,), (x1, x2, x3), {})
    proof = PCProof(ax, (("ax", 0), ("mul", x1, 0), ("mul", x2, 1)))
    out = split(proof, x1)
    rep = check_pc(out)
    assert rep.valid
    vals = proof_lines(out)
    assert all(all(v.base != x1 for v in q.variables()) for q in vals)
    assert vals[-1] == fpoly({(x3,): 1, (x2,): F.p - 1})
    assert quadratic_containment_check(proof, out, x1)


def test_split_requires_fourier():
    x = X[1]
    ax = AxiomSystem(F, BOOLEAN, (Poly(F, BOOLEAN, {(x,): 1}),), (x,), {})
    proof = PCProof(ax, (("ax", 0),))
    with pytest.raises(BasisMismatch):
        split(proof, x)


_FOURIER_ONLY = "is specific to the {+1,-1} encoding"


@pytest.mark.parametrize("run, message", [
    (lambda proof, cmap: quadratic_set(proof), "quadratic machinery " + _FOURIER_ONLY),
    (lambda proof, cmap: quadratic_degree(proof), "quadratic machinery " + _FOURIER_ONLY),
    (lambda proof, cmap: quadratic_containment_check(proof, proof, X[1]), "quadratic machinery " + _FOURIER_ONLY),
    (lambda proof, cmap: split(proof, X[1]), "split " + _FOURIER_ONLY),
    (lambda proof, cmap: qdeg_to_deg(proof), "the degree conversion " + _FOURIER_ONLY),
    (lambda proof, cmap: cluster(proof.axioms.polys[0], cmap), "clustering " + _FOURIER_ONLY),
    (lambda proof, cmap: cluster(proof.axioms, cmap), "clustering " + _FOURIER_ONLY),
    (lambda proof, cmap: cluster_proof(proof, cmap), "clustering " + _FOURIER_ONLY),
])
def test_fourier_only_operations_refuse_boolean_input(run, message):
    """Each {+1,-1}-only operation refuses a {0,1} input with its own message."""
    x = edge(1, 2, 1)
    ax = AxiomSystem(F, BOOLEAN, (Poly(F, BOOLEAN, {(x,): 1}),), (x,), {})
    with pytest.raises(BasisMismatch) as err:
        run(PCProof(ax, (("ax", 0),)), random_pairing(2, 2, seed=0))
    assert str(err.value) == message


def test_split_rejects_axiom_variable():
    ax = _fourier_axioms_with_spares(4, 1)
    proof = random_derivation(ax, 10, seed=1)
    with pytest.raises(ValueError):
        split(proof, plain("x1"))


def test_split_rejects_twin_axiom_step_at_x():
    w = plain("w1")
    ax = _fourier_axioms_with_spares(4, 1)
    proof = PCProof(ax, (("tw", w),))
    with pytest.raises(ValueError):
        split(proof, w)
    with pytest.raises(ValueError):
        split(proof, w.twin)


def test_transforms_refuse_a_malformed_step_as_the_checker_does():
    # the malformed steps of test_proofs.py's test_malformed_step_reported_not_raised
    a, s = plain("a"), plain("s")
    ax = AxiomSystem(F, FOURIER, (fpoly({(a,): 1, (): F.p - 1}), fpoly({(a,): 1, (): 1})), (a, s))
    for bad in (("lin", 1, 0), ("frob", 1), ("lin", "a", 0, 1, 0), ("mul", 3, 0), ()):
        proof = PCProof(ax, (("ax", 0), bad))
        want = f"input proof invalid at L2: {check_pc(proof).message}"
        for transform in (lambda: restrict_proof(proof, Restriction({s: True})),
                          lambda: split(proof, s),
                          lambda: cluster_proof(proof, random_pairing(2, 2, 0)),
                          lambda: strip_dead(proof)):
            with pytest.raises(ValueError) as e:
                transform()
            assert str(e.value) == want


def test_strip_dead_refuses_a_bad_reference():
    a = plain("a")
    ax = AxiomSystem(F, FOURIER, (fpoly({(a,): 1, (): F.p - 1}),), (a,))
    for bad, message in ((("lin", 1, 5, 1, 0), "reference to L6 not before L2"),
                         (("mul", a, "0"), "reference to L'0' not before L2")):
        proof = PCProof(ax, (("ax", 0), bad))
        assert check_pc(proof).message == message
        with pytest.raises(ValueError) as e:
            strip_dead(proof)
        assert str(e.value) == f"input proof invalid at L2: {message}"


def test_split_handles_twin_multiplications():
    w = plain("w1")
    ax = _fourier_axioms_with_spares(3, 1)
    proof = PCProof(
        ax,
        (
            ("ax", 0),
            ("mul", w, 0),
            ("mul", w.twin, 1),
            ("lin", 1, 2, 1, 0),
        ),
    )
    assert check_pc(proof).valid
    out = split(proof, w)
    rep = check_pc(out)
    assert rep.valid
    for q in proof_lines(out):
        assert all(v.base != w for v in q.variables())
    assert quadratic_containment_check(proof, out, w)


def _splittable_spare(proof, spares):
    hit = {s[1].base for s in proof.steps if s[0] == "tw"}
    for w in spares:
        if w not in hit:
            return w
    return None


def test_split_random_derivations_property():
    ax = _fourier_axioms_with_spares(4, 3)
    spares = tuple(plain(f"w{i}") for i in (1, 2, 3))
    checked = 0
    for seed in range(25):
        proof = random_derivation(ax, 40, seed=100 + seed)
        w = _splittable_spare(proof, spares)
        if w is None:
            continue
        out = split(proof, w)
        rep = check_pc(out)
        assert rep.valid, rep.message
        for q in proof_lines(out):
            assert all(v.base != w for v in q.variables())
        assert quadratic_containment_check(proof, out, w)
        checked += 1
    assert checked >= 20


def test_split_preserves_refutation():
    # x*w - 1 and -x*w - 1 refute each other without w in any single axiom...
    # they do mention w, so use a w-free contradiction and a proof that
    # detours through w instead.
    x = X[1]
    w = plain("w1")
    a0 = fpoly({(x,): 1, (): F.p - 1})   # x - 1
    a1 = fpoly({(x,): 1, (): 1})         # x + 1
    ax = AxiomSystem(F, FOURIER, (a0, a1), (x, w), {})
    half = (F.p + 1) // 2
    proof = PCProof(
        ax,
        (
            ("ax", 0),
            ("ax", 1),
            ("mul", w, 0),                    # x*w - w
            ("mul", w, 1),                    # x*w + w
            ("lin", half, 3, F.p - half, 2),  # w
            ("mul", w, 4),                    # 1
        ),
    )
    rep = check_pc(proof)
    assert rep.valid and rep.is_refutation
    out = split(proof, w)
    rep2 = check_pc(out)
    assert rep2.valid and rep2.is_refutation
    assert quadratic_containment_check(proof, out, w)


def test_strip_dead_keeps_reachable_lines():
    x1, x2 = X[1], X[2]
    p0 = fpoly({make_term([x1, x2]): 1})
    ax = AxiomSystem(F, FOURIER, (p0,), (x1, x2), {})
    proof = PCProof(ax, (("ax", 0), ("ax", 0), ("mul", x1, 1)))
    out = strip_dead(proof)
    assert len(out.steps) == 2
    assert out.steps == (("ax", 0), ("mul", x1, 0))
    assert check_pc(out).valid
    assert proof_lines(out)[-1] == proof_lines(proof)[-1]


def test_split_prune_dead_still_valid():
    ax = _fourier_axioms_with_spares(4, 2)
    w = plain("w2")
    proof = random_derivation(ax, 30, seed=7)
    lean = split(proof, w, prune_dead=True)
    full = split(proof, w)
    assert check_pc(lean).valid
    assert len(lean.steps) <= len(full.steps)
    assert proof_lines(lean)[-1] == proof_lines(full)[-1]


def test_quadratic_containment_detects_violation():
    x1, x2, x3 = X[1], X[2], X[3]
    p0 = fpoly({make_term([x1, x2]): 1, (): 1})
    ax = AxiomSystem(F, FOURIER, (p0,), (x1, x2, x3), {})
    before = PCProof(ax, (("ax", 0),))
    after = PCProof(ax, (("ax", 0), ("mul", x3, 0)))
    # after has pair products with x3, which 'before' never had
    assert not quadratic_containment_check(before, after, x1)


# ---------------------------------------------------------------------------
# quadratic degree to degree


def test_qdeg_to_deg_requires_valid_fourier_input():
    x = X[1]
    ax = AxiomSystem(F, BOOLEAN, (Poly(F, BOOLEAN, {(x,): 1}),), (x,), {})
    with pytest.raises(BasisMismatch):
        qdeg_to_deg(PCProof(ax, (("ax", 0),)))
    ax2 = AxiomSystem(F, FOURIER, (fpoly({(x,): 1}),), (x,), {})
    with pytest.raises(ValueError):
        qdeg_to_deg(PCProof(ax2, (("ax", 5),)))


def test_qdeg_to_deg_fourcycle_instance():
    # one axiom whose pair products all have degree 2, multiplied through
    # two spare variables: input degree 5, output degree 4, with the
    # degree-4 line appearing while the axiom is multiplied up
    x1, x2, x3, x4, x5, x6 = (X[i] for i in range(1, 7))
    p = fpoly(
        {
            make_term([x1, x2, x3]): 1,
            make_term([x2, x3, x4]): 1,
            make_term([x1, x3, x4]): 1,
            make_term([x1, x2, x4]): 1,
        }
    )
    ax = AxiomSystem(F, FOURIER, (p,), (x1, x2, x3, x4, x5, x6), {})
    proof = PCProof(ax, (("ax", 0), ("mul", x5, 0), ("mul", x6, 1)))
    assert check_pc(proof).degree == 5
    d, d0 = quadratic_degree(proof), 3
    assert d == 2
    out = qdeg_to_deg(proof)
    rep = check_pc(out)
    assert rep.valid
    assert rep.degree == 4
    assert rep.degree <= 2 * max(d, d0)
    degs = [q.degree for q in proof_lines(out)]
    assert 4 in degs and degs[-1] == 2


def test_qdeg_to_deg_single_term_lines():
    x1, x2, x3 = X[1], X[2], X[3]
    p = fpoly({make_term([x1, x2, x3]): 1})
    ax = AxiomSystem(F, FOURIER, (p,), (x1, x2, x3), {})
    proof = PCProof(ax, (("ax", 0), ("mul", x1, 0)))
    out = qdeg_to_deg(proof)
    rep = check_pc(out)
    assert rep.valid
    # the transformed axiom line is t*t = 1
    assert proof_lines(out)[3] == fpoly({(): 1})
    assert proof_lines(out)[-1] == proof_lines(out)[3]


def test_qdeg_to_deg_handles_cancel_to_zero():
    x1, x2 = X[1], X[2]
    p = fpoly({make_term([x1, x2]): 1, (): 1})
    ax = AxiomSystem(F, FOURIER, (p,), (x1, x2), {})
    proof = PCProof(
        ax,
        (
            ("ax", 0),
            ("ax", 0),
            ("lin", 1, 0, F.p - 1, 1),  # cancels to zero
            ("lin", 1, 2, 1, 0),        # zero + axiom
        ),
    )
    assert check_pc(proof).valid
    out = qdeg_to_deg(proof)
    rep = check_pc(out)
    assert rep.valid
    last = proof_lines(proof)[-1]
    expect = last
    for v in last.leading_term():
        expect = expect.mul_var(v)
    assert proof_lines(out)[-1] == expect


def test_qdeg_to_deg_bound_on_random_derivations():
    ax = _fourier_axioms_with_spares(5, 1)
    for seed in range(20):
        proof = random_derivation(ax, 35, seed=300 + seed)
        d = quadratic_degree(proof)
        d0 = max(
            (proof_lines(proof)[k].degree for k, s in enumerate(proof.steps) if s[0] in ("ax", "sq", "tw")),
            default=0,
        )
        out = qdeg_to_deg(proof)
        rep = check_pc(out)
        assert rep.valid, rep.message
        assert rep.degree <= 2 * max(d, d0, 1)


def test_qdeg_to_deg_preserves_refutation():
    x = X[1]
    a0 = fpoly({(x,): 1, (): F.p - 1})
    a1 = fpoly({(x,): 1, (): 1})
    ax = AxiomSystem(F, FOURIER, (a0, a1), (x,), {})
    half = (F.p + 1) // 2
    proof = PCProof(ax, (("ax", 0), ("ax", 1), ("lin", half, 1, F.p - half, 0)))
    rep = check_pc(proof)
    assert rep.valid and rep.is_refutation
    out = qdeg_to_deg(proof)
    rep2 = check_pc(out)
    assert rep2.valid and rep2.is_refutation


# ---------------------------------------------------------------------------
# clustering


def test_cluster_map_validation():
    with pytest.raises(ValueError):
        ClusterMap(2, 3, {})
    with pytest.raises(ValueError):
        ClusterMap(2, 2, {(1, 2): ((1, 2),)})  # missing (2,1)
    with pytest.raises(ValueError):
        ClusterMap(2, 2, {(1, 2): ((1, 1),), (2, 1): ((1, 2),)})


def _tiny_map():
    return ClusterMap(2, 4, {(1, 2): ((1, 3), (2, 4)), (2, 1): ((1, 2), (3, 4))})


def test_cluster_term_folds_pairs():
    cm = _tiny_map()
    t = make_term([edge(1, 2, 1), edge(1, 2, 3)])
    assert cluster(t, cm) == ()  # both copies of one pair cancel
    t2 = make_term([edge(1, 2, 1), edge(1, 2, 2)])
    assert cluster(t2, cm) == make_term([cluster_var(1, 2, 1), cluster_var(1, 2, 2)])
    t3 = make_term([edge(1, 2, 1).twin])
    assert cluster(t3, cm) == (cluster_var(1, 2, 1).twin,)
    assert cluster((pointer(1, 1),), cm) == (pointer(1, 1),)


def test_cluster_poly_merges_coefficients():
    cm = _tiny_map()
    p = fpoly(
        {
            make_term([edge(1, 2, 1), edge(1, 2, 3)]): 5,
            (): 7,
            make_term([edge(2, 1, 1)]): 2,
        }
    )
    q = cluster(p, cm)
    assert q == fpoly({(): 12, (cluster_var(2, 1, 1),): 2})


def cluster_term_by_var(t, cmap):
    """The first ``cluster_term``: each variable's image, found by scanning
    its edge's pairing, multiplied in one at a time by ``term_mul``."""
    out = ()
    for v in t:
        if v.kind == "x":
            i, j, l = v.index
            p = next(p for p, pr in enumerate(cmap.pairs[i, j], start=1) if l in pr)
            v = cluster_var(i, j, p).twin if v.negated else cluster_var(i, j, p)
        out = term_mul(out, (v,), FOURIER)
    return out


def test_cluster_matches_the_per_variable_fold():
    ax = cnf_to_axioms(gen_bop_lifted(3, 2), FOURIER)
    assert len(ax.polys) == 48
    cancelled = 0
    for seed in range(8):
        cm = random_pairing(3, 2, seed)
        for p in ax.polys:
            want = {}
            for t, c in p.terms.items():
                key = cluster_term_by_var(t, cm)
                assert cluster(t, cm) == key
                cancelled += len(key) < len(t)
                want[key] = want.get(key, 0) + c
            assert cluster(p, cm) == Poly(p.field, p.basis, want)
    assert cancelled  # some terms lose a pair's two copies


def test_cluster_image_keeps_its_messages():
    cm = _tiny_map()
    for v, message in [
        (cluster_var(1, 2, 1), "z(1,2,1) is already a cluster variable"),
        (cluster_var(1, 2, 1).twin, "~z(1,2,1) is already a cluster variable"),
        (edge(1, 3, 1), "edge (1,3) is outside the cluster map over n=2 vertices"),
        (edge(1, 2, 5), "gadget index 5 not paired for edge (1,2)"),
        (edge(2, 1).twin, "gadget index 0 not paired for edge (2,1)"),
    ]:
        with pytest.raises(ValueError) as got:
            cm.image(v)
        assert str(got.value) == message
        with pytest.raises(ValueError) as got:
            cluster(make_term([pointer(1, 1), edge(1, 2, 1), v]), cm)
        assert str(got.value) == message
    with pytest.raises(ValueError, match=r"^edge \(1,1\) is outside the cluster map over n=2 vertices$"):
        cm.pair_index(1, 1, 1)
    assert [cm.pair_index(1, 2, l) for l in range(1, 5)] == [1, 2, 1, 2]
    assert cm.image(edge(2, 1, 4).twin) == cluster_var(2, 1, 2).twin
    assert cm.image(plain("w")) == plain("w")


def test_cluster_axioms_keeps_identically_zero_entries():
    cm = _tiny_map()
    p = fpoly({make_term([edge(1, 2, 1), edge(1, 2, 3)]): 1, (): F.p - 1})
    ax = AxiomSystem(
        F, FOURIER, (p,), tuple(edge(i, j, l) for i, j in ((1, 2), (2, 1)) for l in range(1, 5)), {"G": (0,)}
    )
    out = cluster(ax, cm)
    assert len(out.polys) == 1
    assert out.polys[0].is_zero
    assert out.universe == tuple(sorted({cluster_var(i, j, p_) for i, j in ((1, 2), (2, 1)) for p_ in (1, 2)}))


def test_cluster_proof_stays_valid():
    cnf = gen_bop_lifted(3, 2)
    ax = cnf_to_axioms(cnf, FOURIER)
    cm = random_pairing(3, 2, seed=11)
    for seed in range(6):
        proof = random_derivation(ax, 30, seed=500 + seed)
        out = cluster(proof, cm)
        assert check_pc(out).valid
        assert proof_lines(out)[-1] == cluster(proof_lines(proof)[-1], cm)


def test_random_pairing_is_seed_deterministic():
    a = random_pairing(3, 4, seed=9)
    b = random_pairing(3, 4, seed=9)
    c = random_pairing(3, 4, seed=10)
    assert a == b
    assert a != c
    for pairing in a.pairs.values():
        assert sorted(l for pr in pairing for l in pr) == [1, 2, 3, 4]


def test_cluster_retention_exact_small_cases():
    # ell=2: a single pair always straddles a degree-1 term
    assert cluster_retention(2, 1, 500, seed=1) == 1.0
    # ell=4, degree 2: 2^2 / C(4,2) = 2/3
    est = cluster_retention(4, 2, 40000, seed=2)
    assert abs(est - 2 / 3) < 0.02
    # wrong degree can never keep every cluster variable
    assert cluster_retention(4, 3, 1000, seed=3) == 0.0


def test_cluster_retention_refuses_bad_input():
    with pytest.raises(ValueError, match="even number of copies"):
        cluster_retention(3, 1, 100, seed=1)
    for trials in (0, -2):  # 0 trials once divided by zero
        with pytest.raises(ValueError, match="at least one trial"):
            cluster_retention(2, 1, trials, seed=1)


def test_cluster_retention_refuses_negative_degree():
    with pytest.raises(ValueError, match="term_degree must be >= 0, got -1"):
        cluster_retention(2, -1, 5, 0)


def test_cluster_retention_decays_with_ell():
    est = cluster_retention(8, 4, 30000, seed=4)
    truth = 16 / 70  # 2^4 / C(8,4)
    assert abs(est - truth) < 0.02
    assert est < (3 / 4) ** 4 + 0.05


def test_clustermap_io_roundtrip(tmp_path):
    cm = random_pairing(3, 4, seed=21)
    path = tmp_path / "pairs.map"
    write_clustermap(cm, path)
    assert read_clustermap(path) == cm
    bad = tmp_path / "bad.map"
    bad.write_text("clustermap v1 n=2\npair 1 2 1 2 -> 1\n")
    with pytest.raises(ValueError):
        read_clustermap(bad)


# ---------------------------------------------------------------------------
# resolution simulation


def test_res_to_pcr_tiny_refutation():
    x, y, z = plain("x"), plain("y"), plain("z")
    cnf = CNF(
        (clause_of(x, y), clause_of(x.twin, z), clause_of(y.twin), clause_of(z.twin)),
        (x, y, z),
    )
    rp = ResolutionProof(
        cnf,
        (
            ("in", 0),
            ("in", 1),
            ("res", 0, 1, x),
            ("in", 2),
            ("res", 2, 3, y),
            ("in", 3),
            ("res", 4, 5, z),
        ),
    )
    assert check_resolution(rp).is_refutation
    pc = res_to_pcr(rp)
    rep = check_pc(pc)
    assert rep.valid and rep.is_refutation
    assert pc.basis == BOOLEAN


def test_res_to_pcr_line_values_are_clause_monomials():
    x, y, z = plain("x"), plain("y"), plain("z")
    cnf = CNF((clause_of(x, y), clause_of(x.twin, z)), (x, y, z))
    rp = ResolutionProof(cnf, (("in", 0), ("in", 1), ("res", 0, 1, x)))
    pc = res_to_pcr(rp)
    rep = check_pc(pc)
    assert rep.valid
    resolvent = resolution_lines(rp)[-1]
    expect = clause_to_poly(resolvent, BOOLEAN, F)
    assert proof_lines(pc)[-1] == expect


def test_res_to_pcr_empty_clause_input():
    cnf = CNF((frozenset(),), ())
    rp = ResolutionProof(cnf, (("in", 0),))
    pc = res_to_pcr(rp)
    rep = check_pc(pc)
    assert rep.valid and rep.is_refutation
    assert rep.size == 1


def test_res_to_pcr_rejects_invalid_input():
    x, y = plain("x"), plain("y")
    cnf = CNF((clause_of(x), clause_of(y)), (x, y))
    rp = ResolutionProof(cnf, (("in", 0), ("in", 1), ("res", 0, 1, x)))
    with pytest.raises(ValueError):
        res_to_pcr(rp)


def test_res_to_pcr_derivation_only():
    x, y = plain("x"), plain("y")
    cnf = CNF((clause_of(x, y), clause_of(x.twin, y)), (x, y))
    rp = ResolutionProof(cnf, (("in", 0), ("in", 1), ("res", 0, 1, x)))
    pc = res_to_pcr(rp)
    rep = check_pc(pc)
    assert rep.valid and not rep.is_refutation
    assert proof_lines(pc)[-1] == Poly(F, BOOLEAN, {(y.twin,): 1})
