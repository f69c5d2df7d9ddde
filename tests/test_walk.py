"""Property tests for the proof-line walks and the metrics folded over
them, the walks' error contract and per-step calls, and a unit test of
the proof writer's combination rule."""

import os
import sys
import tempfile
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from pclab.algebra import BOOLEAN, FOURIER, DEFAULT_FIELD, Poly, edge, format_poly, grlex_key, plain, term_mul
from pclab.constructions import lifted_refutation, lop_resolution_refutation, tseitin_fourier_refutation
from pclab.formulas import (
    AxiomSystem,
    clause_to_poly,
    cnf_to_axioms,
    gen_bop_lifted,
    gen_cycle_tseitin,
    gen_lop,
    semantic_implies,
    write_axioms,
)
from pclab.proofs import (
    PCProof,
    ProofWriter,
    ResolutionProof,
    StepError,
    check_pc,
    check_resolution,
    proof_lines,
    quadratic_degree,
    quadratic_set,
    random_derivation,
    read_pcproof,
    resolution_lines,
    twin_axiom_poly,
    _walk,
    walk_pc,
    write_pcproof,
)
from pclab.transforms import (
    Restriction,
    quadratic_containment_check,
    res_to_pcr,
    restrict_proof,
    split,
    strip_dead,
)

F = DEFAULT_FIELD
SETTINGS = settings(max_examples=40, deadline=None)


def parity_axioms():
    base = gen_cycle_tseitin(4)
    return AxiomSystem(base.field, base.basis, base.polys, base.universe + (plain("w1"),), dict(base.groups))


AXIOMS = {BOOLEAN: cnf_to_axioms(gen_lop(3), BOOLEAN), FOURIER: parity_axioms()}
BAD_STEPS = (("ax", 99), ("lin", 1, 0, 1, 10**6), ("mul", plain("zz"), 0), ("frob",), ())


@st.composite
def derivations(draw, basis):
    """A random derivation, sometimes cut short and ended by a bad step."""
    proof = random_derivation(AXIOMS[basis], draw(st.integers(0, 30)), seed=draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(proof.steps)))
        proof = PCProof(proof.axioms, proof.steps[:cut] + (draw(st.sampled_from(BAD_STEPS)),))
    return proof


def lines_or_error(proof):
    """Every line, or the lines before the first bad step and its index."""
    lines = []
    try:
        for _, _, p in walk_pc(proof):
            lines.append(p)
    except StepError as e:
        return lines, e.k
    assert lines == proof_lines(proof)
    return lines, None


@pytest.mark.parametrize("basis", [BOOLEAN, FOURIER])
def test_check_pc_is_a_fold_over_the_lines(basis):
    @SETTINGS
    @given(derivations(basis))
    def check(proof):
        lines, bad = lines_or_error(proof)
        rep = check_pc(proof)
        assert rep.valid == (bad is None) and rep.first_bad_line == bad
        assert rep.size == sum(p.monomial_count for p in lines)
        assert rep.degree == max((p.degree for p in lines), default=0)
        assert rep.num_lines == len(proof.steps)

    check()


@pytest.mark.parametrize(
    "axioms", [cnf_to_axioms(gen_bop_lifted(2, 1), BOOLEAN), parity_axioms()], ids=[BOOLEAN, FOURIER]
)
def test_random_derivation_lines_are_implied_by_their_axioms(axioms):
    """Every derived line vanishes wherever the axioms it derives from
    vanish, checked by evaluation on the cube rather than by the rules.

    Neither system has a common zero, so implication by the whole system
    would hold for any line.  Each line is checked against only the
    axioms its steps reach back to, and most of those sets have common
    zeros."""
    one = Poly.constant(axioms.field, axioms.basis, 1)
    kinds = Counter()
    satisfiable = 0
    for seed in range(12):
        proof = random_derivation(axioms, 40, seed=seed)
        deps = []
        for step, q in zip(proof.steps, proof_lines(proof)):
            kinds[step[0]] += 1
            if step[0] == "ax":
                deps.append({step[1]})
            elif step[0] == "lin":
                deps.append(deps[step[2]] | deps[step[4]])
            elif step[0] == "mul":
                deps.append(deps[step[2]])
            else:  # twin and square axioms vanish at every encoded point
                deps.append(set())
            premises = [axioms.polys[k] for k in sorted(deps[-1])]
            assert semantic_implies(premises, q), (seed, step, format_poly(q))
            satisfiable += not semantic_implies(premises, one)
    assert semantic_implies(axioms.polys, one)
    assert kinds["lin"] and kinds["mul"] and kinds["tw"] and kinds["sq"]
    assert satisfiable >= sum(kinds.values()) // 2


def twin_sum_proof():
    """The one axiom x + ~x: its pair products are 1 and x*~x, never folded."""
    x = plain("x")
    ax = AxiomSystem(F, FOURIER, (Poly(F, FOURIER, {(x,): 1, (x.twin,): 1}),), (x,))
    return PCProof(ax, (("ax", 0),))


@SETTINGS
@given(derivations(FOURIER))
@example(tseitin_fourier_refutation(80))  # 80 variables: masks wider than 64 bits
@example(twin_sum_proof())
def test_quadratic_set_matches_brute_force(proof):
    lines, bad = lines_or_error(proof)
    if bad is not None:
        with pytest.raises(StepError):
            quadratic_set(proof)
        return
    pairs = {tuple(sorted((s, t), key=grlex_key)) for p in lines for s in p.terms for t in p.terms}
    qs = quadratic_set(proof)
    assert qs.products == {term_mul(s, t, FOURIER) for s, t in pairs}


def spare_axioms(basis):
    """A system whose universe has variables no axiom mentions."""
    if basis == FOURIER:
        return parity_axioms()
    base = AXIOMS[BOOLEAN]
    return AxiomSystem(base.field, base.basis, base.polys, base.universe + (plain("w1"),), dict(base.groups))


@st.composite
def valid_derivations(draw, basis):
    """A valid derivation whose steps are drawn one by one, so that a
    multiplier often already sits in the term and a combination often
    cancels a line against itself."""
    axioms = spare_axioms(basis)
    variables = [w for v in axioms.universe for w in (v, v.twin)]
    coefs = st.sampled_from([0, 1, 2, F.p - 1, F.p - 2])
    steps = []
    for k in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(["ax", "sq", "tw"] + (["lin", "mul", "mul", "mul"] if k else [])))
        if kind == "ax":
            steps.append(("ax", draw(st.integers(0, len(axioms.polys) - 1))))
        elif kind in ("sq", "tw"):
            steps.append((kind, draw(st.sampled_from(variables))))
        elif kind == "mul":
            i = draw(st.integers(0, k - 1))
            steps.append(("mul", draw(st.sampled_from(variables)), i))
        else:
            i = draw(st.integers(0, k - 1))
            j = draw(st.one_of(st.just(i), st.integers(0, k - 1)))
            steps.append(("lin", draw(coefs), i, draw(coefs), j))
    return PCProof(axioms, tuple(steps))


def replay(proof):
    """Every line recomputed with tuple-term ``Poly`` arithmetic alone."""
    ax = proof.axioms
    lines = []
    for step in proof.steps:
        kind = step[0]
        if kind == "ax":
            q = ax.polys[step[1]]
        elif kind == "sq":
            q = Poly.zero(ax.field, ax.basis)
        elif kind == "tw":
            q = twin_axiom_poly(step[1], ax.field, ax.basis)
        elif kind == "lin":
            q = lines[step[2]].lin(step[1], lines[step[4]], step[3])
        else:
            q = lines[step[2]].mul_var(step[1])
        lines.append(q)
    return lines


def edge_case_proof(basis):
    """A square folded in a term, a twin kept beside its base, a spare
    variable and a combination that cancels to zero."""
    axioms = spare_axioms(basis)
    x, w = axioms.universe[0], plain("w1")
    return PCProof(axioms, (
        ("tw", x),            # x + ~x - 1, or x*~x + 1
        ("mul", x, 0),        # x*x folds to x, or to 1
        ("mul", x.twin, 1),   # ~x beside x
        ("lin", 1, 2, F.p - 1, 2),  # zero
        ("mul", w, 3),
        ("ax", 0),
        ("mul", w.twin, 5),
        ("mul", w.twin, 6),   # ~w*~w
        ("lin", 2, 7, 1, 2),
    ))


@pytest.mark.parametrize("basis", [BOOLEAN, FOURIER])
def test_mask_lines_match_the_poly_replay(basis):
    @SETTINGS
    @given(valid_derivations(basis))
    @example(edge_case_proof(basis))
    def check(proof):
        lines = replay(proof)
        assert proof_lines(proof) == lines
        rep = check_pc(proof)
        assert rep.valid
        assert rep.size == sum(q.monomial_count for q in lines)
        assert rep.degree == max(q.degree for q in lines)
        assert rep.is_refutation == (lines[-1] == Poly.constant(F, basis, 1))
        if basis == FOURIER:
            qs = quadratic_set(proof)
            assert qs.products == {term_mul(s, t, FOURIER) for q in lines for s in q.terms for t in q.terms}
            assert qs.qdeg == max(map(len, qs.products), default=0)
            assert qs.d0 == max((q.degree for step, q in zip(proof.steps, lines)
                                 if step[0] in ("ax", "sq", "tw")), default=0)

    check()


def test_edge_case_proof_covers_its_cases():
    for basis in (BOOLEAN, FOURIER):
        lines = replay(edge_case_proof(basis))
        x = spare_axioms(basis).universe[0]
        assert lines[3].is_zero
        assert any(x in t and x.twin in t for t in lines[0].terms) == (basis == FOURIER)
        assert any(x in t and x.twin in t for t in lines[2].terms)


STEP_PARTS = st.one_of(
    st.sampled_from(["ax", "sq", "tw", "lin", "mul", "in", "res", "frob", ""]),
    st.integers(-3, 60),
    st.sampled_from([plain("a0"), plain("zz"), plain("w1"), plain("w1").twin]),
    st.sampled_from(list(AXIOMS[BOOLEAN].universe) + list(AXIOMS[FOURIER].universe)),
    st.none(),
    st.floats(allow_nan=False),
    st.lists(st.integers(0, 3), max_size=2),
)
MUTANTS = st.lists(STEP_PARTS, max_size=6).map(tuple)


@pytest.mark.parametrize("basis", [BOOLEAN, FOURIER])
def test_check_pc_never_raises_on_mutated_steps(basis):
    proof = random_derivation(AXIOMS[basis], 20, seed=7)

    @SETTINGS
    @given(st.integers(0, len(proof.steps) - 1), MUTANTS)
    def check(k, step):
        steps = proof.steps[:k] + (step,) + proof.steps[k + 1:]
        rep = check_pc(PCProof(proof.axioms, steps))
        assert rep.valid or rep.first_bad_line >= k

    check()


def frozenset_lines(proof):
    """Every clause of a valid resolution proof by the rule on frozensets
    of literals: the reference for the walk on masks."""
    lines = []
    for step in proof.steps:
        if step[0] == "in":
            lines.append(proof.cnf.clauses[step[1]])
            continue
        _, i, j, pivot = step
        pivot = pivot.base
        assert pivot in lines[i] and pivot.twin in lines[j] or pivot in lines[j] and pivot.twin in lines[i]
        lines.append(frozenset(v for v in lines[i] | lines[j] if v.base != pivot))
    return lines


LOP3, LIFTED = lop_resolution_refutation(3), lifted_refutation(2, 2)


@SETTINGS
@given(st.sampled_from([LOP3, LIFTED]), st.integers(0, 60), MUTANTS)
@example(LOP3, 0, LOP3.steps[0])
@example(LIFTED, 0, LIFTED.steps[0])
@example(LIFTED, len(LIFTED.steps) - 1, LIFTED.steps[-1][:3] + (LIFTED.steps[-1][3].twin,))
@example(LIFTED, len(LIFTED.steps) - 1, ("in", 0))
def test_check_resolution_never_raises_on_mutated_steps(proof, k, step):
    k %= len(proof.steps)
    proof = ResolutionProof(proof.cnf, proof.steps[:k] + (step,) + proof.steps[k + 1:])
    rep = check_resolution(proof)
    assert rep.valid or rep.first_bad_line >= k
    if rep.valid:
        lines = frozenset_lines(proof)
        assert resolution_lines(proof) == lines
        assert (rep.is_refutation, rep.max_width) == (not lines[-1], max(map(len, lines)))
        pc = res_to_pcr(proof)
        assert check_pc(pc).valid
        assert proof_lines(pc)[-1] == clause_to_poly(lines[-1], BOOLEAN)


def test_writer_lin_keeps_live_parts():
    w = ProofWriter(F.p)
    x = plain("a")
    assert w.lin([(3, None, ()), (F.p, 0, ())]) is None and w.steps == []
    assert w.lin([(0, 4, ()), (2, 5, ())]) == 0
    assert w.lin([(1, 6, (x,)), (F.p - 1, 7, ())]) == 2
    assert w.steps == [("lin", 2, 5, 0, 5), ("mul", x, 6), ("lin", 1, 1, F.p - 1, 7)]


# ---------------------------------------------------------------------------
# the walk's error contract: one fault after three good lines, at k = 3

PARITY = parity_axioms()
X1 = PARITY.universe[0]
PC_PREFIX = (("ax", 0), ("ax", 1), ("tw", X1))
PC_FAULTS = [  # (id, step at L4, message or None for a valid step)
    ("empty", (), "malformed step ()"),
    ("list-kind", (["ax"], 0), "malformed step (['ax'], 0)"),
    ("arity", ("ax", 0, 1), "malformed step ('ax', 0, 1)"),
    ("negative-ref", ("mul", X1, -1), "reference to L0 not before L4"),
    ("forward-ref", ("mul", X1, 5), "reference to L6 not before L4"),
    ("self-ref", ("mul", X1, 3), "reference to L4 not before L4"),
    ("float-ref", ("mul", X1, 1.0), "reference to L1.0 not before L4"),
    ("string-ref", ("mul", X1, "L1"), "reference to L'L1' not before L4"),
    ("two-bad-refs", ("lin", 1, 7, 1, -2), "reference to L8 not before L4"),
    ("res-forward-refs", ("res", 9, 9, X1), "reference to L10 not before L4"),
    ("res-kind", ("res", 0, 1, X1), f"malformed step ('res', 0, 1, {X1!r})"),
    ("axiom-range", ("ax", 4), "no axiom 5: the system has 4"),
    ("axiom-negative", ("ax", -1), "no axiom 0: the system has 4"),
    ("axiom-float", ("ax", 1.0), "no axiom 1.0: the system has 4"),
    ("coefficient", ("lin", 1.5, 0, 1, 1), "non-scalar coefficients in ('lin', 1.5, 0, 1, 1)"),
    ("outside-universe", ("mul", plain("zz"), 0), "variable zz outside the system universe"),
    ("not-a-variable", ("tw", "x1"), "variable x1 outside the system universe"),
    ("twin", ("mul", X1.twin, 0), None),
    ("int-step", 5, "malformed step 5"),
    ("none-step", None, "malformed step None"),
    ("bool-axiom", ("ax", True), "no axiom True: the system has 4"),
    ("bool-ref", ("mul", X1, True), "reference to LTrue not before L4"),
]

CNF_PROOF = lop_resolution_refutation(3)
A = CNF_PROOF.steps[-1][3]  # a pivot of the proof
RES_PREFIX = (("in", 0), ("in", 1), ("in", 10))  # x(2,1) x(3,1), x(1,2) x(3,2), ~x(1,3) ~x(3,1)
RES_FAULTS = [
    ("empty", (), "malformed step ()"),
    ("list-kind", (["in"], 0), "malformed step (['in'], 0)"),
    ("arity", ("in", 0, 1), "malformed step ('in', 0, 1)"),
    ("negative-ref", ("res", -1, 0, A), "reference to L0 not before L4"),
    ("forward-ref", ("res", 0, 5, A), "reference to L6 not before L4"),
    ("self-ref", ("res", 3, 0, A), "reference to L4 not before L4"),
    ("float-ref", ("res", 1.0, 0, A), "reference to L1.0 not before L4"),
    ("string-ref", ("res", "L1", 0, A), "reference to L'L1' not before L4"),
    ("two-bad-refs", ("res", 7, -2, A), "reference to L8 not before L4"),
    ("lin-forward-refs", ("lin", 1, 9, 1, 9), "reference to L10 not before L4"),
    ("lin-kind", ("lin", 1, 0, 1, 1), "malformed step ('lin', 1, 0, 1, 1)"),
    ("clause-range", ("in", 12), "no input clause 13: the formula has 12"),
    ("clause-float", ("in", 1.0), "no input clause 1.0: the formula has 12"),
    ("pivot", ("res", 0, 1, 5), "pivot 5 is not a variable"),
    ("pivot-missing", ("res", 0, 1, A), f"pivot {A} is not complementary in the parents"),
    ("pivot-same-sign", ("res", 0, 0, A), f"pivot {A} is not complementary in the parents"),
    ("pivot-outside", ("res", 0, 2, plain("zz")), "pivot zz is not complementary in the parents"),
    ("pivot-twin", ("res", 2, 0, edge(3, 1).twin), None),  # resolves on x(3,1)
    ("int-step", 5, "malformed step 5"),
    ("none-step", None, "malformed step None"),
    ("bool-clause", ("in", True), "no input clause True: the formula has 12"),
    ("bool-ref", ("res", True, 0, A), "reference to LTrue not before L4"),
]
TRANSFORMS = {
    "split": lambda proof: split(proof, plain("w1")),
    "restrict_proof": lambda proof: restrict_proof(proof, Restriction({})),
    "strip_dead": strip_dead,
}


@pytest.mark.parametrize("name, step, message", PC_FAULTS, ids=[c[0] for c in PC_FAULTS])
def test_pc_walk_error_contract(name, step, message):
    proof = PCProof(PARITY, PC_PREFIX + (step,))
    rep = check_pc(proof)
    assert (rep.valid, rep.first_bad_line, rep.message) == (
        (True, None, "") if message is None else (False, 3, message))
    for transform in TRANSFORMS.values():
        if message is None:
            transform(proof)
            continue
        with pytest.raises(ValueError) as e:
            transform(proof)
        assert str(e.value) == f"input proof invalid at L4: {message}"


@pytest.mark.parametrize("proof", [random_derivation(PARITY, 40, seed=3), CNF_PROOF], ids=["pc", "resolution"])
def test_walk_makes_one_call_per_step(proof):
    """Besides resuming the walk, a step calls only ``derive``."""
    if isinstance(proof, PCProof):
        proof.axioms.codec  # built once per system, not per step
    calls = Counter()

    def count(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    sys.setprofile(count)
    try:
        for _ in _walk(proof, lambda kind, at, step, parents: at):
            pass
    finally:
        sys.setprofile(None)
    assert calls == {"<lambda>": len(proof.steps), "_walk": len(proof.steps) + 1}


@pytest.mark.parametrize("name, step, message", RES_FAULTS, ids=[c[0] for c in RES_FAULTS])
def test_resolution_walk_error_contract(name, step, message):
    proof = ResolutionProof(CNF_PROOF.cnf, RES_PREFIX + (step,))
    rep = check_resolution(proof)
    if message is None:
        assert rep.valid and resolution_lines(proof)[3] == {A, edge(1, 3).twin}
        assert check_pc(res_to_pcr(proof)).valid
        return
    assert (rep.valid, rep.first_bad_line, rep.message) == (False, 3, message)
    with pytest.raises(ValueError) as e:
        res_to_pcr(proof)
    assert str(e.value) == f"input proof invalid at L4: {message}"


# ---------------------------------------------------------------------------
# the quadratic metrics on masks against their definitions on terms

CYCLE = gen_cycle_tseitin(4)
SPARE_VARS = tuple(plain(f"w{i}") for i in (1, 2, 3))
WITH_SPARES = AxiomSystem(CYCLE.field, CYCLE.basis, CYCLE.polys, CYCLE.universe + SPARE_VARS, dict(CYCLE.groups))


def term_containment(before, after, x):
    """The containment's definition, on the decoded products."""
    qb, qa = quadratic_set(before).products, quadratic_set(after).products
    return qa <= {t for t in qb if all(v.base != x.base for v in t)}


def read_back(proof):
    """The proof written and read again: an equal system, another object."""
    with tempfile.TemporaryDirectory() as d:
        write_axioms(proof.axioms, os.path.join(d, "axioms.txt"))
        write_pcproof(proof, os.path.join(d, "proof.pc"), "axioms.txt")
        return read_pcproof(os.path.join(d, "proof.pc"))


@SETTINGS
@given(st.integers(0, 40), st.integers(0, 10**6))
def test_mask_metrics_match_their_term_definitions(steps, seed):
    proof = random_derivation(WITH_SPARES, steps, seed)
    assert quadratic_degree(proof) == quadratic_set(proof).qdeg
    blocked = {s[1].base for s in proof.steps if s[0] == "tw"}
    w = next((v for v in SPARE_VARS if v not in blocked), SPARE_VARS[0])
    out = split(proof, w) if w not in blocked else proof
    back = read_back(out)
    assert back.axioms is not proof.axioms and back.axioms.codec is not proof.axioms.codec
    narrow = random_derivation(CYCLE, steps, seed)  # a universe without the spares
    cases = [(proof, out, w), (out, proof, w),          # the same system
             (proof, back, w), (back, proof, w),        # an equal system read back
             (proof, out, plain("zz")), (out, proof, plain("zz")),  # x outside the universe
             (narrow, proof, w), (proof, narrow, w)]    # products outside the universe
    for before, after, x in cases:
        assert quadratic_containment_check(before, after, x) == term_containment(before, after, x)


LIN_SYSTEMS = {
    "parity": parity_axioms(),
    "lifted-boolean": cnf_to_axioms(gen_bop_lifted(3, 2), BOOLEAN),
    "lifted-fourier": cnf_to_axioms(gen_bop_lifted(3, 2), FOURIER),
}
WIDE_COEFS = st.one_of(
    st.integers(-2**70, -1),                # negative
    st.integers(F.p, 4 * F.p),              # at least p
    st.integers(2**64 + 1, 2**200),         # wider than a machine word
)


@pytest.mark.parametrize("name", LIN_SYSTEMS)
def test_wide_lin_coefficients_survive_the_file_round_trip(name):
    """A "lin" coefficient outside 0..p-1 is written as it is and read
    back reduced mod p, so the proof read back checks as the original."""
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 25), st.integers(0, 10**6), st.data())
    def check(steps, seed, data):
        proof = random_derivation(LIN_SYSTEMS[name], steps, seed=seed)
        wide = tuple(("lin", data.draw(WIDE_COEFS), s[2], data.draw(WIDE_COEFS), s[4]) if s[0] == "lin" else s
                     for s in proof.steps)
        proof = PCProof(proof.axioms, wide)
        assert check_pc(read_back(proof)) == check_pc(proof)

    check()


@pytest.mark.parametrize("basis", [BOOLEAN, FOURIER])
@pytest.mark.parametrize("step", [("lin", True, 0, 0, 0), ("lin", 1, 0, False, 0)])
def test_bool_lin_coefficients_are_refused(basis, step):
    """A bool is refused as a coefficient, as it is as an index: the
    proof file would spell it True, which no reader parses."""
    proof = PCProof(AXIOMS[basis], (("ax", 0), step))
    message = f"non-scalar coefficients in {step!r}"
    rep = check_pc(proof)
    assert (rep.valid, rep.first_bad_line, rep.message) == (False, 1, message)
    for name, transform in TRANSFORMS.items():
        if name == "split" and basis == BOOLEAN:
            continue  # split takes {+1,-1} proofs only
        with pytest.raises(ValueError) as e:
            transform(proof)
        assert str(e.value) == f"input proof invalid at L2: {message}"
