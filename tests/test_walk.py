"""Property tests for the proof-line walks and the metrics folded over
them, and a unit test of the proof writer's combination rule."""

import pytest
from hypothesis import given, settings, strategies as st

from pclab.algebra import BOOLEAN, FOURIER, DEFAULT_FIELD, grlex_key, plain, term_mul
from pclab.constructions import lop_resolution_refutation
from pclab.formulas import AxiomSystem, cnf_to_axioms, gen_cycle_tseitin, gen_lop
from pclab.proofs import (
    PCProof,
    ProofWriter,
    ResolutionProof,
    StepError,
    check_pc,
    check_resolution,
    proof_lines,
    quadratic_set,
    random_derivation,
    resolution_lines,
    walk_pc,
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


@SETTINGS
@given(derivations(FOURIER))
def test_quadratic_set_matches_brute_force(proof):
    lines, bad = lines_or_error(proof)
    if bad is not None:
        with pytest.raises(StepError):
            quadratic_set(proof)
        return
    pairs = {tuple(sorted((s, t), key=grlex_key)) for p in lines for s in p.terms for t in p.terms}
    qs = quadratic_set(proof)
    assert qs.pairs == pairs
    assert qs.products == {term_mul(s, t, FOURIER) for s, t in pairs}


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


@SETTINGS
@given(st.integers(0, 60), MUTANTS)
def test_check_resolution_never_raises_on_mutated_steps(k, step):
    proof = lop_resolution_refutation(3)
    k %= len(proof.steps)
    steps = proof.steps[:k] + (step,) + proof.steps[k + 1:]
    rep = check_resolution(ResolutionProof(proof.cnf, steps))
    assert rep.valid or rep.first_bad_line >= k
    if rep.valid:
        assert len(resolution_lines(ResolutionProof(proof.cnf, steps))) == len(steps)


def test_writer_lin_keeps_live_parts():
    w = ProofWriter(F.p)
    x = plain("a")
    assert w.lin([(3, None, ()), (F.p, 0, ())]) is None and w.steps == []
    assert w.lin([(0, 4, ()), (2, 5, ())]) == 0
    assert w.lin([(1, 6, (x,)), (F.p - 1, 7, ())]) == 2
    assert w.steps == [("lin", 2, 5, 0, 5), ("mul", x, 6), ("lin", 1, 1, F.p - 1, 7)]
