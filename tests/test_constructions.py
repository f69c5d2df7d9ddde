import hashlib
import math

import pytest

from pclab.algebra import BOOLEAN, edge
from pclab.constructions import (
    bop_to_lop_derivation,
    fit_through_origin,
    lifted_refutation,
    lop_resolution_refutation,
    loglog_fit,
    pcr_upper_bound,
    tseitin_fourier_refutation,
)
from pclab.formulas import gen_bop, gen_bop_lifted, pointer_bits, pointer_neq_clause
from pclab.proofs import (
    check_pc,
    check_resolution,
    proof_lines,
    resolution_lines,
)


def lop_res_count(n):
    # one chain of m resolutions per (m, j) with j < m
    return sum((m - 1) * m for m in range(2, n + 1))


def lifted_line_count(n, ell):
    b = pointer_bits(n)
    trees = n * (2 ** (b + 1) - 1)
    phase2 = sum((m - 1) * (2 * (m - 1) * ell * ell + ell) for m in range(2, n + 1))
    return trees + phase2


# ---------------------------------------------------------------------------
# ordering principle refutation


def test_lop_smallest_case_two_resolutions():
    rp = lop_resolution_refutation(2)
    rep = check_resolution(rp)
    assert rep.valid and rep.is_refutation
    assert sum(1 for s in rp.steps if s[0] == "res") == 2


def test_lop_valid_refutations():
    for n in range(2, 13):
        rp = lop_resolution_refutation(n)
        rep = check_resolution(rp)
        assert rep.valid and rep.is_refutation, (n, rep.message)
        assert sum(1 for s in rp.steps if s[0] == "res") == lop_res_count(n)
        assert rep.max_width <= n


def test_lop_derived_clauses_have_one_negative_literal():
    rp = lop_resolution_refutation(7)
    lines = resolution_lines(rp)
    for k, step in enumerate(rp.steps):
        if step[0] == "res":
            assert sum(1 for v in lines[k] if v.negated) <= 1


def test_lop_rejects_tiny_n():
    with pytest.raises(ValueError):
        lop_resolution_refutation(1)


# ---------------------------------------------------------------------------
# pointer trees


def test_bop_to_lop_derives_every_vee_clause():
    for n in (2, 3, 5):
        rp = bop_to_lop_derivation(n)
        rep = check_resolution(rp)
        assert rep.valid
        lines = set(resolution_lines(rp))
        for j in range(1, n + 1):
            vee = frozenset(edge(i, j) for i in range(1, n + 1) if i != j)
            assert vee in lines, (n, j)


def test_bop_to_lop_tree_sizes():
    n = 3
    rp = bop_to_lop_derivation(n)
    b = pointer_bits(n)
    assert sum(1 for s in rp.steps if s[0] == "res") == n * (2**b - 1)
    assert sum(1 for s in rp.steps if s[0] == "in") == n * 2**b
    # only pointer clauses are consumed
    cnf = gen_bop(n)
    used = {s[1] for s in rp.steps if s[0] == "in"}
    assert used == {i for j in range(1, n + 1) for i in cnf.groups[f"BV({j})"]}


@pytest.mark.parametrize("n, ell", [(2, 0), (3, 0), (5, 0), (8, 0), (9, 0), (3, 2), (4, 3), (5, 1), (6, 2)])
def test_pointer_groups_file_clauses_in_code_order(n, ell):
    # the pointer trees read group BV(j) by position: its v-th clause holds
    # exactly the pointer literals that deny code v, lifted or not
    cnf = gen_bop_lifted(n, ell) if ell else gen_bop(n)
    b = pointer_bits(n)
    for j in range(1, n + 1):
        idxs = cnf.groups[f"BV({j})"]
        assert len(idxs) == 2**b
        for v, idx in enumerate(idxs):
            assert {y for y in cnf.clauses[idx] if y.kind == "y"} == set(pointer_neq_clause(j, v, b))


@pytest.mark.parametrize("build, args, digest", [
    (bop_to_lop_derivation, (7,), "668d54fc4b28f2f2c29202e29f6a67ef720d77be8ae4ea480c5976d1383cdd11"),
    (lifted_refutation, (5, 3), "7d1afe41c47e3d39338bbd9394bb662824b873a9d830b07c6fdf41e34118e47e"),
    (lifted_refutation, (6, 1), "16ff7722104700ebaad5a33b8aede2a140e7b003972a7283c555d63cc97f63d3"),
], ids=["bop_to_lop7", "lifted5_3", "lifted6_1"])
def test_refutation_steps_are_pinned(build, args, digest):
    # the step sequence itself, at sizes the golden artifacts do not reach
    assert hashlib.sha256(repr(build(*args).steps).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# lifted refutation


def test_lifted_refutations_valid_and_sized():
    for n in range(3, 7):
        for ell in (1, 2, 3):
            rp = lifted_refutation(n, ell)
            rep = check_resolution(rp)
            assert rep.valid and rep.is_refutation, (n, ell, rep.message)
            assert rep.num_lines == lifted_line_count(n, ell)
            assert rep.max_width <= n * ell


def test_lifted_count_scales_with_square_of_copies():
    xs, ys = [], []
    for n in range(3, 9):
        for ell in (1, 2, 3):
            ys.append(lifted_line_count(n, ell))
            xs.append(n**3 * ell**2)
    _, rel = fit_through_origin(xs, ys)
    assert rel < 0.20


def test_lifted_argument_checks():
    with pytest.raises(ValueError):
        lifted_refutation(1, 2)
    with pytest.raises(ValueError):
        lifted_refutation(3, 0)


# ---------------------------------------------------------------------------
# polynomial upper bound


def test_pcr_upper_bound_small_cases():
    for n, ell in ((3, 1), (4, 1), (3, 2)):
        pc = pcr_upper_bound(n, ell)
        rep = check_pc(pc)
        assert rep.valid and rep.is_refutation, (n, ell, rep.message)
        assert pc.basis == BOOLEAN


def test_pcr_upper_bound_size_grows_polynomially():
    sizes = []
    for n in (4, 6, 8):
        rep = check_pc(pcr_upper_bound(n, 1))
        assert rep.valid
        sizes.append(rep.size)
    slope, _ = loglog_fit([4, 6, 8], sizes)
    assert 2.0 < slope < 4.5


# ---------------------------------------------------------------------------
# parity cycle


def test_tseitin_refutation_small_and_binomial():
    pf = tseitin_fourier_refutation(3)
    rep = check_pc(pf)
    assert rep.valid and rep.is_refutation
    assert rep.num_lines <= 10
    for q in proof_lines(pf):
        assert q.monomial_count <= 2
        assert q.degree <= 2


def test_tseitin_refutation_range():
    for n in range(3, 13):
        rep = check_pc(tseitin_fourier_refutation(n))
        assert rep.valid and rep.is_refutation, n
        assert rep.num_lines == 4 * n - 5


def test_tseitin_rejects_tiny_n():
    with pytest.raises(ValueError):
        tseitin_fourier_refutation(2)


@pytest.mark.parametrize("build, args, message", [
    (lifted_refutation, (1, 1), "need n >= 2, got 1"),
    (lifted_refutation, (3, 0), "need ell >= 1, got 0"),
    (lifted_refutation, (1, 0), "need n >= 2, got 1"),
    (lop_resolution_refutation, (1,), "need n >= 2, got 1"),
    (bop_to_lop_derivation, (1,), "need n >= 2, got 1"),
    (tseitin_fourier_refutation, (2,), "need n >= 3, got 2"),
])
def test_bad_arguments_keep_their_messages(build, args, message):
    with pytest.raises(ValueError) as err:
        build(*args)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# fits


def test_loglog_fit_recovers_power_law():
    xs = [2, 4, 8, 16]
    ys = [3 * x**2.5 for x in xs]
    slope, intercept = loglog_fit(xs, ys)
    assert abs(slope - 2.5) < 1e-9
    assert abs(intercept - math.log(3)) < 1e-9


def test_fit_through_origin_exact_line():
    c, rel = fit_through_origin([1, 2, 4], [3, 6, 12])
    assert abs(c - 3) < 1e-12
    assert rel < 1e-12


def test_fit_argument_checks():
    with pytest.raises(ValueError):
        loglog_fit([1], [2])
    with pytest.raises(ValueError):
        fit_through_origin([], [])
