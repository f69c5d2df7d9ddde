"""The three benchmark workloads, built from a seed.

Each workload is a list of operations.  An operation calls, in order,
the public pclab functions one CLI subcommand calls, and returns two
dicts: ``verdicts`` (booleans that must all be true) and ``counts``
(numbers that must equal the recorded reference in ``reference.json``).
One pass runs every operation once; the harness in ``child.py`` repeats
passes for the measured time.

Every pclab function is looked up on the package at call time
(``P.check_pc``), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import pclab as P

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Sizes of one pass.  "quick" runs every workload at tiny sizes for the
# benchmark's own tests; "full" is what a normal run measures.
SIZES = {
    "full": {
        "name": "full",
        "bool": (12, 2),
        "parity": 150,
        "bop": 8,
        "tseitin": 3000,
        "lemmas": {"max_degree": 12, "pairs": 200, "samples": 500},
        "xcheck": (2, 3),
    },
    "quick": {
        "name": "quick",
        "bool": (4, 2),
        "parity": 12,
        "bop": 2,
        "tseitin": 60,
        "lemmas": {"max_degree": 4, "pairs": 40, "samples": 80},
        "xcheck": (2, 1),
    },
}

# The corpora are drawn from fixed pools whose per-derivation reference
# values are recorded; the seed picks which pool members a run uses.
PARITY_POOL = 1000
PARITY_STEPS = 40
BOP_POOL = 60
BOP_STEPS = 30
BOP_PARAMS = (3, 2)
HEAVY_THRESHOLD = 2
XCHECK_TERMS = 32
PROBE_LINES = 256


@dataclass
class Op:
    """One checked operation: ``fn`` returns (verdicts, counts)."""

    name: str
    kind: str
    fn: Callable[[], Tuple[Dict[str, bool], Dict[str, object]]]
    expected: Dict[str, object]


@dataclass
class Workload:
    ops: List[Op]
    # Builds (lines, variables) of the workload's own basis for the
    # algebra probes; only the traced run calls it, after its passes.
    probe_sample: Callable[[], Tuple[List[P.Poly], List[P.Var]]]


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def pc_counts(report) -> Dict[str, int]:
    return {"lines": report.num_lines, "size": report.size, "degree": report.degree}


# ---------------------------------------------------------------------------
# bool-refute: refute lifted -> transform res2pcr -> check


def bool_refute_ops(n: int, ell: int, workdir: str, expected: dict) -> List[Op]:
    res_dir = os.path.join(workdir, "lifted")
    pc_dir = os.path.join(workdir, "res2pcr")
    os.makedirs(res_dir, exist_ok=True)
    os.makedirs(pc_dir, exist_ok=True)
    shared: Dict[str, object] = {}

    def refute_lifted():
        rproof = P.lifted_refutation(n, ell)
        P.write_dimacs(rproof.cnf, os.path.join(res_dir, "formula.cnf"))
        P.write_resproof(rproof, os.path.join(res_dir, "proof.res"), "formula.cnf")
        back = P.read_resproof(os.path.join(res_dir, "proof.res"))
        report = P.check_resolution(back)
        shared["rproof"] = back
        return (
            {"valid": report.valid, "refutation": report.is_refutation},
            {"lines": report.num_lines, "width": report.max_width},
        )

    def res2pcr_check():
        proof = P.res_to_pcr(shared.pop("rproof"))
        pc_path = os.path.join(pc_dir, "proof.pc")
        P.write_axioms(proof.axioms, os.path.join(pc_dir, "axioms.txt"))
        P.write_pcproof(proof, pc_path, "axioms.txt")
        report = P.check_pc(P.read_pcproof(pc_path))
        counts = pc_counts(report)
        counts["sha256"] = sha256_file(pc_path)
        return {"valid": report.valid, "refutation": report.is_refutation}, counts

    return [
        Op("refute-lifted", "refute", refute_lifted, expected["lifted"]),
        Op("res2pcr-check", "refute", res2pcr_check, expected["res2pcr"]),
    ]


def setup_bool_refute(seed: int, size: dict, workdir: str, ref: dict) -> Workload:
    n, ell = size["bool"]
    ops = bool_refute_ops(n, ell, workdir, ref["bool-refute"][size["name"]])

    def probe_sample():
        # The proof is fixed by (n, ell); the seed picks the probe lines
        # from a prefix of it, so the sample costs a fraction of a check.
        proof = P.pcr_upper_bound(n, ell)
        rng = random.Random(seed)
        cut = rng.randrange(len(proof.steps) // 8, len(proof.steps) // 4 + 1)
        lines = P.proof_lines(P.PCProof(proof.axioms, proof.steps[:cut]))
        lines = [q for q in lines if not q.is_zero]
        return [rng.choice(lines) for _ in range(PROBE_LINES)], list(proof.axioms.universe)

    return Workload(ops, probe_sample)


# ---------------------------------------------------------------------------
# fourier-transform: transform split / qdeg2deg / cluster and refute tseitin


def parity_axioms() -> P.AxiomSystem:
    """The 4-cycle parity system plus three spare variables w1..w3."""
    base = P.gen_cycle_tseitin(4)
    spares = tuple(P.plain(f"w{i}") for i in (1, 2, 3))
    return P.AxiomSystem(base.field, base.basis, base.polys, base.universe + spares, dict(base.groups))


def free_spare(proof: P.PCProof):
    """First spare with no twin-axiom step, which ``split`` requires."""
    blocked = {s[1].base for s in proof.steps if s[0] == "tw"}
    return next((v for v in (P.plain(f"w{i}") for i in (1, 2, 3)) if v not in blocked), None)


def parity_op(pool_seed: int, proof: P.PCProof, w: P.Var, expected: dict) -> Op:
    def run():
        out = P.split(proof, w)
        split_report = P.check_pc(out)
        contained = P.quadratic_containment_check(proof, out, w)
        qdeg = P.quadratic_degree(proof)
        rebalanced = P.check_pc(P.qdeg_to_deg(proof))
        return (
            {"split_valid": split_report.valid, "contained": contained,
             "rebalanced_valid": rebalanced.valid},
            {"qdeg": qdeg, "split": pc_counts(split_report), "rebalanced": pc_counts(rebalanced)},
        )

    return Op(f"parity-{pool_seed}", "parity", run, expected)


def bop_op(pool_seed: int, proof: P.PCProof, expected: dict) -> Op:
    n, ell = BOP_PARAMS

    def run():
        heavy, round_report = P.heavy_split_round(proof, HEAVY_THRESHOLD)
        heavy_report = P.check_pc(heavy)
        clustered = P.check_pc(P.cluster_proof(proof, P.random_pairing(n, ell, pool_seed)))
        return (
            {"heavy_valid": heavy_report.valid, "clustered_valid": clustered.valid},
            {"heavy": pc_counts(heavy_report), "heavy_before": round_report.before,
             "heavy_after": round_report.after, "clustered": pc_counts(clustered)},
        )

    return Op(f"bop-{pool_seed}", "bop", run, expected)


def tseitin_op(n: int, workdir: str, expected: dict) -> Op:
    out_dir = os.path.join(workdir, "tseitin")
    os.makedirs(out_dir, exist_ok=True)

    def run():
        proof = P.tseitin_fourier_refutation(n)
        qdeg = P.quadratic_degree(proof)
        rebalanced = P.qdeg_to_deg(proof)
        pc_path = os.path.join(out_dir, "proof.pc")
        P.write_axioms(rebalanced.axioms, os.path.join(out_dir, "axioms.txt"))
        P.write_pcproof(rebalanced, pc_path, "axioms.txt")
        report = P.check_pc(P.read_pcproof(pc_path))
        counts = pc_counts(report)
        counts.update(qdeg=qdeg, sha256=sha256_file(pc_path))
        return {"valid": report.valid, "refutation": report.is_refutation}, counts

    return Op(f"tseitin-{n}", "tseitin", run, expected)


def setup_fourier_transform(seed: int, size: dict, workdir: str, ref: dict) -> Workload:
    rng = random.Random(seed)
    parity_ref = ref["parity"]
    bop_ref = ref["bop"]
    parity_seeds = rng.sample(sorted(parity_ref, key=int), size["parity"])
    bop_seeds = rng.sample(sorted(bop_ref, key=int), size["bop"])

    pax = parity_axioms()
    bax = P.cnf_to_axioms(P.gen_bop_lifted(*BOP_PARAMS), P.FOURIER)
    ops: List[Op] = []
    derivations = []
    for s in parity_seeds:
        proof = P.random_derivation(pax, PARITY_STEPS, seed=int(s))
        derivations.append(proof)
        ops.append(parity_op(int(s), proof, free_spare(proof), parity_ref[s]))
    for s in bop_seeds:
        proof = P.random_derivation(bax, BOP_STEPS, seed=int(s))
        derivations.append(proof)
        ops.append(bop_op(int(s), proof, bop_ref[s]))
    ops.append(tseitin_op(size["tseitin"], workdir, ref["tseitin"][size["name"]]))

    def probe_sample():
        lines = [q for d in derivations for q in P.proof_lines(d) if not q.is_zero]
        return [rng.choice(lines) for _ in range(PROBE_LINES)], list(bax.universe)

    return Workload(ops, probe_sample)


# ---------------------------------------------------------------------------
# residue-sweep: verify-lemmas on a cold oracle, then a span cross-check


def lemma_ops(ctx: P.AxiomSystem, seed: int, lemmas: dict, expected: dict) -> List[Op]:
    """Every lemma runner over one fresh oracle; each report is one
    operation, whose verdict is ``LemmaReport.ok``."""
    n, ell = ctx.n, ctx.ell
    deg = lemmas["max_degree"]
    state: Dict[str, object] = {}
    runners = [
        ("properties", lambda o: P.verify_residue_properties(n, ell, pairs=lemmas["pairs"], seed=seed, oracle=o)),
        ("operator", lambda o: (P.verify_residue_operator(n, ell, oracle=o),)),
        ("extension", lambda o: (P.verify_touch_extension(n, ell, max_degree=deg, oracle=o),)),
        ("superset", lambda o: (P.verify_touch_superset(n, ell, max_degree=deg, oracle=o),)),
        ("support", lambda o: (P.verify_residue_support(n, ell, max_degree=deg, oracle=o),)),
        ("product", lambda o: (P.verify_residue_product(n, ell, samples=lemmas["samples"], seed=seed, oracle=o),)),
    ]

    def make(label, runner, first):
        def run():
            if first:
                state["oracle"] = P.ResidueOracle(ctx)
            reports = runner(state["oracle"])
            return (
                {rep.name: rep.ok for rep in reports},
                {rep.name: rep.cases for rep in reports},
            )

        return Op(f"lemma-{label}", "lemma", run, expected[label])

    return [make(label, runner, i == 0) for i, (label, runner) in enumerate(runners)]


def touch_keys(ctx: P.AxiomSystem):
    return [key for k in range(ctx.n + 1) for key in itertools.combinations(range(1, ctx.n + 1), k)]


def xcheck_op(ctx: P.AxiomSystem, key: Tuple[int, ...], terms: List[tuple], expected: dict) -> Op:
    """Both span engines on one touch key: same standard monomials and
    the same remainder for every sampled term."""
    idxs = list(ctx.groups["T"])
    for j in key:
        idxs.extend(ctx.groups[f"BV({j})"])
    polys = [ctx.polys[i] for i in idxs]

    def run():
        points = P.span_basis(polys, universe=ctx.universe, method="points")
        closure = P.span_basis(polys, universe=ctx.universe, method="closure")
        agree = points.std_monomials == closure.std_monomials
        for t in terms:
            q = P.Poly.from_term(ctx.field, ctx.basis, t)
            agree = agree and points.reduce(q) == closure.reduce(q)
        return {"engines_agree": agree}, {"std_monomials": len(points.std_monomials)}

    return Op(f"xcheck-{key}", "xcheck", run, expected)


def setup_residue_sweep(seed: int, size: dict, workdir: str, ref: dict) -> Workload:
    ctx = P.bop_context(3, 1)
    xctx = P.bop_context(*size["xcheck"])
    lemmas = size["lemmas"]
    expected = ref["residue-sweep"][size["name"]]
    ops = lemma_ops(ctx, seed, lemmas, expected["lemmas"])
    rng = random.Random(seed)
    terms = [P.make_term(rng.sample(list(xctx.universe), rng.randint(0, len(xctx.universe))))
             for _ in range(XCHECK_TERMS)]
    for key in touch_keys(xctx):
        ops.append(xcheck_op(xctx, key, terms, expected["xcheck"][str(list(key))]))

    def probe_sample():
        lines = list(ctx.polys) + list(xctx.polys)
        return [rng.choice(lines) for _ in range(PROBE_LINES)], list(ctx.universe)

    return Workload(ops, probe_sample)


SETUP = {
    "bool-refute": setup_bool_refute,
    "fourier-transform": setup_fourier_transform,
    "residue-sweep": setup_residue_sweep,
}


def setup(name: str, seed: int, size_name: str, workdir: str, ref: dict) -> Workload:
    return SETUP[name](seed, SIZES[size_name], workdir, ref)


def run_op(op: Op) -> List[str]:
    """Run one operation; return why it failed (empty when it passed).
    An exception counts as a failure of this operation only."""
    try:
        verdicts, counts = op.fn()
    except Exception as e:  # the benchmark keeps measuring the other operations
        return [f"{op.name}: raised {type(e).__name__}: {e}"]
    problems = [f"{op.name}: verdict {k} is false" for k, ok in verdicts.items() if not ok]
    if counts != op.expected:
        problems.append(f"{op.name}: counts {counts} differ from reference {op.expected}")
    return problems
