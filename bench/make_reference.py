"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 bench/make_reference.py

Runs every operation the workloads can draw, at both sizes, and writes
``bench/reference.json``.  Re-run it only when a change is meant to alter
pclab's outputs; the benchmark otherwise counts any difference from
these values as a failed operation.
"""

import json
import os
import sys
import tempfile

import workloads as W
import pclab as P


def record(op: W.Op):
    verdicts, counts = op.fn()
    bad = [k for k, ok in verdicts.items() if not ok]
    if bad:
        raise SystemExit(f"{op.name}: verdicts {bad} fail; refusing to record a reference")
    return counts


def parity_pool() -> dict:
    pax = W.parity_axioms()
    out = {}
    seed = 0
    while len(out) < W.PARITY_POOL:
        proof = P.random_derivation(pax, W.PARITY_STEPS, seed=seed)
        w = W.free_spare(proof)
        if w is not None:  # split needs a spare with no twin-axiom step
            out[str(seed)] = record(W.parity_op(seed, proof, w, {}))
        seed += 1
    return out


def bop_pool() -> dict:
    bax = P.cnf_to_axioms(P.gen_bop_lifted(*W.BOP_PARAMS), P.FOURIER)
    out = {}
    seed = 0
    while len(out) < W.BOP_POOL:
        proof = P.random_derivation(bax, W.BOP_STEPS, seed=seed)
        try:
            P.heavy_term_selection(proof, W.HEAVY_THRESHOLD)
        except ValueError:  # no heavy product, so no split round to run
            seed += 1
            continue
        out[str(seed)] = record(W.bop_op(seed, proof, {}))
        seed += 1
    return out


def main() -> None:
    ref = {"bool-refute": {}, "tseitin": {}, "residue-sweep": {}}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(W.HERE)) as tmp:
        for name, size in W.SIZES.items():
            n, ell = size["bool"]
            ops = W.bool_refute_ops(n, ell, tmp, {"lifted": {}, "res2pcr": {}})
            ref["bool-refute"][name] = {"lifted": record(ops[0]), "res2pcr": record(ops[1])}
            ref["tseitin"][name] = record(W.tseitin_op(size["tseitin"], tmp, {}))

            ctx = P.bop_context(3, 1)
            xctx = P.bop_context(*size["xcheck"])
            labels = ("properties", "operator", "extension", "superset", "support", "product")
            seen = []
            for seed in (0, 1):  # case counts must not depend on the seed
                ops = W.lemma_ops(ctx, seed, size["lemmas"], {k: {} for k in labels})
                seen.append({label: record(op) for label, op in zip(labels, ops)})
            if seen[0] != seen[1]:
                raise SystemExit("lemma case counts depend on the seed")
            xcheck = {}
            for key in W.touch_keys(xctx):
                xcheck[str(list(key))] = record(W.xcheck_op(xctx, key, [], {}))
            ref["residue-sweep"][name] = {"lemmas": seen[0], "xcheck": xcheck}
    ref["parity"] = parity_pool()
    ref["bop"] = bop_pool()
    with open(W.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {W.REFERENCE_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
