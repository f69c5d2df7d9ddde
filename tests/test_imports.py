"""numpy stays off the proof path: ``import pclab`` loads only the
standard library, and the commands that generate, refute, check and
transform proofs run without numpy.  Only the lemma checks, the
exhaustive cube evaluation and the experiment fits load it.  Nor does
``import pclab.cli`` load the process pool, which only ``experiment
--jobs`` uses.

Each check runs in a fresh interpreter, since the test process has
numpy loaded already."""

import json
import os
import subprocess
import sys

from pclab.algebra import plain
from pclab.formulas import AxiomSystem, gen_cycle_tseitin, write_axioms
from pclab.proofs import PCProof, write_pcproof

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = """
import json, sys
before = set(sys.modules)
import pclab
foreign = sorted(m for m in set(sys.modules) - before
                 if m.split(".")[0] not in sys.stdlib_module_names and m.split(".")[0] != "pclab")
from pclab.cli import main
pool = sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing"))
runs = []
for argv in json.loads(sys.argv[1]):
    runs.append((argv, main(argv), "numpy" in sys.modules))
print(json.dumps({"foreign": foreign, "pool": pool, "runs": runs}))
"""


def run_fresh(argvs, cwd):
    """Import pclab in a new interpreter, then run ``pclab.cli.main`` on
    each argument list in turn: the modules outside the standard library
    that the import added, the process pool modules loaded once
    ``pclab.cli`` is, and per run its exit code and whether numpy was
    loaded by then."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argvs)], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def spare_proof(d):
    """A {+1,-1} derivation that multiplies by a variable no axiom holds,
    so ``transform split`` can eliminate it."""
    ax = gen_cycle_tseitin(4)
    s = plain("s")
    ax = AxiomSystem(ax.field, ax.basis, ax.polys, ax.universe + (s,), dict(ax.groups), n=ax.n, ell=ax.ell)
    write_axioms(ax, os.path.join(d, "ax.txt"))
    write_pcproof(PCProof(ax, (("ax", 0), ("mul", s, 0), ("mul", s, 1))), os.path.join(d, "spare.pc"), "ax.txt")
    return "spare.pc"


def test_proof_commands_never_load_numpy(tmp_path):
    spare = spare_proof(tmp_path)
    argvs = [
        ["gen", "lop", "--n", "4", "--out", "lop.cnf"],
        ["gen", "bop-lifted", "--n", "3", "--ell", "2", "--axioms", "--out", "lifted.txt"],
        ["gen", "tseitin-cycle", "--n", "5", "--out", "tseitin.txt"],
        ["refute", "lifted", "--n", "3", "--ell", "1", "--out", "lifted"],
        ["refute", "pcr-upper", "--n", "3", "--ell", "1", "--out", "pcr"],
        ["refute", "tseitin", "--n", "6", "--out", "tseitin"],
        ["check", "lifted/proof.res"],
        ["check", "pcr/proof.pc", "--refutation"],
        ["transform", "split", "--proof", spare, "--var", "s", "--out", "split"],
        ["transform", "qdeg2deg", "--proof", "tseitin/proof.pc", "--out", "qdeg"],
        ["transform", "res2pcr", "--proof", "lifted/proof.res", "--out", "res2pcr"],
        ["check", "res2pcr/proof.pc", "--refutation"],
    ]
    got = run_fresh(argvs, tmp_path)
    assert got["foreign"] == []
    assert got["runs"] == [[argv, 0, False] for argv in argvs]


def test_lemma_checks_load_numpy_past_their_early_refusal(tmp_path):
    argvs = [
        ["verify-lemmas", "--which", "operator", "--n", "40"],  # refused before any span is built
        ["verify-lemmas", "--n", "3", "--ell", "1"],
    ]
    got = run_fresh(argvs, tmp_path)
    assert got["runs"] == [[argvs[0], 3, False], [argvs[1], 0, True]]


def test_cli_import_loads_no_process_pool(tmp_path):
    assert run_fresh([], tmp_path) == {"foreign": [], "pool": [], "runs": []}
