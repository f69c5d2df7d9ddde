"""Pins of the formula layer: constructor messages and file bytes.

The messages a `CNF`, an `AxiomSystem` or a DIMACS reader raises on a bad
input, and the sha256 of the DIMACS and axiom files the families write,
are fixed here so that a faster validation, translation or reader must
keep them.  `tests/test_golden.py` pins the files the CLI writes; the
digests below cover the families it does not (the fourier axioms of
``gen_bop_lifted(3, 2)`` are its ``bop-lifted.txt``).
"""

import hashlib
import re

import pytest

from pclab.algebra import BOOLEAN, DEFAULT_FIELD, FOURIER, Poly, edge
from pclab.formulas import (
    CNF,
    AxiomSystem,
    cnf_to_axioms,
    gen_bop,
    gen_bop_lifted,
    gen_lop,
    read_axioms,
    read_dimacs,
    write_axioms,
    write_dimacs,
)

F = DEFAULT_FIELD
A, B = edge(1, 2), edge(2, 1)


def _var(v, basis=BOOLEAN):
    return Poly.variable(F, basis, v)


@pytest.mark.parametrize("make, message", [
    (lambda: CNF((frozenset({A, A.twin}),), (A,)), "clause holds both polarities of x(1,2)"),
    # both faults in one clause: the polarity check comes first
    (lambda: CNF((frozenset({A, A.twin, B}),), (A,)), "clause holds both polarities of x(1,2)"),
    (lambda: CNF((frozenset({B}),), (A,)), "clause variable x(2,1) outside universe"),
    (lambda: CNF((frozenset({B.twin}),), (A,)), "clause variable ~x(2,1) outside universe"),
    # the first failing clause names the fault
    (lambda: CNF((frozenset({A}), frozenset({B}), frozenset({B, B.twin})), (A,)),
     "clause variable x(2,1) outside universe"),
    (lambda: AxiomSystem(F, BOOLEAN, (_var(B),), (A,)), "axiom variable x(2,1) outside universe"),
    (lambda: AxiomSystem(F, BOOLEAN, (_var(B.twin),), (A,)), "axiom variable ~x(2,1) outside universe"),
    # the first failing axiom names the fault, before a later basis mismatch
    (lambda: AxiomSystem(F, BOOLEAN, (_var(A), _var(B), _var(A, FOURIER)), (A,)),
     "axiom variable x(2,1) outside universe"),
    (lambda: AxiomSystem(F, BOOLEAN, (_var(A, FOURIER), _var(B)), (A,)),
     "axiom basis differs from system basis"),
])
def test_constructor_messages(make, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        make()


def test_dimacs_literal_without_a_name(tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 1 1\n-99 0\n")
    (tmp_path / "f.cnf.names").write_text("var 1 = x(1,2)\n")
    with pytest.raises(ValueError) as e:
        read_dimacs(path)
    assert str(e.value) == f"{path}: variable 99 has no entry in {path}.names (line 2)"


FAMILIES = {
    "lop4": lambda: gen_lop(4),
    "bop5": lambda: gen_bop(5),
    "lifted3_2": lambda: gen_bop_lifted(3, 2),
    "lifted4_3": lambda: gen_bop_lifted(4, 3),
    "diagonal3_2": lambda: gen_bop_lifted(3, 2, diagonal=True),
}

DIGESTS = {
    "lop4.cnf": "ed6c53bdf0b0562685d972e02431352f3a83c35cfab52d080c7e077129dfc8a4",
    "lop4.cnf.names": "81baad98b7b015e018ef28a76dee86aab72dfe4583d9b2338ef7a0772b6de734",
    "lop4.boolean.txt": "72583d025048e5db490751f0696f5f9f31e0ff8f22cc53c23dc7468cfc04b9d8",
    "lop4.fourier.txt": "b85765233bc32544e8854a7c9ea2b7bce92008e383cd2a13a9009d9a9d29024c",
    "bop5.cnf": "bf531480920af0648bee51c9cd262675fcb59bfea859304974af2a9ccc312ab5",
    "bop5.cnf.names": "aaa79a0f3372a5d3857603a98e6351cf5a9d20bdea804df1235aecfc9efbfcc1",
    "bop5.boolean.txt": "19b8842bae85f59a3fe75c2da828ecee7c0c0dc8152ce3c1bae25f25598023b5",
    "bop5.fourier.txt": "641e8ced7c5bfe9f0702ae86af4f6d6d07ad0e3334486b7095dfb3ec98132bd4",
    "lifted3_2.cnf": "3b7468f7a2227e3abb2467aaee809f4103dfce0c5388fb0f21e915d1ddaab77e",
    "lifted3_2.cnf.names": "087a41c6e5f08358e26b1109ebc6a1e81dc082464e7a2cef310e0c3511561519",
    "lifted3_2.boolean.txt": "9c92767cc2380cd3f96670913b5177f6b2887652d38286d9b1c60c04c6940d29",
    "lifted4_3.cnf": "9c4166163831d6ec9aa4e9a24a995f65eb2ccec332095817f244b919d7ac9bff",
    "lifted4_3.cnf.names": "1494ecbd1dcceffedd35452213cfc55d424d79d1bdb91d12cd7f193061161e1b",
    "lifted4_3.boolean.txt": "3b2d4fdb14a4610e5c1d752e395a6264407b2cfe3c3dc57666593ea52824a175",
    "lifted4_3.fourier.txt": "5d764abb3ee3bea450daae10d5066d0bc028cc1f31f2c37276531bb3959b0d2e",
    "diagonal3_2.cnf": "55705df2ab2131726a31dfff85eb43774bf32c1ea426dbef97af90c2ecee305a",
    "diagonal3_2.cnf.names": "087a41c6e5f08358e26b1109ebc6a1e81dc082464e7a2cef310e0c3511561519",
    "diagonal3_2.boolean.txt": "7d306cbd21b53df7a40c02e8389540b9a34d1d7f27ad987701f1449c0f62ab7b",
    "diagonal3_2.fourier.txt": "afdd0cd91bcebbea4d517a853eb1f786921d7842faf19a5642ad236962dc69bb",
}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_dimacs_bytes(tmp_path, family):
    path = tmp_path / f"{family}.cnf"
    write_dimacs(FAMILIES[family](), path)
    assert (_sha(path), _sha(tmp_path / f"{family}.cnf.names")) == (
        DIGESTS[f"{family}.cnf"], DIGESTS[f"{family}.cnf.names"])
    # what the reader gives back writes the same bytes
    again = tmp_path / "again.cnf"
    write_dimacs(read_dimacs(path), again)
    assert (_sha(again), _sha(tmp_path / "again.cnf.names")) == (
        DIGESTS[f"{family}.cnf"], DIGESTS[f"{family}.cnf.names"])


@pytest.mark.parametrize("family, basis", [
    (f, b) for f in sorted(FAMILIES) for b in (BOOLEAN, FOURIER) if f"{f}.{b}.txt" in DIGESTS
])
def test_axiom_bytes(tmp_path, family, basis):
    path = tmp_path / "ax.txt"
    write_axioms(cnf_to_axioms(FAMILIES[family](), basis), path)
    assert _sha(path) == DIGESTS[f"{family}.{basis}.txt"]
    again = tmp_path / "again.txt"
    write_axioms(read_axioms(path), again)
    assert _sha(again) == DIGESTS[f"{family}.{basis}.txt"]
