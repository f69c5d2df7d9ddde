"""Golden bytes: the sha256 of small CLI artifacts.

Criterion 11 only compares two reruns of the same code with each other.
These digests pin the bytes themselves, so a change to the canonical
variable order, to term order or to any file format fails here.  If a
format change is intended, regenerate the digests and say so.
"""

import hashlib

import pytest

from pclab.algebra import FOURIER, plain
from pclab.cli import main
from pclab.formulas import AxiomSystem, cnf_to_axioms, gen_bop_lifted, gen_cycle_tseitin, write_axioms
from pclab.proofs import PCProof, random_derivation, write_pcproof
from pclab.transforms import build_jcta, write_restriction

GOLDEN = {
    "pcr-upper/axioms.txt": "fc6247c675b900c4a0ba998cadceb0b70258940505cdfaf56aa49789ca5f2511",
    "pcr-upper/proof.pc": "5839ba429696c7090b1fd5b3f6b9fa16987d75f2e1d82a4b846db5b0b680ff24",
    "pcr-upper/manifest.json": "fcc631a201ff8d3c1928bb9cc5a793388ef548ce02a53da92eb6624092bcf3a1",
    "lop/formula.cnf": "3b4f8645ac103a3a486a67f533ccc95c7ab540807a368a35c2b3720caaca836a",
    "lop/formula.cnf.names": "3464701ed281ff01680dc5ab5d58594a47d1fe41521ce435f4be1c5dfc7a456c",
    "lop/proof.res": "bcfbba54a0785a688773087f1555db87dacb3dad4eff24a41a1732f7008738d8",
    "lop/manifest.json": "33767d9dc47d0bccbf1ee2c80a106f5ffd5d0242740bd64b502ac323d32e862c",
    "tseitin/axioms.txt": "9b1a40c9632cc93ca133cf3d88d61fbcda4ccf9903dc668f7aa498121e946e59",
    "tseitin/proof.pc": "8f387e7e6d183942a7123e6a15683c33e66c48802f2dc673295ca482e07914b1",
    "tseitin/manifest.json": "6bffac47f691e3caf3dd110b639ba93d6ae358317e2d2a216d125938b233da8e",
    "bop-lifted.txt": "37f14ce9c5a6aab210cb88a383f7d51f189e8b84238b80d4f1cdea8a03623adc",
    "derivation/p.pc": "cf4270dfd1cc30d131541e46821df4b0382afae9ee70b2256583a36db7a8b9eb",
    "cluster/cluster.map": "f269a4c3edc7ede965b78b04c933b26c7a328f88e15c416f70c1409d0fb44011",
    "cluster/axioms.txt": "b31097b35e29a9853fda04c63ea8b33589b20732b1304761df54bbaa2b1ca3af",
    "cluster/proof.pc": "70aabbe1f7d1e3ae1a64ac6232f232af8ea62539d9a1d1134cb8b0a72e585e94",
    "qdeg2deg/axioms.txt": "9b1a40c9632cc93ca133cf3d88d61fbcda4ccf9903dc668f7aa498121e946e59",
    "qdeg2deg/proof.pc": "0dedfcb9b808c58af13a9c6e0f429005805140962f6ea8aad701a15fed2822a5",
    "restriction.txt": "dff636ad6f7158f4137616c216b00f2a6d85869c35c048df6dc5634037b1bc16",
    "spare/p.pc": "9a949cd08fec5b231a61bbb99104ecfbaec86e0e49dbed6ed32c894685b4799e",
    "split/axioms.txt": "6cc3f74fe07a19d4d827076b4d76127e51d603ccd590cb1edd1203237033cf30",
    "split/proof.pc": "b2173d23e30894de62b4cd8cac4a6ddbd3e0cbdd91a49bc60aa56250a987126c",
    "jcta4.txt": "cc865c65950df77b0561ddd5c2567c2b6c2620237af2ee6d46d2a1f16a466fba",
    "restrict/axioms.txt": "78ab2ab881c1e81a05c61a6ba14ca062035a85ff41a309ba3625470222d0609a",
    "restrict/proof.pc": "4b089eac48a3596b6543e2db3ee4706490a0efec13a0ff4682e9e07059160782",
    "res2pcr/axioms.txt": "154512753eecf632cd5280d7c1d18416607654a1c5100a3d4aeb75b78ae07f90",
    "res2pcr/proof.pc": "b91425c4790bb6802a6dc62ce893b1d906de70d2c17e2c18de25c3810397a5d6",
}


def run(*argv):
    assert main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    run("refute", "pcr-upper", "--n", 4, "--ell", 2, "--out", d / "pcr-upper")
    run("refute", "lop", "--n", 5, "--out", d / "lop")
    run("refute", "tseitin", "--n", 20, "--out", d / "tseitin")
    run("gen", "bop-lifted", "--n", 3, "--ell", 2, "--axioms", "--basis", "fourier",
        "--out", d / "bop-lifted.txt")
    ax = cnf_to_axioms(gen_bop_lifted(2, 2), FOURIER)
    (d / "derivation").mkdir()
    write_axioms(ax, d / "derivation" / "ax.txt")
    write_pcproof(random_derivation(ax, 30, seed=5), d / "derivation" / "p.pc", "ax.txt")
    run("transform", "cluster", "--proof", d / "derivation" / "p.pc", "--seed", 3,
        "--out", d / "cluster")
    run("transform", "qdeg2deg", "--proof", d / "tseitin" / "proof.pc", "--out", d / "qdeg2deg")
    write_restriction(build_jcta(3, 2, 1), d / "restriction.txt")
    # the 4-cycle parity system plus a spare w1, and a derivation whose last
    # line sums every earlier one, so that --prune-dead keeps most of it
    ax = gen_cycle_tseitin(4)
    ax = AxiomSystem(ax.field, ax.basis, ax.polys, ax.universe + (plain("w1"),),
                     dict(ax.groups), n=ax.n, ell=ax.ell)
    steps = list(random_derivation(ax, 40, seed=0).steps)
    last = 0
    for i in range(1, len(steps)):
        steps.append(("lin", 1, last, 1, i))
        last = len(steps) - 1
    (d / "spare").mkdir()
    write_axioms(ax, d / "spare" / "ax.txt")
    write_pcproof(PCProof(ax, tuple(steps)), d / "spare" / "p.pc", "ax.txt")
    run("transform", "split", "--proof", d / "spare" / "p.pc", "--var", "w1", "--prune-dead",
        "--out", d / "split")
    write_restriction(build_jcta(4, 2, 1), d / "jcta4.txt")
    run("transform", "restrict", "--proof", d / "pcr-upper" / "proof.pc",
        "--restriction", d / "jcta4.txt", "--out", d / "restrict")
    run("transform", "res2pcr", "--proof", d / "lop" / "proof.res", "--out", d / "res2pcr")
    return d


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_bytes(artifacts, name):
    assert hashlib.sha256((artifacts / name).read_bytes()).hexdigest() == GOLDEN[name]
