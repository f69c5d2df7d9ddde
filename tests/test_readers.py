"""The reader contract: every file format is read through one line
reader, and malformed text is refused as ``<path>: <reason> (line <k>)``
(exit 2), or ``<path>: <reason>`` for a fault of the whole file.

The fuzz cases mutate a few bytes of small valid files and require each
reader either to return or to raise a ValueError naming the file at
fault; an OSError may come only from a header naming a missing file.
Every ``pclab transform`` given mutated inputs exits 0 to 3, with no
exception escaping ``main``.
"""

import contextlib
import io
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from pclab.algebra import FOURIER, edge, plain, pointer
from pclab.cli import main
from pclab.constructions import lop_resolution_refutation
from pclab.formulas import (
    AxiomSystem,
    cnf_to_axioms,
    gen_bop_lifted,
    gen_lop,
    read_axioms,
    read_dimacs,
    write_axioms,
    write_dimacs,
)
from pclab.proofs import PCProof, random_derivation, read_pcproof, read_resproof, write_pcproof, write_resproof
from pclab.transforms import (
    Restriction,
    random_pairing,
    read_clustermap,
    read_restriction,
    write_clustermap,
    write_restriction,
)


def _cli(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def _refused(path, reason, line=None):
    where = "" if line is None else f" (line {line})"
    return re.compile("^error: " + re.escape(f"{path}: {reason}{where}") + "$")


@pytest.fixture()
def tseitin(tmp_path):
    _cli("refute", "tseitin", "--n", 4, "--out", tmp_path)
    return tmp_path


@pytest.fixture()
def lop(tmp_path):
    _cli("refute", "lop", "--n", 3, "--out", tmp_path)
    return tmp_path


def _edit(path, k, text):
    lines = path.read_text().splitlines()
    lines[k - 1] = text
    path.write_text("\n".join(lines) + "\n")


class TestRefusals:
    def test_malformed_step_names_file_and_line(self, tseitin):
        proof = tseitin / "proof.pc"
        _edit(proof, 3, "L2 FOO x1")
        code, err = _cli("check", proof)
        assert code == 2
        assert _refused(proof, "malformed step 'FOO x1'", 3).match(err)

    def test_header_token_without_value(self, tseitin):
        proof = tseitin / "proof.pc"
        _edit(proof, 1, proof.read_text().splitlines()[0] + " junk")
        code, err = _cli("check", proof)
        assert code == 2
        assert _refused(proof, "expected key=value, got 'junk'", 1).match(err)

    def test_unknown_header_key(self, tseitin):
        proof = tseitin / "proof.pc"
        _edit(proof, 1, proof.read_text().splitlines()[0] + " seed=3")
        code, err = _cli("check", proof)
        assert code == 2
        assert _refused(proof, "unknown key 'seed'", 1).match(err)

    def test_nested_axiom_file_keeps_its_own_name(self, tseitin):
        axioms = tseitin / "axioms.txt"
        lines = axioms.read_text().splitlines()
        axioms.write_text("\n".join(lines[:1] + ["params n=3 ell"] + lines[1:]) + "\n")
        code, err = _cli("check", tseitin / "proof.pc")
        assert code == 2
        # the proof header names the axiom file relative to the proof
        assert _refused(axioms, "expected key=value, got 'ell'", 2).match(err)

    def test_dimacs_clause_without_terminator(self, lop):
        cnf = lop / "formula.cnf"
        k = next(k for k, ln in enumerate(cnf.read_text().splitlines(), 1) if ln[0] not in "cp")
        _edit(cnf, k, "1 2")
        code, err = _cli("check", lop / "proof.res", "--formula", cnf)
        assert code == 2
        assert _refused(cnf, "clause line missing terminator: '1 2'", k).match(err)

    def test_whole_file_fault_names_no_line(self, lop):
        cnf = lop / "formula.cnf"
        cnf.write_text(cnf.read_text().replace("p cnf 6 12", "p cnf 6 13"))
        code, err = _cli("check", lop / "proof.res", "--formula", cnf)
        assert code == 2
        assert _refused(cnf, "no 'p cnf' line matches the 6 names and 12 clauses").match(err)

    @pytest.mark.parametrize("names, reason, line", [
        # a 0 ends a clause line, so it can name no variable: "1 0 0" would read as {x1, x2}
        ("var 0 = x1\nvar 1 = x2\n", "variable index 0 is not positive", 1),
        ("var 1 = x1\nvar 1 = x2\n", "variable index 1 is named twice", 2),
        ("var 1 = x1\nvar 2 = x1\n", "x1 is named by indices 1 and 2", 2),
    ])
    def test_dimacs_names_sidecar_faults(self, tmp_path, names, reason, line):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 1\n1 0 0\n")
        (tmp_path / "f.cnf.names").write_text(names)
        (tmp_path / "r.res").write_text("resproof v1 cnf=f.cnf\nL1 IN 1\n")
        code, err = _cli("check", tmp_path / "r.res")
        assert code == 2
        assert _refused(f"{cnf}.names", reason, line).match(err)

    @pytest.mark.parametrize("names, reason", [
        ("var 1 = x1\nvar 2 = ~x2\n", "universe lists ~x2 as a twin"),
        ("var 1 = ~x1\nvar 2 = x2\n", "universe lists ~x1 as a twin"),
    ])
    def test_dimacs_names_of_a_twin(self, tmp_path, names, reason):
        # each index names a base; a twin would swap the polarity of its literals
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 1\n1 -2 0\n")
        (tmp_path / "f.cnf.names").write_text(names)
        (tmp_path / "r.res").write_text("resproof v1 cnf=f.cnf\nL1 IN 1\n")
        code, err = _cli("check", tmp_path / "r.res")
        assert code == 2
        assert _refused(cnf, reason).match(err)

    def test_blank_lines_count_toward_the_line_number(self, tmp_path):
        path = tmp_path / "rho.txt"
        path.write_text("# a comment\nrestriction v1\n\nset x(1,2) = maybe\n")
        with pytest.raises(ValueError) as e:
            read_restriction(path)
        assert str(e.value) == f"{path}: bad restriction line: 'set x(1,2) = maybe' (line 4)"

    def test_restriction_conflict_is_refused_by_restriction(self, tmp_path):
        path = tmp_path / "rho.txt"
        path.write_text("restriction v1\nset x(1,2) = true\nset ~x(1,2) = true\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: inconsistent assignment for x(1,2)")):
            read_restriction(path)
        path.write_text("restriction v1\nset x(1,2) = true\nset ~x(1,2) = false\n")
        assert read_restriction(path) == Restriction({edge(1, 2): True})

    def test_cluster_map_with_huge_n_is_refused_at_once(self, tmp_path):
        # the pairs are counted against n*(n-1), never listed
        path = tmp_path / "c.map"
        path.write_text("clustermap v1 n=1000000000 ell=2\npair 1 2 1 2 -> 1\n")
        with pytest.raises(ValueError, match="pairing must cover every ordered vertex pair"):
            read_clustermap(path)

    @pytest.mark.parametrize("reader, what", [
        (read_axioms, "axiom"), (read_pcproof, "proof"), (read_resproof, "proof"),
        (read_restriction, "restriction"), (read_clustermap, "cluster map"),
    ])
    def test_empty_file(self, tmp_path, reader, what):
        path = tmp_path / "empty"
        path.write_text("\n  \n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: empty {what} file") + "$"):
            reader(path)


# ---------------------------------------------------------------------------
# byte-mutation fuzzing


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    ax = cnf_to_axioms(gen_lop(3), FOURIER)
    write_axioms(ax, d / "ax.txt")
    write_pcproof(random_derivation(ax, 8, seed=1), d / "p.pc", "ax.txt")
    rproof = lop_resolution_refutation(3)
    write_dimacs(rproof.cnf, d / "f.cnf")
    write_resproof(rproof, d / "r.res", "f.cnf")
    write_restriction(Restriction({edge(1, 2, 1): True, pointer(2, 1): False}), d / "rho.txt")
    write_clustermap(random_pairing(2, 2, seed=0), d / "c.map")
    # a lifted system with a spare variable s, which no axiom holds, for split
    lifted = cnf_to_axioms(gen_bop_lifted(2, 2), FOURIER)
    lifted = AxiomSystem(lifted.field, lifted.basis, lifted.polys, lifted.universe + (plain("s"),),
                         dict(lifted.groups), n=2, ell=2)
    steps = random_derivation(lifted, 8, seed=2).steps
    write_axioms(lifted, d / "lift.txt")
    write_pcproof(PCProof(lifted, steps + (("mul", plain("s"), len(steps) - 1),)), d / "q.pc", "lift.txt")
    return d


# reader, the file it is given, and the files it reads
READERS = {
    "axioms": (read_axioms, "ax.txt", ("ax.txt",)),
    "dimacs": (read_dimacs, "f.cnf", ("f.cnf", "f.cnf.names")),
    "pcproof": (read_pcproof, "p.pc", ("p.pc", "ax.txt")),
    "resproof": (read_resproof, "r.res", ("r.res", "f.cnf", "f.cnf.names")),
    "restriction": (read_restriction, "rho.txt", ("rho.txt",)),
    "clustermap": (read_clustermap, "c.map", ("c.map",)),
}

_byte = st.one_of(st.sampled_from(list(b" \n=~()-,:;*#019LAXINRESMUxyz")), st.integers(0, 255))
_edits = st.lists(st.tuples(st.sampled_from("idr"), st.integers(0, 10**6), _byte), min_size=1, max_size=3)


def _mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for op, pos, byte in edits:
        pos %= len(buf) + 1
        if op == "i":
            buf.insert(pos, byte)
        elif pos < len(buf):
            if op == "d":
                del buf[pos]
            else:
                buf[pos] = byte
    return bytes(buf)


@contextlib.contextmanager
def _mutated(path, edits):
    data = path.read_bytes()
    path.write_bytes(_mutate(data, edits))
    try:
        yield
    finally:
        path.write_bytes(data)


@pytest.mark.parametrize("case", sorted(READERS))
def test_mutated_files_are_read_or_refused(corpus, case):
    reader, top, files = READERS[case]

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.sampled_from(files), _edits)
    def run(name, edits):
        with _mutated(corpus / name, edits):
            try:
                reader(corpus / top)
            except OSError:
                pass  # a mutated header may name a file that is not there
            except ValueError as e:
                # a sidecar's fault may be reported on the file that reads it
                blame = {str(corpus / n) for n in (top, name, name.removesuffix(".names"))}
                assert any(str(e).startswith(p + ": ") for p in blame), str(e)

    run()


@pytest.mark.parametrize("top", ["p.pc", "r.res"])
def test_check_on_mutated_proofs_exits_0_1_or_2(corpus, top):
    @settings(max_examples=60, deadline=None, database=None)
    @given(_edits)
    def run(edits):
        with _mutated(corpus / top, edits):
            code, _ = _cli("check", corpus / top)
        assert code in (0, 1, 2)

    run()


# transform, its arguments, and the files it reads
TRANSFORMS = {
    "split": (("split", "--proof", "q.pc", "--var", "s"), ("q.pc", "lift.txt")),
    "qdeg2deg": (("qdeg2deg", "--proof", "q.pc"), ("q.pc", "lift.txt")),
    "restrict": (("restrict", "--proof", "q.pc", "--restriction", "rho.txt"), ("q.pc", "lift.txt", "rho.txt")),
    "cluster-map": (("cluster", "--proof", "q.pc", "--map", "c.map"), ("q.pc", "lift.txt", "c.map")),
    "cluster-seeded": (("cluster", "--proof", "q.pc"), ("q.pc", "lift.txt")),
    "res2pcr": (("res2pcr", "--proof", "r.res"), ("r.res", "f.cnf", "f.cnf.names")),
}


@pytest.mark.parametrize("case", sorted(TRANSFORMS))
def test_transform_on_mutated_inputs_exits_0_to_3(corpus, tmp_path, case):
    argv, files = TRANSFORMS[case]
    argv = [corpus / a if a in files else a for a in argv]
    assert _cli("transform", *argv, "--out", tmp_path / "clean")[0] == 0

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.sampled_from(files), _edits)
    def run(name, edits):
        with _mutated(corpus / name, edits), tempfile.TemporaryDirectory(dir=tmp_path) as out:
            code, _ = _cli("transform", *argv, "--out", out)
        assert code in (0, 1, 2, 3)

    run()
