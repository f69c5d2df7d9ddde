import json
import os
import re
import weakref

import pytest

import pclab.cli as cli
from pclab.algebra import FOURIER, plain
from pclab.cli import main, parse_range
from pclab.formulas import (
    AxiomSystem,
    cnf_to_axioms,
    gen_bop,
    gen_bop_lifted,
    gen_cycle_tseitin,
    gen_lop,
    read_axioms,
    read_dimacs,
)
from pclab.proofs import (
    PCProof,
    check_pc,
    random_derivation,
    read_pcproof,
    read_resproof,
    write_pcproof,
)
from pclab.transforms import Restriction, random_pairing, write_clustermap, write_restriction
from pclab.formulas import write_axioms


def run(*argv):
    return main([str(a) for a in argv])


class TestGen:
    def test_lop_dimacs_round_trip(self, tmp_path):
        out = tmp_path / "lop.cnf"
        assert run("gen", "lop", "--n", 4, "--out", out) == 0
        back = read_dimacs(out)
        want = gen_lop(4)
        assert back.clauses == want.clauses
        assert back.universe == want.universe
        assert back.groups == want.groups

    def test_bop_lifted_round_trip(self, tmp_path):
        out = tmp_path / "b.cnf"
        assert run("gen", "bop-lifted", "--n", 3, "--ell", 2, "--out", out) == 0
        back = read_dimacs(out)
        want = gen_bop_lifted(3, 2)
        assert back.clauses == want.clauses
        assert back.n == 3 and back.ell == 2

    def test_axiom_translation(self, tmp_path):
        out = tmp_path / "b.txt"
        assert run("gen", "bop", "--n", 3, "--axioms", "--basis", "fourier", "--out", out) == 0
        back = read_axioms(out)
        want = cnf_to_axioms(gen_bop(3), FOURIER)
        assert back.polys == want.polys
        assert back.basis == FOURIER

    def test_no_twins_translation(self, tmp_path):
        out = tmp_path / "b.txt"
        assert run("gen", "bop", "--n", 3, "--axioms", "--basis", "boolean",
                   "--no-twins", "--out", out) == 0
        back = read_axioms(out)
        want = cnf_to_axioms(gen_bop(3), "boolean", twins=False)
        assert back.polys == want.polys

    def test_tseitin_cycle(self, tmp_path):
        out = tmp_path / "t.txt"
        assert run("gen", "tseitin-cycle", "--n", 5, "--out", out) == 0
        assert read_axioms(out).polys == gen_cycle_tseitin(5).polys

    def test_missing_out_is_usage_error(self):
        assert run("gen", "lop", "--n", 4) == 2

    def test_bad_n_is_usage_error(self, tmp_path):
        assert run("gen", "lop", "--n", 1, "--out", tmp_path / "x.cnf") == 2

    @pytest.mark.parametrize("argv, line", [
        (("lop", "--n", 4, "--out", "l.cnf"),
         "wrote l.cnf and l.cnf.names: 34 clauses over 12 variables"),
        (("bop-lifted", "--n", 3, "--ell", 2, "--out", "b.cnf"),
         "wrote b.cnf and b.cnf.names: 48 clauses over 18 variables"),
        (("bop", "--n", 3, "--axioms", "--basis", "fourier", "--out", "b.txt"),
         "wrote b.txt: 21 axioms over 12 variables"),
        (("bop", "--n", 3, "--axioms", "--no-twins", "--out", "c.txt"),
         "wrote c.txt: 21 axioms over 12 variables"),
        (("tseitin-cycle", "--n", 5, "--out", "t.txt"),
         "wrote t.txt: 5 axioms over 5 variables"),
    ])
    def test_stdout_line(self, tmp_path, monkeypatch, capsys, argv, line):
        monkeypatch.chdir(tmp_path)
        assert run("gen", *argv) == 0
        assert capsys.readouterr().out == line + "\n"


class TestRefute:
    def test_lop_artifacts(self, tmp_path):
        assert run("refute", "lop", "--n", 5, "--out", tmp_path) == 0
        for name in ("formula.cnf", "formula.cnf.names", "proof.res", "manifest.json"):
            assert (tmp_path / name).exists()
        proof = read_resproof(tmp_path / "proof.res")
        assert proof.cnf.clauses == gen_lop(5).clauses
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["valid"] and manifest["refutation"]
        assert manifest["family"] == "lop" and manifest["n"] == 5

    def test_pcr_upper_artifacts(self, tmp_path):
        assert run("refute", "pcr-upper", "--n", 3, "--ell", 1, "--out", tmp_path) == 0
        report = check_pc(read_pcproof(tmp_path / "proof.pc"))
        assert report.valid and report.is_refutation
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["size_monomials"] == report.size
        assert manifest["degree"] == report.degree
        assert manifest["basis"] == "boolean"

    def test_tseitin_artifacts(self, tmp_path):
        assert run("refute", "tseitin", "--n", 7, "--out", tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["basis"] == "fourier"
        assert manifest["quadratic_degree"] == 2
        report = check_pc(read_pcproof(tmp_path / "proof.pc"))
        assert report.valid and report.is_refutation

    def test_lifted_artifacts(self, tmp_path):
        assert run("refute", "lifted", "--n", 3, "--ell", 2, "--out", tmp_path) == 0
        proof = read_resproof(tmp_path / "proof.res")
        assert proof.cnf.clauses == gen_bop_lifted(3, 2).clauses

    def test_same_invocation_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("refute", "pcr-upper", "--n", 3, "--out", a) == 0
        assert run("refute", "pcr-upper", "--n", 3, "--out", b) == 0
        for name in ("axioms.txt", "proof.pc", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("family, builder, reader", [
        ("pcr-upper", "pcr_upper_bound", "read_pcproof"),
        ("lop", "lop_resolution_refutation", "read_resproof"),
    ])
    def test_built_proof_is_dead_before_the_read_back(self, tmp_path, monkeypatch, family, builder, reader):
        # both copies of a long proof alive at once set refute's peak memory
        built, build, read = [], getattr(cli, builder), getattr(cli, reader)

        def tracked(*args):
            proof = build(*args)
            built.append(weakref.ref(proof))
            return proof

        def checked(path):
            assert built and built[0]() is None, "the built proof outlives its write"
            return read(path)

        monkeypatch.setattr(cli, builder, tracked)
        monkeypatch.setattr(cli, reader, checked)
        assert run("refute", family, "--n", 3, "--out", tmp_path) == 0


class TestCheck:
    @pytest.fixture()
    def tseitin_dir(self, tmp_path):
        run("refute", "tseitin", "--n", 5, "--out", tmp_path)
        return tmp_path

    def test_valid_refutation(self, tseitin_dir):
        assert run("check", tseitin_dir / "proof.pc", "--refutation") == 0

    def test_explicit_formula_override(self, tseitin_dir):
        assert run("check", tseitin_dir / "proof.pc",
                   "--formula", tseitin_dir / "axioms.txt") == 0

    def test_corrupt_step_fails(self, tseitin_dir):
        path = tseitin_dir / "proof.pc"
        lines = path.read_text().splitlines()
        lines[3] = "L3 AX 999"
        path.write_text("\n".join(lines) + "\n")
        assert run("check", path) == 1

    def test_malformed_header(self, tmp_path):
        bad = tmp_path / "bad.pc"
        bad.write_text("who knows v9\n")
        assert run("check", bad) == 2

    def test_missing_file(self, tmp_path):
        assert run("check", tmp_path / "absent.pc") == 2

    @pytest.mark.parametrize("key", ["axioms", "basis", "field"])
    def test_header_without_key(self, tseitin_dir, key, capsys):
        path = tseitin_dir / "proof.pc"
        lines = path.read_text().splitlines()
        lines[0] = " ".join(t for t in lines[0].split() if not t.startswith(key + "="))
        path.write_text("\n".join(lines) + "\n")
        assert run("check", path) == 2
        assert f"lacks {key}=" in capsys.readouterr().err
        assert run("transform", "split", "--proof", path, "--var", "x1",
                   "--out", tseitin_dir / "out") == 2

    def test_resolution_header_without_cnf(self, tmp_path, capsys):
        run("refute", "lop", "--n", 3, "--out", tmp_path)
        path = tmp_path / "proof.res"
        lines = path.read_text().splitlines()
        path.write_text("resproof v1\n" + "\n".join(lines[1:]) + "\n")
        assert run("check", path) == 2
        assert "lacks cnf=" in capsys.readouterr().err
        assert run("transform", "res2pcr", "--proof", path, "--out", tmp_path / "out") == 2

    def test_resolution_step_without_kind(self, tmp_path):
        run("refute", "lop", "--n", 3, "--out", tmp_path)
        path = tmp_path / "proof.res"
        path.write_text(path.read_text().splitlines()[0] + "\nL1\n")
        assert run("check", path) == 2

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.pc"
        empty.write_text("")
        assert run("check", empty) == 2
        assert run("transform", "split", "--proof", empty, "--var", "x1",
                   "--out", tmp_path / "a") == 2
        assert run("transform", "res2pcr", "--proof", empty, "--out", tmp_path / "b") == 2

    def test_invalid_step_quotes_file_numbers(self, tseitin_dir, capsys):
        path = tseitin_dir / "proof.pc"
        lines = path.read_text().splitlines()
        lines[1] = "L1 AX 0"
        path.write_text("\n".join(lines) + "\n")
        assert run("check", path) == 1
        assert capsys.readouterr().out.startswith("INVALID at L1: no axiom 0: the system has 5")

    def test_forward_reference_is_invalid_step(self, tseitin_dir, capsys):
        path = tseitin_dir / "proof.pc"
        lines = path.read_text().splitlines()
        lines[3] = "L3 MUL x2 L5"
        path.write_text("\n".join(lines) + "\n")
        assert run("check", path) == 1
        assert capsys.readouterr().out.startswith("INVALID at L3: reference to L5 not before L3")
        lines[3] = "L3 MUL x2 L99"
        path.write_text("\n".join(lines) + "\n")
        assert run("check", path) == 1
        assert capsys.readouterr().out.startswith("INVALID at L3: reference to L99 not before L3")

    def test_resolution_forward_reference_is_invalid_step(self, tmp_path, capsys):
        run("refute", "lop", "--n", 3, "--out", tmp_path)
        path = tmp_path / "proof.res"
        lines = path.read_text().splitlines()
        lines[3] = "L3 RES L1 L5 x(1,2)"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("check", path) == 1
        assert capsys.readouterr().out.startswith("INVALID at L3: reference to L5 not before L3")

    def test_empty_formula_override(self, tseitin_dir, capsys):
        empty = tseitin_dir / "empty.txt"
        empty.write_text("")
        assert run("check", tseitin_dir / "proof.pc", "--formula", empty) == 2
        assert f"{empty}: empty axiom file" in capsys.readouterr().err

    def test_dimacs_literal_without_name(self, tmp_path, capsys):
        run("refute", "lop", "--n", 3, "--out", tmp_path)
        cnf = tmp_path / "formula.cnf"
        lines = cnf.read_text().splitlines()
        first = next(i for i, ln in enumerate(lines) if not ln.startswith(("c", "p")))
        lines[first] = "99 " + lines[first]
        cnf.write_text("\n".join(lines) + "\n")
        assert run("check", tmp_path / "proof.res", "--formula", cnf) == 2
        err = capsys.readouterr().err
        assert f"{cnf}: variable 99 has no entry" in err
        assert run("check", tmp_path / "proof.res") == 2
        (tmp_path / "formula.cnf.names").write_text("var = x(1,2)\n")
        assert run("check", tmp_path / "proof.res") == 2
        assert "formula.cnf.names: bad line" in capsys.readouterr().err

    def test_truncated_proof_not_refutation(self, tseitin_dir):
        path = tseitin_dir / "proof.pc"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        assert run("check", path) == 0
        assert run("check", path, "--refutation") == 1

    def test_resolution_proof(self, tmp_path):
        run("refute", "lop", "--n", 4, "--out", tmp_path)
        assert run("check", tmp_path / "proof.res", "--refutation") == 0


class TestTransform:
    @pytest.fixture()
    def spare_proof(self, tmp_path):
        # fourier derivation s*s*A = A over a universe with the spare s
        ax = gen_cycle_tseitin(4)
        s = plain("s")
        ax2 = AxiomSystem(ax.field, ax.basis, ax.polys, ax.universe + (s,),
                          dict(ax.groups), n=ax.n, ell=ax.ell)
        proof = PCProof(ax2, (("ax", 0), ("mul", s, 0), ("mul", s, 1)))
        write_axioms(ax2, tmp_path / "ax.txt")
        write_pcproof(proof, tmp_path / "p.pc", "ax.txt")
        return tmp_path / "p.pc"

    def test_split_spare_variable(self, spare_proof, tmp_path):
        out = tmp_path / "split"
        assert run("transform", "split", "--proof", spare_proof, "--var", "s",
                   "--prune-dead", "--out", out) == 0
        back = read_pcproof(out / "proof.pc")
        assert all(s[1] != plain("s") for s in back.steps if s[0] == "mul")
        assert check_pc(back).valid

    def test_split_axiom_variable_rejected(self, spare_proof, tmp_path):
        assert run("transform", "split", "--proof", spare_proof, "--var", "x1",
                   "--out", tmp_path / "no") == 2

    @pytest.mark.parametrize("step, message", [
        pytest.param("MUL s L0", "reference to L0 not before L3", id="L0"),
        pytest.param("MUL s L5", "reference to L5 not before L3", id="L5"),
        ("MUL foo L1", "variable foo outside the system universe"),
        ("AX 99", "no axiom 99: the system has 4"),
    ])
    def test_split_bad_reference_is_input_error(self, spare_proof, tmp_path, step, message, capsys):
        lines = spare_proof.read_text().splitlines()
        lines[3] = f"L3 {step}"
        spare_proof.write_text("\n".join(lines) + "\n")
        assert run("transform", "split", "--proof", spare_proof, "--var", "s",
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"input proof invalid at L3: {message}" in err
        assert not (tmp_path / "out" / "proof.pc").exists()

    @pytest.mark.parametrize("step, message", [
        ("MUL x2 L0", "reference to L0 not before L3"),
        ("MUL x2 L5", "reference to L5 not before L3"),
        ("AX 0", "no axiom 0: the system has 5"),
        ("MUL foo L1", "variable foo outside the system universe"),
        ("AX 99", "no axiom 99: the system has 5"),
    ])
    def test_restrict_bad_step_is_input_error(self, tmp_path, step, message, capsys):
        run("refute", "tseitin", "--n", 5, "--out", tmp_path / "in")
        path = tmp_path / "in" / "proof.pc"
        lines = path.read_text().splitlines()
        lines[3] = f"L3 {step}"
        path.write_text("\n".join(lines) + "\n")
        write_restriction(Restriction({plain("x1"): True}), tmp_path / "rho.txt")
        capsys.readouterr()
        assert run("transform", "restrict", "--proof", path,
                   "--restriction", tmp_path / "rho.txt", "--out", tmp_path / "out") == 2
        assert f"input proof invalid at L3: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "proof.pc").exists()

    @pytest.mark.parametrize("step, message", [
        ("MUL x(1,2,1) L0", "reference to L0 not before L3"),
        ("MUL x(1,2,1) L5", "reference to L5 not before L3"),
        ("MUL foo L1", "variable foo outside the system universe"),
        ("AX 99", "no axiom 99: the system has 8"),
    ])
    def test_cluster_bad_step_is_input_error(self, tmp_path, step, message, capsys):
        ax = cnf_to_axioms(gen_bop_lifted(2, 2), FOURIER)
        write_axioms(ax, tmp_path / "ax.txt")
        write_pcproof(random_derivation(ax, 30, seed=5), tmp_path / "p.pc", "ax.txt")
        lines = (tmp_path / "p.pc").read_text().splitlines()
        lines[3] = f"L3 {step}"
        (tmp_path / "p.pc").write_text("\n".join(lines) + "\n")
        assert run("transform", "cluster", "--proof", tmp_path / "p.pc", "--seed", 3,
                   "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert f"input proof invalid at L3: {message}" in err
        assert not (tmp_path / "out").exists()

    def test_qdeg2deg(self, tmp_path):
        run("refute", "tseitin", "--n", 6, "--out", tmp_path / "in")
        assert run("transform", "qdeg2deg", "--proof", tmp_path / "in" / "proof.pc",
                   "--out", tmp_path / "out") == 0
        report = check_pc(read_pcproof(tmp_path / "out" / "proof.pc"))
        assert report.valid and report.is_refutation

    def test_restrict(self, tmp_path):
        run("refute", "tseitin", "--n", 5, "--out", tmp_path / "in")
        write_restriction(Restriction({plain("x1"): True}), tmp_path / "rho.txt")
        assert run("transform", "restrict", "--proof", tmp_path / "in" / "proof.pc",
                   "--restriction", tmp_path / "rho.txt", "--out", tmp_path / "out") == 0
        back = read_pcproof(tmp_path / "out" / "proof.pc")
        assert plain("x1") not in back.axioms.universe
        assert check_pc(back).is_refutation

    def test_cluster_seeded(self, tmp_path):
        ax = cnf_to_axioms(gen_bop_lifted(2, 2), FOURIER)
        proof = random_derivation(ax, 30, seed=5)
        write_axioms(ax, tmp_path / "ax.txt")
        write_pcproof(proof, tmp_path / "p.pc", "ax.txt")
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("transform", "cluster", "--proof", tmp_path / "p.pc",
                       "--seed", 3, "--out", out) == 0
            assert (out / "cluster.map").exists()
        assert (a / "proof.pc").read_bytes() == (b / "proof.pc").read_bytes()
        assert (a / "cluster.map").read_bytes() == (b / "cluster.map").read_bytes()
        back = read_pcproof(a / "proof.pc")
        assert all(v.kind != "x" for v in back.axioms.universe)

    def test_cluster_explicit_map(self, tmp_path):
        ax = cnf_to_axioms(gen_bop_lifted(2, 2), FOURIER)
        proof = random_derivation(ax, 20, seed=1)
        write_axioms(ax, tmp_path / "ax.txt")
        write_pcproof(proof, tmp_path / "p.pc", "ax.txt")
        run("transform", "cluster", "--proof", tmp_path / "p.pc", "--seed", 7,
            "--out", tmp_path / "a")
        assert run("transform", "cluster", "--proof", tmp_path / "p.pc",
                   "--map", tmp_path / "a" / "cluster.map", "--out", tmp_path / "b") == 0
        assert (tmp_path / "a" / "proof.pc").read_bytes() == \
            (tmp_path / "b" / "proof.pc").read_bytes()

    def test_cluster_map_over_too_few_vertices_rejected(self, tmp_path, capsys):
        ax = cnf_to_axioms(gen_bop_lifted(3, 2), FOURIER)
        write_axioms(ax, tmp_path / "ax.txt")
        write_pcproof(random_derivation(ax, 10, seed=1), tmp_path / "p.pc", "ax.txt")
        write_clustermap(random_pairing(2, 2, 0), tmp_path / "small.map")
        assert run("transform", "cluster", "--proof", tmp_path / "p.pc",
                   "--map", tmp_path / "small.map", "--out", tmp_path / "out") == 2
        assert "outside the cluster map over n=2" in capsys.readouterr().err

    def test_cluster_refuses_more_vertices_than_the_variables_name(self, tmp_path, capsys):
        # a pair is drawn per ordered pair of the declared n, so a 3-vertex
        # proof declared at n=300 would cost about 90,000 map lines
        ax = cnf_to_axioms(gen_bop_lifted(3, 2), FOURIER)
        write_axioms(ax, tmp_path / "ax.txt")
        text = (tmp_path / "ax.txt").read_text()
        assert "params n=3 ell=2\n" in text
        (tmp_path / "ax.txt").write_text(text.replace("params n=3 ell=2\n", "params n=300 ell=2\n", 1))
        write_pcproof(random_derivation(ax, 20, seed=1), tmp_path / "p.pc", "ax.txt")
        assert run("transform", "cluster", "--proof", tmp_path / "p.pc", "--seed", 3,
                   "--out", tmp_path / "out") == 2
        assert "declares n=300, but its variables name vertices up to 3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_cluster_without_params_rejected(self, tmp_path):
        run("refute", "tseitin", "--n", 4, "--out", tmp_path / "in")
        assert run("transform", "cluster", "--proof", tmp_path / "in" / "proof.pc",
                   "--out", tmp_path / "out") == 2

    def test_res2pcr(self, tmp_path):
        run("refute", "lop", "--n", 4, "--out", tmp_path / "in")
        assert run("transform", "res2pcr", "--proof", tmp_path / "in" / "proof.res",
                   "--out", tmp_path / "out") == 0
        report = check_pc(read_pcproof(tmp_path / "out" / "proof.pc"))
        assert report.valid and report.is_refutation

    def test_res2pcr_field(self, tmp_path):
        run("refute", "lop", "--n", 3, "--out", tmp_path / "in")
        assert run("transform", "res2pcr", "--proof", tmp_path / "in" / "proof.res",
                   "--field", 101, "--out", tmp_path / "out") == 0
        back = read_pcproof(tmp_path / "out" / "proof.pc")
        assert back.field.p == 101 and check_pc(back).is_refutation

    @pytest.mark.parametrize("name, own", [
        ("split", ("--var", "x1")),
        ("qdeg2deg", ()),
        ("restrict", ("--restriction", "rho.txt")),
        ("cluster", ("--seed", 3)),
        ("res2pcr", ("--field", 101)),
    ])
    @pytest.mark.parametrize("missing", ["--proof", "--out"])
    def test_missing_proof_or_out_is_usage_error(self, tmp_path, capsys, name, own, missing):
        given = {"--proof": tmp_path / "p.pc", "--out": tmp_path / "out"}
        del given[missing]
        argv = [a for flag, value in given.items() for a in (flag, value)]
        assert run("transform", name, *own, *argv) == 2
        assert f"required: {missing}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, flag", [("split", "--var"), ("restrict", "--restriction")])
    def test_missing_own_flag_is_usage_error(self, tmp_path, capsys, name, flag):
        assert run("transform", name, "--proof", tmp_path / "p.pc", "--out", tmp_path / "out") == 2
        assert f"required: {flag}" in capsys.readouterr().err


class TestVerifyLemmas:
    def test_operator_check_passes(self, capsys):
        assert run("verify-lemmas", "--which", "operator") == 0
        out = capsys.readouterr().out
        assert "residue-operator: ok" in out

    def test_all_prints_every_lemma(self, capsys):
        assert run("verify-lemmas", "--which", "all", "--seed", 1) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 9
        assert all(": ok (" in line for line in out)

    def test_scale_limit_exit_code(self):
        assert run("verify-lemmas", "--which", "operator", "--n", 4) == 3

    def test_too_many_edges_refused_before_the_context(self, monkeypatch, capsys):
        def unbuilt(*args, **kwargs):
            raise AssertionError("bop_context was built")

        monkeypatch.setattr("pclab.cli.bop_context", unbuilt)
        assert run("verify-lemmas", "--n", 60) == 3
        assert "3540 variables exceed the points limit of 16" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (("--n", 1), "error: need n >= 2, got 1"),
        (("--ell", 0), "error: need ell >= 1, got 0"),
        (("--n", 1, "--ell", 0), "error: need n >= 2, got 1"),
    ])
    def test_small_family_parameters_are_usage_errors(self, capsys, argv, message):
        assert run("verify-lemmas", *argv) == 2
        assert capsys.readouterr().err == message + "\n"


class TestExperiment:
    def test_tseitin_csv(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run("experiment", "--family", "tseitin", "--n", "3..6", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "family,n,ell,clauses,proof_size_monomials,degree,qdeg,seconds"
        rows = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
        assert [r[1] for r in rows] == ["3", "4", "5", "6"]
        assert all(r[6] == "2" for r in rows)  # qdeg filled for fourier proofs
        assert all(r[7] == "" for r in rows)  # seconds empty without --timings
        assert lines[-1].startswith("# tseitin size loglog slope=")

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("experiment", "--family", "lop", "--n", "3..5", "--out", a)
        run("experiment", "--family", "lop", "--n", "3..5", "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_timings_fill_seconds(self, tmp_path):
        out = tmp_path / "t.csv"
        run("experiment", "--family", "tseitin", "--n", "3..4", "--out", out, "--timings")
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]
                if not ln.startswith("#")]
        assert all(float(r[7]) >= 0 for r in rows)

    def test_jobs_match_serial(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("experiment", "--family", "pcr-upper", "--n", "3..4", "--ell", "1", "--out", a)
        run("experiment", "--family", "pcr-upper", "--n", "3..4", "--ell", "1", "--out", b,
            "--jobs", 2)
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_start_no_more_workers_than_rows(self, tmp_path, monkeypatch):
        workers = []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("experiment", "--family", "tseitin", "--n", "3..4", "--out", a)
        assert run("experiment", "--family", "tseitin", "--n", "3..4", "--out", b, "--jobs", 64) == 0
        assert workers == [2]
        assert a.read_bytes() == b.read_bytes()

    def test_multi_ell_fit_note(self, tmp_path):
        out = tmp_path / "p.csv"
        run("experiment", "--family", "pcr-upper", "--n", "3..4", "--ell", "1..2",
            "--out", out)
        text = out.read_text()
        assert "# pcr-upper clauses/(n^3*ell^2) C=" in text
        assert "# pcr-upper ell=1 size loglog slope=" in text

    def test_bad_range_is_usage_error(self, tmp_path):
        assert run("experiment", "--family", "lop", "--n", "9..3",
                   "--out", tmp_path / "x.csv") == 2


class TestParseRange:
    def test_forms(self):
        assert parse_range("4") == [4]
        assert parse_range("4..7") == [4, 5, 6, 7]
        assert parse_range("3,5,9") == [3, 5, 9]
        assert parse_range("1..2,5") == [1, 2, 5]

    def test_rejects_empty_and_backwards(self):
        with pytest.raises(ValueError):
            parse_range("9..3")
        with pytest.raises(ValueError):
            parse_range(",")
        with pytest.raises(ValueError):
            parse_range("a..b")

    @pytest.mark.parametrize("text, part", [("4..", "4.."), ("3..a", "3..a"), ("1,x,3", "x"), ("..4", "..4"),
                                            ("2..3..4", "2..3..4")])
    def test_names_the_bad_part_and_the_text(self, text, part):
        with pytest.raises(ValueError, match=re.escape(f"bad part {part!r} in range {text!r}")):
            parse_range(text)

    def test_experiment_exits_2_on_a_bad_range(self, tmp_path, capsys):
        assert run("experiment", "--family", "lop", "--n", "4..", "--out", tmp_path / "x.csv") == 2
        assert "error: bad part '4..' in range '4..'" in capsys.readouterr().err


class TestEnvDefaults:
    @pytest.mark.parametrize("env", [("x", "many", "2.5", "junk"), ("7", "101", "2", "fourier")])
    def test_stray_variables_do_not_leak_in(self, tmp_path, monkeypatch, env):
        clean = tmp_path / "clean.txt"
        assert run("gen", "lop", "--n", 3, "--axioms", "--out", clean) == 0
        assert run("refute", "tseitin", "--n", 5, "--out", tmp_path / "t") == 0
        for name, value in zip(("PCLAB_SEED", "PCLAB_FIELD", "PCLAB_JOBS", "PCLAB_BASIS"), env):
            monkeypatch.setenv(name, value)
        assert run("check", tmp_path / "t" / "proof.pc") == 0
        out = tmp_path / "env.txt"
        assert run("gen", "lop", "--n", 3, "--axioms", "--out", out) == 0
        assert out.read_bytes() == clean.read_bytes()

    def test_field_past_the_primality_bound_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "lop.txt"
        assert run("gen", "lop", "--n", 3, "--axioms", "--field", 3317044064679887385961981, "--out", out) == 2
        assert "318665857834031151167461" in capsys.readouterr().err
        assert not out.exists()
