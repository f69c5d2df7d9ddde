import json
import os

import pytest

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
from pclab.transforms import Restriction, write_restriction
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


class TestEnvDefaults:
    def test_basis_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PCLAB_BASIS", "fourier")
        out = tmp_path / "b.txt"
        assert run("gen", "bop", "--n", 3, "--axioms", "--out", out) == 0
        assert read_axioms(out).basis == FOURIER

    def test_field_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PCLAB_FIELD", "101")
        out = tmp_path / "t.txt"
        assert run("gen", "tseitin-cycle", "--n", 4, "--out", out) == 0
        assert read_axioms(out).field.p == 101

    def test_bad_env_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PCLAB_FIELD", "many")
        assert run("gen", "lop", "--n", 3, "--out", tmp_path / "x.cnf") == 2
        monkeypatch.setenv("PCLAB_FIELD", "2147483647")
        monkeypatch.setenv("PCLAB_BASIS", "junk")
        assert run("gen", "lop", "--n", 3, "--out", tmp_path / "x.cnf") == 2
