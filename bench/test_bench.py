"""The benchmark's own tests, at quick sizes.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import child  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
import pclab as P  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", (0, 1))
def test_quick_run_prints_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in named}

    record = json.loads(next(ln for ln in lines if ln.startswith("# record "))[len("# record "):])
    e2e = record["end_to_end"]
    assert e2e["error_rate"]["value"] == 0
    if workload == "fourier-transform" and not trace:
        assert e2e["derivation_p50_ms"]["unit"] == "ms"
        assert e2e["derivation_p90_ms"]["value"] >= e2e["derivation_p50_ms"]["value"] > 0
    if trace:
        per_layer = record["per_layer"]
        layer_sum = sum(per_layer[f"{layer}.self_s"] for layer in layers.LAYERS)
        assert layer_sum + per_layer["trace.unaccounted_s"] == pytest.approx(per_layer["trace.wall_s"])
        assert per_layer["trace.unaccounted_s"] >= 0


def corrupting_writer(write_pcproof):
    """Writes the proof, then changes the first coefficient of its first LIN step."""

    def write(proof, path, axioms_path):
        write_pcproof(proof, path, axioms_path)
        with open(path) as fh:
            text = fh.readlines()
        k = next(i for i, ln in enumerate(text) if " LIN " in ln)
        label, kind, coef, rest = text[k].split(" ", 3)
        text[k] = f"{label} {kind} {int(coef) + 1} {rest}"
        with open(path, "w") as fh:
            fh.writelines(text)

    return write


def test_corrupted_coefficient_counts_as_failure(tmp_path, monkeypatch):
    ref = workloads.load_reference()
    wl = workloads.setup("bool-refute", 0, "quick", str(tmp_path), ref)
    failures = []
    child.run_pass(wl.ops, workloads.run_op, {}, failures)
    assert failures == []

    monkeypatch.setattr(P, "write_pcproof", corrupting_writer(P.write_pcproof))
    child.run_pass(wl.ops, workloads.run_op, {}, failures)
    assert len(failures) == 1 and failures[0].startswith("res2pcr-check:")
    # The checker itself rejects the proof, not only the changed sha256.
    assert "res2pcr-check: verdict refutation is false" in failures[0].split("; ")


def test_operation_that_raises_is_one_failure():
    def boom():
        raise RuntimeError("broken")

    problems = workloads.run_op(workloads.Op("boom", "test", boom, {}))
    assert problems == ["boom: raised RuntimeError: broken"]


def test_missing_traced_name_fails_loudly(monkeypatch):
    monkeypatch.setitem(layers.WRAPPED, "proofs", layers.WRAPPED["proofs"] + ("no_such_function",))
    original = P.check_pc
    with pytest.raises(LookupError, match="no_such_function"):
        with layers.Tracer():
            pass
    assert P.check_pc is original


def test_tracer_restores_every_name():
    before = {name: getattr(P, name) for names in layers.WRAPPED.values() for name in names}
    with layers.Tracer():
        assert P.check_pc is not before["check_pc"]
    assert {name: getattr(P, name) for name in before} == before


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("bool-refute", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in proc.stdout.splitlines())
