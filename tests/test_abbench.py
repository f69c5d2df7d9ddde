"""The verdicts of tools/abbench.py on synthetic runs."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "abbench.py")
_spec = importlib.util.spec_from_file_location("abbench", _PATH)
abbench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abbench)

WALL = {"name": "wall_ref", "unit": "ref", "better": "lower", "bound": 0.25}
RATE = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}


def _runs(metric, parent, change):
    def side(values):
        return [{"pair": k, "exit": 0, "result": {"metrics": {metric["name"]: {"value": v}}}}
                for k, v in enumerate(values)]
    return {"parent": side(parent), "change": side(change)}


TIGHT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
WIDE = [100, 120, 140, 160, 180, 100, 120, 140, 160, 180]


@pytest.mark.parametrize("metric, parent, change, want", [
    (WALL, TIGHT, [v - 10 for v in TIGHT], "gain"),
    (RATE, TIGHT, [v + 10 for v in TIGHT], "gain"),
    # 8 of 10 pairs won is not a gain, however large the difference
    (WALL, TIGHT, [v - 10 for v in TIGHT[:8]] + [200, 200], "no regression"),
    # every pair won, but by less than the parent's quartile spread
    (WALL, WIDE, [v - 1 for v in WIDE], "unresolved"),
    (WALL, TIGHT, [v + 30 for v in TIGHT], "worse"),
    (RATE, TIGHT, [v - 30 for v in TIGHT], "worse"),
    (WALL, TIGHT, [v + 1 for v in TIGHT], "no regression"),
    (WALL, WIDE, list(WIDE), "unresolved"),
    # a wide parent spread is resolved when every change run beats every parent run
    (WALL, WIDE, [99, 98, 97, 96, 95, 99, 98, 97, 96, 95], "no regression"),
])
def test_verdicts(metric, parent, change, want):
    row = abbench.summarise(_runs(metric, parent, change), [metric])[metric["name"]]
    assert row["verdict"] == want


def test_summary_row():
    row = abbench.summarise(_runs(WALL, TIGHT, [v - 10 for v in TIGHT]), [WALL])["wall_ref"]
    assert row["parent_median"] == 100 and row["change_median"] == 90
    assert row["change_wins"] == "10/10" and row["change_over_parent"] == 0.9


def test_too_few_runs_give_no_verdict():
    row = abbench.summarise(_runs(WALL, [100], [90]), [WALL])["wall_ref"]
    assert row == {"runs": {"parent": 1, "change": 1}}


def _fail(runs, side, k, exit=0, no_result=False, **fields):
    """Make run k of one side fail: a nonzero ``exit``, no result line, or
    result ``fields`` such as ``correct`` and ``failed``."""
    run = runs[side][k]
    run["exit"] = exit
    run["result"] = None if no_result else {**run["result"], **fields}


def _counted(parent, change):
    runs = _runs(WALL, parent, change)
    for side in runs:
        for run in runs[side]:
            run["result"].update(correct=True, attempted=10, failed=0)
    return runs


@pytest.mark.parametrize("side, how, failed_runs, failed_share", [
    ("change", {"exit": 1}, 1, 0.0),
    ("change", {"no_result": True}, 1, 0.0),
    ("change", {"correct": False, "failed": 2}, 1, 0.02),
    ("parent", {"correct": False, "failed": 2}, 1, 0.02),
])
def test_failed_runs_are_counted(side, how, failed_runs, failed_share):
    runs = _counted(TIGHT, TIGHT)
    _fail(runs, side, 3, **how)
    row = abbench.failures(runs)[side]
    assert row["failed_runs"] == failed_runs and row["failed_share"] == pytest.approx(failed_share)
    other = abbench.failures(runs)["parent" if side == "change" else "change"]
    assert other == {"runs": 10, "failed_runs": 0, "attempted": 100, "failed": 0, "failed_share": 0.0}


def test_more_failures_in_the_change_fail_every_metric():
    # a faster change that fails operations is not a gain
    runs = _counted(TIGHT, [v - 10 for v in TIGHT])
    _fail(runs, "change", 0, correct=False, failed=1)
    assert abbench.summarise(runs, [WALL])["wall_ref"]["verdict"] == "failed"


def test_as_many_failures_as_the_parent_keep_the_verdict():
    runs = _counted(TIGHT, [v - 10 for v in TIGHT])
    _fail(runs, "parent", 0, correct=False, failed=1)
    _fail(runs, "change", 5, correct=False, failed=1)
    assert abbench.summarise(runs, [WALL])["wall_ref"]["verdict"] == "gain"


def test_a_change_with_no_results_fails():
    runs = _counted(TIGHT, TIGHT)
    for k in range(10):
        _fail(runs, "change", k, exit=1, no_result=True)
    assert abbench.summarise(runs, [WALL])["wall_ref"] == {"runs": {"parent": 10, "change": 0}, "verdict": "failed"}


@pytest.mark.parametrize("change, status", [
    ([v + 1 for v in TIGHT], 0),  # no regression
    ([v - 10 for v in TIGHT], 0),  # gain
    ([v + 30 for v in TIGHT], 1),  # worse
    (None, 1),  # every change run fails
])
def test_exit_status(monkeypatch, capsys, change, status):
    values = {"parent": iter(TIGHT), "change": iter(change or TIGHT)}

    def export(sha, into):
        os.makedirs(into)
        with open(os.path.join(into, "BENCHMARK.json"), "w") as fh:
            json.dump({"end_to_end": [WALL]}, fh)
        return into

    def run_once(checkout, args):
        side = os.path.basename(checkout)
        if side == "change" and change is None:
            return {"exit": 1, "result": None}
        return {"exit": 0, "result": {"metrics": {"wall_ref": {"value": next(values[side])}}}}

    monkeypatch.setattr(abbench, "git", lambda *args: b"0" * 40 + b"\n")
    monkeypatch.setattr(abbench, "export", export)
    monkeypatch.setattr(abbench, "run_once", run_once)
    assert abbench.main(["PARENT", "CHANGE", "--workload", "w"]) == status
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["runs_per_side"] == 10


def test_several_workloads(monkeypatch, capsys):
    """Each pair runs every workload on both sides, the first side
    alternating by pair; one summary and one JSON line per workload, and
    one worse workload sets the exit status."""
    calls = []

    def export(sha, into):
        os.makedirs(into)
        with open(os.path.join(into, "BENCHMARK.json"), "w") as fh:
            json.dump({"end_to_end": [WALL]}, fh)
        return into

    def run_once(checkout, args):
        side = os.path.basename(checkout)
        k = sum(1 for c in calls if c[:2] == (args.workload, side))
        calls.append((args.workload, side))
        value = TIGHT[k] + 30 if (args.workload, side) == ("slow", "change") else TIGHT[k]
        return {"exit": 0, "result": {"metrics": {"wall_ref": {"value": value}}}}

    monkeypatch.setattr(abbench, "git", lambda *args: b"0" * 40 + b"\n")
    monkeypatch.setattr(abbench, "export", export)
    monkeypatch.setattr(abbench, "run_once", run_once)
    assert abbench.main(["PARENT", "CHANGE", "--workload", "same", "--workload", "slow", "--pairs", "4"]) == 1
    assert calls[:8] == [("same", "parent"), ("same", "change"), ("slow", "parent"), ("slow", "change"),
                         ("same", "change"), ("same", "parent"), ("slow", "change"), ("slow", "parent")]
    out = capsys.readouterr().out.splitlines()
    verdicts = {line.split()[0]: json.loads(line.split(": ", 1)[1])["verdict"] for line in out if " wall_ref: " in line}
    assert verdicts == {"same": "no regression", "slow": "worse"}
    docs = [json.loads(line) for line in out[-2:]]
    assert [d["workload"] for d in docs] == ["same", "slow"]
    assert all(len(d["parent"]) == len(d["change"]) == 4 for d in docs)


def _recorded(parent, change):
    """Runs whose ``# record`` lines gave (wall_s, ref_loop_ms) pairs."""
    runs = _runs(WALL, TIGHT[:len(parent)], TIGHT[:len(change)])
    for side, values in (("parent", parent), ("change", change)):
        for run, (wall, ref) in zip(runs[side], values):
            run["recorded"] = {"wall_s": wall, "ref_loop_ms": ref}
    return runs


def test_recorded_metrics_get_quartiles_and_no_verdict():
    # the pass time stays flat while the reference loop runs faster
    parent = [(0.60 + k / 100, 4.0 + k / 10) for k in range(5)]
    change = [(0.60 + k / 100, 3.6 + k / 10) for k in range(5)]
    rows = abbench.recorded(_recorded(parent, change))
    assert set(rows) == {"wall_s", "ref_loop_ms"}
    assert rows["wall_s"]["parent_median"] == rows["wall_s"]["change_median"] == 0.62
    assert rows["ref_loop_ms"] == {"parent_median": 4.2, "parent_quartiles": [4.05, 4.2, 4.35],
                                   "change_median": 3.8, "change_quartiles": [3.65, 3.8, 3.95]}
    assert not any("verdict" in row for row in rows.values())


def test_derivation_percentiles_are_recorded_only_where_reported():
    # fourier-transform reports the per-derivation percentiles; bool-refute does not
    with_p = _recorded([(0.6, 4.0)] * 3, [(0.6, 4.0)] * 3)
    for side in ("parent", "change"):
        for k, run in enumerate(with_p[side]):
            run["recorded"].update(derivation_p50_ms=1.2 + k / 10, derivation_p90_ms=2.0)
    rows = abbench.recorded(with_p)
    assert list(rows) == ["wall_s", "ref_loop_ms", "derivation_p50_ms", "derivation_p90_ms"]
    assert rows["derivation_p50_ms"]["parent_median"] == rows["derivation_p50_ms"]["change_median"] == 1.3
    assert not any("verdict" in row for row in rows.values())
    rows = abbench.recorded(_recorded([(0.6, 4.0)] * 3, [(0.6, 4.0)] * 3))
    assert list(rows) == ["wall_s", "ref_loop_ms"]


def test_run_once_keeps_the_derivation_percentiles(tmp_path):
    record = {"end_to_end": {"wall_s": {"value": 0.61}, "ref_loop_ms": {"value": 4.2},
                             "derivation_p50_ms": {"value": 1.25}, "derivation_p90_ms": {"value": 2.5}}}
    os.makedirs(tmp_path / "bench")
    with open(tmp_path / "bench" / "run.py", "w") as fh:
        fh.write(f"print({'# record ' + json.dumps(record)!r})\nprint({json.dumps({'metrics': {}})!r})\n")
    args = abbench.argparse.Namespace(workload="fourier-transform", seed=1, seconds=1)
    assert abbench.run_once(str(tmp_path), args)["recorded"] == {
        "wall_s": 0.61, "ref_loop_ms": 4.2, "derivation_p50_ms": 1.25, "derivation_p90_ms": 2.5}


def test_recorded_metrics_with_too_few_runs_give_counts():
    runs = _recorded([(0.6, 4.0)] * 3, [(0.6, 4.0)])
    runs["parent"][0]["recorded"] = {}
    assert abbench.recorded(runs)["wall_s"] == {"runs": {"parent": 2, "change": 1}}
    del runs["change"][0]["recorded"]  # a run that printed no record line
    assert abbench.recorded(runs)["ref_loop_ms"] == {"runs": {"parent": 2, "change": 0}}


def test_run_once_reads_the_record_line(tmp_path):
    record = {"end_to_end": {"wall_s": {"value": 0.61}, "ref_loop_ms": {"value": 4.2},
                             "wall_ref": {"value": 145.2}}}
    result = {"correct": True, "metrics": {"wall_ref": {"value": 145.2}}}
    os.makedirs(tmp_path / "bench")
    with open(tmp_path / "bench" / "run.py", "w") as fh:
        fh.write(f"print('# bool-refute seed=1')\nprint({'# record ' + json.dumps(record)!r})\n"
                 f"print({json.dumps(result)!r})\n")
    args = abbench.argparse.Namespace(workload="bool-refute", seed=1, seconds=1)
    assert abbench.run_once(str(tmp_path), args) == {
        "exit": 0, "result": result, "recorded": {"wall_s": 0.61, "ref_loop_ms": 4.2}}


def test_recorded_metrics_are_printed_and_kept(monkeypatch, capsys):
    walls = {"parent": iter([0.6, 0.61, 0.62]), "change": iter([0.6, 0.6, 0.61])}

    def export(sha, into):
        os.makedirs(into)
        with open(os.path.join(into, "BENCHMARK.json"), "w") as fh:
            json.dump({"end_to_end": [WALL]}, fh)
        return into

    def run_once(checkout, args):
        side = os.path.basename(checkout)
        return {"exit": 0, "result": {"metrics": {"wall_ref": {"value": 100}}},
                "recorded": {"wall_s": next(walls[side]), "ref_loop_ms": 5.0}}

    monkeypatch.setattr(abbench, "git", lambda *args: b"0" * 40 + b"\n")
    monkeypatch.setattr(abbench, "export", export)
    monkeypatch.setattr(abbench, "run_once", run_once)
    assert abbench.main(["PARENT", "CHANGE", "--workload", "w", "--pairs", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = {line.split()[1]: json.loads(line.split(": ", 1)[1]) for line in out if "(no verdict): " in line}
    assert rows["wall_s"]["parent_median"] == 0.61 and rows["wall_s"]["change_median"] == 0.6
    assert rows["ref_loop_ms"]["parent_median"] == rows["ref_loop_ms"]["change_median"] == 5.0
    doc = json.loads(out[-1])
    assert doc["recorded"] == rows and doc["summary"]["wall_ref"]["verdict"] == "no regression"
    assert [r["recorded"]["wall_s"] for r in doc["change"]] == [0.6, 0.6, 0.61]
