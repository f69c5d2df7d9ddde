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
