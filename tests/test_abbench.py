"""The verdicts of tools/abbench.py on synthetic runs."""

import importlib.util
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
