"""tools/peakrss.py on a small pclab command."""

import json
import os
import subprocess
import sys

_TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "peakrss.py")


def test_one_json_line_for_one_command(tmp_path):
    out = tmp_path / "lop.cnf"
    proc = subprocess.run([sys.executable, _TOOL, "--", "pclab", "gen", "lop", "--n", "3", "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    record = json.loads(line)
    assert sorted(record) == ["exit", "maxrss_mb", "wall_s"]
    assert record["exit"] == 0 and record["wall_s"] > 0 and record["maxrss_mb"] > 1
    # the child's own output goes to stderr
    assert "12 clauses over 6 variables" in proc.stderr and out.exists()


def test_a_failing_command_passes_its_exit_code_through(tmp_path):
    proc = subprocess.run([sys.executable, _TOOL, "--", "pclab", "gen", "lop", "--n", "1", "--out", str(tmp_path / "x")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and json.loads(proc.stdout)["exit"] == 2
