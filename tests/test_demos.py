import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DEMO_DIR = os.path.join(ROOT, "demos")


def run_python(args):
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", sorted(os.listdir(DEMO_DIR)))
def test_demo_runs_clean(name):
    assert run_python([os.path.join(DEMO_DIR, name)]).strip()


def test_readme_tour_runs_clean():
    with open(os.path.join(ROOT, "README.md")) as fh:
        tour = re.search(r"## Library tour\n\n```python\n(.*?)```", fh.read(), re.S)
    assert tour, "README.md has no python block under '## Library tour'"
    run_python(["-c", tour.group(1)])
