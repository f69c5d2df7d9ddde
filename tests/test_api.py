"""The public surface: each module's ``__all__`` is its API, and ``pclab``
re-exports exactly those lists."""

import glob
import importlib
import os
import re
import subprocess
import sys
import types

import pytest

import pclab

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
MODULES = ("algebra", "formulas", "proofs", "transforms", "constructions", "degreelab")

# Second entries to a concept: importable from their module, not from pclab.
DROPPED = {
    "DEFAULT_PRIME": "algebra",
    "SPAN_POINTS_LIMIT": "degreelab",
    "walk_pc": "proofs",
    "walk_resolution": "proofs",
    "twin_axiom_poly": "proofs",
    "restrict_poly": "transforms",
    "restrict_cnf": "transforms",
    "restrict_axioms": "transforms",
}


def _module(name):
    return importlib.import_module(f"pclab.{name}")


def _tour():
    with open(os.path.join(ROOT, "README.md")) as fh:
        tour = re.search(r"## Library tour\n\n```python\n(.*?)```", fh.read(), re.S)
    assert tour, "README.md has no python block under '## Library tour'"
    return tour.group(1)


def test_all_is_the_module_lists_in_order():
    assert pclab.__all__ == [name for m in MODULES for name in _module(m).__all__]
    assert len(set(pclab.__all__)) == len(pclab.__all__) == 99


@pytest.mark.parametrize("name", MODULES)
def test_module_lists_only_its_own_definitions(name):
    module = _module(name)
    for export in module.__all__:
        obj = getattr(module, export)
        assert getattr(pclab, export) is obj
        if callable(obj) or isinstance(obj, types.ModuleType):  # a leaked np or Optional fails
            assert getattr(obj, "__module__", None) == module.__name__, f"{name}.{export} is imported"


def test_callers_use_only_exported_names():
    used = {}
    for path in glob.glob(os.path.join(ROOT, "bench", "*.py")):
        with open(path) as fh:
            used.update((n, os.path.basename(path)) for n in re.findall(r"\bP\.(\w+)", fh.read()))
    used.update((n, "README.md") for n in re.findall(r"\bpclab\.(\w+)", _tour()))
    assert len(used) > 40
    missing = {n: where for n, where in used.items() if n not in pclab.__all__}
    assert not missing


def test_readme_tour_runs_on_the_exported_names_alone():
    # the tour's pclab holds the __all__ names and nothing else
    prelude = ("import types, pclab\n"
               "pclab = types.SimpleNamespace(**{n: getattr(pclab, n) for n in pclab.__all__})\n")
    tour = _tour()
    assert tour.startswith("import pclab\n")
    proc = subprocess.run([sys.executable, "-c", prelude + tour[len("import pclab\n"):]],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name, home", sorted(DROPPED.items()))
def test_dropped_names_stay_in_their_module(name, home):
    assert not hasattr(pclab, name)
    assert name not in _module(home).__all__
    assert hasattr(_module(home), name)
