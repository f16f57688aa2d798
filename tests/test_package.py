"""The package surface and the modules a call loads, each case in a fresh
interpreter, since an import in this process would leak into the next
case.  Nothing here is timed."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import unitfrac

SRC = os.path.dirname(os.path.dirname(unitfrac.__file__))
HEAVY = {"boundsearch", "asymptotics", "decomposition", "sweep"}


def fresh(code: str, *argv: str):
    """Run `code` with `argv` in a new interpreter that imports unitfrac
    from this tree; return what it prints as JSON on its last line."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


LOADED = """
import sys
print(json.dumps(sorted(m.split(".", 1)[1] for m in sys.modules
                        if m.startswith("unitfrac."))))
"""
RUN_CLI = """
import json, runpy, sys
sys.argv = ["unitfrac"] + sys.argv[1:]
try:
    runpy.run_module("unitfrac", run_name="__main__")
except SystemExit:
    pass
""" + LOADED


def loaded_by(statement: str) -> set:
    return set(fresh("import json\n" + statement + LOADED))


def test_count_loads_no_search_sweep_or_asymptotics():
    assert not loaded_by("from unitfrac import count_representations") & HEAVY
    cli = set(fresh(RUN_CLI, "count", "1", "1", "4"))
    assert "enumeration" in cli
    assert not cli & HEAVY
    # closure, which the package binds, loads the catalog on first use
    assert "catalog" not in (
        loaded_by("from unitfrac import count_representations") | cli)


def test_help_loads_no_enumeration():
    loaded = set(fresh(RUN_CLI, "--help"))
    assert "cli" in loaded
    assert not loaded & (HEAVY | {"enumeration"})


def test_sweep_loads_neither_search_nor_asymptotics():
    loaded = loaded_by("import unitfrac.sweep")
    assert "decomposition" not in loaded
    assert not loaded & {"boundsearch", "asymptotics"}


def test_search_compiles_its_walk_on_first_use():
    compiled = fresh("""
import json
from unitfrac import boundsearch
boundsearch.combine({"t1": 1})
boundsearch.partition({"z23": 1, "z234": 1}, 1)
before = boundsearch.compiled_walk.cache_info().currsize
boundsearch.search(1)
print(json.dumps([before, boundsearch.compiled_walk.cache_info().currsize]))
""")
    assert compiled == [0, 1]


def test_search_builds_no_closure_rules_and_replay_does():
    built = fresh("""
import json
from unitfrac import catalog
from unitfrac.boundsearch import (default_library, replay_witness, search,
                                  witness_to_json)
result = search(3)
search(3, library=default_library())
before = catalog.build_rules.cache_info().currsize
replay_witness(json.loads(witness_to_json(result.frontier[0])))
print(json.dumps([before, catalog.build_rules.cache_info().currsize]))
""")
    assert built[0] == 0
    assert built[1] > 0


HAS_DATACLASSES = """
import sys
print(json.dumps("dataclasses" in sys.modules))
"""

SWEEP_IMPORTS = """
import sys
print(json.dumps([name in sys.modules for name in
                  ("unitfrac.sweep", "dataclasses", "unitfrac.decomposition")]))
"""


def test_count_and_search_load_no_dataclasses():
    count = fresh("""
import json
from unitfrac import count_representations
count_representations(1, 1, 4)
""" + HAS_DATACLASSES)
    searched = fresh("""
import json
from unitfrac import default_library, replay_witness, search, witness_to_json
result = search(3, library=default_library())
replay_witness(json.loads(witness_to_json(result.frontier[0])))
""" + HAS_DATACLASSES)
    swept = fresh("""
import json
from unitfrac import sweep_soundness
sweep_soundness(3, 4, "reduced")
""" + SWEEP_IMPORTS)
    cli_sweep = fresh(RUN_CLI + SWEEP_IMPORTS, "sweep", "--nmax", "3")
    cli_count = fresh(RUN_CLI + HAS_DATACLASSES, "count", "1", "1", "4")
    cli_search = fresh(RUN_CLI + HAS_DATACLASSES, "search", "--budget", "2")
    assert [count, searched, cli_count, cli_search] == [False] * 4
    # the sweep ran, and loaded neither dataclasses nor decomposition
    assert swept == cli_sweep == [True, False, False]
    # the check itself sees the modules that do use dataclasses
    assert fresh("import json\nimport unitfrac.decomposition" + HAS_DATACLASSES)


@pytest.mark.parametrize("first", ["import unitfrac.boundsearch",
                                   "from unitfrac import search"])
def test_closure_is_the_function_in_every_import_order(first):
    kinds = fresh("import json\n" + first + """
import unitfrac
from unitfrac import closure
print(json.dumps([type(unitfrac.closure).__name__, type(closure).__name__]))
""")
    assert kinds == ["function", "function"]


def test_package_surface():
    surface = fresh("""
import json, types
import unitfrac
listed = set(dir(unitfrac)) >= set(unitfrac.__all__)
try:
    unitfrac.nope
    missing = None
except AttributeError as exc:
    missing = str(exc)
from unitfrac import arith
names = {}
exec("from unitfrac import *", names)
print(json.dumps({
    "listed": listed,
    "missing": missing,
    "arith": isinstance(arith, types.ModuleType) and arith.__name__,
    "star": sorted(set(unitfrac.__all__) - set(names)),
}))
""")
    assert surface["listed"]
    assert "'nope'" in surface["missing"]
    assert surface["arith"] == "unitfrac.arith"
    assert surface["star"] == []
