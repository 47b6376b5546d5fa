import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gmsel


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(gmsel.__path__)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"gmsel.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_no_third_party_import_beyond_numpy_and_yaml():
    # gmsel depends on numpy and PyYAML only.  A fresh interpreter shows which
    # top-level packages the package, the CLI, the theory lab and a report
    # (its sign test) load beyond those present at start-up.  __mp_main__ is
    # multiprocessing's alias of __main__.
    code = """
import sys
before = set(sys.modules)
import gmsel, gmsel.cli, gmsel.theory
from gmsel.bench import TrialRecord, report
records = [TrialRecord("d", rep, 0, m, g, g, g, 1, 0)
           for rep in range(4) for m, g in (("1nn", rep / 4), ("rus", 0.6))]
report(records)
loaded = {m.partition(".")[0] for m in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"gmsel", "numpy", "yaml", "__mp_main__"}))
"""
    src = str(Path(gmsel.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_only_knn_and_bench_build_a_neighbour_index():
    # every other module's index goes through knn._index_over, which builds
    # one when none is passed and rejects one over other rows or queries; bench
    # builds each fold's two
    texts = {p.name: p.read_text() for p in Path(gmsel.__file__).parent.glob("*.py")}
    assert {n for n, t in texts.items() if re.search(r"\bNeighbourIndex\(", t)} \
        == {"knn.py", "bench.py"}
    assert {n for n, t in texts.items() if "if index is None" in t} == {"knn.py"}


def test_only_knn_orders_distances():
    # equal distances go to the lowest index only because every ordering of
    # distances is knn's, so no other module calls an argmin, a sort of
    # positions or a partition.  np.argmax over fitnesses and np.sort of row
    # numbers order no distances, so they are not searched for.
    ordering = re.compile(r"\b(argmin|argsort|argpartition|partition|lexsort)\(")
    modules = Path(gmsel.__file__).parent.glob("*.py")
    assert {p.name for p in modules if ordering.search(p.read_text())} == {"knn.py"}
