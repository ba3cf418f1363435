"""Every per-layer span that `perfbench/run.py` reads is one the tracer makes.

`perfbench/tracer.py` wraps the public functions and methods of each module
in its LAYERS and names each span after the module that defines the
function.  A function that moves to a module outside LAYERS, or is renamed,
keeps working, but its span, and each metric read from it, reads 0 from then
on.  These tests catch that, and a module of LAYERS that no longer imports,
which would break `--trace 1`.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import run  # noqa: E402  (perfbench/ is not a package)
import tracer  # noqa: E402

# spans run.py reads whose functions are gone; the next change to the
# benchmark drops or renames them
DEAD = {"liealg.structure_probe", "liealg.subalgebra", "liealg.quotient",
        "polynomials.rational_roots", "linalg.Matrix.apply", "reductive.jordan_triple",
        "mackey.abelian_step"}
# made by the tracer around the first import of sympy, not by wrapping a function
MADE_BY_THE_TRACER = {"cli.sympy_import"}

INSTALLED = """
import json, sys
from tracer import Tracer
t = Tracer()
t.install()
print(json.dumps(sorted(t.totals)))
"""


class _Reads(dict):
    """An empty span table that records the names looked up in it."""

    def __init__(self):
        super().__init__()
        self.names = set()

    def get(self, name, default=None):
        self.names.add(name)
        return default


def spans_read_by_the_benchmark() -> set:
    spans = _Reads()
    result = SimpleNamespace(code=2, stdout=b"", wall_s=1.0, stats={
        "import_s": 0.0, "spans": spans, "rref_max_cells": 0, "max_rational_bits": 0})
    run.per_layer([(SimpleNamespace(args=["orbit"]), result)], 1.0)
    return spans.names


def spans_the_tracer_installs() -> set:
    # in a child process, since installing patches every layer module
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    proc = subprocess.run([sys.executable, "-c", INSTALLED], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return set(json.loads(proc.stdout))


def test_every_layer_module_imports():
    for layer in tracer.LAYERS:
        assert importlib.import_module(f"orbitkit.{layer}").__name__ == f"orbitkit.{layer}"


def test_every_span_the_benchmark_reads_is_installed():
    read, installed = spans_read_by_the_benchmark(), spans_the_tracer_installs()
    assert {"polynomials.charpoly", "liealg.validate", "liealg.kks_pairing",
            "liealg.krylov_hull", "catalog.load_entry_file", "catalog.builtin_catalog",
            "linalg.Matrix.rref", "linalg.solve", "mackey.abelian_step",
            "reductive.grade"} <= read
    assert sorted(read - DEAD - MADE_BY_THE_TRACER - installed) == []
    # a dead span that comes back, or stops being read, leaves this list
    assert DEAD <= read and not DEAD & installed
