"""Imports: every module uses what it imports, and an invocation loads only
the modules its subcommand runs, and none of the standard library's costly
class machinery (`dataclasses`, and through it `inspect`).

The unused-import scan checks each scope on its own: the module's imports
against the names used anywhere in the module, and each function's imports
against the names used in that function.  Names that appear only inside
string annotations count as used.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbitkit

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orbitkit"
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imported_names(scope):
    """Names bound by the imports of `scope`, outside the functions nested in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif not isinstance(node, _FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, _FUNCTIONS):
            yield node.returns
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    nodes = list(ast.walk(tree))
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                nodes.extend(ast.walk(ast.parse(node.value, mode="eval")))
    return {node.id for node in nodes if isinstance(node, ast.Name)}


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    scopes = [tree] + [node for node in ast.walk(tree) if isinstance(node, _FUNCTIONS)]
    unused = []
    for scope in scopes:
        used = _used_names(scope)
        unused += [(name, line) for name, line in _imported_names(scope) if name not in used]
    return sorted(unused, key=lambda found: found[1])


def test_scanner_flags_an_unused_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import os\nfrom typing import Optional, Sequence\n"
                   "def f(x: 'Optional[int]'):\n    return x\n")
    assert unused_imports(src) == [("os", 1), ("Sequence", 2)]


def test_scanner_checks_a_function_local_import_against_its_function(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def f():\n"
                   "    import json\n"
                   "    from os import path, sep\n"
                   "    def g():\n"
                   "        return path\n"
                   "    return g\n"
                   "def h():\n"
                   "    return json, sep\n")
    assert unused_imports(src) == [("json", 2), ("sep", 3)]


def test_no_module_imports_dataclasses():
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importers.append((path.name, node.lineno))
    assert importers == []


def test_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = {p.name: found for p in modules if (found := unused_imports(p))}
    assert unused == {}


# -- what each invocation loads --------------------------------------------------

BASE = ["orbitkit", "orbitkit.catalog", "orbitkit.cli", "orbitkit.liealg", "orbitkit.linalg"]

LOADS = {   # the modules a subcommand adds to BASE
    ("catalog",): [],
    ("validate", "catalog:heisenberg3"): [],
    ("orbit", "catalog:heisenberg3", "--point=0,0,1"): [],
    ("conditions", "catalog:heisenberg3", "--sub", "plane", "--point=0,0,1"): ["conditions"],
    ("mackey", "catalog:heisenberg3", "--ideal", "plane", "--point=0,0,1"): ["mackey"],
    ("classify", "catalog:euclid2", "--ideal", "translations", "--point=0,1,0"):
        ["mackey", "polynomials"],
    ("record", "catalog:heisenberg3", "--sub", "plane", "--point=0,0,1"): ["induction"],
    ("parabolic", "catalog:sl2", "--element=1,0,0"): ["polynomials", "reductive"],
    ("polarize", "catalog:heisenberg3", "--point=0,0,1"):
        ["conditions", "polarization", "polynomials"],
}

SLOW_STDLIB = ("dataclasses", "inspect")   # never loaded by an invocation

LOADED = """
import json, sys
{run}
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "orbitkit" or m in {slow!r})),
      file=sys.stderr)
"""


def _loaded_after(run: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    env.pop("ORBITKIT_CATALOG_DIR", None)
    code = LOADED.format(run=run, slow=SLOW_STDLIB)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stderr)


def test_a_bare_package_import_loads_no_module():
    assert _loaded_after("import orbitkit") == ["orbitkit"]


def test_each_subcommand_loads_only_the_modules_it_runs():
    # _loaded_after also lists SLOW_STDLIB modules, which no subcommand may load
    for argv, extra in LOADS.items():
        run = f"from orbitkit import cli\ncli.main({list(argv)!r})"
        assert _loaded_after(run) == sorted(BASE + [f"orbitkit.{m}" for m in extra]), argv


def test_every_package_name_is_its_modules_attribute():
    for name, module in orbitkit._EXPORTS.items():
        assert getattr(orbitkit, name) is getattr(
            importlib.import_module(f"orbitkit.{module}"), name), name
    assert set(orbitkit._EXPORTS) <= set(dir(orbitkit))
    with pytest.raises(AttributeError, match="nosuch"):
        orbitkit.nosuch
