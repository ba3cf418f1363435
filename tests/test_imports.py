"""Imports: every module and test file uses what it imports, no module
imports the CLI or anything outside the standard library, and an invocation
loads only the modules its subcommand runs, none of the standard library's
costly class machinery (`dataclasses`, and through it `inspect`), no
`typing` and no argument parser library (`argparse`, with the `gettext` and
`locale` it imports).  The package root binds no public name.

The unused-import scan checks each scope on its own: the module's imports
against the names used anywhere in the module, and each function's imports
against the names used in that function.  Names that appear only inside
string annotations count as used.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "orbitkit"
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


def imported_modules(path: Path):
    """(module, line) for each module that `path`, a module of the package, imports.

    A relative import is resolved against the package, and `from X import name`
    also yields X.name, which is a module when X is a package.
    """
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["orbitkit" if node.level else "", node.module]))
            yield base, node.lineno
            for alias in node.names:
                yield f"{base}.{alias.name}", node.lineno


def _importers_of(module: str) -> list:
    return [(path.name, line) for path in sorted(PACKAGE.glob("*.py"))
            for name, line in imported_modules(path) if name.split(".")[0] == module]


def test_no_module_imports_dataclasses():
    assert _importers_of("dataclasses") == []


def test_no_module_imports_typing():
    # every annotation is a string (PEP 563): `X | None` needs no import, and
    # Callable, Iterable and Sequence come from collections.abc
    assert _importers_of("typing") == []


def test_no_module_imports_outside_the_standard_library():
    """The package runs on the standard library alone, and declares so."""
    outside = [(path.name, name, line) for path in sorted(PACKAGE.glob("*.py"))
               for name, line in imported_modules(path)
               if name.split(".")[0] not in sys.stdlib_module_names | {"orbitkit"}]
    assert outside == []
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["dependencies"] == []


def test_no_module_imports_the_cli():
    # under `python -m orbitkit.cli` the CLI runs as __main__, so importing
    # orbitkit.cli would compile and run it a second time
    importers = [(path.name, line) for path in sorted(PACKAGE.glob("*.py"))
                 for name, line in imported_modules(path) if name == "orbitkit.cli"]
    assert importers == []


def test_the_import_scan_resolves_relative_and_package_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from . import cli\nfrom .cli import main\nimport orbitkit.cli\n"
                   "from dataclasses import field\n")
    found = list(imported_modules(src))
    assert [line for name, line in found if name == "orbitkit.cli"] == [1, 2, 3]
    assert ("dataclasses", 4) in found


def test_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    tests = sorted(TESTS.glob("*.py"))
    assert modules and tests
    unused = {str(p.relative_to(PACKAGE.parents[1])): found
              for p in modules + tests if (found := unused_imports(p))}
    assert unused == {}


# -- what each invocation loads --------------------------------------------------

BASE = ["orbitkit", "orbitkit.catalog", "orbitkit.cli", "orbitkit.liealg", "orbitkit.linalg"]

LOADS = {   # the modules a subcommand adds to BASE
    ("catalog",): [],
    ("validate", "catalog:heisenberg3"): [],
    ("orbit", "catalog:heisenberg3", "--point=0,0,1"): [],
    ("conditions", "catalog:heisenberg3", "--sub", "plane", "--point=0,0,1"):
        ["conditions", "structure"],
    ("mackey", "catalog:heisenberg3", "--ideal", "plane", "--point=0,0,1"):
        ["mackey", "structure"],
    ("classify", "catalog:euclid2", "--ideal", "translations", "--point=0,1,0"):
        ["mackey", "polynomials", "structure"],
    ("record", "catalog:heisenberg3", "--sub", "plane", "--point=0,0,1"):
        ["induction", "structure"],
    ("parabolic", "catalog:sl2", "--element=1,0,0"):
        ["polynomials", "qi_roots", "reductive", "structure"],
    ("polarize", "catalog:heisenberg3", "--point=0,0,1"):
        ["conditions", "polarization", "polynomials", "structure"],
    # definition files, the benchmark's own traffic
    ("validate", "h3.json"): [],
    ("orbit", "h3.json", "--point=0,0,1"): [],
    ("classify", "h3.json", "--ideal", "plane", "--point=0,0,1"):
        ["mackey", "polynomials", "structure"],
    ("parabolic", "sl2.json", "--element=1,0,0"):
        ["polynomials", "qi_roots", "reductive", "structure"],
    ("polarize", "h3.json", "--point=0,0,1"):
        ["conditions", "polarization", "polynomials", "structure"],
}

# the definition files of LOADS: the Heisenberg algebra with an ideal, and sl2
# with the matrix representation that `parabolic` needs
DEFINITIONS = {
    "h3.json": {"name": "h3", "dim": 3, "basis": ["x", "y", "z"],
                "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}],
                "ideals": {"plane": [1, 2]}},
    "sl2.json": {"name": "sl2", "dim": 3, "basis": ["h", "e", "f"],
                 "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "2"}},
                              {"i": 0, "j": 2, "coeffs": {"2": "-2"}},
                              {"i": 1, "j": 2, "coeffs": {"0": "1"}}],
                 "matrix_rep": [[["1", "0"], ["0", "-1"]], [["0", "1"], ["0", "0"]],
                                [["0", "0"], ["1", "0"]]]},
}

# never loaded by an invocation: the standard library's class machinery and
# `typing`, and the argument parser library with the translation modules it
# imports
SLOW_STDLIB = ("dataclasses", "inspect", "typing", "argparse", "gettext", "locale")

LOADED = """
import json, sys
{run}
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "orbitkit" or m in {slow!r})),
      file=sys.stderr)
"""


def _loaded_after(run: str, cwd=None) -> list:
    # -S: a site hook (a .pth file in site-packages) may import any of
    # SLOW_STDLIB before the package runs, which would hide what the package
    # imports itself; PYTHONPATH still applies, and the package needs nothing
    # outside the standard library
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    env.pop("ORBITKIT_CATALOG_DIR", None)
    code = LOADED.format(run=run, slow=SLOW_STDLIB)
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stderr)


def test_a_bare_package_import_loads_no_module():
    assert _loaded_after("import orbitkit") == ["orbitkit"]


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path):
    # _loaded_after also lists SLOW_STDLIB modules, which no subcommand may load
    for name, doc in DEFINITIONS.items():
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    for argv, extra in LOADS.items():
        run = (f"from orbitkit import cli\n"
               f"assert cli.main({list(argv)!r}) in (0, 1), 'no report'")
        assert _loaded_after(run, tmp_path) == sorted(
            BASE + [f"orbitkit.{m}" for m in extra]), argv


def test_the_package_root_binds_no_public_name():
    # each name is imported from its module; the root has no PEP 562 hook
    run = ("import orbitkit\n"
           "assert [n for n in vars(orbitkit) if not n.startswith('_')] == []\n"
           "assert not hasattr(orbitkit, 'Matrix')")
    assert _loaded_after(run) == ["orbitkit"]
