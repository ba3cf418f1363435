"""Imports: every module and test file uses what it imports, no module
imports the CLI or anything outside the standard library, and an invocation
loads only the modules its subcommand runs, none of the standard library's
costly class machinery (`dataclasses`, and through it `inspect`), no
`typing` and no argument parser library (`argparse`, with the `gettext` and
`locale` it imports).  The package root binds no public name, no module
reads the environment, and every public function and class is named
somewhere in the package outside its own definition, and every public
method is read there as an attribute (`.name`), or is listed in `KEPT` with
the reason it stays.  Every private one is named outside its own
definition too, and has no such list.

The unused-import scan checks each scope on its own: the module's imports
against the names used anywhere in the module, and each function's imports
against the names used in that function.  Names that appear only inside
string annotations count as used.

Each invocation also compiles its modules from source (no bytecode is
cached where the benchmark runs), so the AST nodes of the modules it loads
stay under a budget per invocation.
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


def environment_reads(path: Path) -> list:
    """(name, line) for each read of the environment in `path`: `os.environ`,
    `os.getenv` and their bytes forms, as an attribute or imported by name."""
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(alias.name, node.lineno) for alias in node.names if alias.name in names]
    return sorted(found, key=lambda item: item[1])


def test_the_environment_scan_finds_each_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import os\nfrom os import getenv\nos.environ.get('X')\n"
                   "os.getenv('Y')\nos.path.join('a')\n")
    assert environment_reads(src) == [("getenv", 2), ("environ", 3), ("getenv", 4)]


def test_no_module_reads_the_environment():
    """A report depends only on its argv and the files it names."""
    reads = {path.name: found for path in sorted(PACKAGE.glob("*.py"))
             if (found := environment_reads(path))}
    assert reads == {}


# public names that no code of the package names, each with the reason it stays
KEPT = {
    "liealg.LieAlgebra.bracket": "the coercing bracket for outside vectors; "
                                 "perfbench reads its span",
    "mackey.mackey_report": "one point's result, for library callers",
}


def _attributes_read(node) -> set:
    """The names that `node` reads as an attribute, `.name`."""
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _named_in(node) -> set:
    """The names that `node` uses, as an `ast.Name` or an `ast.Attribute`."""
    return _used_names(node) | _attributes_read(node)


def _top_level_statements(package: Path) -> list:
    """(module, statement, the names it uses) for each top-level statement of `package`."""
    return [(path.stem, stmt, _named_in(stmt)) for path in sorted(package.glob("*.py"))
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body]


def public_names_without_a_caller(package: Path) -> set:
    """"module.name" for each public top-level function or class of `package` that
    no top-level statement of the package names but the one that defines it, and
    "module.Class.method" for each public method that none of them reads as an
    attribute: a bare name never calls a method, so a module function does not
    stand in for a namesake method."""
    statements = [(module, stmt, used, _attributes_read(stmt))
                  for module, stmt, used in _top_level_statements(package)]
    uncalled = set()
    for module, stmt, _, _ in statements:
        if not isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)) or stmt.name.startswith("_"):
            continue
        others = [(used, read) for _, other, used, read in statements if other is not stmt]
        if not any(stmt.name in used for used, _ in others):
            uncalled.add(f"{module}.{stmt.name}")
        uncalled |= {f"{module}.{stmt.name}.{node.name}"
                     for node in (stmt.body if isinstance(stmt, ast.ClassDef) else ())
                     if isinstance(node, _FUNCTIONS) and not node.name.startswith("_")
                     and not any(node.name in read for _, read in others)}
    return uncalled


def test_the_caller_scan_looks_outside_the_defining_statement(tmp_path):
    (tmp_path / "a.py").write_text("def used():\n    pass\n"
                                   "def alone():\n    return alone()\n"
                                   "class Box:\n"
                                   "    def read(self):\n        return self.write()\n"
                                   "    def write(self):\n        pass\n"
                                   "    def _hidden(self):\n        pass\n")
    (tmp_path / "b.py").write_text("from a import alone, used\nused()\n"
                                   "def f(box: 'Box'):\n    return box.read\n")
    assert public_names_without_a_caller(tmp_path) == {"a.alone", "a.Box.write", "b.f"}


def test_the_caller_scan_counts_a_method_only_through_an_attribute(tmp_path):
    """`peek(box)` calls the function `peek`, never the method `Box.peek`."""
    (tmp_path / "a.py").write_text("def peek(box):\n    return box\n"
                                   "class Box:\n"
                                   "    def peek(self):\n        pass\n"
                                   "    def open(self):\n        pass\n")
    (tmp_path / "b.py").write_text("from a import Box, peek\npeek(Box().open())\n")
    assert public_names_without_a_caller(tmp_path) == {"a.Box.peek"}


def test_every_public_name_has_a_caller():
    """A public name that the package never names is API that only tests reach;
    it goes, or `KEPT` says why it stays."""
    assert public_names_without_a_caller(PACKAGE) == set(KEPT)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_names_without_a_caller(package: Path) -> set:
    """"module.name" for each private top-level function, class or assigned name of
    `package` that no other top-level statement of the package names, and
    "module.Class.method" for each private method that no other member of its
    class and no other top-level statement names.  Dunders are exempt."""
    statements = _top_level_statements(package)
    uncalled = set()
    for module, stmt, _ in statements:
        elsewhere = [used for _, other, used in statements if other is not stmt]
        if isinstance(stmt, (*_FUNCTIONS, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        uncalled |= {f"{module}.{name}" for name in names
                     if _is_private(name) and not any(name in used for used in elsewhere)}
        for node in stmt.body if isinstance(stmt, ast.ClassDef) else ():
            if isinstance(node, _FUNCTIONS) and _is_private(node.name):
                members = [_named_in(other) for other in stmt.body if other is not node]
                if not any(node.name in used for used in members + elsewhere):
                    uncalled.add(f"{module}.{stmt.name}.{node.name}")
    return uncalled


def test_the_private_caller_scan_counts_class_members_and_exempts_dunders(tmp_path):
    (tmp_path / "a.py").write_text("_LIMIT, _spare = 3, 4\n"
                                   "def _helper():\n    return _helper()\n"
                                   "def _loop(setup):\n    return setup\n"
                                   "class _Box:\n"
                                   "    def __len__(self):\n        return self._size()\n"
                                   "    def _size(self):\n        return _LIMIT\n"
                                   "    def _unused(self):\n        pass\n"
                                   "    def _reached(self):\n        pass\n")
    (tmp_path / "b.py").write_text("from a import _Box\n"
                                   "def f(box: '_Box'):\n    return box._reached()\n")
    assert private_names_without_a_caller(tmp_path) == {
        "a._spare", "a._helper", "a._loop", "a._Box._unused"}


def test_every_private_name_has_a_caller():
    """Private code that nothing in the package names is dead: it goes."""
    assert private_names_without_a_caller(PACKAGE) == set()


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


# -- what each invocation loads and compiles -----------------------------------

BASE = ["orbitkit", "orbitkit.catalog", "orbitkit.cli", "orbitkit.liealg", "orbitkit.linalg"]

# argv -> (the modules it adds to BASE, the most AST nodes (`ast.walk`) that the
# package modules it loads may hold: what it compiles from source).  Every
# invocation compiles BASE, 9,531 nodes when the budgets were set; a budget is
# its row's count then, rounded up to the next 100.  Before `linalg.Matrix`
# lost its arithmetic, BASE held 10,270 nodes and `parabolic` 15,225; before
# the subcommand handlers moved out of `cli`, BASE held 11,211 nodes, every
# `polarize` 15,863, `mackey` and `classify` 14,012 and `parabolic` 16,075.
LOADS = {
    ("catalog",): ([], 9_600),
    ("validate", "catalog:heisenberg3"): ([], 9_600),
    ("orbit", "catalog:heisenberg3", "--point=0,0,1"): ([], 9_600),
    ("conditions", "catalog:heisenberg3", "--sub", "plane", "--point=0,0,1"):
        (["conditions", "structure"], 10_400),
    ("mackey", "catalog:heisenberg3", "--ideal", "plane", "--point=0,0,1"):
        (["mackey", "structure"], 12_400),
    ("classify", "catalog:euclid2", "--ideal", "translations", "--point=0,1,0"):
        (["mackey", "structure"], 12_400),
    ("record", "catalog:heisenberg3", "--sub", "plane", "--point=0,0,1"):
        (["induction", "structure"], 10_500),
    ("parabolic", "catalog:sl2", "--element=1,0,0"):
        (["polynomials", "qi_roots", "reductive"], 14_600),
    # nilpotent: the Engel shortcut compiles no polynomial code
    ("polarize", "catalog:heisenberg3", "--point=0,0,1"):
        (["conditions", "exponential", "polarization", "structure"], 12_200),
    # solvable, not nilpotent: the sampled precheck, then the search
    ("polarize", "catalog:affine_line", "--point=0,1"):
        (["conditions", "exponential", "polarization", "polynomials", "structure"], 14_300),
    # the precheck fails (exit 2) before the search is imported
    ("polarize", "catalog:sl2", "--point=2,0,0"): (["exponential", "polynomials"], 12_200),
    # definition files, the benchmark's own traffic
    ("validate", "h3.json"): ([], 9_600),
    ("orbit", "h3.json", "--point=0,0,1"): ([], 9_600),
    ("conditions", "h3.json", "--sub", "plane", "--point=0,0,1"):
        (["conditions", "structure"], 10_400),
    ("mackey", "h3.json", "--ideal", "plane", "--point=0,0,1"):
        (["mackey", "structure"], 12_400),
    ("classify", "h3.json", "--ideal", "plane", "--point=0,0,1"):
        (["mackey", "structure"], 12_400),
    ("record", "h3.json", "--sub", "plane", "--point=0,0,1"):
        (["induction", "structure"], 10_500),
    ("parabolic", "sl2.json", "--element=1,0,0"):
        (["polynomials", "qi_roots", "reductive"], 14_600),
    ("polarize", "h3.json", "--point=0,0,1"):
        (["conditions", "exponential", "polarization", "structure"], 12_200),
}
# the rows of LOADS that exit 2 with the error envelope; every other row prints a report
REFUSED = {("polarize", "catalog:sl2", "--point=2,0,0")}

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
    code = LOADED.format(run=run, slow=SLOW_STDLIB)
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stderr)


def test_a_bare_package_import_loads_no_module():
    assert _loaded_after("import orbitkit") == ["orbitkit"]


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """argv -> the modules `_loaded_after` lists for each row of LOADS, which also
    lists SLOW_STDLIB modules, so that no subcommand may load one."""
    cwd = tmp_path_factory.mktemp("definitions")
    for name, doc in DEFINITIONS.items():
        (cwd / name).write_text(json.dumps(doc), encoding="utf-8")
    found = {}
    for argv in LOADS:
        codes = (2,) if argv in REFUSED else (0, 1)
        run = (f"from orbitkit import cli\n"
               f"assert cli.main({list(argv)!r}) in {codes!r}, 'exit code'")
        found[argv] = _loaded_after(run, cwd)
    return found


def test_each_subcommand_loads_only_the_modules_it_runs(loaded):
    for argv, (extra, _) in LOADS.items():
        assert loaded[argv] == sorted(BASE + [f"orbitkit.{m}" for m in extra]), argv


def compiled_nodes(module: str) -> int:
    """The AST nodes of a module of the package, `ast.walk`'s count: what importing
    it compiles from source when no bytecode is cached."""
    path = PACKAGE / ("__init__.py" if module == "orbitkit" else f"{module.split('.')[1]}.py")
    return sum(1 for _ in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))


def test_each_invocation_compiles_within_its_node_budget(loaded):
    """Start-up is most of an invocation, and compiling the package from source is
    the part of it the package decides: each row's modules stay within its budget."""
    over = {argv: (total, budget) for argv, (_, budget) in LOADS.items()
            if (total := sum(map(compiled_nodes, loaded[argv]))) > budget}
    assert over == {}


@pytest.mark.parametrize("argv, loads_random", [
    (["polarize", "catalog:heisenberg3", "--point=0,0,1"], False),
    (["polarize", "catalog:affine_line", "--point=0,1"], True),
], ids=["nilpotent", "solvable"])
def test_the_engel_shortcut_samples_nothing(argv, loads_random):
    """On a nilpotent algebra the precheck draws no sample: `random` is never imported."""
    run = (f"import sys\nfrom orbitkit import cli\nassert cli.main({argv!r}) == 0\n"
           f"assert ('random' in sys.modules) is {loads_random!r}")
    assert "orbitkit.exponential" in _loaded_after(run)


def test_the_package_root_binds_no_public_name():
    # each name is imported from its module; the root has no PEP 562 hook
    run = ("import orbitkit\n"
           "assert [n for n in vars(orbitkit) if not n.startswith('_')] == []\n"
           "assert not hasattr(orbitkit, 'Matrix')")
    assert _loaded_after(run) == ["orbitkit"]
