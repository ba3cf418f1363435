"""Every recorded benchmark output, replayed in-process through `cli.main`.

`perfbench/golden/NAME.json` holds the stdout and exit code of each
invocation of the benchmark's workload NAME at its default seed.  Each one
is replayed here, in a directory holding the workload's definition files,
and must match byte for byte.

A few catalog-sweep goldens were recorded while those invocations still
crashed with a traceback (empty stdout, exit 1); the benchmark marks them
`known_failure`, and its files are only re-recorded with the next change to
the benchmark.  The harness never compares such an invocation with its golden,
so its own rules are asserted instead: stdout is one JSON envelope, the exit
code is 2 exactly when it has an `error` key, `ok` agrees with the exit code,
and the exit code is the one the invocation's `expect` names (2 for "error",
0 or 1 for "report"), since a reproducer that stopped exiting 2 would lower
the benchmark's pass ratio.

A few goldens are also replayed through a real process, `python -m
orbitkit.cli`, whose entry `cli.run` ends without interpreter teardown: one
per subcommand, among them an exit-1 report and an exit-2 envelope, plus an
`--output` run, a usage error and `-h`.  Every `parabolic` golden is also
replayed in one process that cannot import sympy, since the package runs on
the standard library alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbitkit import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402  (perfbench/ is not a package)


def _load(name):
    golden = json.loads((PERFBENCH / "golden" / f"{name}.json").read_text(encoding="utf-8"))
    wl = workloads.build(name, golden["seed"], full=True)
    return wl, {inv.id: inv for inv in wl.setup + wl.round}, golden["invocations"]


WORKLOADS = {name: _load(name) for name in ("catalog_sweep", "family_orbit", "parabolic_polarize")}
CASES = WORKLOADS["catalog_sweep"][2]
KNOWN_FAILURES = {ident for ident, inv in WORKLOADS["catalog_sweep"][1].items()
                  if inv.known_failure is not None}
FAMILY_CASES = [(name, ident) for name in ("family_orbit", "parabolic_polarize")
                for ident in sorted(WORKLOADS[name][2])]


def test_the_replay_covers_the_catalog_sweep():
    assert len(CASES) == 91
    assert len([ident for ident, want in CASES.items()
                if any(arg.endswith(".json") for arg in want["args"])]) == 7
    assert len(KNOWN_FAILURES & CASES.keys()) == 9


def test_the_replay_covers_the_family_workloads():
    assert len(WORKLOADS["family_orbit"][2]) == 32
    assert len(WORKLOADS["parabolic_polarize"][2]) == 35
    assert all(inv.known_failure is None
               for name in ("family_orbit", "parabolic_polarize")
               for inv in WORKLOADS[name][1].values())


def _replay(name, ident, tmp_path, monkeypatch, capsys):
    wl, invocations, goldens = WORKLOADS[name]
    inv, want = invocations[ident], goldens[ident]
    assert inv.args == want["args"]
    workloads.write_files(wl, tmp_path)
    monkeypatch.chdir(tmp_path)
    code = cli.main(list(inv.args))
    out = capsys.readouterr().out
    if inv.known_failure is not None:
        env = json.loads(out)
        assert {"schema", "command", "ok"} <= env.keys()
        assert (code == 2) == ("error" in env)
        assert env["ok"] == (code == 0)
        assert code in {"error": (2,), "report": (0, 1), "envelope": (0, 1, 2)}[inv.expect]
    else:
        assert (code, out.encode()) == (want["exit"], want["stdout"].encode())


@pytest.mark.parametrize("ident", sorted(CASES))
def test_catalog_invocation_matches_its_golden_output(ident, tmp_path, monkeypatch, capsys):
    _replay("catalog_sweep", ident, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("name,ident", FAMILY_CASES, ids=[f"{n}:{i}" for n, i in FAMILY_CASES])
def test_family_invocation_matches_its_golden_output(name, ident, tmp_path, monkeypatch, capsys):
    _replay(name, ident, tmp_path, monkeypatch, capsys)


# -- the same goldens through a real process ---------------------------------

# one golden per subcommand; conditions:n5 exits 1, invalid:validate_jacobi_failure 2
PROCESS_CASES = [
    ("catalog_sweep", "catalog"),
    ("family_orbit", "validate:L9"),
    ("family_orbit", "orbit:L9"),
    ("family_orbit", "conditions:n5"),
    ("family_orbit", "mackey:h9"),
    ("parabolic_polarize", "polarize:L6"),
    ("parabolic_polarize", "parabolic:sl3:0"),
    ("family_orbit", "classify:L9"),
    ("family_orbit", "record:h9"),
    ("catalog_sweep", "invalid:validate_jacobi_failure"),
]


@pytest.fixture(scope="module")
def workdirs(tmp_path_factory):
    """One directory per workload, holding its definition files."""
    dirs = {}
    for name in {name for name, _ in PROCESS_CASES}:
        dirs[name] = tmp_path_factory.mktemp(name)
        workloads.write_files(WORKLOADS[name][0], dirs[name])
    return dirs


def _cli_process(args, cwd):
    """The finished `python -m orbitkit.cli ARGS`, its stdout block-buffered, as
    a user's pipe is, so a report left unflushed at the fast exit would be lost."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "orbitkit.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def test_the_process_cases_cover_every_subcommand_and_exit_code():
    goldens = [WORKLOADS[name][2][ident] for name, ident in PROCESS_CASES]
    assert sorted({g["args"][0] for g in goldens}) == sorted(cli._COMMANDS)
    assert {g["exit"] for g in goldens} == {0, 1, 2}
    assert not any(WORKLOADS[name][1][ident].known_failure for name, ident in PROCESS_CASES)


@pytest.mark.parametrize("name,ident", PROCESS_CASES, ids=[i for _, i in PROCESS_CASES])
def test_a_process_replays_its_golden_output(name, ident, workdirs):
    want = WORKLOADS[name][2][ident]
    proc = _cli_process(want["args"], workdirs[name])
    assert (proc.returncode, proc.stdout, proc.stderr) == (want["exit"], want["stdout"], "")


def test_a_process_writes_its_output_file(workdirs, tmp_path):
    want = WORKLOADS["family_orbit"][2]["orbit:L9"]
    path = tmp_path / "report.json"
    proc = _cli_process(want["args"] + ["-o", str(path)], workdirs["family_orbit"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert path.read_text(encoding="utf-8") == want["stdout"]


# -- the parabolic goldens with sympy blocked ------------------------------------

PARABOLIC_CASES = [(name, ident) for name in ("catalog_sweep", "parabolic_polarize")
                   for ident in sorted(WORKLOADS[name][2]) if ident.startswith("parabolic:")]

WITHOUT_SYMPY = """
import contextlib, io, json, sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
from orbitkit import cli

def run(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    return [code, out.getvalue()]

print(json.dumps([run(args) for args in json.loads(sys.argv[1])]))
"""


def test_every_parabolic_golden_replays_with_sympy_blocked(workdirs):
    """One interpreter in which sympy cannot be imported replays every `parabolic`
    golden: the 17 of parabolic_polarize and the 7 of catalog_sweep, among them
    the sl3 spectrum whose error names the irreducible cubic."""
    assert len(PARABOLIC_CASES) == 24
    assert not any(WORKLOADS[name][1][ident].known_failure for name, ident in PARABOLIC_CASES)
    wanted = [WORKLOADS[name][2][ident] for name, ident in PARABOLIC_CASES]
    assert "factor x^3 - 5*x - 9 (irreducible factor of degree 3)" in \
        WORKLOADS["catalog_sweep"][2]["parabolic:sl3"]["stdout"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SYMPY, json.dumps([want["args"] for want in wanted])],
        cwd=workdirs["parabolic_polarize"], env=env, capture_output=True, text=True,
        timeout=120, check=True)
    assert json.loads(proc.stdout) == [[want["exit"], want["stdout"]] for want in wanted]


def test_a_process_reports_a_usage_error_and_its_help(tmp_path):
    proc = _cli_process(["orbit"], tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.endswith(
        "orbitkit orbit: error: the following arguments are required: ALGEBRA\n")
    proc = _cli_process(["orbit", "-h"], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, cli._help("orbit"), "")
