"""Every recorded benchmark output, replayed in-process through `cli.main`.

`perfbench/golden/NAME.json` holds the stdout and exit code of each
invocation of the benchmark's workload NAME at its default seed.  Each one
is replayed here, in a directory holding the workload's definition files,
and must match byte for byte.

A few catalog-sweep goldens were recorded while those invocations still
crashed with a traceback (empty stdout, exit 1); the benchmark marks them
`known_failure`, and its files are only re-recorded with the next change to
the benchmark.  For those the harness's own envelope rules are asserted
instead: stdout is one JSON envelope, the exit code is 2 exactly when it has
an `error` key, and `ok` agrees with the exit code.
"""

import json
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
    else:
        assert (code, out.encode()) == (want["exit"], want["stdout"].encode())


@pytest.mark.parametrize("ident", sorted(CASES))
def test_catalog_invocation_matches_its_golden_output(ident, tmp_path, monkeypatch, capsys):
    _replay("catalog_sweep", ident, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("name,ident", FAMILY_CASES, ids=[f"{n}:{i}" for n, i in FAMILY_CASES])
def test_family_invocation_matches_its_golden_output(name, ident, tmp_path, monkeypatch, capsys):
    _replay(name, ident, tmp_path, monkeypatch, capsys)
