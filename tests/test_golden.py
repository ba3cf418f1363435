"""Every recorded catalog-sweep output, replayed in-process through `cli.main`.

`perfbench/golden/catalog_sweep.json` holds the stdout and exit code of each
invocation of the benchmark's catalog sweep at its default seed.  The ones
that read only the built-in catalog (no definition file) are replayed here
and must match byte for byte.

A few goldens were recorded while those invocations still crashed with a
traceback (empty stdout, exit 1); the benchmark marks them `known_failure`,
and its files are only re-recorded with the next change to the benchmark.
For those the harness's own envelope rules are asserted instead: stdout is
one JSON envelope, the exit code is 2 exactly when it has an `error` key,
and `ok` agrees with the exit code.
"""

import json
import sys
from pathlib import Path

import pytest

from orbitkit import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402  (perfbench/ is not a package)

GOLDEN = json.loads((PERFBENCH / "golden" / "catalog_sweep.json").read_text(encoding="utf-8"))
KNOWN_FAILURES = {inv.id for inv in workloads.build("catalog_sweep", GOLDEN["seed"], full=True).round
                  if inv.known_failure is not None}
CASES = {ident: want for ident, want in GOLDEN["invocations"].items()
         if not any(arg.endswith(".json") for arg in want["args"])}


def test_the_replay_covers_the_catalog_sweep():
    assert len(CASES) == 84
    assert len(KNOWN_FAILURES & CASES.keys()) == 4


@pytest.mark.parametrize("ident", sorted(CASES))
def test_catalog_invocation_matches_its_golden_output(ident, capsys):
    want = CASES[ident]
    code = cli.main(list(want["args"]))
    out = capsys.readouterr().out
    if ident in KNOWN_FAILURES:
        env = json.loads(out)
        assert {"schema", "command", "ok"} <= env.keys()
        assert (code == 2) == ("error" in env)
        assert env["ok"] == (code == 0)
    else:
        assert (code, out.encode()) == (want["exit"], want["stdout"].encode())
