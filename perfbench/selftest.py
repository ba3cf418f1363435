"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py

Run from the repository root.
"""

from __future__ import annotations

import io
import json
import os
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import families as fam  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracle import kks_rank  # noqa: E402
from orbitkit import cli  # noqa: E402

SMALL = [
    fam.heisenberg(1, fam.family_rng(7, "h3")),
    fam.heisenberg(2, fam.family_rng(7, "h5")),
    fam.nilradical(3, fam.family_rng(7, "n3")),
    fam.nilradical(4, fam.family_rng(7, "n4")),
    fam.filiform(4, fam.family_rng(7, "L4")),
    fam.filiform(6, fam.family_rng(7, "L6")),
    fam.borel(3, fam.family_rng(7, "b3")),
    fam.poincare(3, fam.family_rng(7, "poincare3")),
    fam.sl(2, fam.family_rng(7, "sl2")),
    fam.sl(3, fam.family_rng(7, "sl3")),
]


def _cli(args, cwd: Path):
    out, old = io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out):
            code = cli.main(args)
    finally:
        os.chdir(old)
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("family", SMALL, ids=lambda f: f.name)
def test_generated_algebra_validates_and_has_closed_form_index(family, tmp_path):
    (tmp_path / "alg.json").write_text(json.dumps(family.doc))
    code, report = _cli(["validate", "alg.json"], tmp_path)
    assert code == 0 and report["validation"]["ok"]
    if family.index is None:
        return
    rng = workloads.random.Random(3)
    points = [workloads._generic_point(rng, family)] + [
        workloads._point(rng, family.dim) for _ in range(4)]
    code, report = _cli(["orbit", "alg.json"] + [
        "--point=" + ",".join(map(str, p)) for p in points], tmp_path)
    dims = [r["orbit"]["orbit_dim"] for r in report["results"]]
    assert dims == [kks_rank(family.doc, p) for p in points]
    assert max(dims) == family.dim - family.index


def test_same_seed_same_inputs_and_seed_changes_them():
    for name in workloads.BUILDERS:
        a, b = workloads.build(name, 5), workloads.build(name, 5)
        assert [i.args for i in a.setup + a.round] == [i.args for i in b.setup + b.round]
        assert a.files == b.files
    assert workloads.build("family_orbit", 5).files != workloads.build("family_orbit", 6).files


def test_invocation_ids_are_unique():
    for name in workloads.BUILDERS:
        wl = workloads.build(name, 0, full=True)
        ids = [i.id for i in wl.setup + wl.round]
        assert len(ids) == len(set(ids))


def _runner(tmp_path, wl):
    workloads.write_files(wl, tmp_path)
    return run.Runner(ROOT, tmp_path)


def _sample(wl):
    """A few invocations that reach every layer the workload touches."""
    return wl.round[:4]


def test_tracer_leaves_output_unchanged(tmp_path):
    for name in workloads.BUILDERS:
        wl = workloads.build(name, 0)
        runner = _runner(tmp_path, wl)
        for inv in _sample(wl):
            plain, traced = runner.run(inv), runner.run(inv, traced=True)
            assert traced.stdout == plain.stdout and traced.code == plain.code, inv.id
            assert traced.stats is not None and traced.stats["spans"]["cli.main"][0] == 1


def test_counts_repeat_across_traced_runs(tmp_path):
    wl = workloads.build("parabolic_polarize", 0)
    runner = _runner(tmp_path, wl)
    sample = [wl.round[0], wl.round[-1]]   # a parabolic and a polarize invocation

    def counts():
        traced = [(inv, runner.run(inv, traced=True)) for inv in sample]
        m = run.per_layer(traced, 1.0)
        return {k: m[k][0] for k in ("linalg.rref.calls", "liealg.bracket.calls",
                                     "polynomials.charpoly.calls")}

    first = counts()
    assert first["polynomials.charpoly.calls"] > 0 and first["linalg.rref.calls"] > 0
    assert counts() == first


def _fake(stdout=b"{}", stats=None):
    return run.Result(0, 1.0, 1024, stdout, stats)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stats = {"import_s": 0.1, "spans": {}, "rref_max_cells": 0, "max_rational_bits": 0}
    inv = workloads.Invocation("x", ["orbit"])
    layer = run.per_layer([(inv, _fake(stats=stats))], 1.0)
    e2e = run.end_to_end([(inv, _fake())], [(inv, _fake())] * 12, 1, 1)
    for metrics, key in ((e2e, "end_to_end"), (layer, "per_layer")):
        assert set(metrics) == {m["name"] for m in spec[key]}
        units = {m["name"]: m["unit"] for m in spec[key]}
        assert all(units[n] == u for n, (_, u) in metrics.items())
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", m["name"])
    assert {w["name"] for w in spec["workloads"]} == set(workloads.BUILDERS)


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail(list(range(40)))
    assert value == 29 and sum(v > value for v in range(40)) == 10 and pct == 75.0


def test_known_failures_are_listed_and_timeouts_fail():
    wl = workloads.build("catalog_sweep", 0)
    known = [i for i in wl.round if i.known_failure]
    assert len(known) == 9 and all("ROADMAP item 4" in i.known_failure for i in known)
    timed_out = run.Result(None, 30.0, 0, b"")
    assert run.check(known[0], timed_out, wl, {}, strict=False)


def test_check_rejects_wrong_orbit_dimension():
    wl = workloads.build("family_orbit", 0)
    inv = next(i for i in wl.round if i.args[0] == "orbit" and i.family == "h9")
    point = inv.args[2].split("=", 1)[1].split(",")
    env = {"schema": 1, "command": "orbit", "ok": True,
           "results": [{"point": point, "orbit": {"orbit_dim": 2}}]}
    problems = run.check(inv, _fake(json.dumps(env).encode()), wl, {}, strict=False)
    assert any("KKS rank" in p for p in problems)


def test_times_are_scaled_by_the_reference_around_them():
    slow_host = run.Result(0, 2.0, 1024, b"{}", reference_s=2 * run.REFERENCE_NOMINAL_S)
    assert slow_host.scaled_s == pytest.approx(1.0)
    inv = workloads.Invocation("x", ["orbit"])
    e2e = run.end_to_end([(inv, slow_host)], [(inv, slow_host)] * 12, 1, 1)
    assert e2e["report_s_p50"][0] == pytest.approx(1.0)
    assert e2e["setup_s"][0] == pytest.approx(1.0)
    assert 0 < run.reference() < 5
