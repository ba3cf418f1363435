"""Benchmark of the `orbitkit` CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout: the CLI is run from `src/` there.  The load
is a closed loop with one client: one CLI child at a time, each started after
the previous one exits.

With `--trace 0` the harness validates each of the workload's algebras (the
set-up), then runs whole rounds of the workload, in a seeded order, until
`--seconds` have passed, and reports the end-to-end metrics, with every
time scaled to a nominal host speed (see `reference`).  With
`--trace 1` it runs one round twice per invocation, plain and under
`tracer.py`, and reports the per-layer metrics.  Every output is checked
(see `check`); the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  `--record-golden` rewrites
the golden outputs of the default seed from the current program.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import workloads
from oracle import kks_rank

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
TIMEOUT_S = 30.0   # per invocation; a timed-out invocation counts as failed
BUDGET_S = 160.0   # for all invocations of a run: what would run later times out at once
# Nominal duration of `reference()`: times are reported at the host speed
# where it takes this long.  The baseline host read 0.03-0.057 s.
REFERENCE_NOMINAL_S = 0.055


_REFERENCE_SOURCE = "".join(
    f"def f{i}(a, b=({i}, 'x{i}')):\n"
    f"    return [a * {i} + b[0] for _ in range(3)] if a else {{'k': b}}\n"
    for i in range(40))


def _reference_pass() -> None:
    rows = [[Fraction(i * j + 1, i + j + 1) for j in range(12)] for i in range(12)]
    for k in range(6):
        pivot = rows[k][k] or 1
        for row in rows:
            f = row[k] / pivot
            for j in range(12):
                row[j] -= f * rows[k][j]
        rows = [row[:] for row in rows]
    compile(_REFERENCE_SOURCE, "<reference>", "exec")


def reference() -> float:
    """Wall time of a fixed pure-Python load: Fraction elimination and compiling.

    The host's speed drifts by a quarter within minutes, and the CLI's
    CPU time drifts with it.  The harness times this load between
    consecutive invocations, on the same CPU, and scales each invocation's
    wall time by the mean of the two readings around it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(6):
            _reference_pass()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@dataclass
class Result:
    code: int | None      # None when the invocation timed out
    wall_s: float
    max_rss_kb: int
    stdout: bytes
    stats: dict | None = None
    reference_s: float = REFERENCE_NOMINAL_S   # `reference()` around the invocation

    @property
    def scaled_s(self) -> float:
        """Wall time at the nominal host speed."""
        return self.wall_s * REFERENCE_NOMINAL_S / self.reference_s


class Runner:
    """Runs CLI invocations one at a time in the work directory."""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.deadline = time.perf_counter() + BUDGET_S
        self.env = {k: v for k, v in os.environ.items() if k != "ORBITKIT_CATALOG_DIR"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.last_reference = None

    def run_scaled(self, inv) -> Result:
        """`run`, with `reference()` timed just before and just after it."""
        before = self.last_reference or reference()
        res = self.run(inv)
        self.last_reference = reference()
        res.reference_s = (before + self.last_reference) / 2
        return res

    def run(self, inv, traced: bool = False) -> Result:
        stats_path = self.workdir / "trace_stats.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(stats_path), "--"]
            stats_path.unlink(missing_ok=True)
        else:
            argv = [sys.executable, "-m", "orbitkit.cli"]
        timeout = min(TIMEOUT_S, self.deadline - time.perf_counter())
        if timeout <= 0:
            return Result(None, 0.0, 0, b"")
        out_path = self.workdir / "stdout.bin"
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv + inv.args, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.DEVNULL)
            done = threading.Event()
            timed_out = threading.Event()

            def kill():
                if not done.is_set():
                    timed_out.set()
                    os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(timeout, kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            done.set()
            timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        stats = None
        if traced and stats_path.exists():
            stats = json.loads(stats_path.read_text(encoding="utf-8"))
        code = None if timed_out.is_set() else proc.returncode
        return Result(code, wall, usage.ru_maxrss, out_path.read_bytes(), stats)


# ---------------------------------------------------------------------------
# checks


def check(inv, res: Result, wl, golden: dict, strict: bool) -> list:
    """Problems with one invocation's result; empty when it passes.

    The golden output is compared whenever the arguments match it, except
    for inputs generated from a seed other than the default; with `strict`
    (the default seed) every invocation must have one.
    """
    if res.code is None:
        return ["timed out"]
    try:
        env = json.loads(res.stdout)
    except ValueError:
        env = None
    if not isinstance(env, dict) or not {"schema", "command", "ok"} <= env.keys():
        return [f"exit {res.code} without a JSON envelope on stdout"]
    problems = []
    if (res.code == 2) != ("error" in env):
        problems.append(f"exit {res.code} disagrees with the envelope's error key")
    if res.code in (0, 1) and env["ok"] != (res.code == 0):
        problems.append(f"exit {res.code} disagrees with ok={env['ok']}")
    if inv.expect == "report" and res.code not in (0, 1):
        problems.append(f"valid input gave exit {res.code}: {env.get('error', '')[:200]}")
    if inv.expect == "error" and res.code != 2:
        problems.append(f"invalid input gave exit {res.code}, not 2")
    if inv.args[0] == "orbit" and res.code in (0, 1):
        problems += _check_orbits(inv, env, wl)
    if inv.known_failure is None and (strict or inv.family is None):
        want = golden.get(inv.id)
        if want is None or want["args"] != inv.args:
            if strict:
                problems.append("no golden output for these arguments")
        elif want["exit"] != res.code or want["stdout"].encode() != res.stdout:
            problems.append("stdout or exit code differs from the golden output")
    return problems


def _check_orbits(inv, env, wl) -> list:
    problems = []
    dims = [r["orbit"]["orbit_dim"] for r in env.get("results", [])]
    if any(d % 2 for d in dims):
        problems.append(f"odd orbit dimension in {dims}")
    family = wl.families.get(inv.family)
    if family is None:
        return problems
    for r in env["results"]:
        rank = kks_rank(family.doc, r["point"])
        if r["orbit"]["orbit_dim"] != rank:
            problems.append(f"orbit_dim {r['orbit']['orbit_dim']} != KKS rank {rank}")
    if family.index is not None and dims and max(dims) != family.dim - family.index:
        problems.append(f"largest orbit dim {max(dims)} != dim - ind = "
                        f"{family.dim - family.index}")
    return problems


# ---------------------------------------------------------------------------
# metrics


def tail(values):
    """Value at the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def reported_points(res: Result) -> int:
    try:
        env = json.loads(res.stdout)
    except ValueError:
        return 0
    return len(env.get("results", [])) if res.code in (0, 1) else 0


def end_to_end(setup, timed, passed, attempted) -> dict:
    """The end-to-end metrics; every time is taken at the nominal host speed."""
    walls = [r.scaled_s for _, r in timed]
    value, pct = tail(walls)
    print(f"# report_s_tail is p{pct:.1f} of {len(walls)} invocations")
    raw = [r.wall_s for _, r in timed]
    print(f"# unscaled wall time: p50 {statistics.median(raw):.4g} s, "
          f"tail {tail(raw)[0]:.4g} s; median reference() "
          f"{statistics.median(r.reference_s for _, r in setup + timed):.4g} s "
          f"(nominal {REFERENCE_NOMINAL_S} s)")
    return {
        "setup_s": (statistics.median(r.scaled_s for _, r in setup), "s"),
        "report_s_p50": (statistics.median(walls), "s"),
        "report_s_tail": (value, "s"),
        "points_per_s": (sum(reported_points(r) for _, r in timed) / sum(walls), "1/s"),
        "peak_rss_mb": (max(r.max_rss_kb for _, r in setup + timed) / 1024, "MB"),
        "pass_ratio": (passed / attempted, "ratio"),
    }


def _sum(traced, span, field):
    index = {"calls": 0, "self": 1, "total": 2}[field]
    return sum(r.stats["spans"].get(span, (0, 0.0, 0.0))[index] for _, r in traced)


def _layer_self(traced, layer):
    return sum(v[1] for _, r in traced for k, v in r.stats["spans"].items()
               if k.startswith(layer + "."))


def per_layer(traced, plain_wall) -> dict:
    """Layer metrics summed over one traced round."""
    def self_s(span):
        return _sum(traced, span, "self"), "s"

    def total_s(span):
        return _sum(traced, span, "total"), "s"

    def calls(span):
        return _sum(traced, span, "calls"), "count"

    m = {
        "cli.import_s": (sum(r.stats["import_s"] for _, r in traced), "s"),
        "cli.sympy_import_s": total_s("cli.sympy_import"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.output_bytes": (sum(len(r.stdout) for _, r in traced), "bytes"),
        "catalog.builtin_catalog.s": total_s("catalog.builtin_catalog"),
        "catalog.load_entry_file.s": total_s("catalog.load_entry_file"),
        "linalg.rref.self_s": self_s("linalg.Matrix.rref"),
        "linalg.rref.calls": calls("linalg.Matrix.rref"),
        "linalg.rref.max_cells": (max(r.stats["rref_max_cells"] for _, r in traced), "cells"),
        "linalg.solve.calls": calls("linalg.solve"),
        "linalg.matmul.self_s": (self_s("linalg.Matrix.__mul__")[0]
                                 + self_s("linalg.Matrix.apply")[0], "s"),
        # with the inner products they call, which are spans of their own
        "linalg.matmul.s": (total_s("linalg.Matrix.__mul__")[0]
                            + total_s("linalg.Matrix.apply")[0], "s"),
        "linalg.max_rational_bits": (max(r.stats["max_rational_bits"] for _, r in traced),
                                     "bits"),
        "liealg.bracket.calls": calls("liealg.LieAlgebra.bracket"),
        "polarization.candidate_accept_ratio": (_accept_ratio(traced), "ratio"),
        "polynomials.charpoly.calls": calls("polynomials.charpoly"),
        "trace.overhead_ratio": (sum(r.wall_s for _, r in traced) / plain_wall, "ratio"),
    }
    for layer in ("linalg", "liealg", "conditions", "induction", "mackey", "polarization",
                  "polynomials", "reductive"):
        m[f"{layer}.self_s"] = (_layer_self(traced, layer), "s")
    for span in ("liealg.validate", "liealg.structure_probe", "liealg.kks_pairing",
                 "liealg.krylov_hull", "liealg.subalgebra", "liealg.quotient",
                 "mackey.verify_step_relations", "mackey.obstruction_step", "mackey.abelian_step",
                 "polarization.exponential_precheck", "polynomials.rational_roots",
                 "reductive.jordan_triple", "reductive.grade"):
        m[f"{span}.self_s"] = self_s(span)
    return m


def _accept_ratio(traced) -> float:
    """Accepted polarization steps over candidate ideals tried, from the reports."""
    accepted = tried = 0
    for inv, r in traced:
        if inv.args[0] != "polarize" or r.code not in (0, 1):
            continue
        for res in json.loads(r.stdout).get("results", []):
            if "trace" in res:
                steps = len(res["trace"]["steps"])
                accepted += steps
                tried += steps + len(res["trace"]["rejected_candidates"])
    return accepted / tried if tried else 0.0


# ---------------------------------------------------------------------------


def load_golden(name: str):
    path = GOLDEN_DIR / f"{name}.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["invocations"]


def record_golden(name, wl, runner) -> None:
    invocations = {}
    for inv in wl.setup + wl.round:
        res = runner.run(inv)
        print(f"# {res.wall_s:7.3f} s exit {res.code} {inv.id}")
        invocations[inv.id] = {"args": inv.args, "exit": res.code,
                               "stdout": res.stdout.decode()}
    GOLDEN_DIR.mkdir(exist_ok=True)
    doc = {"seed": workloads.DEFAULT_SEED, "invocations": invocations}
    (GOLDEN_DIR / f"{name}.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(invocations)} golden outputs for {name}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "orbitkit" / "cli.py").is_file():
        print(f"no orbitkit sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 1
    workdir = root / ".perfbench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.build(args.workload, args.seed, full=args.record_golden)
    workloads.write_files(wl, workdir)
    runner = Runner(root, workdir)
    if args.record_golden:
        record_golden(args.workload, wl, runner)
        return 0
    golden = load_golden(args.workload)
    strict = args.seed == workloads.DEFAULT_SEED
    # One CPU for the harness and its children, so that `reference()` reads
    # the speed of the CPU the invocations run on.  Only one process runs at
    # a time.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    setup = [(inv, runner.run_scaled(inv)) for inv in wl.setup]
    order = list(wl.round)
    random.Random(f"{args.seed}:order").shuffle(order)
    timed, traced = [], []
    start = time.perf_counter()
    if args.trace:
        for inv in order:
            timed.append((inv, runner.run(inv)))
            traced.append((inv, runner.run(inv, traced=True)))
    else:
        while True:
            timed += [(inv, runner.run_scaled(inv)) for inv in order]
            if time.perf_counter() - start >= args.seconds:
                break

    outcomes = []
    for inv, res in setup + timed:
        outcomes.append((inv, check(inv, res, wl, golden, strict)))
    for (inv, plain), (_, res) in zip(timed, traced):
        problems = check(inv, res, wl, golden, strict)
        if res.stdout != plain.stdout or res.code != plain.code:
            problems.append("traced stdout or exit code differs from the plain run")
        if res.stats is None:
            problems.append("traced run wrote no span totals")
        outcomes.append((inv, problems))
    failed = [(inv, p) for inv, p in outcomes if p]
    unexpected = [(inv, p) for inv, p in failed if inv.known_failure is None]
    for inv, problems in failed:
        label = f"known failure ({inv.known_failure})" if inv.known_failure else "FAILED"
        print(f"# {label}: {inv.id}: {'; '.join(problems)}")

    if args.trace:
        usable = [(inv, r) for inv, r in traced if r.stats is not None]
        metrics = per_layer(usable, sum(r.wall_s for _, r in timed)) if usable else {}
    else:
        metrics = end_to_end(setup, timed, len(outcomes) - len(failed), len(outcomes))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not unexpected and bool(metrics),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
