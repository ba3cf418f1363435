"""Command-line front end emitting canonical JSON reports.

Exit codes: 0 when every mathematical check in the report passes, 1 when a
check fails (the report says which), 2 for invalid input or usage.  Output
is deterministic: keys are sorted, rationals are canonical "p/q" strings,
and results are listed in input order, so identical invocations produce
byte-identical reports.

The output format lives in one place, `_encode`, the `default=` hook of
every `json.dumps` here.  The reports' `to_json_dict` methods hand it
values: a Fraction is written as its canonical "p/q" string, a Subspace as
its RREF basis rows, a Matrix as its rows and a Covector as its
coordinates.  Any other type is an error, never a `repr` in a report.

Bad input is decided in one place: any ValueError raised on the way to a
report means the input is outside what the analysis covers, and `main`
turns it into the exit-2 envelope with the exception's text as `error`.
The library's input errors (InputError here, CatalogError, NotClosedError,
ChainError, UnsupportedSpectrumError) are all ValueErrors.  Usage errors
are argparse's: exit 2 with a message on stderr.

Start-up is paid on every invocation, so this module imports only what
every subcommand needs (`catalog`, `liealg`, `linalg`).  Each handler
imports its own analysis modules (`conditions`, `mackey`, `polarization`,
`reductive`, `induction`), and `catalog:NAME` builds only the entry named.
The report classes are `linalg.Record`s, so creating one costs nothing
beyond its class statement and no invocation imports `dataclasses`.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import catalog as cat
from .liealg import Covector, LieAlgebra, orbit_record, validate
from .linalg import Matrix, Subspace, basis_vector, frac, vec

SCHEMA = 1


class InputError(ValueError):
    pass


def _load_entry(spec: str) -> cat.CatalogEntry:
    if spec.startswith("catalog:"):
        name = spec.split(":", 1)[1]
        entry = cat.find_entry(name)
        if entry is None:
            raise InputError(f"unknown catalog entry {name!r}; try the `catalog` subcommand")
        return entry
    return cat.load_entry_file(spec)


def _parse_coords(text: str, n: int, word: str) -> tuple:
    """n comma-separated rationals; the errors name the `word` they were given as."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise InputError(f"{word} needs {n} coordinates, got {len(parts)}")
    try:
        return tuple(frac(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"bad rational in {word}: {exc}") from None


def _parse_point(alg: LieAlgebra, text: str) -> Covector:
    return Covector(alg, _parse_coords(text, alg.dim, "point"))


def _parse_subspace(entry: cat.CatalogEntry, text: str) -> Subspace:
    alg = entry.algebra
    if text in entry.ideals:
        return entry.ideals[text]
    if text in entry.complements:
        return entry.complements[text]
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            return Subspace(alg.dim, [cat.parse_row(row, f"rows[{r}]")
                                      for r, row in enumerate(doc["rows"])])
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad subspace file {text[1:]}: {exc}") from None
    tokens = [t.strip() for t in text.split(",")]
    rows = []
    for tok in tokens:
        if cat.is_index_token(tok):
            idx = int(tok)
        else:
            try:
                idx = alg.label_index(tok)
            except KeyError:
                raise InputError(
                    f"{tok!r} is neither a declared subspace, basis label, nor index"
                ) from None
        rows.append(basis_vector(alg.dim, idx))
    return Subspace(alg.dim, rows)


def _encode(obj):
    """The JSON form of the exact values that reports hold."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Subspace):
        return obj.basis_rows()
    if isinstance(obj, Matrix):
        return obj.entries
    if isinstance(obj, Covector):
        return obj.coords
    raise TypeError(f"no JSON form for {type(obj).__name__}")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, ok)


def _cmd_catalog(args) -> tuple[dict, bool]:
    entries = cat.load_catalog()
    listing = {
        name: {
            "dim": e.algebra.dim,
            "description": e.description,
            "covectors": {k: vec(v) for k, v in e.covectors.items()},
            "ideals": sorted(e.ideals),
            "complements": sorted(e.complements),
        }
        for name, e in entries.items()
    }
    return {"entries": listing}, True


def _cmd_validate(args) -> tuple[dict, bool]:
    if args.algebra.startswith("catalog:"):
        alg = _load_entry(args.algebra).algebra
    else:
        try:
            with open(args.algebra, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"{args.algebra}: {exc}") from None
        alg = cat.parse_algebra(doc, source=args.algebra)
    report = validate(alg)
    payload = {"validation": report.to_json_dict()}
    if not report.ok:
        raise InputError(json.dumps(payload["validation"], sort_keys=True, default=_encode))
    return payload, True


def _cmd_orbit(args) -> tuple[dict, bool]:
    entry = _load_entry(args.algebra)
    points = [_parse_point(entry.algebra, p) for p in args.point]

    def run(cov):
        rec = orbit_record(entry.algebra, cov)
        return {"point": cov, "orbit": rec.to_json_dict()}

    return {"results": [run(cov) for cov in points]}, True


def _cmd_conditions(args) -> tuple[dict, bool]:
    from .conditions import check_conditions

    entry = _load_entry(args.algebra)
    sub = _parse_subspace(entry, args.sub)
    points = [_parse_point(entry.algebra, p) for p in args.point]

    def run(cov):
        rep = check_conditions(entry.algebra, sub, cov)
        return {"point": cov, "conditions": rep.to_json_dict(),
                "ok": rep.all_flags()}

    results = [run(cov) for cov in points]
    return {"results": results}, all(r["ok"] for r in results)


def _cmd_mackey(args) -> tuple[dict, bool]:
    from .mackey import mackey_report, semidirect_witness

    entry = _load_entry(args.algebra)
    ideal = _parse_subspace(entry, args.ideal)
    points = [_parse_point(entry.algebra, p) for p in args.point]
    comp = _parse_subspace(entry, args.complement) if args.complement else None

    def run(cov):
        rep = mackey_report(entry.algebra, ideal, cov)
        out = {"point": cov, "mackey": rep.to_json_dict(),
               "ok": rep.all_checks()}
        if comp is not None:
            witness = semidirect_witness(entry.algebra, ideal, cov, [(args.complement, comp)])
            out["semidirect"] = witness.to_json_dict()
        return out

    results = [run(cov) for cov in points]
    return {"results": results}, all(r["ok"] for r in results)


def _cmd_polarize(args) -> tuple[dict, bool]:
    from .polarization import (StrategyExhausted, exponential_precheck,
                               pukanszky_polarization, rejections_json)

    entry = _load_entry(args.algebra)
    alg = entry.algebra
    points = [_parse_point(alg, p) for p in args.point]
    chain = None
    if args.strategy != "auto":
        if not args.strategy.startswith("chain:"):
            raise InputError("strategy must be `auto` or `chain:<file>`")
        path = args.strategy.split(":", 1)[1]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            chain = []
            for k, spec in enumerate(doc["ideals"]):
                if isinstance(spec, list) and all(map(cat.is_index, spec)):
                    chain.append(Subspace(alg.dim, [basis_vector(alg.dim, i) for i in spec]))
                else:
                    chain.append(Subspace(alg.dim, [cat.parse_row(row, f"ideals[{k}][{r}]")
                                                    for r, row in enumerate(spec)]))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad chain file {path}: {exc}") from None

    pre = exponential_precheck(alg)
    if not pre.passed and not args.override_precheck:
        raise InputError(
            "exponential precheck failed; rerun with --override-precheck to force: "
            + json.dumps(pre.to_json_dict(), sort_keys=True, default=_encode)
        )

    def run(cov):
        try:
            trace = pukanszky_polarization(
                alg, cov, chain=chain, override_precheck=True)
        except StrategyExhausted as exc:
            return {
                "point": cov,
                "error": "strategy exhausted",
                "rejected_candidates": rejections_json(exc.rejections),
                "ok": False,
            }
        certs = all(s.certificates_hold() for s in trace.steps)
        ok = certs and trace.conditions.all_flags()
        return {"point": cov, "trace": trace.to_json_dict(), "ok": ok}

    results = [run(cov) for cov in points]
    payload = {"precheck": pre.to_json_dict(), "results": results}
    return payload, all(r["ok"] for r in results)


def _cmd_parabolic(args) -> tuple[dict, bool]:
    from .reductive import matrix_lie_algebra, parabolic_report

    entry = _load_entry(args.algebra)
    malg = matrix_lie_algebra(entry.algebra)
    inputs = [_parse_coords(text, malg.dim, "element") for text in args.element]
    inputs += [_parse_point(entry.algebra, text) for text in args.point]
    if not inputs:
        raise InputError("parabolic needs --element or --point")

    def run(x):
        rep = parabolic_report(malg, x)
        return {"input": x, "parabolic": rep.to_json_dict(), "ok": rep.all_relations()}

    results = [run(x) for x in inputs]
    return {"results": results}, all(r["ok"] for r in results)


def _cmd_classify(args) -> tuple[dict, bool]:
    from .mackey import abelian_step, classify_little_algebra

    entry = _load_entry(args.algebra)
    ideal = _parse_subspace(entry, args.ideal)
    points = [_parse_point(entry.algebra, p) for p in args.point]

    def run(cov):
        kind = classify_little_algebra(entry.algebra, ideal, cov)
        step = abelian_step(entry.algebra, ideal, cov)
        return {
            "point": cov,
            "little_algebra": kind.to_json_dict(),
            "abelian_step": step.to_json_dict(),
            "ok": step.dims_match,
        }

    results = [run(cov) for cov in points]
    return {"results": results}, all(r["ok"] for r in results)


def _cmd_record(args) -> tuple[dict, bool]:
    from .induction import InducedRecord, frobenius_check, induced_dim, point_fiber, stages_flatten

    entry = _load_entry(args.algebra)
    alg = entry.algebra
    subs = [_parse_subspace(entry, s) for s in args.sub]
    if not subs:
        raise InputError("record needs at least one --sub")
    points = [_parse_point(alg, p) for p in args.point]

    def run(cov):
        fiber = point_fiber(alg, subs[-1], cov)
        spaces = [Subspace.full(alg.dim)] + subs
        rec = InducedRecord(alg, spaces[-2], spaces[-1], fiber)
        for outer_space, outer_sub in zip(reversed(spaces[:-2]), reversed(subs[:-1])):
            rec = InducedRecord(alg, outer_space, outer_sub, rec)
        flattened = stages_flatten(rec)
        verdict = frobenius_check(rec, orbit_record(alg, cov))
        return {
            "point": cov,
            "record": rec.to_json_dict(),
            "flattened": flattened.to_json_dict(),
            "induced_dim": induced_dim(rec),
            "frobenius_vs_full_orbit": verdict,
            "ok": induced_dim(rec) == induced_dim(flattened),
        }

    results = [run(cov) for cov in points]
    return {"results": results}, all(r["ok"] for r in results)


_HANDLERS = {
    "catalog": _cmd_catalog,
    "validate": _cmd_validate,
    "orbit": _cmd_orbit,
    "conditions": _cmd_conditions,
    "mackey": _cmd_mackey,
    "polarize": _cmd_polarize,
    "parabolic": _cmd_parabolic,
    "classify": _cmd_classify,
    "record": _cmd_record,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitkit",
        description="Exact coadjoint-orbit analysis for rational Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, points=True):
        p.add_argument("algebra", help="catalog:NAME or a JSON definition file")
        if points:
            p.add_argument("--point", "-p", action="append", default=[],
                           help="covector coordinates, comma-separated rationals (repeatable)")
        p.add_argument("--output", "-o", help="write the report to a file instead of stdout")

    p = sub.add_parser("catalog", help="list built-in algebras")
    p.add_argument("--output", "-o")

    p = sub.add_parser("validate", help="check antisymmetry and Jacobi on a definition")
    common(p, points=False)

    p = sub.add_parser("orbit", help="orbit dimension, stabilizer, affine hull")
    common(p)

    p = sub.add_parser("conditions", help="coisotropy/polarization/Pukanszky flags")
    common(p)
    p.add_argument("--sub", required=True, help="subalgebra: declared name, labels, indices, or @file")

    p = sub.add_parser("mackey", help="little group, induction relations, obstruction")
    common(p)
    p.add_argument("--ideal", required=True, help="ideal: declared name, labels, indices, or @file")
    p.add_argument("--complement", help="declared complement to test the semidirect witness")

    p = sub.add_parser("polarize", help="construct a Pukanszky polarization")
    common(p)
    p.add_argument("--strategy", default="auto", help="auto or chain:<file>")
    p.add_argument("--override-precheck", action="store_true",
                   help="run even when the exponential precheck fails")

    p = sub.add_parser("parabolic", help="Jordan split, grading, parabolic relations")
    common(p)
    p.add_argument("--element", action="append", default=[],
                   help="algebra element coordinates (repeatable)")

    p = sub.add_parser("classify", help="little-algebra descriptor for an abelian ideal")
    common(p)
    p.add_argument("--ideal", required=True)

    p = sub.add_parser("record", help="induced-dimension bookkeeping along a chain")
    common(p)
    p.add_argument("--sub", action="append", default=[],
                   help="subalgebra chain, outermost first (repeatable)")

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    envelope = {"schema": SCHEMA, "command": args.command}
    if getattr(args, "algebra", None):
        envelope["algebra"] = args.algebra
    try:
        if getattr(args, "point", None) == [] and args.command in (
            "orbit", "conditions", "mackey", "polarize", "classify", "record",
        ):
            raise InputError("at least one --point is required")
        payload, ok = handler(args)
        envelope.update(payload)
        envelope["ok"] = ok
        code = 0 if ok else 1
    except ValueError as exc:
        envelope["error"] = str(exc)
        envelope["ok"] = False
        code = 2
    text = json.dumps(envelope, sort_keys=True, indent=2, default=_encode) + "\n"
    out_path = getattr(args, "output", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
