"""Command-line front end emitting canonical JSON reports.

Exit codes: 0 when every mathematical check in the report passes, 1 when a
check fails (the report says which), 2 for invalid input or usage.  Output
is deterministic: keys are sorted, rationals are canonical "p/q" strings,
and results are listed in input order, so identical invocations produce
byte-identical reports.  Input order is the order of the inputs in argv,
except that `parabolic` lists every `--element` before every `--point`.

The output format lives in one place, `_encode`, the `default=` hook of
every `json.dumps` here.  Each analysis function returns the dict that is
printed, and `_encode` writes the exact values in it: a Fraction as its
canonical "p/q" string, a Subspace as its RREF basis rows, a Matrix as its
rows and a Covector as its coordinates.  Any other type is an error, never
a `repr` in a report, and so is a Fraction too long to print, a ValueError
that says so.

Bad input is decided in one place: any ValueError raised on the way to a
report means the input is outside what the analysis covers, and `main`
turns it into the exit-2 envelope with the exception's text as `error`.
The library's input errors (InputError here, CatalogError, NotClosedError,
ChainError, UnsupportedSpectrumError) are all ValueErrors.  An `--output`
path that cannot be written gives the same envelope, on stdout, naming the
path.  Usage errors (an unknown command or option, a missing value or
argument) print a message on stderr, nothing on stdout, and exit 2.

`_COMMANDS`, one table, describes each subcommand (help, options, whether
it takes an algebra and needs a `--point`, handler): it parses argv, prints
the help and dispatches.  A handler returns its report's payload, and
`main` reads the report's `ok` off the payload's results.

Start-up is paid on every invocation.  Per invocation, medians of 21
runs pinned to one CPU with PYTHONDONTWRITEBYTECODE=1 and no cached
bytecode (shared 2-core x86-64 Linux host, Python 3.11): the interpreter
with `site` takes 42 ms, which the package cannot move; importing `json`
and `fractions` adds 4 ms; compiling `cli`, `catalog`, `liealg` and
`linalg` 16 ms; and compiling a subcommand's own modules after those
(under `python -S`) 0 ms for `orbit` and `validate`, 1.6 for
`conditions`, 1.7 for `record`, 3.5 for `mackey` and `classify`, which
load the same two modules, 5.6 for `parabolic` and 6.6 ms for `polarize`.
The analysis itself, in process after the imports, has a median of 1.9,
5.1 and 7.1 ms per invocation of the `catalog_sweep`, `family_orbit` and
`parabolic_polarize` benchmark workloads.  So this module imports only
what every subcommand needs (`catalog`, `liealg`, `linalg`), and no
argument parser library.  Each handler imports its own analysis modules
(`conditions`, `mackey`, `polarization`, `reductive`, `induction`, and
through them `qi_roots`, `structure` for all but `parabolic`, and
`polynomials` for `parabolic` and `polarize` alone: `classify` reads its
Killing signature by congruence, in `mackey`).  A built-in entry is a definition file shipped with the
package, and `catalog:NAME` reads the file of the entry named and no other.
The value types are `linalg.Record`s, so creating one costs nothing
beyond its class statement and no invocation imports `dataclasses`.  The
package root imports nothing and binds no public name, and no module
imports `typing`: every annotation stays a string (PEP 563), and `Sequence`
and its kin come from `collections.abc`, which `fractions` loads anyway.
A site hook (a `.pth` file in site-packages) may import `typing` and more
before the package runs, so an import-graph change is measured under
`python -S` too: there, dropping both took the median `orbit` invocation
on h9 from about 42 to 39 ms.

The end of a process is paid on every invocation too.  `run`, the one
process entry (`python -m orbitkit.cli` and the `orbitkit` script), calls
`main`, which writes and flushes the report, then flushes stderr and ends
the process with `os._exit`.  That skips interpreter teardown: freeing
every module, Fraction and cached algebra, and a last garbage collection,
work whose result nothing reads.  On the 21 timed `family_orbit`
invocations (a shared 2-core x86-64 host), an invocation took 73.1 ms
ending through `sys.exit` and 65.0 ms through `os._exit`: teardown was
about a tenth of it, more than `orbit` spends computing.  The fast exit
is safe because nothing is left to finish: every file the CLI opens is
opened in a `with` block and closed before `main` returns, both streams
are flushed, and the package registers no `atexit` hook.  A report that
cannot be written to stdout (a closed pipe, a full device) gives one line
on stderr and exit 2, as an unwritable `--output` path gives exit 2.  A
usage error or `-h` leaves `main` as `SystemExit` and takes the normal
exit.  In-process callers (the tests, a tracer) call `main` and keep
their interpreter.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import catalog as cat
from .liealg import Covector, LieAlgebra, orbit_record, validate
from .linalg import Matrix, Record, Subspace, basis_vector, frac

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
    """n comma-separated rationals (an empty text for n = 0); errors name the `word`."""
    parts = [p.strip() for p in text.split(",")] if n or text.strip() else []
    if len(parts) != n:
        raise InputError(f"{word} needs {n} coordinates, got {len(parts)}")
    try:
        return tuple(frac(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"bad rational in {word}: {exc}") from None


def _parse_points(alg: LieAlgebra, texts: list) -> list:
    return [Covector(alg, _parse_coords(text, alg.dim, "point")) for text in texts]


def _parse_subspace(entry: cat.CatalogEntry, text: str) -> Subspace:
    alg = entry.algebra
    if text in entry.ideals:
        return entry.ideals[text]
    if text in entry.complements:
        return entry.complements[text]
    if text.startswith("@"):
        what = f"bad subspace file {text[1:]}"
        return cat.parse_subspace(alg, cat.read_json(text[1:], what), what)
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
        try:
            return str(obj)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise ValueError(f"a number in the report has more than "
                             f"{sys.get_int_max_str_digits()} digits, too long to print") from None
    if isinstance(obj, Subspace):
        return obj.rows
    if isinstance(obj, Matrix):
        return obj.entries
    if isinstance(obj, Covector):
        return obj.coords
    raise TypeError(f"no JSON form for {type(obj).__name__}")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its report's payload.  A handler that runs
# on points loads its entry before it imports its analysis modules, parses its
# options and points in the order that decides which of two bad inputs is
# named, runs its once-per-invocation checks, and returns a result per input:
# the input and the dict its analysis function returns.


def _cmd_catalog(args) -> dict:
    entries = cat.builtin_catalog()
    listing = {
        name: {
            "dim": e.algebra.dim,
            "description": e.description,
            "covectors": e.covectors,
            "ideals": sorted(e.ideals),
            "complements": sorted(e.complements),
        }
        for name, e in entries.items()
    }
    return {"entries": listing}


def _cmd_validate(args) -> dict:
    if args.algebra.startswith("catalog:"):
        alg = _load_entry(args.algebra).algebra
    else:
        alg = cat.parse_algebra(cat.read_json(args.algebra), source=args.algebra)
    report = validate(alg)
    if not report["ok"]:
        raise InputError(json.dumps(report, sort_keys=True, default=_encode))
    return {"validation": report}


def _cmd_orbit(args) -> dict:
    alg = _load_entry(args.algebra).algebra
    return {"results": [{"point": cov, **orbit_record(alg, cov)}
                        for cov in _parse_points(alg, args.point)]}


def _cmd_conditions(args) -> dict:
    entry = _load_entry(args.algebra)
    from .conditions import check_conditions
    from .structure import check_subalgebra

    sub = _parse_subspace(entry, args.sub)
    points = _parse_points(entry.algebra, args.point)
    check_subalgebra(entry.algebra, sub)
    return {"results": [{"point": cov, **check_conditions(entry.algebra, sub, cov)}
                        for cov in points]}


def _cmd_mackey(args) -> dict:
    entry = _load_entry(args.algebra)
    from .mackey import check_ideal, little_group_step, mackey_steps, semidirect_witness

    ideal = _parse_subspace(entry, args.ideal)
    points = _parse_points(entry.algebra, args.point)
    comp = _parse_subspace(entry, args.complement) if args.complement else None
    check_ideal(entry.algebra, ideal)
    results = []
    for cov in points:
        data = little_group_step(entry.algebra, ideal, cov)
        out = {"point": cov, **mackey_steps(data)}
        if comp is not None:
            out["semidirect"] = semidirect_witness(data, [(args.complement, comp)])
        results.append(out)
    return {"results": results}


def _cmd_polarize(args) -> dict:
    alg = _load_entry(args.algebra).algebra
    from .polarization import exponential_precheck, pukanszky_polarization

    points = _parse_points(alg, args.point)
    chain = None
    if args.strategy not in (None, "auto"):
        if not args.strategy.startswith("chain:"):
            raise InputError("strategy must be `auto` or `chain:<file>`")
        path = args.strategy.split(":", 1)[1]
        what = f"bad chain file {path}"
        chain = cat.parse_chain(alg, cat.read_json(path, what), what)

    pre = exponential_precheck(alg)
    if not pre["passed"] and not args.override_precheck:
        raise InputError(
            "exponential precheck failed; rerun with --override-precheck to force: "
            + json.dumps(pre, sort_keys=True, default=_encode)
        )
    return {"precheck": pre,
            "results": [{"point": cov, **pukanszky_polarization(alg, cov, chain=chain)}
                        for cov in points]}


def _cmd_parabolic(args) -> dict:
    entry = _load_entry(args.algebra)
    from .reductive import matrix_lie_algebra, parabolic_report

    malg = matrix_lie_algebra(entry.algebra)
    inputs = [_parse_coords(text, malg.dim, "element") for text in args.element]
    inputs += _parse_points(entry.algebra, args.point)
    if not inputs:
        raise InputError("parabolic needs --element or --point")
    return {"results": [{"input": x, **parabolic_report(malg, x)} for x in inputs]}


def _cmd_classify(args) -> dict:
    entry = _load_entry(args.algebra)
    from .mackey import (check_abelian, check_ideal, classify_little_algebra, dimensions,
                         little_group_step)

    ideal = _parse_subspace(entry, args.ideal)
    points = _parse_points(entry.algebra, args.point)
    check_ideal(entry.algebra, ideal)
    check_abelian(entry.algebra, ideal)
    results = []
    for cov in points:
        data = little_group_step(entry.algebra, ideal, cov)
        # the ideal is abelian, so h = g_c, dim_u = 0 and dim_y is the fiber rank
        dim_x, _, dim_gh, _, dim_y, ok = dimensions(data)
        step = {"h_dim": data.h.dim, "dim_x": dim_x, "dim_gh": dim_gh, "dim_y": dim_y,
                "identities_hold": ok}
        results.append({"point": cov, "little_algebra": classify_little_algebra(data),
                        "abelian_step": step, "ok": ok})
    return {"results": results}


def _cmd_record(args) -> dict:
    entry = _load_entry(args.algebra)
    from .induction import check_chain, record_report

    subs = [_parse_subspace(entry, s) for s in args.sub]
    if not subs:
        raise InputError("record needs at least one --sub")
    points = _parse_points(entry.algebra, args.point)
    check_chain(entry.algebra, subs)
    return {"results": [{"point": cov, **record_report(entry.algebra, subs, cov)}
                        for cov in points]}


# ---------------------------------------------------------------------------
# the command line: one table parses argv, prints the help and dispatches


class _Command(Record):
    help: str
    handler: object       # args -> the report's payload
    options: tuple
    algebra: bool = True  # takes the ALGEBRA argument
    point: bool = True    # refused without a --point, before the algebra is loaded


_POINT = ("--point", "-p", "list", "covector coordinates, comma-separated rationals (repeatable)")
_OUTPUT = ("--output", "-o", "value", "write the report to a file instead of stdout")
_IDEAL = ("--ideal", None, "required", "ideal: declared name, labels, indices, or @file")

# An option is (name, short name or None, kind, help), and its kind is "value"
# (the last one given wins), "required" (a value that must be given), "list"
# (repeatable; the values accumulate) or "flag" (takes no value).
_COMMANDS = {
    "catalog": _Command("list built-in algebras", _cmd_catalog, (_OUTPUT,),
                        algebra=False, point=False),
    "validate": _Command("check antisymmetry, Jacobi and any matrix_rep brackets",
                         _cmd_validate, (_OUTPUT,), point=False),
    "orbit": _Command("orbit dimension, stabilizer, affine hull", _cmd_orbit, (_POINT, _OUTPUT)),
    "conditions": _Command("coisotropy/polarization/Pukanszky flags", _cmd_conditions, (
        _POINT, _OUTPUT,
        ("--sub", None, "required", "subalgebra: declared name, labels, indices, or @file"))),
    "mackey": _Command("little group, induction relations, obstruction", _cmd_mackey, (
        _POINT, _OUTPUT, _IDEAL,
        ("--complement", None, "value", "declared complement to test the semidirect witness"))),
    "polarize": _Command("construct a Pukanszky polarization", _cmd_polarize, (
        _POINT, _OUTPUT,
        ("--strategy", None, "value",
         "auto (the default) or chain:<file> holding {\"ideals\": [subspace, ...]}"),
        ("--override-precheck", None, "flag", "run even when the exponential precheck fails"))),
    "parabolic": _Command("Jordan split, grading, parabolic relations", _cmd_parabolic, (
        _POINT, _OUTPUT,
        ("--element", None, "list", "algebra element coordinates (repeatable)")), point=False),
    "classify": _Command("little-algebra descriptor for an abelian ideal", _cmd_classify, (
        _POINT, _OUTPUT, _IDEAL)),
    "record": _Command("induced-dimension bookkeeping along a chain", _cmd_record, (
        _POINT, _OUTPUT,
        ("--sub", None, "list", "subalgebra chain, outermost first (repeatable)"))),
}
_HELP = ("-h", "--help")


def _dest(name: str) -> str:
    return name[2:].replace("-", "_")


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: orbitkit COMMAND [ARGS]"
    spec = _COMMANDS[command]
    words = ["usage: orbitkit", command] + (["ALGEBRA"] if spec.algebra else [])
    for name, _, kind, _ in spec.options:
        value = f"{name} {_dest(name).upper()}"
        words.append({"required": value, "value": f"[{value}]", "list": f"[{value}]...",
                      "flag": f"[{name}]"}[kind])
    return " ".join(words)


def _help(command: str | None) -> str:
    if command is None:
        rows = [(name, spec.help) for name, spec in _COMMANDS.items()]
        head = ["Exact coadjoint-orbit analysis for rational Lie algebras.", "", "commands:"]
        tail = ["", "`orbitkit COMMAND -h` lists the options of a command."]
    else:
        spec = _COMMANDS[command]
        rows = [("ALGEBRA", "catalog:NAME or a JSON definition file")] if spec.algebra else []
        for name, short, kind, help_text in spec.options:
            left = f"{short}, {name}" if short else name
            rows.append((left if kind == "flag" else f"{left} {_dest(name).upper()}", help_text))
        head, tail = [spec.help, "", "arguments:"], []
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(left) for left, _ in rows) + 2
    body = [f"  {left:<{width}}{right}" for left, right in rows]
    return "\n".join([_usage(command), ""] + head + body + tail) + "\n"


def _usage_error(command: str | None, message: str):
    prog = "orbitkit" if command is None else f"orbitkit {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _parse_args(argv: list) -> SimpleNamespace:
    """The command and its option values, as `_COMMANDS` reads argv.

    An option's value is the next argument, or follows `=` (`--point=1,2`)
    or a short name (`-p1,2`); the next argument is taken even when it starts
    with `-`, so `-p -1,2` gives the point -1,2.  A long name is matched in
    full, never by a prefix.  `-h` prints the help and exits 0; a usage error
    prints a message on stderr and exits 2.
    """
    if not argv:
        _usage_error(None, "a command is required")
    command = argv[0]
    if command in _HELP:
        sys.stdout.write(_help(None))
        raise SystemExit(0)
    if command not in _COMMANDS:
        _usage_error(None, f"unknown command {command!r} (choose from {', '.join(_COMMANDS)})")
    algebra, options = _COMMANDS[command].algebra, _COMMANDS[command].options
    values = {"command": command, "algebra": None}
    by_name = {}
    for opt in options:
        name, short, kind, _ = opt
        by_name[name] = opt
        if short:
            by_name[short] = opt
        values[_dest(name)] = [] if kind == "list" else (False if kind == "flag" else None)
    positional = []
    rest = iter(argv[1:])
    for arg in rest:
        if arg in _HELP:
            sys.stdout.write(_help(command))
            raise SystemExit(0)
        if not arg.startswith("-") or arg == "-":
            positional.append(arg)
            continue
        name, eq, value = arg.partition("=")
        if name not in by_name and not arg.startswith("--") and arg[:2] in by_name:
            name, eq, value = arg[:2], "=", arg[2:]
        if name not in by_name:
            _usage_error(command, f"unrecognized option {name}")
        name, _, kind, _ = by_name[name]
        if kind == "flag":
            if eq:
                _usage_error(command, f"{name} takes no value")
            values[_dest(name)] = True
            continue
        if not eq:
            value = next(rest, None)
            if value is None:
                _usage_error(command, f"{name} needs a value")
        if kind == "list":
            values[_dest(name)].append(value)
        else:
            values[_dest(name)] = value
    if algebra and positional:
        values["algebra"] = positional.pop(0)
    if positional:
        _usage_error(command, f"unrecognized arguments: {' '.join(positional)}")
    missing = [name for name, _, kind, _ in options
               if kind == "required" and values[_dest(name)] is None]
    if algebra and values["algebra"] is None:
        missing.insert(0, "ALGEBRA")
    if missing:
        _usage_error(command, f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(**values)


def _dumps(envelope: dict) -> str:
    return json.dumps(envelope, sort_keys=True, indent=2, default=_encode) + "\n"


def main(argv: list | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    head = {"schema": SCHEMA, "command": args.command}
    if args.algebra:
        head["algebra"] = args.algebra
    try:
        spec = _COMMANDS[args.command]
        if spec.point and not args.point:
            raise InputError("at least one --point is required")
        payload = spec.handler(args)
        # a result without "ok" (an orbit) counts as ok, and so does a report without results
        ok = all(r.get("ok", True) for r in payload.get("results", ()))
        text, code = _dumps({**head, **payload, "ok": ok}), 0 if ok else 1
    except ValueError as exc:  # a rational too long to print is one too, raised by `_dumps`
        text, code = _dumps({**head, "error": str(exc), "ok": False}), 2
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code
        except OSError as exc:
            error = f"cannot write the report to {args.output}: {exc.strerror}"
            text, code = _dumps({**head, "error": error, "ok": False}), 2
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        sys.stderr.write(f"cannot write the report to stdout: {exc.strerror}\n")
        return 2
    return code


def run() -> None:
    """The process entry: `main` on sys.argv, then exit without teardown."""
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
