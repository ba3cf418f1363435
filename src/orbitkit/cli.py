"""Command-line front end emitting canonical JSON reports.

Exit codes: 0 when every mathematical check in the report passes, 1 when a
check fails (the report says which), 2 for invalid input or usage.  Output
is deterministic: keys are sorted, rationals are canonical "p/q" strings,
and results are listed in input order, so identical invocations produce
byte-identical reports.  Input order is the order of the inputs in argv,
except that `parabolic` lists every `--element` before every `--point`.

The output format lives in one place, `catalog.encode`, the `default=`
hook of every `json.dumps` of a report.  Each analysis function returns the
dict that is printed, and `encode` writes the exact values in it: a
Fraction as its canonical "p/q" string, a Subspace as its RREF basis rows and
a Covector as its coordinates; a matrix is the tuple of its rows, which JSON
writes as it is.  Any other type is an error, never a `repr` in a report, and
so is a Fraction too long to print, a ValueError that says so.

Bad input is decided in one place: any ValueError raised on the way to a
report means the input is outside what the analysis covers, and `main`
turns it into the exit-2 envelope with the exception's text as `error`.
The library's input errors (InputError and CatalogError in `catalog`, and
`structure.NotClosedError`) are all ValueErrors; a chain of subalgebras
that does not nest and a spectrum outside Q(i) are InputErrors.
An `--output` path that cannot be written gives the same envelope, on
stdout, naming the path.  Usage errors (an unknown command or option, a
missing value or argument) print a message on stderr, nothing on stdout,
and exit 2.

`_COMMANDS`, one table, describes each subcommand (help, options, whether
it takes an algebra and needs a `--point`, handler): it parses argv, prints
the help and dispatches.  A handler returns its report's payload, and
`main` reads the report's `ok` off the payload's results.  The `-h` text and
the usage errors are written by `usage`, from this table, and that module
is imported only when one is printed.

Start-up is paid on every invocation: the interpreter, then compiling
each package module from source, as the benchmark runs with
PYTHONDONTWRITEBYTECODE=1 and no cached bytecode.  So this module holds
only what every invocation runs: the table, the parser, `main`, and the
handlers of `catalog`, `validate` and `orbit`.  It imports `catalog`,
`liealg` and `linalg`, and no argument parser library.  Every other handler
here loads its entry, so that a bad ALGEBRA compiles nothing more, then
imports its analysis module and calls the handler that lives there, next to
the analysis it drives: `conditions.conditions_command`,
`mackey.mackey_command` and `classify_command`,
`induction.record_command`, `reductive.parabolic_command` and
`exponential.polarize_command`, which imports `polarization` only once the
exponential precheck has passed.  The argument readers those handlers share
are in `catalog`.  Analysis modules import `structure` (all but
`parabolic` and a refused `polarize`), `polynomials` (`parabolic`, and
`polarize` on an algebra that is not nilpotent) and `qi_roots`
(`parabolic`) themselves.  What each invocation compiles, counted as
`ast.walk` nodes, is kept under a budget per subcommand by `LOADS` in
`tests/test_imports.py`, which holds the numbers.  Compiling takes about
1.2 µs a node (`compile()` of each module's source, the minimum of 60), so
every module an invocation loads and does not run costs it start-up.  A
built-in entry is a definition file shipped with the package, and
`catalog:NAME` reads the file of the entry named and no other.
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
from types import SimpleNamespace

from . import catalog as cat
from .liealg import orbit_record, validate
from .linalg import Record

SCHEMA = 1


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its report's payload.  `catalog`,
# `validate` and `orbit` run here; each other handler loads its entry, then
# imports the module of its analysis and calls the handler there, which parses
# its options and points in the order that decides which of two bad inputs is
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
        alg = cat.load_entry(args.algebra).algebra
    else:
        alg = cat.parse_algebra(cat.read_json(args.algebra), source=args.algebra)
    report = validate(alg)
    if not report["ok"]:
        raise cat.InputError(json.dumps(report, sort_keys=True, default=cat.encode))
    return {"validation": report}


def _cmd_orbit(args) -> dict:
    alg = cat.load_entry(args.algebra).algebra
    return {"results": [{"point": cov, **orbit_record(alg, cov)}
                        for cov in cat.parse_points(alg, args.point)]}


def _cmd_conditions(args) -> dict:
    entry = cat.load_entry(args.algebra)
    from .conditions import conditions_command
    return conditions_command(entry, args)


def _cmd_mackey(args) -> dict:
    entry = cat.load_entry(args.algebra)
    from .mackey import mackey_command
    return mackey_command(entry, args)


def _cmd_polarize(args) -> dict:
    entry = cat.load_entry(args.algebra)
    from .exponential import polarize_command  # imports `polarization` once the precheck passes
    return polarize_command(entry, args)


def _cmd_parabolic(args) -> dict:
    entry = cat.load_entry(args.algebra)
    from .reductive import parabolic_command
    return parabolic_command(entry, args)


def _cmd_classify(args) -> dict:
    entry = cat.load_entry(args.algebra)
    from .mackey import classify_command
    return classify_command(entry, args)


def _cmd_record(args) -> dict:
    entry = cat.load_entry(args.algebra)
    from .induction import record_command
    return record_command(entry, args)


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


def _usage_exit(command: str | None, error: str | None = None):
    """Exit 0 after the `-h` text, or 2 after a usage error (`usage.print_and_exit`)."""
    from .usage import print_and_exit
    print_and_exit(_COMMANDS, command, error)


def _parse_args(argv: list) -> SimpleNamespace:
    """The command and its option values, as `_COMMANDS` reads argv.

    An option's value is the next argument, or follows `=` (`--point=1,2`)
    or a short name (`-p1,2`); the next argument is taken even when it starts
    with `-`, so `-p -1,2` gives the point -1,2.  A long name is matched in
    full, never by a prefix.  `-h` prints the help and exits 0; a usage error
    prints a message on stderr and exits 2.
    """
    if not argv:
        _usage_exit(None, "a command is required")
    command = argv[0]
    if command in _HELP:
        _usage_exit(None)
    if command not in _COMMANDS:
        _usage_exit(None, f"unknown command {command!r} (choose from {', '.join(_COMMANDS)})")
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
            _usage_exit(command)
        if not arg.startswith("-") or arg == "-":
            positional.append(arg)
            continue
        name, eq, value = arg.partition("=")
        if name not in by_name and not arg.startswith("--") and arg[:2] in by_name:
            name, eq, value = arg[:2], "=", arg[2:]
        if name not in by_name:
            _usage_exit(command, f"unrecognized option {name}")
        name, _, kind, _ = by_name[name]
        if kind == "flag":
            if eq:
                _usage_exit(command, f"{name} takes no value")
            values[_dest(name)] = True
            continue
        if not eq:
            value = next(rest, None)
            if value is None:
                _usage_exit(command, f"{name} needs a value")
        if kind == "list":
            values[_dest(name)].append(value)
        else:
            values[_dest(name)] = value
    if algebra and positional:
        values["algebra"] = positional.pop(0)
    if positional:
        _usage_exit(command, f"unrecognized arguments: {' '.join(positional)}")
    missing = [name for name, _, kind, _ in options
               if kind == "required" and values[_dest(name)] is None]
    if algebra and values["algebra"] is None:
        missing.insert(0, "ALGEBRA")
    if missing:
        _usage_exit(command, f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(**values)


def _dumps(envelope: dict) -> str:
    return json.dumps(envelope, sort_keys=True, indent=2, default=cat.encode) + "\n"


def main(argv: list | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    head = {"schema": SCHEMA, "command": args.command}
    if args.algebra:
        head["algebra"] = args.algebra
    try:
        spec = _COMMANDS[args.command]
        if spec.point and not args.point:
            raise cat.InputError("at least one --point is required")
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
