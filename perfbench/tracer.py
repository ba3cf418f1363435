"""Traced runner: one `orbitkit` CLI invocation with every layer timed.

    python3 tracer.py STATS_OUT -- ARGS...

runs `orbitkit.cli.main(ARGS)` in this process, after wrapping every public
function and method of each `orbitkit` module at every module binding (the
modules import one another by name, so patching the defining module alone
would miss most calls).  Each wrapped call is a span with a name, a start, an
end and a parent; spans nest on one stack, and when a span closes its
duration and self time (duration minus the time covered by its child spans)
are added to per-name totals.  The totals go to STATS_OUT as JSON.  Standard
output and the exit code are those of the plain CLI.
"""

from __future__ import annotations

import builtins
import importlib
import json
import sys
import time
from types import FunctionType

LAYERS = ("cli", "catalog", "linalg", "liealg", "conditions", "mackey",
          "polarization", "polynomials", "reductive", "induction")
_DUNDERS = ("__mul__", "__add__", "__sub__", "__neg__")
_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack = []      # open spans: [start, time covered by children]
        self.totals = {}     # span name -> [calls, self seconds, total seconds]
        self.rref_max_cells = 0
        self.max_rational_bits = 0

    def span(self, name, fn, probe=None):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack

        def traced(*args, **kwargs):
            stack.append([_clock(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                start, covered = stack.pop()
                duration = end - start
                totals[0] += 1
                totals[1] += duration - covered
                totals[2] += duration
                if stack:
                    stack[-1][1] += duration
            if probe is not None:
                probe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # counters recorded at the linalg boundary, outside the spans' clocks
    def _probe_rref(self, args, result):
        m = args[0]
        self.rref_max_cells = max(self.rref_max_cells, m.rows * m.cols)
        self._bits(x for row in result[0].entries for x in row)

    def _probe_solve(self, args, result):
        if result is not None:
            self._bits(result)

    def _bits(self, values):
        best = self.max_rational_bits
        for x in values:
            b = max(x.numerator.bit_length(), x.denominator.bit_length())
            if b > best:
                best = b
        self.max_rational_bits = best

    def install(self):
        """Wrap public functions and methods of every layer module."""
        modules = {layer: importlib.import_module(f"orbitkit.{layer}") for layer in LAYERS}
        layer_of = {mod.__name__: layer for layer, mod in modules.items()}
        probes = {"linalg.Matrix.rref": self._probe_rref, "linalg.solve": self._probe_solve}
        wrapped = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                home = layer_of.get(getattr(obj, "__module__", None))
                if home is None:
                    continue
                if isinstance(obj, type):
                    if id(obj) not in wrapped:
                        wrapped[id(obj)] = obj
                        self._install_class(obj, home, probes)
                    continue
                if not (isinstance(obj, FunctionType) or hasattr(obj, "cache_info")):
                    continue
                if id(obj) not in wrapped:
                    name = f"{home}.{obj.__name__}"
                    wrapped[id(obj)] = self.span(name, obj, probes.get(name))
                setattr(mod, attr, wrapped[id(obj)])

    def _install_class(self, cls, layer, probes):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self.span(name, member.__func__)))
            elif isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self.span(name, member.__func__)))
            elif isinstance(member, FunctionType):
                setattr(cls, attr, self.span(name, member, probes.get(name)))


def _timed_first_import(tracer, module_name, span_name):
    """Make the first import of `module_name` a span of its own."""
    real_import = builtins.__import__

    def importer(name, *args, **kwargs):
        if name == module_name and module_name not in sys.modules:
            return tracer.span(span_name, real_import)(name, *args, **kwargs)
        return real_import(name, *args, **kwargs)

    builtins.__import__ = importer


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py STATS_OUT -- ARGS...", file=sys.stderr)
        return 2
    stats_out, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    start = _clock()
    cli = importlib.import_module("orbitkit.cli")
    import_s = _clock() - start
    tracer.install()
    _timed_first_import(tracer, "sympy", "cli.sympy_import")
    try:
        return cli.main(cli_args)   # wrapped by install(): the "cli.main" span
    finally:
        sys.stdout.flush()
        with open(stats_out, "w", encoding="utf-8") as fh:
            json.dump({
                "import_s": import_s,
                "spans": tracer.totals,
                "rref_max_cells": tracer.rref_max_cells,
                "max_rational_bits": tracer.max_rational_bits,
            }, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
