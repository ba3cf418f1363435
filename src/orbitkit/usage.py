"""The help and usage text of the command line.

`cli` imports this module only when it prints the text: for `-h` or
`--help`, and for a usage error.  A report never needs it, so no invocation
that prints one compiles it.  The text is read off the command table that
`cli` passes in (the `_COMMANDS` of `cli`, whose help strings and options it
holds); this module imports nothing of the package, and never `cli`, which
runs as `__main__` under `python -m orbitkit.cli`.
"""

from __future__ import annotations

import sys


def _metavar(name: str) -> str:
    return name[2:].replace("-", "_").upper()


def _usage(commands: dict, command: str | None) -> str:
    if command is None:
        return "usage: orbitkit COMMAND [ARGS]"
    spec = commands[command]
    words = ["usage: orbitkit", command] + (["ALGEBRA"] if spec.algebra else [])
    for name, _, kind, _ in spec.options:
        value = f"{name} {_metavar(name)}"
        words.append({"required": value, "value": f"[{value}]", "list": f"[{value}]...",
                      "flag": f"[{name}]"}[kind])
    return " ".join(words)


def help_text(commands: dict, command: str | None) -> str:
    """The `-h` text: of the command, or of the program when command is None."""
    if command is None:
        rows = [(name, spec.help) for name, spec in commands.items()]
        head = ["Exact coadjoint-orbit analysis for rational Lie algebras.", "", "commands:"]
        tail = ["", "`orbitkit COMMAND -h` lists the options of a command."]
    else:
        spec = commands[command]
        rows = [("ALGEBRA", "catalog:NAME or a JSON definition file")] if spec.algebra else []
        for name, short, kind, text in spec.options:
            left = f"{short}, {name}" if short else name
            rows.append((left if kind == "flag" else f"{left} {_metavar(name)}", text))
        head, tail = [spec.help, "", "arguments:"], []
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(left) for left, _ in rows) + 2
    body = [f"  {left:<{width}}{right}" for left, right in rows]
    return "\n".join([_usage(commands, command), ""] + head + body + tail) + "\n"


def print_and_exit(commands: dict, command: str | None, error: str | None = None):
    """Print the `-h` text on stdout and exit 0 when there is no error; else print
    the usage line and the error on stderr, and exit 2."""
    if error is None:
        sys.stdout.write(help_text(commands, command))
        raise SystemExit(0)
    prog = "orbitkit" if command is None else f"orbitkit {command}"
    sys.stderr.write(f"{_usage(commands, command)}\n{prog}: error: {error}\n")
    raise SystemExit(2)
