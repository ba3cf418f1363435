"""The JSON formats, in and out, the catalog of entries, and the CLI's argument readers.

Definition files look like

    {"name": "...", "dim": n, "basis": ["e1", ...],
     "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}, ...],
     "matrix_rep": [[["0","1"],["0","0"]], ...]}            # optional

with rationals serialized as "p/q" strings and only i < j bracket pairs
allowed (omitted pairs are zero).  A basis index (`i`, `j`, an entry of an
index list) is a JSON integer, never `true` or `false`, and neither is a
rational; a coefficient key is a string of ASCII decimal digits, and two
keys of one bracket may not name one index ("2" and "02").  The dimension
is at most MAX_DIM (128), so a file of a few kilobytes cannot start a
validation that runs for minutes; a `LieAlgebra` built in code has no cap.
The bracket list is the one way a file gives its table, so every algebra
read from a file is antisymmetric by construction; a dense "structure"
tensor is refused by name.  Catalog entries
extend the schema with a description string and three JSON objects keyed
by name: documented sample covectors, declared ideals and declared
complements.  A declared name may not be a basis label, all ASCII digits,
a label list or an @file, since a subspace argument looks names up first.

A subspace in JSON has one grammar, read by `parse_subspace` alone: a list
of basis indices, or {"rows": [row, ...]} with each row a list of dim
rationals.  A definition declares its ideals and complements in it; the
file of a `--sub`, `--ideal` or `--complement` argument @FILE holds one
subspace; a `--strategy chain:FILE` file is {"ideals": [subspace, ...]},
read by `polarization.parse_chain`, next to the search it feeds.

`read_json` is the one reader of the files the CLI is given: a definition,
a subspace file and a chain file.  One that cannot be read, is not UTF-8,
is not JSON or nests too deeply is a CatalogError that names the file.  A
rational literal is read by `linalg.frac`, in one grammar on every Python
version, which refuses an exponent above MAX_EXPONENT (4300) in magnitude,
or more than that many digits in a row, before it builds the number, and a
numerator or denominator of more than that many digits after.  A definition
repeats few distinct literals (the sl4 file the benchmark writes at seed 0
holds 304, 21 of them distinct), so `parse_entry` reads each distinct string literal of a file
once, through a memo that lives as long as that one parse; a refused literal
is never stored, so each of its occurrences is refused with its own field
named.

The built-in entries are definition files too, NAME.json in the package's
`algebras` directory, read by `load_entry_file` like any other: the same
parser, the same validation (which checks each file's brackets against its
`matrix_rep`) and the same errors.  A built-in is read by name, each once
per process, so a caller that names one entry reads that file alone; the
name is looked up in the directory's listing, never joined into a path.
The shipped files are the whole catalog, and a user's own algebra is named
by its path: a report depends only on its argv and the files it names.

The readers of the CLI's arguments live here too, since every subcommand's
handler, in `cli` or next to its analysis, runs them: `load_entry` (an
ALGEBRA argument), `parse_coords` and `parse_points` (comma-separated
rationals) and `subspace_argument` (a `--sub`, `--ideal` or `--complement`:
a declared name, labels, indices or an @file).  They refuse bad input with
InputError.  `encode` is the output side of the format: the `default=` hook
of every `json.dumps` of a report, which writes a Fraction as its canonical
"p/q" string, a Subspace as its RREF basis rows and a Covector as its
coordinates; a matrix is the tuple of its rows already, which JSON writes as
it is.  Any other type is an error, never a `repr` in a report, and so is a
Fraction too long to print, a ValueError that says so.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from functools import lru_cache

from .liealg import Covector, LieAlgebra, validate
from .linalg import Record, Subspace, basis_vector, frac


MAX_DIM = 128  # the largest dimension a definition file may declare


class CatalogError(ValueError):
    """Definition file malformed or failing validation."""


class CatalogEntry(Record):
    name: str
    algebra: LieAlgebra
    description: str = ""
    covectors: dict = None    # name -> coordinate tuple
    ideals: dict = None       # name -> Subspace
    complements: dict = None  # name -> Subspace

    def __post_init__(self):
        for name in ("covectors", "ideals", "complements"):  # each entry its own dict
            if getattr(self, name) is None:
                object.__setattr__(self, name, {})


BUILTIN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "algebras")


def _entry_files(directory: str) -> list:
    """The definition files of a directory, sorted: the listing a name is looked up in."""
    return sorted(fname for fname in os.listdir(directory) if fname.endswith(".json"))


@lru_cache(maxsize=None)
def _builtin_entry(path: str) -> CatalogEntry:
    """A built-in definition file, read once per process."""
    return load_entry_file(path)


def builtin_catalog() -> dict:
    """The built-in entries, by name: the definition files in BUILTIN_DIR."""
    entries = (_builtin_entry(os.path.join(BUILTIN_DIR, fname))
               for fname in _entry_files(BUILTIN_DIR))
    return {entry.name: entry for entry in entries}


# ---------------------------------------------------------------------------
# JSON format


def _rat(s, what: str, memo: dict | None = None) -> Fraction:
    """A rational literal; `memo`, when given, maps the string literals its file has
    given so far to their values, and a refused literal is never stored."""
    if isinstance(s, bool):  # `frac` would read JSON true and false as 1 and 0
        raise CatalogError(f"{what}: {json.dumps(s)} is not a rational")
    if memo is not None and type(s) is str:  # strings alone: 1 == 1.0 == True as keys
        if s not in memo:
            memo[s] = _rat(s, what)
        return memo[s]
    try:
        return frac(s)
    except (ValueError, TypeError) as exc:
        raise CatalogError(f"{what}: bad rational literal {s!r}: {exc}") from None


def is_index(x) -> bool:
    """A JSON basis index: an int, never the bools that JSON true and false read as."""
    return type(x) is int


def is_index_token(text: str) -> bool:
    """Text naming a basis index: ASCII decimal digits only, so not '²' or ' 2'.

    The one rule for coefficient keys, `--sub` tokens, and the labels and
    declared names that must not read as an index.
    """
    return text.isascii() and text.isdigit()


def _index_key(key, what: str) -> int:
    """A JSON object key naming a basis index."""
    if not (isinstance(key, str) and is_index_token(key)):
        raise CatalogError(f"{what}: coefficient key {key!r} is not a basis index")
    return int(key)


def parse_row(row, what: str, memo: dict | None = None) -> tuple:
    """A JSON list of rationals (`memo` as for `_rat`).

    Anything else, a string above all, is refused with the field named in
    `what`; a string is never read one character per coordinate.
    """
    if not isinstance(row, list):
        raise CatalogError(f"{what} must be a list of rationals, got {row!r}")
    return tuple(_rat(x, what, memo) for x in row)


def _parse_matrix(rows, what: str, memo: dict) -> tuple:
    """A JSON list of rows of rationals, as the tuple of its rows; a ragged or
    empty one names `what`."""
    rows = tuple(parse_row(row, f"{what} row", memo) for row in rows)
    if not rows:
        raise CatalogError(f"{what}: a matrix with no rows needs its width")
    if any(len(row) != len(rows[0]) for row in rows):
        raise CatalogError(f"{what}: ragged matrix")
    return rows


def parse_algebra(doc: dict, source: str = "<input>", memo: dict | None = None) -> LieAlgebra:
    """The algebra a definition gives; `memo` (a fresh one by default) as for `_rat`."""
    memo = {} if memo is None else memo
    if not isinstance(doc, dict):
        raise CatalogError(f"{source}: a definition must be a JSON object")
    if "structure" in doc:
        raise CatalogError(f"{source}: 'structure' is not a definition field; "
                           "give the bracket table as 'brackets'")
    try:
        name = doc.get("name", source)
        dim = doc["dim"]
        labels = doc["basis"]
    except KeyError as exc:
        raise CatalogError(f"{source}: missing field {exc}") from None
    if not isinstance(name, str):
        raise CatalogError(f"{source}: name must be a string, got {name!r}")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise CatalogError(f"{source}: dim must be a non-negative integer, got {dim!r}")
    if dim > MAX_DIM:
        raise CatalogError(f"{source}: dim {dim} is above the limit {MAX_DIM}")
    if not (isinstance(labels, list) and all(isinstance(label, str) for label in labels)):
        raise CatalogError(f"{source}: basis must be a list of strings, got {labels!r}")
    labels = tuple(labels)
    if len(labels) != dim:
        raise CatalogError(f"{source}: basis has {len(labels)} labels for dim {dim}")
    # a subspace names its basis elements by label or by index, so each label
    # must name one element and must not read as an index
    for k, label in enumerate(labels):
        if label in labels[:k]:
            raise CatalogError(f"{source}: basis label {label!r} is repeated")
        if is_index_token(label):
            raise CatalogError(f"{source}: basis label {label!r} reads as an index")
    rep = None
    if doc.get("matrix_rep") is not None:
        try:
            rep = [_parse_matrix(m, f"{source}: matrix_rep[{k}]", memo)
                   for k, m in enumerate(doc["matrix_rep"])]
        except TypeError:
            raise CatalogError(f"{source}: matrix_rep must list matrices of rows") from None
    items, brackets = doc.get("brackets", []), {}
    if not isinstance(items, list):
        raise CatalogError(f"{source}: brackets must be a list of bracket objects")
    for item in items:
        try:
            i, j, coeffs = item["i"], item["j"], item["coeffs"].items()
        except (KeyError, TypeError, AttributeError):
            raise CatalogError(
                f"{source}: a bracket needs 'i', 'j' and a 'coeffs' object, got {item!r}"
            ) from None
        if not (is_index(i) and is_index(j) and 0 <= i < j < dim):
            raise CatalogError(f"{source}: bracket pair ({i},{j}) violates 0 <= i < j < dim")
        if (i, j) in brackets:
            raise CatalogError(f"{source}: duplicate bracket pair ({i},{j})")
        what = f"{source}: bracket pair ({i},{j})"
        brackets[(i, j)], keys = {}, {}
        for key, value in coeffs:
            k = _index_key(key, what)
            if k in keys:  # "2" and "02"
                raise CatalogError(f"{what}: coefficient keys {keys[k]!r} and {key!r} "
                                   f"name one index {k}")
            keys[k], brackets[(i, j)][k] = key, _rat(value, what, memo)
    try:  # the constructor checks the coefficient indices and the matrix_rep shapes
        return LieAlgebra.from_brackets(labels, brackets, name=name, matrix_rep=rep)
    except ValueError as exc:
        raise CatalogError(f"{source}: {exc}") from None


def parse_subspace(alg: LieAlgebra, spec, what: str, memo: dict | None = None) -> Subspace:
    """The subspace a JSON spec names; an error's text starts with `what`."""
    if isinstance(spec, dict) and isinstance(spec.get("rows"), list):
        rows = [parse_row(row, f"{what} rows[{r}]", memo) for r, row in enumerate(spec["rows"])]
    elif not (isinstance(spec, list) and all(map(is_index, spec))):
        raise CatalogError(f"{what} must be an index list or {{'rows': ...}}")
    try:  # an index out of range, or a row of the wrong length
        if isinstance(spec, list):
            rows = [basis_vector(alg.dim, i) for i in spec]
        return Subspace(alg.dim, rows)
    except ValueError as exc:
        raise CatalogError(f"{what}: {exc}") from None


def _parse_subspace(alg: LieAlgebra, name: str, spec, what: str, memo: dict) -> Subspace:
    # a subspace argument is looked up by declared name before labels, indices,
    # label lists and @files, so a name must not read as any of them
    if name in alg.labels or is_index_token(name):
        raise CatalogError(f"{what} has the name of a basis label or index")
    if "," in name or name.startswith("@"):
        raise CatalogError(f"{what} has a name that reads as a label list or a subspace file")
    return parse_subspace(alg, spec, what, memo)


def _object_field(doc: dict, field: str, source: str) -> dict:
    """A field of a definition that holds a JSON object, {} when it is absent."""
    value = doc.get(field, {})
    if not isinstance(value, dict):
        raise CatalogError(f"{source}: {field} must be a JSON object, got {value!r}")
    return value


def parse_entry(doc: dict, source: str = "<input>") -> CatalogEntry:
    memo = {}  # each distinct string literal of the document, read once
    alg = parse_algebra(doc, source, memo)
    report = validate(alg)
    if not report["ok"]:
        bad = [f["triple"] for f in report["jacobi_failures"]]
        where = f"triple {bad[0]}" if bad else f"matrix_rep pair {report['rep_failures'][0]}"
        raise CatalogError(f"{source}: algebra fails validation at {where}")
    covectors = {key: parse_row(coords, f"{source}: covector {key!r}", memo)
                 for key, coords in _object_field(doc, "covectors", source).items()}
    ideals, complements = (
        {key: _parse_subspace(alg, key, spec, f"{source}: {kind} {key!r}", memo)
         for key, spec in _object_field(doc, f"{kind}s", source).items()}
        for kind in ("ideal", "complement"))
    for key, coords in covectors.items():
        if len(coords) != alg.dim:
            raise CatalogError(
                f"{source}: covector {key!r} has {len(coords)} coordinates for dim {alg.dim}"
            )
    description = doc.get("description", "")
    if not isinstance(description, str):
        raise CatalogError(f"{source}: description must be a string, got {description!r}")
    return CatalogEntry(alg.name, alg, description, covectors, ideals, complements)


def read_json(path: str, what: str = None):
    """The JSON document in an input file; an error's text starts with `what` or the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8 or JSON; nested too deep
        raise CatalogError(f"{what or path}: {exc}") from None


def load_entry_file(path: str) -> CatalogEntry:
    return parse_entry(read_json(path), source=path)


# ---------------------------------------------------------------------------
# the CLI's arguments, and the JSON form of a report


class InputError(ValueError):
    """An argument outside what the analysis covers."""


def load_entry(spec: str) -> CatalogEntry:
    """The entry an ALGEBRA argument names: catalog:NAME, read from the built-in file of
    that name and no other, or the path of a definition file."""
    if not spec.startswith("catalog:"):
        return load_entry_file(spec)
    name = spec.split(":", 1)[1]
    fname = f"{name}.json"
    if fname not in _entry_files(BUILTIN_DIR):
        raise InputError(f"unknown catalog entry {name!r}; try the `catalog` subcommand")
    return _builtin_entry(os.path.join(BUILTIN_DIR, fname))


def parse_coords(text: str, n: int, word: str) -> tuple:
    """n comma-separated rationals (an empty text for n = 0); errors name the `word`."""
    parts = [p.strip() for p in text.split(",")] if n or text.strip() else []
    if len(parts) != n:
        raise InputError(f"{word} needs {n} coordinates, got {len(parts)}")
    try:
        return tuple(frac(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"bad rational in {word}: {exc}") from None


def parse_points(alg: LieAlgebra, texts: list) -> list:
    """The covectors of `--point` arguments, in order."""
    return [Covector(alg, parse_coords(text, alg.dim, "point")) for text in texts]


def subspace_argument(entry: CatalogEntry, text: str) -> Subspace:
    """The subspace a `--sub`, `--ideal` or `--complement` argument names: a declared
    ideal or complement, an @file, or a comma-separated list of labels and indices."""
    alg = entry.algebra
    if text in entry.ideals:
        return entry.ideals[text]
    if text in entry.complements:
        return entry.complements[text]
    if text.startswith("@"):
        what = f"bad subspace file {text[1:]}"
        return parse_subspace(alg, read_json(text[1:], what), what)
    tokens = [t.strip() for t in text.split(",")]
    rows = []
    for tok in tokens:
        if is_index_token(tok):
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


def encode(obj):
    """The JSON form of the exact values that reports hold."""
    if isinstance(obj, Fraction):
        try:
            return str(obj)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise ValueError(f"a number in the report has more than "
                             f"{sys.get_int_max_str_digits()} digits, too long to print") from None
    if isinstance(obj, Subspace):
        return obj.rows
    if isinstance(obj, Covector):
        return obj.coords
    raise TypeError(f"no JSON form for {type(obj).__name__}")
