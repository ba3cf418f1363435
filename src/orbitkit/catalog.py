"""Built-in algebra catalog plus the JSON on-disk format.

Definition files look like

    {"name": "...", "dim": n, "basis": ["e1", ...],
     "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}, ...],
     "matrix_rep": [[["0","1"],["0","0"]], ...]}            # optional

with rationals serialized as "p/q" strings and only i < j bracket pairs
allowed (omitted pairs are zero).  A basis index (`i`, `j`, an entry of an
index list) is a JSON integer, never `true` or `false`, and neither is a
rational; a coefficient key is a string of ASCII decimal digits.  A raw
dense "structure" tensor is accepted as an alternative to "brackets" so
that deliberately broken tensors can be fed to the validator; it is the
only dim^3 grid in the package, read into the algebra's sparse bracket
table as given (not made antisymmetric) and then dropped.  Catalog entries
extend the schema with documented sample covectors and declared
ideals/complements; a declared name may not be a basis label or all ASCII
digits, since a subspace argument looks names up before labels and indices.

`read_json` is the one reader of the files the CLI is given: a definition,
a `--sub @file` and a `chain:` file.  One that cannot be read, is not UTF-8,
is not JSON or nests too deeply is a CatalogError that names the file.  A
rational literal is read by `linalg.frac`, which refuses an exponent above
MAX_EXPONENT (4300) in magnitude before it builds the number.

Built-in entries are built and validated by name, each once per process,
so a caller that names one entry pays for that entry alone.  Their
constructors are in `builtin_entries`, which only a catalog lookup imports,
so an invocation on a definition file never compiles them.  The entries of
the directory named by ORBITKIT_CATALOG_DIR are all loaded on every lookup
and merged over the built-ins: a file naming a built-in overrides it, and a
malformed file fails every lookup.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .liealg import LieAlgebra, validate
from .linalg import Matrix, Record, Subspace, basis_vector, frac


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


def builtin_catalog() -> dict:
    from .builtin_entries import BUILDERS, builtin_entry

    return {name: builtin_entry(name) for name in BUILDERS}


def _extra_entries() -> dict:
    """The entries of every definition file in ORBITKIT_CATALOG_DIR, by name."""
    extra_dir = os.environ.get("ORBITKIT_CATALOG_DIR")
    if not (extra_dir and os.path.isdir(extra_dir)):
        return {}
    entries = {}
    for fname in sorted(os.listdir(extra_dir)):
        if fname.endswith(".json"):
            entry = load_entry_file(os.path.join(extra_dir, fname))
            entries[entry.name] = entry
    return entries


def load_catalog() -> dict:
    """Built-ins merged with any entries from ORBITKIT_CATALOG_DIR."""
    return {**builtin_catalog(), **_extra_entries()}


def find_entry(name: str) -> CatalogEntry | None:
    """The entry `load_catalog()` would hold under `name`, building no other built-in.

    None when there is no such entry.
    """
    extras = _extra_entries()
    if name in extras:
        return extras[name]
    from .builtin_entries import BUILDERS, builtin_entry

    return builtin_entry(name) if name in BUILDERS else None


# ---------------------------------------------------------------------------
# JSON format


def _rat(s, what: str) -> Fraction:
    if isinstance(s, bool):  # `frac` would read JSON true and false as 1 and 0
        raise CatalogError(f"{what}: {json.dumps(s)} is not a rational")
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


def parse_row(row, what: str) -> tuple:
    """A JSON list of rationals.

    Anything else, a string above all, is refused with the field named in
    `what`; a string is never read one character per coordinate.
    """
    if not isinstance(row, list):
        raise CatalogError(f"{what} must be a list of rationals, got {row!r}")
    return tuple(_rat(x, what) for x in row)


def parse_algebra(doc: dict, source: str = "<input>") -> LieAlgebra:
    if not isinstance(doc, dict):
        raise CatalogError(f"{source}: a definition must be a JSON object")
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
            rep = [Matrix([parse_row(row, f"{source}: matrix_rep[{k}] row") for row in m])
                   for k, m in enumerate(doc["matrix_rep"])]
        except TypeError:
            raise CatalogError(f"{source}: matrix_rep must list matrices of rows") from None
    if "structure" in doc:
        try:
            grid = [[parse_row(row, f"{source}: structure row") for row in plane]
                    for plane in doc["structure"]]
        except TypeError:
            grid = None
        if grid is None or len(grid) != dim or any(
                len(plane) != dim or any(len(row) != dim for row in plane) for plane in grid):
            raise CatalogError(f"{source}: structure must be a dim x dim x dim tensor")
        # taken as given, not made antisymmetric, so that `validate` reports a broken tensor
        table = tuple(tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in plane)
                      for plane in grid)
    else:
        table, items, brackets = None, doc.get("brackets", []), {}
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
            brackets[(i, j)] = {_index_key(k, what): _rat(v, what) for k, v in coeffs}
    try:  # the constructor checks the coefficient indices and the matrix_rep shapes
        if table is None:
            return LieAlgebra.from_brackets(labels, brackets, name=name, matrix_rep=rep)
        return LieAlgebra(dim, labels, table, tuple(rep) if rep else None, name)
    except ValueError as exc:
        raise CatalogError(f"{source}: {exc}") from None


def _parse_subspace(alg: LieAlgebra, name: str, spec, what: str) -> Subspace:
    # a subspace argument is looked up by declared name before labels, indices,
    # label lists and @files, so a name must not read as any of them
    if name in alg.labels or is_index_token(name):
        raise CatalogError(f"{what} has the name of a basis label or index")
    if "," in name or name.startswith("@"):
        raise CatalogError(f"{what} has a name that reads as a label list or a subspace file")
    if isinstance(spec, dict) and "rows" in spec:
        return Subspace(alg.dim, [parse_row(row, f"{what} rows[{r}]")
                                  for r, row in enumerate(spec["rows"])])
    if isinstance(spec, list) and all(map(is_index, spec)):
        try:
            return Subspace(alg.dim, [basis_vector(alg.dim, i) for i in spec])
        except ValueError as exc:
            raise CatalogError(f"{what}: {exc}") from None
    raise CatalogError(f"{what} must be an index list or {{'rows': ...}}")


def parse_entry(doc: dict, source: str = "<input>") -> CatalogEntry:
    alg = parse_algebra(doc, source)
    report = validate(alg)
    if not report.ok:
        bad = report.antisymmetry_failures or [t[:3] for t in report.jacobi_failures]
        where = f"triple {bad[0]}" if bad else f"matrix_rep pair {report.rep_failures[0]}"
        raise CatalogError(f"{source}: algebra fails validation at {where}")
    try:
        covectors = {
            key: parse_row(coords, f"{source}: covector {key!r}")
            for key, coords in doc.get("covectors", {}).items()
        }
        ideals, complements = (
            {key: _parse_subspace(alg, key, spec, f"{source}: {kind} {key!r}")
             for key, spec in doc.get(f"{kind}s", {}).items()}
            for kind in ("ideal", "complement"))
    except (AttributeError, TypeError) as exc:
        raise CatalogError(f"{source}: malformed covectors, ideals or complements: {exc}") from None
    for key, coords in covectors.items():
        if len(coords) != alg.dim:
            raise CatalogError(
                f"{source}: covector {key!r} has {len(coords)} coordinates for dim {alg.dim}"
            )
    return CatalogEntry(alg.name, alg, doc.get("description", ""),
                        covectors, ideals, complements)


def read_json(path: str, what: str = None):
    """The JSON document in an input file; an error's text starts with `what` or the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8 or JSON; nested too deep
        raise CatalogError(f"{what or path}: {exc}") from None


def load_entry_file(path: str) -> CatalogEntry:
    return parse_entry(read_json(path), source=path)
