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

Built-in entries are built and validated by name, each once per process,
so a caller that names one entry pays for that entry alone.  The entries
of the directory named by ORBITKIT_CATALOG_DIR are all loaded on every
lookup and merged over the built-ins: a file naming a built-in overrides
it, and a malformed file fails every lookup.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import lru_cache

from .liealg import LieAlgebra, rep_coords, validate
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


def algebra_from_rep(name: str, labels, matrices) -> LieAlgebra:
    """Structure constants read off a faithful matrix representation by one `rep_coords`."""
    mats = [Matrix(m) for m in matrices]
    pairs = [(i, j) for i in range(len(mats)) for j in range(i + 1, len(mats))]
    comms = [mats[i] * mats[j] - mats[j] * mats[i] for i, j in pairs]
    brackets = {}
    for (i, j), coords in zip(pairs, rep_coords(mats, comms)):
        if coords is None:
            raise CatalogError(f"{name}: commutator [{labels[i]},{labels[j]}] leaves the span")
        brackets[(i, j)] = dict(enumerate(coords))  # from_brackets drops the zeros
    return LieAlgebra.from_brackets(labels, brackets, name=name, matrix_rep=mats)


def _span(alg: LieAlgebra, indices) -> Subspace:
    return Subspace(alg.dim, [basis_vector(alg.dim, i) for i in indices])


def _heisenberg3() -> CatalogEntry:
    rep = [
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ]
    alg = algebra_from_rep("heisenberg3", ("e1", "e2", "e3"), rep)
    return CatalogEntry(
        "heisenberg3", alg,
        "Heisenberg algebra: [e1,e2]=e3, center spanned by e3.",
        covectors={"center_dual": (0, 0, 1), "x_dual": (1, 0, 0)},
        ideals={"center": _span(alg, [2]), "plane": _span(alg, [1, 2])},
        complements={"xy_plane": _span(alg, [0, 1])},
    )


def _filiform4() -> CatalogEntry:
    alg = LieAlgebra.from_brackets(
        ("e1", "e2", "e3", "e4"),
        {(0, 1): {2: 1}, (0, 2): {3: 1}},
        name="filiform4",
    )
    return CatalogEntry(
        "filiform4", alg,
        "Filiform nilpotent algebra n4: [e1,e2]=e3, [e1,e3]=e4.",
        covectors={"top_dual": (0, 0, 0, 1), "mixed": (0, 0, 1, 1)},
        ideals={"center": _span(alg, [3]), "derived": _span(alg, [2, 3]),
                "big_abelian": _span(alg, [1, 2, 3])},
    )


def _abelian3() -> CatalogEntry:
    alg = LieAlgebra.from_brackets(("a1", "a2", "a3"), {}, name="abelian3")
    return CatalogEntry("abelian3", alg, "Abelian Q^3.",
                        covectors={"generic": (1, 2, 3)})


def _affine_line() -> CatalogEntry:
    rep = [[[1, 0], [0, 0]], [[0, 1], [0, 0]]]
    alg = algebra_from_rep("affine_line", ("a", "b"), rep)
    return CatalogEntry(
        "affine_line", alg,
        "Affine algebra of the line: [a,b]=b; exponential but not nilpotent.",
        covectors={"b_dual": (0, 1)},
        ideals={"translations": _span(alg, [1])},
        complements={"dilation": _span(alg, [0])},
    )


def _euclid2() -> CatalogEntry:
    rep = [
        [[0, -1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
    ]
    alg = algebra_from_rep("euclid2", ("j", "p1", "p2"), rep)
    return CatalogEntry(
        "euclid2", alg,
        "Euclidean algebra e(2): rotation j against translations p1, p2.",
        covectors={"momentum": (0, 1, 0), "rotation_dual": (1, 0, 0)},
        ideals={"translations": _span(alg, [1, 2])},
        complements={"rotation": _span(alg, [0])},
    )


def _sl2() -> CatalogEntry:
    rep = [
        [[1, 0], [0, -1]],
        [[0, 1], [0, 0]],
        [[0, 0], [1, 0]],
    ]
    alg = algebra_from_rep("sl2", ("h", "e", "f"), rep)
    return CatalogEntry(
        "sl2", alg,
        "sl(2,Q) with standard basis h, e, f.",
        covectors={"hyperbolic_dual": (2, 0, 0), "nilpotent_dual": (0, 0, 1)},
    )


def _sl3() -> CatalogEntry:
    def unit(i, j):
        m = [[0] * 3 for _ in range(3)]
        m[i][j] = 1
        return m

    h1 = [[1, 0, 0], [0, -1, 0], [0, 0, 0]]
    h2 = [[0, 0, 0], [0, 1, 0], [0, 0, -1]]
    labels = ("h1", "h2", "e12", "e21", "e13", "e31", "e23", "e32")
    rep = [h1, h2, unit(0, 1), unit(1, 0), unit(0, 2), unit(2, 0), unit(1, 2), unit(2, 1)]
    alg = algebra_from_rep("sl3", labels, rep)
    return CatalogEntry(
        "sl3", alg,
        "sl(3,Q): Cartan h1, h2 plus the six root vectors.",
    )


_ETA = (1, -1, -1, -1)


def _lorentz_generators():
    # (M_ab) r_nu = eta_b delta_{b nu} e_a - eta_a delta_{a nu} e_b
    labels, mats = [], []
    for a in range(4):
        for b in range(a + 1, 4):
            m = [[0] * 4 for _ in range(4)]
            m[a][b] = _ETA[b]
            m[b][a] = -_ETA[a]
            labels.append(f"m{a}{b}")
            mats.append(m)
    return labels, mats


def _so31() -> CatalogEntry:
    labels, mats = _lorentz_generators()
    alg = algebra_from_rep("so31", tuple(labels), mats)
    return CatalogEntry(
        "so31", alg,
        "Lorentz algebra so(3,1) with metric diag(1,-1,-1,-1).",
        covectors={"boost_dual": (1, 0, 0, 0, 0, 0)},
    )


def _poincare() -> CatalogEntry:
    lor_labels, lor_mats = _lorentz_generators()
    labels = tuple(lor_labels) + ("p0", "p1", "p2", "p3")
    mats = []
    for m in lor_mats:
        big = [row + [0] for row in m] + [[0] * 5]
        mats.append(big)
    for a in range(4):
        big = [[0] * 5 for _ in range(5)]
        big[a][4] = 1
        mats.append(big)
    alg = algebra_from_rep("poincare", labels, mats)
    return CatalogEntry(
        "poincare", alg,
        "Poincare algebra so(3,1) |x R^{3,1}; translations p0..p3 form the abelian ideal.",
        covectors={
            "timelike": (0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
            "timelike_spinning": (0, 0, 0, 1, 0, 0, 1, 0, 0, 0),
            "lightlike": (0, 0, 0, 0, 0, 0, 1, 1, 0, 0),
            "spacelike": (0, 0, 0, 0, 0, 0, 0, 1, 0, 0),
            "zero_momentum": (0, 0, 0, 1, 0, 0, 0, 0, 0, 0),
        },
        ideals={"translations": _span(alg, range(6, 10))},
        complements={"lorentz": _span(alg, range(6))},
    )


_BUILDERS = {
    "abelian3": _abelian3,
    "heisenberg3": _heisenberg3,
    "filiform4": _filiform4,
    "affine_line": _affine_line,
    "euclid2": _euclid2,
    "sl2": _sl2,
    "sl3": _sl3,
    "so31": _so31,
    "poincare": _poincare,
}


@lru_cache(maxsize=None)
def _builtin_entry(name: str) -> CatalogEntry:
    entry = _BUILDERS[name]()
    if not validate(entry.algebra).ok:
        raise AssertionError(f"catalog entry {name} fails validation")
    return entry


def builtin_catalog() -> dict:
    return {name: _builtin_entry(name) for name in _BUILDERS}


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
    return _builtin_entry(name) if name in _BUILDERS else None


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
        return Subspace(alg.dim, [basis_vector(alg.dim, i) for i in spec])
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


def load_entry_file(path: str) -> CatalogEntry:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CatalogError(f"{path}: {exc}") from None
    return parse_entry(doc, source=path)
