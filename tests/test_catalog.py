"""The built-in definition files against the reference builders, structure
constants read off matrix representations, the checks on them, and the JSON
definition format read back from a document written here."""

import fnmatch
import json
import os
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit import catalog
from orbitkit.catalog import CatalogError
from orbitkit.liealg import LieAlgebra, flat, validate
from orbitkit.linalg import Matrix, solve
from conftest import BUILDERS, algebra_from_rep, sl_rep

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (perfbench/ is not a package)


def solved_algebra(name, labels, matrices):
    """Reference: the coordinates of each commutator by its own `solve`."""
    mats = [Matrix(m) for m in matrices]
    flat_cols = Matrix([flat(m) for m in mats]).transpose()
    brackets = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            coords = solve(flat_cols, flat(mats[i] * mats[j] - mats[j] * mats[i]))
            brackets[(i, j)] = dict(enumerate(coords))
    return LieAlgebra.from_brackets(labels, brackets, name=name, matrix_rep=mats)


def rep_entries(entries):
    return [e.algebra for e in entries.values() if e.algebra.matrix_rep is not None]


def test_seven_catalog_entries_carry_a_representation(entries):
    assert sorted(alg.name for alg in rep_entries(entries)) == [
        "affine_line", "euclid2", "heisenberg3", "poincare", "sl2", "sl3", "so31"]


def test_structure_constants_match_the_per_pair_solve(entries):
    cases = [(alg.name, alg.labels, [r.entries for r in alg.matrix_rep])
             for alg in rep_entries(entries)]
    cases.append(("sl4", *sl_rep(4)))
    for name, labels, mats in cases:
        built = algebra_from_rep(name, labels, mats)
        assert built == solved_algebra(name, labels, mats), name
        assert validate(built).ok


def test_a_commutator_outside_the_span_is_refused():
    e12 = [[0, 1], [0, 0]]
    e21 = [[0, 0], [1, 0]]
    with pytest.raises(CatalogError, match=r"commutator \[e,f\] leaves the span"):
        algebra_from_rep("no_cartan", ("e", "f"), [e12, e21])


def test_one_wrong_constant_is_reported_at_its_pair(entries):
    rng = random.Random(7)
    for alg in rep_entries(entries):
        brackets = {(i, j): dict(alg.nonzeros[i][j])
                    for i in range(alg.dim) for j in range(i + 1, alg.dim)}
        pair = rng.choice(sorted(brackets))
        k = rng.randrange(alg.dim)
        brackets[pair][k] = brackets[pair].get(k, 0) + 1
        broken = LieAlgebra.from_brackets(alg.labels, brackets, name=alg.name,
                                          matrix_rep=alg.matrix_rep)
        assert validate(broken).rep_failures == (pair,), alg.name


def test_the_constructor_refuses_a_representation_of_the_wrong_shape():
    square, wide = Matrix([[1, 0], [0, 0]]), Matrix([[1, 0, 0], [0, 0, 0]])
    for rep in ([square], [square, wide], [wide, wide]):
        with pytest.raises(ValueError, match="^matrix_rep must list one n x n matrix per element$"):
            LieAlgebra.from_brackets(("a", "b"), {}, matrix_rep=rep)
    assert LieAlgebra.from_brackets(("a", "b"), {}, matrix_rep=[square, square]).matrix_rep


def test_the_constructors_refusals_name_the_file():
    base = {"dim": 2, "basis": ["a", "b"]}
    cases = {
        "coefficient index out of range in pair (0,1)":
            {"brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1"}}]},
        "matrix_rep must list one n x n matrix per element":
            {"matrix_rep": [[["1", "0"], ["0", "0"]], [["1"]]]},
    }
    for message, extra in cases.items():
        with pytest.raises(CatalogError) as exc:
            catalog.parse_algebra({**base, **extra}, "f.json")
        assert str(exc.value) == f"f.json: {message}"


# -- the built-in definition files ------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def test_each_shipped_file_is_named_after_its_entry():
    files = sorted(os.listdir(catalog.BUILTIN_DIR))
    assert files == sorted(f"{name}.json" for name in BUILDERS)
    for fname in files:
        doc = catalog.read_json(os.path.join(catalog.BUILTIN_DIR, fname))
        assert f"{doc['name']}.json" == fname


def test_each_shipped_file_is_its_reference_builders_entry(entries):
    assert sorted(entries) == sorted(BUILDERS)
    for name, build in BUILDERS.items():
        ref, entry = build(), entries[name]
        assert entry == ref, name    # algebra, covectors, ideals, complements, description
        alg = entry.algebra
        if alg.matrix_rep is not None:
            mats = [m.entries for m in alg.matrix_rep]
            assert algebra_from_rep(name, alg.labels, mats) == alg, name


def test_the_catalog_reads_without_a_linear_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("linear solve")

    for name, module in list(sys.modules.items()):
        if name.startswith("orbitkit.") and hasattr(module, "solve"):
            monkeypatch.setattr(module, "solve", refuse)
    read = {name: catalog.load_entry_file(os.path.join(catalog.BUILTIN_DIR, f"{name}.json"))
            for name in BUILDERS}
    assert read == catalog.builtin_catalog()


def test_the_declared_package_data_is_every_shipped_file():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["orbitkit"]
    package = Path(catalog.__file__).parent
    shipped = sorted(str(p.relative_to(package)) for p in package.rglob("*")
                     if p.is_file() and p.suffix != ".py" and "__pycache__" not in p.parts)
    assert shipped == sorted(f"algebras/{name}.json" for name in BUILDERS)
    assert [p for p in shipped if not any(fnmatch.fnmatch(p, g) for g in globs)] == []


# -- the JSON format, read back from a written document ---------------------------


def _rows(rows):
    return [[str(x) for x in row] for row in rows]


def algebra_doc(alg):
    """The definition document of an algebra: its i < j brackets, rationals as strings."""
    n = alg.dim
    doc = {"name": alg.name, "dim": n, "basis": list(alg.labels),
           "brackets": [{"i": i, "j": j, "coeffs": {str(k): str(c) for k, c in alg.nonzeros[i][j]}}
                        for i in range(n) for j in range(i + 1, n) if alg.nonzeros[i][j]]}
    if alg.matrix_rep is not None:
        doc["matrix_rep"] = [_rows(m.entries) for m in alg.matrix_rep]
    return doc


def entry_doc(entry):
    """The definition document of a catalog entry: ideals and complements by their rows."""
    return {**algebra_doc(entry.algebra), "description": entry.description,
            "covectors": {name: [str(x) for x in c] for name, c in entry.covectors.items()},
            "ideals": {name: {"rows": _rows(s.rows)} for name, s in entry.ideals.items()},
            "complements": {name: {"rows": _rows(s.rows)}
                            for name, s in entry.complements.items()}}


def through_json(doc):
    return json.loads(json.dumps(doc))


RATIONALS = st.fractions(-9, 9, max_denominator=5)


@st.composite
def bracket_tables(draw):
    """A LieAlgebra from a random bracket table (antisymmetric by construction, Jacobi
    not required), dim <= 6, sometimes with a random matrix representation."""
    n = draw(st.integers(0, 6))
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            brackets[(i, j)] = draw(st.dictionaries(st.integers(0, n - 1), RATIONALS,
                                                    max_size=3))
    rep = None
    if n and draw(st.booleans()):
        size = draw(st.integers(1, 3))
        rep = [Matrix([[draw(RATIONALS) for _ in range(size)] for _ in range(size)])
               for _ in range(n)]
    name = draw(st.sampled_from(["", "g", "algebra one"]))
    return LieAlgebra.from_brackets([f"e{k}" for k in range(n)], brackets, name, rep)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(bracket_tables())
def test_an_algebra_reads_back_from_its_document_property(alg):
    assert catalog.parse_algebra(through_json(algebra_doc(alg))) == alg


def _family_entries():
    """The entries of the seeded family documents of the benchmark's workloads."""
    for name in ("catalog_sweep", "family_orbit", "parabolic_polarize"):
        wl = workloads.build(name, workloads.DEFAULT_SEED)
        for stem in wl.families:
            yield catalog.parse_entry(wl.files[f"{stem}.json"], f"{stem}.json")


def test_every_entry_reads_back_from_its_document(entries):
    written = list(entries.values()) + list(_family_entries())
    assert len(written) == 9 + 16
    for entry in written:
        assert catalog.parse_entry(through_json(entry_doc(entry))) == entry, entry.name
