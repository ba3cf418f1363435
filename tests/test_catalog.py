"""The built-in definition files against the reference builders, structure
constants read off matrix representations, the checks on them, and the JSON
definition format read back from a document written here."""

import fnmatch
import json
import os
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit import catalog
from orbitkit.catalog import CatalogError
from orbitkit.liealg import LieAlgebra, flat, validate
from orbitkit.linalg import solve, vec, vec_sub
from conftest import BUILDERS, algebra_from_rep, matmul, sl_rep

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import families  # noqa: E402  (perfbench/ is not a package)
import workloads  # noqa: E402


def solved_algebra(name, labels, matrices):
    """Reference: the coordinates of each commutator by its own `solve`."""
    mats = [tuple(map(vec, m)) for m in matrices]
    flat_cols = tuple(zip(*[flat(m) for m in mats]))
    brackets = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            commutator = map(vec_sub, matmul(mats[i], mats[j]), matmul(mats[j], mats[i]))
            coords = solve(flat_cols, flat(commutator), len(mats))
            brackets[(i, j)] = dict(enumerate(coords))
    return LieAlgebra.from_brackets(labels, brackets, name=name, matrix_rep=mats)


def rep_entries(entries):
    return [e.algebra for e in entries.values() if e.algebra.matrix_rep is not None]


def test_seven_catalog_entries_carry_a_representation(entries):
    assert sorted(alg.name for alg in rep_entries(entries)) == [
        "affine_line", "euclid2", "heisenberg3", "poincare", "sl2", "sl3", "so31"]


def test_structure_constants_match_the_per_pair_solve(entries):
    cases = [(alg.name, alg.labels, alg.matrix_rep) for alg in rep_entries(entries)]
    cases.append(("sl4", *sl_rep(4)))
    for name, labels, mats in cases:
        built = algebra_from_rep(name, labels, mats)
        assert built == solved_algebra(name, labels, mats), name
        assert validate(built)["ok"]


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
        assert validate(broken)["rep_failures"] == (pair,), alg.name


def test_the_constructor_refuses_a_representation_of_the_wrong_shape():
    """A matrix is the tuple of its rows, so each row's length is checked too:
    one short row, like a matrix of the wrong size or count, is refused."""
    square, wide = [[1, 0], [0, 0]], [[1, 0, 0], [0, 0, 0]]
    short, big = [[1, 0], [0]], [[1, 0, 0], [0, 0, 0], [0, 0, 1]]
    for rep in ([square], [square, wide], [wide, wide], [square, short], [short, short],
                [square, big]):
        with pytest.raises(ValueError, match="^matrix_rep must list one n x n matrix per element$"):
            LieAlgebra.from_brackets(("a", "b"), {}, matrix_rep=rep)
    assert LieAlgebra.from_brackets(("a", "b"), {}, matrix_rep=[square, square]).matrix_rep


def test_a_representation_of_ints_or_strings_is_read_as_fractions():
    """`from_brackets` reads each rep row by `vec`: ints, "p/q" strings and
    Fractions give one algebra, with Fraction entries."""
    brackets = {(0, 1): {1: 2}}
    as_fractions = [[[F(1), F(0)], [F(0), F(-1)]], [[F(0), F(1)], [F(0), F(0)]]]
    as_ints = [[[1, 0], [0, -1]], [[0, 1], [0, 0]]]
    as_strings = [[["2/2", "0"], ["0", "-1"]], [["0", "3/3"], ["0", "0/7"]]]
    algs = [LieAlgebra.from_brackets(("h", "e"), brackets, matrix_rep=rep)
            for rep in (as_fractions, as_ints, as_strings)]
    assert algs[0] == algs[1] == algs[2] and validate(algs[2])["ok"]
    assert all(type(x) is F for m in algs[2].matrix_rep for row in m for x in row)


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
            assert algebra_from_rep(name, alg.labels, alg.matrix_rep) == alg, name


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
        doc["matrix_rep"] = [_rows(m) for m in alg.matrix_rep]
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
        rep = [[[draw(RATIONALS) for _ in range(size)] for _ in range(size)]
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


# -- each distinct literal of a file is parsed once -------------------------------


def _literals_parsed(monkeypatch) -> list:
    """The literals `catalog` hands to `frac` from now on, in order."""
    calls, real = [], catalog.frac
    monkeypatch.setattr(catalog, "frac", lambda s: calls.append(s) or real(s))
    return calls


def test_each_distinct_literal_of_a_definition_is_parsed_once(monkeypatch):
    """The seed-0 sl4 file holds 304 literals, 21 of them distinct, and the shipped
    poincare 324, 3 distinct: a parse reads each distinct one once."""
    parsed = _literals_parsed(monkeypatch)
    catalog.parse_entry(families.sl(4, families.family_rng(0, "sl4")).doc, "sl4.json")
    assert len(parsed) == len(set(parsed)) == 21
    parsed.clear()
    catalog.load_entry_file(os.path.join(catalog.BUILTIN_DIR, "poincare.json"))
    assert len(parsed) == len(set(parsed)) == 3
    parsed.clear()
    catalog.load_entry_file(os.path.join(catalog.BUILTIN_DIR, "poincare.json"))
    assert len(parsed) == 3  # the memo lives for one parse, not the process


H2 = {"name": "h2", "dim": 2, "basis": ["x", "y"],
      "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1"}}]}


@pytest.mark.parametrize("covector, error", [
    ([True, "1"], "covector 'c': true is not a rational"),
    (["1", False], "covector 'c': false is not a rational"),
    ([1, "1"], None),
    (["1", "1/0"], "covector 'c': bad rational literal '1/0': zero denominator"),
    (["1e5000", "1"], "covector 'c': bad rational literal '1e5000': exponent above 4300"),
    (["1", 1.0], "covector 'c': bad rational literal 1.0: floating point is not allowed"),
], ids=["true", "false", "int_and_string", "zero_denominator", "exponent_cap", "float"])
def test_a_literal_read_before_never_passes_a_refused_one(covector, error):
    """The memo holds string literals alone, each once it has been accepted: a bool,
    a float or an int equal to a stored literal is read on its own, and every refusal
    keeps its text."""
    doc = {**H2, "covectors": {"c": covector}}
    if error is None:
        assert catalog.parse_entry(doc, "h2.json").covectors["c"] == (1, 1)
        return
    with pytest.raises(CatalogError) as info:
        catalog.parse_entry(doc, "h2.json")
    assert str(info.value).startswith(f"h2.json: {error}")
