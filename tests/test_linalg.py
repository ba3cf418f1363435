import fractions
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitkit import linalg
from orbitkit.catalog import CatalogEntry
from orbitkit.liealg import LieAlgebra, stabilizer
from orbitkit.linalg import (
    Matrix,
    Record,
    Subspace,
    annihilator,
    combine,
    frac,
    invariant_closure,
    rank_kernel,
    solve,
    sum_intersect,
    vec,
    vec_dot,
)
from orbitkit.mackey import symmetric_signature
from orbitkit.polarization import centralizer
from orbitkit.structure import derived_series
from conftest import coords_of, dense_apply, rand_covector, rand_frac, rand_vec


def test_rank_kernel_identity():
    rank, ker = rank_kernel(Matrix.identity(3))
    assert rank == 3 and ker.dim == 0


def test_rank_kernel_zero():
    rank, ker = rank_kernel(Matrix.zeros(2, 4))
    assert rank == 0 and ker == Subspace.full(4)


def test_rank_kernel_antisymmetric():
    # hand row-reduction: rows (0,1,0), (-1,0,0) pivot on columns 0,1
    m = Matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    rank, ker = rank_kernel(m)
    assert rank == 2
    assert ker == Subspace(3, [(0, 0, 1)])
    for row in ker.rows:
        assert all(x == 0 for x in dense_apply(m, row))


def test_sum_intersect_disjoint_lines():
    a = Subspace(3, [(1, 0, 0)])
    b = Subspace(3, [(0, 1, 0)])
    s, m = sum_intersect(a, b)
    assert s == Subspace(3, [(1, 0, 0), (0, 1, 0)])
    assert m.dim == 0


def test_sum_intersect_idempotent():
    v = Subspace(3, [(1, 2, 3), (0, 1, 1)])
    s, m = sum_intersect(v, v)
    assert s == v and m == v


def test_sum_intersect_transversal():
    # Gaussian elimination by hand: (e1+e2) + (e2, e3) spans everything
    a = Subspace(3, [(1, 1, 0)])
    b = Subspace(3, [(0, 1, 0), (0, 0, 1)])
    s, m = sum_intersect(a, b)
    assert s == Subspace.full(3)
    assert m.dim == 0


def test_sum_intersect_dim_mismatch():
    with pytest.raises(ValueError):
        sum_intersect(Subspace.full(2), Subspace.full(3))


def test_annihilator_extremes():
    assert annihilator(Subspace.full(4)).dim == 0
    assert annihilator(Subspace.zero(4)) == Subspace.full(4)


def test_annihilator_pairing():
    s = Subspace(3, [(0, 1, 0), (0, 0, 1)])
    ann = annihilator(s)
    assert ann == Subspace(3, [(1, 0, 0)])
    for u in ann.rows:
        for v in s.rows:
            assert sum(a * b for a, b in zip(u, v)) == 0


def test_frac_refuses_a_zero_denominator():
    assert frac("-6/8") == F(-3, 4)
    with pytest.raises(ValueError, match=r"^zero denominator in rational literal '1/0'$"):
        frac("1/0")
    with pytest.raises(TypeError):
        frac(0.5)


# Python 3.10 refuses every underscore, 3.12 allows spaces around "/", and
# 3.11 and 3.12 misread "1.d"; frac reads 3.11's intended grammar on each
READ = [("3/4", F(3, 4)), ("-6/8", F(-3, 4)), (" +1.5e-3 ", F(3, 2000)), ("\t7\n", 7),
        ("1_000", 1000), ("1_000/3_0", F(100, 3)), ("2e0_1", 20), ("1.5_0", F(3, 2)),
        (".5", F(1, 2)), ("1.", 1), ("1.e2", 100), ("١/٢", F(1, 2))]
REFUSED = ["1 / 3", "1/ 3", "1 /3", "1__0", "_1", "1_", "1._5", "1.d", "/3", "", " ",
           "0x10", "nan", "inf", "1/3e5", "1e", "e5", "1e+", "+-1", "1/-3", "1.5/2"]


@pytest.mark.parametrize("literal, value", READ)
def test_frac_reads_one_grammar_on_every_python_version(literal, value):
    assert frac(literal) == value


@pytest.mark.parametrize("literal", REFUSED)
def test_frac_refuses_what_its_grammar_does_not_read_in_pythons_words(literal):
    with pytest.raises(ValueError) as refused:
        frac(literal)
    assert str(refused.value) == f"Invalid literal for Fraction: {literal!r}"


STRING_REFUSED = "a string is not a coordinate sequence"


@pytest.mark.parametrize("text", ["100", b"100"], ids=["str", "bytes"])
def test_vec_refuses_a_string_whole(text):
    """Read per character, "100" was (1, 0, 0); as bytes, its character codes."""
    with pytest.raises(TypeError, match=STRING_REFUSED):
        vec(text)


def test_subspace_refuses_a_string_generator():
    with pytest.raises(TypeError, match=STRING_REFUSED):
        Subspace(3, ["100"])


def test_matrix_refuses_string_rows():
    with pytest.raises(TypeError, match=STRING_REFUSED):
        Matrix(["10", "01"])


def test_frac_refuses_an_exponent_past_the_cap_before_building_the_number(monkeypatch):
    assert frac("1e4299") == 10 ** 4299
    assert frac(" -1.5E-0_4298 ") == F(-15, 10 ** 4299)
    assert frac("2e0_1") == 20 and frac("1e00000005") == 10 ** 5
    built = []

    class Counted(F):
        def __new__(cls, x):
            built.append(x)
            return F.__new__(cls, x)

    monkeypatch.setattr(linalg, "Fraction", Counted)
    assert frac("1e-3") == F(1, 1000) and built == ["1e-3"]
    built.clear()
    for literal in ("1e4301", "1e-4301", "1E+5000", "1e100000", "1e1_0000"):
        with pytest.raises(ValueError, match="exponent above 4300 in magnitude"):
            frac(literal)
    assert built == []


def test_frac_refuses_a_run_of_digits_past_the_cap_before_building_the_number(monkeypatch):
    at_cap = "9" * 4300
    assert frac(at_cap) == 10 ** 4300 - 1
    assert frac(f"1/{at_cap}") == F(1, 10 ** 4300 - 1)
    assert frac("1_" + "0" * 4299) == 10 ** 4299
    built = []

    class Counted(F):
        def __new__(cls, x):
            built.append(x)
            return F.__new__(cls, x)

    monkeypatch.setattr(linalg, "Fraction", Counted)
    over = "1" * 4301
    for literal in (over, f"-{over}", f"1/{over}", f"{over}/7", f"0.{over}", f"{over}.5",
                    f" {over}e3 ", "1_" + "0" * 4300, "0" * 4301):
        with pytest.raises(ValueError, match="^more than 4300 digits in a row in a rational"):
            frac(literal)
    assert built == []


def test_frac_refuses_a_numerator_or_denominator_past_the_cap():
    # 10**4300 has 4301 digits, one more than Python prints
    assert frac("9" * 4300) == 10 ** 4300 - 1
    assert frac("-1/" + "9" * 4300) == F(-1, 10 ** 4300 - 1)
    assert frac("1e-4299") == F(1, 10 ** 4299)
    for literal in ("1e4300", "-1e4300", "1e-4300", "-1.3e-4299", "10e4299", "1" * 4300 + ".5e1"):
        with pytest.raises(ValueError, match="^more than 4300 digits in the numerator or "
                                             "denominator of a rational literal$"):
            frac(literal)
    assert frac(10 ** 4300) == 10 ** 4300  # an int is no literal
    assert frac(F(1, 10 ** 4300)) == F(1, 10 ** 4300)


def test_solve_identity():
    assert solve(Matrix.identity(3), (1, 2, 3)) == (F(1), F(2), F(3))


def test_solve_inconsistent():
    assert solve(Matrix.zeros(2, 2), (1, 0)) is None


def test_solve_back_substitution():
    assert solve(Matrix([[1, 1], [0, 1]]), (3, 1)) == (F(2), F(1))


# -- a matrix keeps its width -------------------------------------------------


def test_a_matrix_with_no_rows_keeps_its_width():
    empty = Matrix.zeros(0, 3)
    assert (empty.rows, empty.cols) == (0, 3)
    assert rank_kernel(empty) == (0, Subspace.full(3))
    tall = empty.transpose()
    assert (tall.rows, tall.cols) == (3, 0)
    assert tall.transpose() == empty
    assert Matrix([], 3) == empty


def test_a_matrix_with_no_rows_and_no_width_is_refused():
    with pytest.raises(ValueError, match="width"):
        Matrix([])
    with pytest.raises(ValueError, match="ragged"):
        Matrix([[1, 2]], 3)


def test_rref_canonical_under_generator_shuffle():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 6)
        rows = [rand_vec(rng, n) for _ in range(rng.randint(1, n))]
        s = Subspace(n, rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        factors = [F(rng.randint(1, 5)) for _ in shuffled]
        scaled = [tuple(c * x for x in row) for c, row in zip(factors, shuffled)]
        assert Subspace(n, scaled) == s


def test_annihilator_involution_and_inclusion_reversal():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 6)
        a = Subspace(n, [rand_vec(rng, n) for _ in range(rng.randint(0, n))])
        b = a.add(Subspace(n, [rand_vec(rng, n)]))
        assert annihilator(annihilator(a)) == a
        assert annihilator(b).dim <= annihilator(a).dim
        assert annihilator(a).contains_subspace(annihilator(b))
        assert annihilator(a).dim == n - a.dim


def test_grassmann_identity():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 7)
        a = Subspace(n, [rand_vec(rng, n) for _ in range(rng.randint(0, n))])
        b = Subspace(n, [rand_vec(rng, n) for _ in range(rng.randint(0, n))])
        s, m = sum_intersect(a, b)
        assert s.dim + m.dim == a.dim + b.dim
        assert s.contains_subspace(a) and s.contains_subspace(b)
        assert a.contains_subspace(m) and b.contains_subspace(m)


def test_symmetric_signature_examples():
    assert symmetric_signature(Matrix.identity(3)) == (3, 0, 3)
    assert symmetric_signature(Matrix([[0, 1], [1, 0]])) == (1, 1, 2)
    assert symmetric_signature(Matrix([[-2, 0], [0, 0]])) == (0, 1, 1)


def test_symmetric_signature_congruence_invariance():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 5)
        entries = [[F(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        sym = [[entries[i][j] + entries[j][i] for j in range(n)] for i in range(n)]
        m = Matrix(sym)
        # congruence by a random invertible triangular matrix preserves signature
        t = [[F(1) if i == j else (F(rng.randint(-3, 3)) if j > i else F(0))
              for j in range(n)] for i in range(n)]
        tm = Matrix(t)
        assert symmetric_signature(tm * m * tm.transpose()) == symmetric_signature(m)


# -- coordinates read at the pivots -------------------------------------------


def solved_coords_of(s, v):
    """Reference: coordinates of v in the canonical basis by a transposed solve."""
    if s.dim == 0:
        return () if all(x == 0 for x in v) else None
    return solve(Matrix(s.rows, s.ambient_dim).transpose(), v)


def _catalog_subspaces(entries, rng):
    """Declared ideals, centers, derived ideals and stabilizers of the catalog."""
    for entry in entries.values():
        alg = entry.algebra
        yield from entry.ideals.values()
        yield centralizer(alg, Subspace.full(alg.dim))
        yield from derived_series(alg)[1:]
        for _ in range(3):
            yield stabilizer(alg, rand_covector(alg, rng))


def test_coords_of_matches_the_solved_reference(entries, rng):
    outside_checked = 0
    for s in _catalog_subspaces(entries, rng):
        n, rows = s.ambient_dim, s.rows
        assert len(s.pivots) == s.dim
        for p, row in zip(s.pivots, rows):
            assert row[p] == 1 and all(x == 0 for x in row[:p])
        for _ in range(3):
            coeffs = rand_vec(rng, s.dim)
            v = combine(coeffs, rows, n)
            assert coords_of(s, v) == solved_coords_of(s, v) == coeffs
            assert combine(coords_of(s, v), rows, n) == v
            assert s.reduce(v) == (0,) * n
            free = [j for j in range(n) if j not in s.pivots]
            if free:
                # a nonzero entry at a non-pivot column moves v off the span
                off = v[:free[0]] + (v[free[0]] + rng.randint(1, 5),) + v[free[0] + 1:]
                assert coords_of(s, off) is None and solved_coords_of(s, off) is None
                assert not s.contains(off)
                outside_checked += 1
            w = rand_vec(rng, n)
            assert coords_of(s, w) == solved_coords_of(s, w)
    assert outside_checked > 100


def test_combine():
    assert combine((), (), 3) == (0, 0, 0)
    assert combine((2, F(1, 2)), ((1, 0), (0, 4)), 2) == (F(2), F(2))
    assert combine((0, 1), ((1, 1), (0, 1)), 2) == (F(0), F(1))


def test_reduce_gives_the_coset_representative_zero_at_the_pivots():
    s = Subspace(3, [(1, 2, 0), (0, 0, 1)])
    assert s.pivots == (0, 2)
    assert s.reduce((3, 1, 5)) == (F(0), F(-5), F(0))
    assert coords_of(s, (3, 6, 5)) == (F(3), F(5))
    assert coords_of(s, (3, 1, 5)) is None
    with pytest.raises(ValueError):
        s.reduce((1, 2))


def test_invariant_closure_is_the_canonical_subspace_of_its_rows(rng):
    # the closure keeps its insertion rows as the basis, with no second
    # elimination: they must be what Subspace makes of them, and the span
    # must be the one a dense fixed-point iteration reaches
    proper = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        maps = [Matrix([[rand_frac(rng) if j > i and rng.random() < 0.5 else 0
                         for j in range(n)] for i in range(n)])
                for _ in range(rng.randint(0, 2))]
        start = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, 2))]
        closure = invariant_closure(n, start, lambda v: [combine(v, m.entries, n) for m in maps])
        canonical = Subspace(n, closure.rows)
        assert closure == canonical and closure.pivots == canonical.pivots
        assert all(type(x) is F for row in closure.rows for x in row)
        dense = Subspace(n, start)
        while True:
            grown = dense.add(Subspace(n, [combine(v, m.entries, n)
                                           for v in dense.rows for m in maps]))
            if grown == dense:
                break
            dense = grown
        assert closure == dense
        proper += 0 < closure.dim < n
    assert proper > 10


# -- Record ----------------------------------------------------------------------

class Point(Record):
    x: int
    y: int = 0


class Pair(Record):
    x: int
    y: int = 0


class Doubled(Record):
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("negative value")
        object.__setattr__(self, "double", 2 * self.value)


def test_record_binds_by_position_keyword_and_default():
    assert Point._fields == ("x", "y")
    for p in (Point(1, 2), Point(x=1, y=2), Point(1, y=2), Point(y=2, x=1)):
        assert (p.x, p.y) == (1, 2)
    assert (Point(1).x, Point(1).y) == (1, 0)


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),                   # x missing
    ((), {"y": 2}),             # x missing
    ((1, 2, 3), {}),            # one argument too many
    ((1,), {"z": 3}),           # unknown keyword
    ((1,), {"x": 1}),           # x given twice
])
def test_record_refuses_a_missing_extra_or_unknown_argument(args, kwargs):
    with pytest.raises(TypeError):
        Point(*args, **kwargs)


def test_record_is_immutable():
    p = Point(1, 2)
    for name in ("x", "z"):
        with pytest.raises(AttributeError):
            setattr(p, name, 5)
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert (p.x, p.y) == (1, 2)


def test_record_equality_and_hash():
    assert Point(1, 2) == Point(x=1, y=2) and hash(Point(1, 2)) == hash(Point(x=1, y=2))
    assert Point(1, 2) != Point(1, 3)
    assert Point(1, 2) != Pair(1, 2)
    assert Point(1, 2).__eq__(Pair(1, 2)) is NotImplemented
    assert Point(1, 2).__eq__((1, 2)) is NotImplemented


def test_record_runs_post_init():
    assert Doubled(3).double == 6
    with pytest.raises(ValueError, match="negative"):
        Doubled(-1)


def test_record_repr_lists_the_fields_in_order():
    assert repr(Point(1, F(1, 2))) == "Point(x=1, y=Fraction(1, 2))"
    assert repr(Doubled(3)) == "Doubled(value=3)"


def test_derived_lie_algebra_attributes_are_not_fields():
    # the bracket table is a field; the cached hash _hash is not, so
    # equality and the repr skip it
    a = LieAlgebra.from_brackets(("x", "y", "z"), {(0, 1): {2: 1}}, name="h")
    b = LieAlgebra.from_brackets(("x", "y", "z"), {(0, 1): {2: 1}}, name="h")
    assert LieAlgebra._fields == ("dim", "labels", "nonzeros", "matrix_rep", "name")
    assert a == b and hash(a) == hash(b)
    object.__setattr__(b, "_hash", a._hash + 1)
    assert a == b
    assert "_hash" not in repr(a) and "nonzeros=" in repr(a)
    assert a != LieAlgebra.from_brackets(("x", "y", "z"), {(0, 1): {2: 1}}, name="other")
    assert a != LieAlgebra.from_brackets(("x", "y", "z"), {(0, 1): {2: 2}}, name="h")


def test_catalog_entries_do_not_share_their_default_dicts():
    alg = LieAlgebra.from_brackets(("a",), {})
    first, second = CatalogEntry("a", alg), CatalogEntry("b", alg)
    for name in ("covectors", "ideals", "complements"):
        assert getattr(first, name) == {} == getattr(second, name)
        assert getattr(first, name) is not getattr(second, name)


# -- properties over random rational subspaces --------------------------------

PROPERTIES = settings(derandomize=True, max_examples=150, deadline=None, database=None)
rationals = st.builds(F, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def subspace_pairs(draw):
    """(A, B) in Q^n, n <= 6; B reuses some of A's generators, so A∩B is often nonzero."""
    n = draw(st.integers(1, 6))
    vectors = st.lists(st.tuples(*[rationals] * n), max_size=n)
    a_rows = draw(vectors)
    shared = draw(st.lists(st.sampled_from(a_rows), max_size=len(a_rows))) if a_rows else []
    return Subspace(n, a_rows), Subspace(n, shared + draw(vectors))


def rref_annihilator(s):
    """Reference: the annihilator by a fresh `rank_kernel` of the basis."""
    return rank_kernel(Matrix(s.rows, s.ambient_dim))[1]


@PROPERTIES
@given(subspace_pairs())
def test_grassmann_identity_property(pair):
    a, b = pair
    s, m = sum_intersect(a, b)
    assert s.dim + m.dim == a.dim + b.dim
    assert s == a.add(b) and m == a.intersect(b)


def rereduced(s):
    """Reference: s rebuilt by a full `Subspace` reduction of its own rows."""
    return Subspace(s.ambient_dim, s.rows)


@PROPERTIES
@given(subspace_pairs())
def test_canonical_rows_are_taken_as_they_are_property(pair):
    # sum_intersect, full and zero build from rows already in RREF, reducing nothing again
    a, b = pair
    n = a.ambient_dim
    total, meet = sum_intersect(a, b)
    for s in (total, meet, Subspace.full(n), Subspace.zero(n)):
        again = rereduced(s)
        assert again == s and again.pivots == s.pivots
        assert all(isinstance(x, F) for row in s.rows for x in row)
    assert total == Subspace(n, a.rows + b.rows)
    assert meet == annihilator(Subspace(n, annihilator(a).rows
                                        + annihilator(b).rows))
    assert Subspace.full(n) == Subspace(n, Matrix.identity(n).entries)
    assert Subspace.zero(n) == Subspace(n) and Subspace.zero(n).dim == 0


def test_a_subspace_coerces_each_entry_once(monkeypatch):
    calls = []
    real = linalg.frac
    monkeypatch.setattr(linalg, "frac", lambda x: calls.append(x) or real(x))
    rng = random.Random(3)
    rows = [[rand_frac(rng) for _ in range(6)] for _ in range(4)]
    s = Subspace(6, rows)
    assert s.dim == 4
    assert 0 < len(calls) <= 4 * 6


@PROPERTIES
@given(subspace_pairs())
def test_annihilator_property(pair):
    for s in pair:
        ann = annihilator(s)
        assert ann == rref_annihilator(s)
        assert ann.dim == s.ambient_dim - s.dim
        assert annihilator(ann) == s


@st.composite
def product_pairs(draw):
    """A (r x k) and B (k x c) with r, k, c in 0..4, more than half of the entries 0."""
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    entry = st.one_of(st.just(F(0)), rationals)
    a = [[draw(entry) for _ in range(k)] for _ in range(r)]
    b = [[draw(entry) for _ in range(c)] for _ in range(k)]
    return Matrix(a, k), Matrix(b, c)


@PROPERTIES
@given(product_pairs())
def test_product_is_the_sum_over_the_inner_index_property(pair):
    a, b = pair
    p = a * b
    assert (p.rows, p.cols) == (a.rows, b.cols)
    assert p.entries == tuple(
        tuple(sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), F(0))
              for j in range(b.cols))
        for i in range(a.rows))


@st.composite
def matrices_and_row_operations(draw):
    """A rational matrix with 0-5 rows and 1-5 columns, and an elementary
    invertible matrix E acting on its rows: E scales row i by c != 0 when
    i == j, and adds c times row j to row i otherwise."""
    cols = draw(st.integers(1, 5))
    rows = draw(st.lists(st.tuples(*[rationals] * cols), max_size=5))
    e = [[F(int(i == j)) for j in range(len(rows))] for i in range(len(rows))]
    if rows:
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        e[i][j] = draw(rationals.filter(lambda c: c != 0))
    return Matrix(rows, cols), Matrix(e, len(rows))


@PROPERTIES
@given(matrices_and_row_operations())
def test_rank_nullity_and_rref_invariance_property(case):
    m, e = case
    rank, ker = rank_kernel(m)
    assert rank + ker.dim == m.cols
    assert all(not any(dense_apply(m, v)) for v in ker.rows)
    assert (e * m).rref() == m.rref()


def gauss_jordan(m):
    """Reference: column-by-column Gauss-Jordan elimination with row swaps."""
    rows = [list(row) for row in m.entries]
    pivots, r = [], 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, m.rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(m.rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Matrix(rows, m.cols), tuple(pivots)


@st.composite
def rref_cases(draw):
    """A matrix with 0-7 rows and 1-4 columns, so often taller than wide, whose
    rows combine at most `cols` drawn generators with coefficients that are
    often 0, so its rank is often below both of its sides."""
    cols = draw(st.integers(1, 4))
    gens = draw(st.lists(st.tuples(*[rationals] * cols), min_size=1, max_size=cols))
    coeff = st.one_of(st.just(F(0)), rationals)
    rows = draw(st.lists(st.tuples(*[coeff] * len(gens)), max_size=7))
    return Matrix([combine(c, gens, cols) for c in rows], cols)


big_rationals = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**6))


@st.composite
def large_rref_cases(draw):
    """Up to 8 x 8, numerators and denominators up to 10^6, entries often 0.  A row
    is new, 0, or a repeat of an earlier row or of its negative; a new row's first
    nonzero entry, its pivot when the row is kept, is negative as often as not."""
    cols = draw(st.integers(1, 8))
    entry = st.one_of(st.just(F(0)), big_rationals)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("new", "new", "zero", "repeat", "negated")))
        if kind == "zero":
            rows.append((F(0),) * cols)
        elif kind == "new" or not rows:
            rows.append(tuple(draw(entry) for _ in range(cols)))
        else:
            row = draw(st.sampled_from(rows))
            rows.append(row if kind == "repeat" else tuple(-x for x in row))
    return Matrix(rows, cols)


@PROPERTIES
@given(st.one_of(rref_cases(), large_rref_cases()))
@example(Matrix([], 3))
@example(Matrix([[1, 2], [3, 4], [5, 6]]))
@example(Matrix([[1, 2, 3], [2, 4, 6], [0, 0, 0], [1, 0, 1]]))
@example(Matrix([[F(-999999, 7), F(10**6, 999983), 0], [0, F(-5, 10**6), 1],
                 [F(999999, 7), F(-10**6, 999983), 0], [0, 0, 0]]))
def test_rref_matches_gauss_jordan_property(m):
    assert m.rref() == gauss_jordan(m)


def fractions_built(fn):
    """fn's result and how many Fractions it made: every call of Fraction.__new__
    and of the constructors the arithmetic uses, counted by a profile hook."""
    makers = {"__new__", "_from_coprime_ints"}
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        code = frame.f_code
        if event == "call" and code.co_filename == fractions.__file__ and code.co_name in makers:
            count += 1

    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, count


def test_rref_of_an_integer_matrix_eliminates_on_ints():
    # at most one Fraction per entry of the result: the elimination itself makes none
    rng = random.Random(8)
    n = 8
    gens = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(5)]
    cases = [Matrix([[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]),
             Matrix([combine([rng.randint(-3, 3) for _ in gens], gens, n) for _ in range(n)])]
    for m in cases:
        (red, pivots), built = fractions_built(m.rref)
        assert built <= n * n
        assert (red, pivots) == gauss_jordan(m) and len(pivots) in (5, 8)
        assert fractions_built(lambda: gauss_jordan(m))[1] > n * n  # the counter sees them


sparse_entries = st.one_of(st.just(0), st.just(F(0)), st.integers(-5, 5), rationals)


@PROPERTIES
@given(st.integers(0, 8).flatmap(
    lambda n: st.tuples(*[st.tuples(*[sparse_entries] * n)] * 2)))
def test_vec_dot_is_the_plain_sum_property(pair):
    u, v = pair
    got = vec_dot(u, v)
    assert type(got) is F
    assert got == sum((F(a) * F(b) for a, b in zip(u, v)), F(0))
