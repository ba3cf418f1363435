import random
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit.linalg import Matrix, basis_vector, solve
from orbitkit.polynomials import (
    charpoly,
    deg,
    derivative,
    divmod_poly,
    eval_matrix,
    gcd,
    invert_mod,
    is_rational_square,
    monic,
    mul,
    poly,
    real_root_count,
    squarefree_part,
    to_string,
    xgcd,
)
from orbitkit.qi_roots import qi_factors
from orbitkit.liealg import ad_matrix
from orbitkit.mackey import killing_form, symmetric_signature
from conftest import descartes_signature, rand_vec, sympy_supported


def test_poly_refuses_a_string_of_coefficients():
    """Read per character, "12" was 1 + 2x."""
    with pytest.raises(TypeError, match="a string is not a coordinate sequence"):
        poly("12")


def test_divmod_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        p = poly([F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 6))])
        q = poly([F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))])
        if not q:
            continue
        quot, rem = divmod_poly(p, q)
        assert poly([a + b for a, b in zip_pad(mul(quot, q), rem)]) == p
        assert len(rem) < len(q) or not rem


def zip_pad(p, q):
    n = max(len(p), len(q))
    return [((p[i] if i < len(p) else F(0)), (q[i] if i < len(q) else F(0))) for i in range(n)]


def test_gcd_and_bezout():
    a = mul(poly([1, 1]), poly([-2, 1]))   # (x+1)(x-2)
    b = mul(poly([1, 1]), poly([3, 1]))    # (x+1)(x+3)
    g = gcd(a, b)
    assert g == poly([1, 1])
    g2, u, v = xgcd(a, b)
    assert g2 == g
    lhs = poly([x + y for x, y in zip_pad(mul(u, a), mul(v, b))])
    assert lhs == g


def test_squarefree_part():
    p = mul(mul(poly([-1, 1]), poly([-1, 1])), poly([2, 1]))  # (x-1)^2 (x+2)
    assert squarefree_part(p) == monic(mul(poly([-1, 1]), poly([2, 1])))


def minimal_polynomial(m):
    """Monic minimal polynomial: the first power of m dependent on the lower ones."""
    n = m.rows
    powers = [Matrix.identity(n)]
    for _ in range(n):
        powers.append(powers[-1] * m)
    flat = lambda mat: [x for row in mat.entries for x in row]
    for d in range(1, n + 1):
        cols = Matrix([flat(powers[k]) for k in range(d)]).transpose()
        sol = solve(cols, [-x for x in flat(powers[d])])
        if sol is not None:
            return poly(list(sol) + [1])
    raise AssertionError("Cayley-Hamilton violated")


def test_charpoly_against_minimal_polynomial():
    m = Matrix([[1, 1], [0, 1]])
    assert charpoly(m) == poly([1, -2, 1])   # (x-1)^2
    assert minimal_polynomial(m) == poly([1, -2, 1])
    d = Matrix([[2, 0], [0, 3]])
    assert charpoly(d) == poly([6, -5, 1])
    assert minimal_polynomial(d) == poly([6, -5, 1])
    assert eval_matrix(charpoly(m), m).is_zero()


def test_real_root_count_on_repeated_roots_x2_plus_1_and_a_constant():
    line = lambda r: poly([-r, 1])
    # (x - 1)^3 (x + 2)^2 (x^2 + 1): two distinct real roots, each repeated
    p = reduce(mul, [line(1)] * 3 + [line(-2)] * 2 + [poly([1, 0, 1])])
    assert real_root_count(p) == 2
    assert real_root_count(poly([1, 0, 1])) == 0   # x^2 + 1
    assert real_root_count(poly([0, 0, 0, 1])) == 1  # x^3
    assert real_root_count(poly([F(-7, 3)])) == 0
    with pytest.raises(ValueError):
        real_root_count(())


def test_invert_mod():
    modulus = poly([1, 0, 1])  # x^2 + 1
    inv = invert_mod(poly([0, 1]), modulus)  # inverse of x is -x
    assert divmod_poly(mul(inv, poly([0, 1])), modulus)[1] == poly([1])


def test_is_rational_square():
    assert is_rational_square(F(9, 4)) == F(3, 2)
    assert is_rational_square(F(8)) is None
    assert is_rational_square(F(-1)) is None
    assert is_rational_square(F(0)) == 0


def test_to_string():
    assert to_string(poly([3, -2, 1])) == "x^2 - 2*x + 3"
    assert to_string(()) == "0"


def eval_at(p, x):
    """Horner evaluation of p at a rational x."""
    acc = F(0)
    for a in reversed(p):
        acc = acc * x + a
    return acc


def test_eval_consistency():
    rng = random.Random(5)
    for _ in range(30):
        p = poly([F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 5))])
        q = poly([F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 5))])
        x = F(rng.randint(-3, 3), rng.randint(1, 3))
        assert eval_at(mul(p, q), x) == eval_at(p, x) * eval_at(q, x)
        assert eval_at(derivative(mul(p, p)), x) == 2 * eval_at(p, x) * eval_at(derivative(p), x)


# -- charpoly by Hessenberg reduction against Faddeev-LeVerrier ----------------


def faddeev_leverrier(m):
    """Reference: the monic characteristic polynomial from n dense products."""
    n = m.rows
    coeffs = [F(0)] * n + [F(1)]
    mk = Matrix.identity(n)
    for k in range(1, n + 1):
        mk = m * mk
        c = -mk.trace() / k
        coeffs[n - k] = c
        mk = mk + Matrix.identity(n).scale(c)
    return poly(coeffs)


rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def sparse_square_matrices(draw):
    """n x n, n <= 8; some subdiagonal entries are zeroed, so the pivot
    search runs below the subdiagonal and rows and columns get swapped."""
    n = draw(st.integers(0, 8))
    rows = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(n)]
    for j in draw(st.lists(st.integers(0, max(n - 2, 0)), max_size=n)):
        if j + 1 < n:
            rows[j + 1][j] = F(0)
    return Matrix(rows, n)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(sparse_square_matrices())
def test_charpoly_matches_the_reference_property(m):
    chi = charpoly(m)
    assert chi == faddeev_leverrier(m)
    assert deg(chi) == m.rows and chi[-1] == 1
    assert eval_matrix(chi, m).is_zero()          # Cayley-Hamilton


def test_charpoly_swaps_when_the_subdiagonal_is_zero():
    # column 0 is zero on the subdiagonal, so row/column 2 is swapped onto it
    m = Matrix([[1, 2, 3], [0, 4, 5], [6, 0, 7]])
    assert charpoly(m) == faddeev_leverrier(m)
    assert charpoly(Matrix([], 0)) == poly([1])


def test_charpoly_on_catalog_ad_matrices(entries, rng):
    for entry in entries.values():
        alg = entry.algebra
        elements = [basis_vector(alg.dim, i) for i in range(alg.dim)]
        elements += [rand_vec(rng, alg.dim) for _ in range(3)]
        for z in elements:
            ad = ad_matrix(alg, z)
            assert charpoly(ad) == faddeev_leverrier(ad), (entry.name, z)


def test_charpoly_multiplies_no_matrices(entries, monkeypatch):
    def refuse(*args):
        raise AssertionError("dense matrix product")

    poin = entries["poincare"].algebra
    ad = ad_matrix(poin, range(1, poin.dim + 1))
    want = faddeev_leverrier(ad)
    monkeypatch.setattr(Matrix, "__mul__", refuse)
    assert charpoly(ad) == want


# -- real root counts against sympy -------------------------------------------


def sympy_distinct_real_roots(p):
    """Reference: sympy's count of the distinct real roots of p."""
    import sympy

    x = sympy.Symbol("x")
    return len(set(sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p)],
                              x, domain="QQ").real_roots()))


@st.composite
def polynomials_with_structure(draw):
    """Products of linear factors, x^2 + b and x^2 + a x + b factors, powers of x and a
    random cofactor, each factor possibly repeated."""
    factors = [poly([0, 1])] * draw(st.integers(0, 2))
    factors += [poly([-r, 1]) for r in draw(st.lists(rationals, max_size=3))
                for _ in range(draw(st.integers(1, 2)))]
    factors += [poly([b, a, 1]) for a, b in draw(st.lists(st.tuples(rationals, rationals),
                                                         max_size=2))]
    factors.append(poly(draw(st.lists(rationals, min_size=1, max_size=4))) or poly([1]))
    return reduce(mul, factors, poly([draw(st.sampled_from([F(1), F(-2), F(1, 3)]))]))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(polynomials_with_structure())
def test_real_root_count_matches_sympy_property(p):
    assert real_root_count(p) == sympy_distinct_real_roots(p)


# -- roots in Q(i) against sympy's factorization -----------------------------


UNSUPPORTED = [poly([-9, -5, 0, 1]), poly([-2, 0, 1]), poly([2, 0, 1])]


def random_spectrum(rng):
    """A squarefree product of linear factors of height up to 10^12 with
    denominators, Gaussian quadratics (x - a)^2 + b^2 and at most one
    factor with roots outside Q(i)."""
    height = rng.choice([10, 10**6, 10**12])
    roots = {F(rng.randint(-height, height), rng.randint(1, height))
             for _ in range(rng.randint(0, 4))}
    factors = [poly([-a, 1]) for a in roots]
    for _ in range(rng.randint(0, 2)):
        a = F(rng.randint(-height, height), rng.randint(1, 1000))
        b = F(rng.randint(1, height), rng.randint(1, 1000))
        factors.append(poly([a * a + b * b, -2 * a, 1]))
    factors += rng.sample(UNSUPPORTED, rng.choice([0, 0, 1]))
    return reduce(mul, factors, poly([1]))


@pytest.mark.parametrize("seed", range(40))
def test_qi_factors_match_sympy(seed):
    rng = random.Random(seed)
    mu = random_spectrum(rng)
    supported, unsupported = sympy_supported(mu)
    found = qi_factors(mu)
    assert sorted(found) == sorted(supported)
    assert (reduce(mul, found, poly([1])) == mu) == (not unsupported)


@pytest.mark.parametrize("roots", [[0], [0, 5], [5, 10], [1, 6], [0, F(-3, 7), 10**12]])
def test_qi_factors_edge_roots(roots):
    # 5 and 10, or 1 and 6, meet mod 5: f = (x - 5)(x - 10) is x^2 mod 5,
    # so the prime search must pass over p = 5
    mu = reduce(mul, [poly([-F(a), 1]) for a in roots], poly([1]))
    assert sorted(qi_factors(mu)) == sorted(poly([-F(a), 1]) for a in roots)


def test_qi_factors_of_a_constant_and_refusals():
    assert qi_factors(poly([3])) == []
    with pytest.raises(ValueError):
        qi_factors(())
    with pytest.raises(ValueError):                     # (x - 1)^2 has no good prime
        qi_factors(poly([1, -2, 1]))


def test_qi_factors_keep_the_gaussian_pairs_only():
    gaussian = poly([5, -2, 1])                          # roots 1 +- 2i
    mu = mul(mul(gaussian, poly([2, 0, 1])), poly([-2, 0, 1]))
    assert qi_factors(mu) == [gaussian]


def test_qi_factors_at_a_height_no_divisor_search_reaches():
    # constant terms of ~600 bits: the p-adic lift is polynomial in the bit length
    roots = [F(3**300 + 1, 7**100), -F(2**500), F(1, 10**150)]
    gaussian = poly([F(5**200) + 1, -2, 1])              # roots 1 +- 5^100 i
    mu = reduce(mul, [poly([-a, 1]) for a in roots], gaussian)
    assert sorted(qi_factors(mu)) == sorted([poly([-a, 1]) for a in roots] + [gaussian])


# -- the congruence signature of `mackey`, against the charpoly route it replaced --


@st.composite
def symmetric_matrices(draw):
    """Symmetric n x n, n <= 7, about half the entries 0.  Some have a zero
    diagonal, so the elimination pivots off the diagonal; some are P^T S P for a
    smaller symmetric S, so their rank is below n."""
    n = draw(st.integers(0, 7))
    entry = st.one_of(st.just(F(0)), st.fractions(-9, 9, max_denominator=4))
    r = draw(st.integers(0, n)) if draw(st.booleans()) else n
    zero_diagonal = draw(st.booleans())
    s = [[F(0)] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            s[i][j] = s[j][i] = F(0) if i == j and zero_diagonal else draw(entry)
    if r == n:
        return Matrix(s, n)
    p = Matrix([[draw(entry) for _ in range(n)] for _ in range(r)], n)
    return p.transpose() * Matrix(s, r) * p


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(symmetric_matrices())
def test_symmetric_signature_matches_the_descartes_reference_property(m):
    assert symmetric_signature(m) == descartes_signature(m)


def test_symmetric_signature_refuses_a_nonsymmetric_matrix():
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_signature(Matrix([[0, 1], [2, 0]]))
    with pytest.raises(ValueError, match="non-square"):
        symmetric_signature(Matrix([[0, 1]]))


def test_killing_signatures_of_the_catalog_are_unchanged(entries):
    for entry in entries.values():
        form = killing_form(entry.algebra)
        assert symmetric_signature(form) == descartes_signature(form), entry.name
