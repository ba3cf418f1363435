import random
from fractions import Fraction as F

from orbitkit.linalg import Matrix, solve
from orbitkit.polynomials import (
    charpoly,
    count_negative_roots,
    derivative,
    divmod_poly,
    eval_at,
    eval_matrix,
    even_part,
    gcd,
    invert_mod,
    is_rational_square,
    monic,
    mul,
    poly,
    squarefree_part,
    strip_zero_roots,
    to_string,
    xgcd,
)


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


def test_sturm_negative_root_count():
    # roots -2, -1, 1: two negative
    p = mul(mul(poly([2, 1]), poly([1, 1])), poly([-1, 1]))
    assert count_negative_roots(p) == 2
    assert count_negative_roots(poly([1, 1])) == 1
    assert count_negative_roots(poly([1, 0, 1])) == 0  # x^2+1 has no real roots


def test_even_part_and_strip():
    k, q = strip_zero_roots(poly([0, 0, 3, 0, 1]))  # x^2(3 + x^2)
    assert k == 2
    assert even_part(q) == poly([3, 1])
    assert even_part(poly([1, 1])) is None


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


def test_eval_consistency():
    rng = random.Random(5)
    for _ in range(30):
        p = poly([F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 5))])
        q = poly([F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 5))])
        x = F(rng.randint(-3, 3), rng.randint(1, 3))
        assert eval_at(mul(p, q), x) == eval_at(p, x) * eval_at(q, x)
        assert eval_at(derivative(mul(p, p)), x) == 2 * eval_at(p, x) * eval_at(derivative(p), x)
