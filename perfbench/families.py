"""Seeded generators for the Lie algebra families the benchmark runs on.

Each generator returns a `Family`: a definition-file document in the JSON
format that `orbitkit` reads (with `matrix_rep` only where `parabolic` needs
it), the closed-form index where one is known, and the one declared ideal
the workloads pass as `--ideal` and `--sub`.

The seed only rescales and permutes the basis.  That changes every rational
the program sees but not the algebra, so the closed-form index and the orbit
dimensions stay put from seed to seed, and the cost of an invocation moves
little.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

_SCALES = [Fraction(p, q) for p in (1, 2, 3, -1, -2, -3) for q in (1, 2)]


@dataclass
class Family:
    name: str
    doc: dict
    ideal: str | None          # name of the declared ideal
    index: int | None = None   # closed-form index, where one is known

    @property
    def dim(self) -> int:
        return self.doc["dim"]


def _unit(n, i, j):
    m = [[0] * n for _ in range(n)]
    m[i][j] = 1
    return m


def _cartan(n, a):
    m = [[0] * n for _ in range(n)]
    m[a][a], m[a + 1][a + 1] = 1, -1
    return m


def _commutator(a, b):
    n = len(a)
    ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    ba = [[sum(b[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[ab[i][j] - ba[i][j] for j in range(n)] for i in range(n)]


def _coordinates(mats, c) -> dict:
    """Coefficients {k: x} of the matrix `c` in the span of `mats`.

    Every basis matrix is either diagonal, a multiple of E_aa - E_{a+1,a+1},
    or has an off-diagonal key entry where no other basis matrix is nonzero.
    So `c` is decomposed by reading key entries and then partial sums of its
    diagonal.  The decomposition is checked exactly.
    """
    n = len(c)
    coeffs, diagonal = {}, {}
    for k, m in enumerate(mats):
        off = [(i, j) for i in range(n) for j in range(n) if i != j and m[i][j] != 0]
        if off:
            i, j = off[0]
            if c[i][j] != 0:
                coeffs[k] = Fraction(c[i][j]) / m[i][j]
        else:
            diagonal[next(a for a in range(n - 1) if m[a][a] != 0)] = k
    partial = Fraction(0)
    for a in range(n - 1):
        partial += c[a][a]
        if partial != 0:
            if a not in diagonal:
                raise ValueError("matrix leaves the span")
            coeffs[diagonal[a]] = partial / mats[diagonal[a]][a][a]
    rebuilt = [[sum(v * mats[k][r][s] for k, v in coeffs.items()) for s in range(n)]
               for r in range(n)]
    if rebuilt != [[Fraction(x) for x in row] for row in c]:
        raise ValueError("matrix leaves the span")
    return coeffs


def _brackets_from_matrices(mats) -> dict:
    """Structure constants {(i, j): {k: c}} of a span of matrices."""
    brackets = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            coeffs = _coordinates(mats, _commutator(mats[i], mats[j]))
            if coeffs:
                brackets[(i, j)] = coeffs
    return brackets


def _finish(name, labels, brackets, rng, ideal, idx, mats=None, index=None) -> Family:
    """Rescale and permute the basis, then write the definition document."""
    dim = len(labels)
    scale = [rng.choice(_SCALES) for _ in range(dim)]
    order = list(range(dim))
    rng.shuffle(order)
    new_of = {old: new for new, old in enumerate(order)}
    table = {}
    for (i, j), coeffs in brackets.items():
        a, b = sorted((new_of[i], new_of[j]))
        sign = 1 if a == new_of[i] else -1
        table[(a, b)] = {
            new_of[k]: sign * scale[i] * scale[j] * c / scale[k] for k, c in coeffs.items()
        }
    doc = {
        "name": name,
        "dim": dim,
        "basis": [labels[old] for old in order],
        "brackets": [
            {"i": a, "j": b, "coeffs": {str(k): str(v) for k, v in sorted(table[(a, b)].items())}}
            for (a, b) in sorted(table)
        ],
    }
    if mats is not None:
        doc["matrix_rep"] = [
            [[str(scale[old] * x) for x in row] for row in mats[old]] for old in order
        ]
    if ideal is not None:
        doc["ideals"] = {ideal: sorted(new_of[i] for i in idx)}
    return Family(name, doc, ideal, index)


def heisenberg(k: int, rng: random.Random) -> Family:
    """h_{2k+1}: [x_i, y_i] = z.  Index 1.  Ideal: span(y_i, z)."""
    n = k + 2
    labels = [f"x{i}" for i in range(1, k + 1)] + [f"y{i}" for i in range(1, k + 1)] + ["z"]
    mats = [_unit(n, 0, i) for i in range(1, k + 1)] + \
           [_unit(n, i, n - 1) for i in range(1, k + 1)] + [_unit(n, 0, n - 1)]
    return _finish(f"h{2 * k + 1}", labels, _brackets_from_matrices(mats), rng,
                   "lagrangian", range(k, 2 * k + 1), index=1)


def nilradical(n: int, rng: random.Random) -> Family:
    """n_n, strictly upper-triangular n x n matrices.  Index floor(n/2).

    Ideal: the last column, abelian."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = [f"e{i + 1}{j + 1}" for i, j in pairs]
    mats = [_unit(n, i, j) for i, j in pairs]
    last_col = [p for p, (i, j) in enumerate(pairs) if j == n - 1]
    return _finish(f"n{n}", labels, _brackets_from_matrices(mats), rng,
                   "last_column", last_col, index=n // 2)


def filiform(n: int, rng: random.Random) -> Family:
    """Standard filiform L_n: [e1, e_i] = e_{i+1} for 2 <= i < n.  Index n - 2.

    Ideal: span(e2, ..., en), abelian."""
    labels = [f"e{i}" for i in range(1, n + 1)]
    brackets = {(0, i): {i + 1: Fraction(1)} for i in range(1, n - 1)}
    return _finish(f"L{n}", labels, brackets, rng, "abelian", range(1, n), index=n - 2)


def borel(n: int, rng: random.Random) -> Family:
    """b_n, upper-triangular traceless n x n matrices (solvable, exponential).

    Ideal: the last column, abelian."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = [f"h{a + 1}" for a in range(n - 1)] + [f"e{i + 1}{j + 1}" for i, j in pairs]
    mats = [_cartan(n, a) for a in range(n - 1)] + [_unit(n, i, j) for i, j in pairs]
    last_col = [n - 1 + p for p, (i, j) in enumerate(pairs) if j == n - 1]
    return _finish(f"b{n}", labels, _brackets_from_matrices(mats), rng, "last_column", last_col)


def poincare(d: int, rng: random.Random) -> Family:
    """so(1, d-1) |x R^d in its (d+1)-dimensional representation.

    Ideal: the translations."""
    eta = [1] + [-1] * (d - 1)
    labels, mats = [], []
    for a in range(d):
        for b in range(a + 1, d):
            m = [[0] * (d + 1) for _ in range(d + 1)]
            m[a][b], m[b][a] = eta[b], -eta[a]
            labels.append(f"m{a}{b}")
            mats.append(m)
    lorentz = len(mats)
    for a in range(d):
        labels.append(f"p{a}")
        mats.append(_unit(d + 1, a, d))
    return _finish(f"poincare{d}", labels, _brackets_from_matrices(mats), rng,
                   "translations", range(lorentz, len(mats)))


def sl(n: int, rng: random.Random) -> Family:
    """sl_n with its defining representation recorded as `matrix_rep`."""
    roots = [(i, j) for i in range(n) for j in range(n) if i != j]
    labels = [f"h{a + 1}" for a in range(n - 1)] + [f"e{i + 1}{j + 1}" for i, j in roots]
    mats = [_cartan(n, a) for a in range(n - 1)] + [_unit(n, i, j) for i, j in roots]
    return _finish(f"sl{n}", labels, _brackets_from_matrices(mats), rng, None, (),
                   mats=mats, index=n - 1)


def element_coords(fam: Family, matrix) -> list:
    """Coordinates of a matrix in a family's rescaled, permuted basis."""
    rep = [[[Fraction(x) for x in row] for row in m] for m in fam.doc["matrix_rep"]]
    coeffs = _coordinates(rep, matrix)
    return [coeffs.get(k, Fraction(0)) for k in range(len(rep))]


def family_rng(seed: int, name: str) -> random.Random:
    """Independent stream per (seed, family) so adding a family moves no other."""
    return random.Random(f"{seed}:{name}")
