"""Exact linear algebra over arbitrary-precision rationals.

Vectors are tuples of Fraction, matrices are immutable row-major grids of
Fraction, and subspaces are stored through their reduced row echelon basis
with zero rows removed.  That canonical form is the equality witness used
everywhere above this module: two subspaces are equal iff their basis grids
are identical, so inclusion and equality questions about subalgebras,
stabilizers and annihilators are decided without tolerances.

A Subspace also keeps the pivot columns of that basis.  Basis row r is 1 at
pivot r and 0 at every other pivot, so a vector of the subspace has its
coordinates written out at the pivots, and `reduce` takes any vector to
the one representative of its coset that is 0 at the pivots.  The changes
of coordinates above this module (into a subalgebra, onto a quotient, into
a polarization window) read coordinates there and map them back through
`combine`, with no linear solve.  Products are row combinations too: row i
of A*B is `combine` of the rows of B with row i of A as coefficients,
skipping the zero entries, and a matrix acts on a vector w the same way,
as w^T A = `combine(w, A.entries)`, which is A w when A is symmetric and
-A w when A is antisymmetric.

Every elimination is one insertion step, `_insert`, into rows in RREF:
reduce the vector at their pivots (the loop of `reduce`), drop it if it is
0, else scale it to a leading 1, clear its pivot column from the kept rows
and put it in at its pivot's place.  `rref` inserts row by row, and so does
`invariant_closure`, the one worklist for a smallest subspace closed under
linear maps (the Krylov hull, the ideal closure, the parabolic hull).  The
order cannot change the result: the pivots are the columns where some
vector of the row space has its first nonzero entry, and the row at pivot p
is the one vector of the space that is 1 at p and 0 at the other pivots.

No floating point enters this module.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints or strings like '3/4' to an exact rational.

    A zero denominator is a ValueError, like any other malformed rational.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floating point is not allowed in exact computations")
    try:
        return Fraction(x)
    except ZeroDivisionError as exc:
        raise ValueError(str(exc)) from None


def vec(entries: Iterable) -> tuple:
    return tuple(frac(x) for x in entries)


def vec_add(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u: Sequence) -> tuple:
    c = frac(c)
    return tuple(c * a for a in u)


def vec_dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), ZERO)


def is_zero_vec(u: Sequence) -> bool:
    return all(a == 0 for a in u)


def combine(coeffs: Sequence, rows: Sequence[Sequence], n: int) -> tuple:
    """sum_k coeffs[k] * rows[k] in Q^n; the zero vector when there are no rows."""
    out = [ZERO] * n
    for c, row in zip(coeffs, rows):
        if c != 0:
            out = [a + c * b if b else a for a, b in zip(out, row)]
    return tuple(out)


def basis_vector(n: int, j: int) -> tuple:
    if not 0 <= j < n:
        raise ValueError(f"basis index {j} out of range for dimension {n}")
    return tuple(ONE if i == j else ZERO for i in range(n))


class Matrix:
    """Immutable dense matrix of exact rationals.

    The width comes from the first row.  A matrix with no rows has no row
    to read it from, so its width must be passed as `cols`: a 0 x n matrix
    keeps n, and its kernel is all of Q^n.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable], cols: Optional[int] = None):
        grid = tuple(tuple(frac(x) for x in row) for row in entries)
        if cols is None:
            if not grid:
                raise ValueError("a matrix with no rows needs its width")
            cols = len(grid[0])
        self.entries = grid
        self.rows = len(grid)
        self.cols = cols
        if any(len(row) != cols for row in grid):
            raise ValueError("ragged matrix")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[ZERO] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)], n)

    def transpose(self) -> "Matrix":
        return Matrix([[row[j] for row in self.entries] for j in range(self.cols)], self.rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix[{self.rows}x{self.cols}: {body}]"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(map(vec_add, self.entries, other.entries), self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(map(vec_sub, self.entries, other.entries), self.cols)

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix((tuple(c * a for a in row) for row in self.entries), self.cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        rows = other.entries
        return Matrix([combine(row, rows, other.cols) for row in self.entries], other.cols)

    def is_zero(self) -> bool:
        return all(is_zero_vec(row) for row in self.entries)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), ZERO)

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form, padded with zero rows, and the pivot columns."""
        rows, pivots = [], []
        for row in self.entries:
            if len(pivots) == self.cols:  # full rank: the other rows lie in the span
                break
            _insert(rows, pivots, row)
        rows += [(ZERO,) * self.cols] * (self.rows - len(rows))
        return Matrix(rows, self.cols), tuple(pivots)


def _reduce(rows: Sequence[Sequence], pivots: Sequence[int], v: Sequence) -> Sequence:
    """v - sum_r v[pivots[r]] rows[r]; 0 at every pivot when the rows are in RREF."""
    for p, row in zip(pivots, rows):
        f = v[p]
        if f:
            v = tuple(a - f * b if b else a for a, b in zip(v, row))
    return v


def _insert(rows: list, pivots: list, v: Sequence) -> Optional[tuple]:
    """Insert v into RREF rows with increasing pivots, in place; None if v is in their span."""
    v = _reduce(rows, pivots, v)
    p = next((j for j, a in enumerate(v) if a), None)
    if p is None:
        return None
    inv = ONE / v[p]
    v = tuple(inv * a for a in v)
    rows[:] = [_reduce((v,), (p,), row) for row in rows]
    k = bisect_left(pivots, p)
    rows.insert(k, v)
    pivots.insert(k, p)
    return v


def solve(m: Matrix, v: Sequence) -> Optional[tuple]:
    """Solve m x = v exactly; None when the system is inconsistent.

    When solutions form an affine space an arbitrary but deterministic
    representative (free variables set to zero) is returned.
    """
    if len(v) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    aug = Matrix((tuple(row) + (val,) for row, val in zip(m.entries, vec(v))), m.cols + 1)
    red, pivots = aug.rref()
    if m.cols in pivots:  # pivot in the augmented column
        return None
    x = [ZERO] * m.cols
    for r, c in enumerate(pivots):
        x[c] = red.entries[r][m.cols]
    return tuple(x)


class Subspace:
    """Linear subspace of Q^n with canonical reduced-row-echelon basis."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, generators: Iterable[Iterable] = ()):
        rows = [vec(row) for row in generators]
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError("generator length does not match ambient dimension")
        red, pivots = Matrix(rows, ambient_dim).rref()
        self.ambient_dim = ambient_dim
        self.basis = Matrix(red.entries[: len(pivots)], ambient_dim)
        self.pivots = pivots  # pivots[r]: the column where basis row r has its leading 1

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n)

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, Matrix.identity(n).entries)

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_rows(self) -> tuple:
        return self.basis.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim}: {self.basis.entries})"

    def reduce(self, v: Sequence) -> tuple:
        """The member of v + self that is 0 at the pivots: v - sum_r v[pivots[r]] row_r."""
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return _reduce(self.basis.entries, self.pivots, v)

    def contains(self, v: Sequence) -> bool:
        return is_zero_vec(self.reduce(v))

    def coords_of(self, v: Sequence):
        """Coordinates of v in the canonical basis, or None if outside.

        They are v's entries at the pivots.
        """
        v = vec(v)
        if not self.contains(v):
            return None
        return tuple(v[p] for p in self.pivots)

    def contains_subspace(self, other: "Subspace") -> bool:
        return self.missing_row(other) is None

    def missing_row(self, other: "Subspace") -> Optional[tuple]:
        """The first canonical basis row of other that self does not contain, else None."""
        self._same_ambient(other)
        return next((row for row in other.basis.entries if not self.contains(row)), None)

    def add(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        return Subspace(self.ambient_dim, self.basis.entries + other.basis.entries)

    def intersect(self, other: "Subspace") -> "Subspace":
        return sum_intersect(self, other)[1]

    def _same_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")


def _echelon_kernel(rows: Sequence[Sequence], pivots: Sequence[int], n: int) -> Subspace:
    """Kernel of a reduced row echelon matrix with n columns: one vector per free column."""
    kernel_rows = []
    for f in range(n):
        if f in pivots:
            continue
        v = [ZERO] * n
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        kernel_rows.append(v)
    return Subspace(n, kernel_rows)


def rank_kernel(m: Matrix) -> tuple[int, Subspace]:
    """Rank and kernel of a matrix; rank + dim(kernel) = cols."""
    red, pivots = m.rref()
    return len(pivots), _echelon_kernel(red.entries, pivots, m.cols)


def sum_intersect(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace]:
    """Sum and intersection of two subspaces (Zassenhaus block trick)."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    rows = [tuple(r) + tuple(r) for r in a.basis.entries]
    rows += [tuple(r) + (ZERO,) * n for r in b.basis.entries]
    red, pivots = Matrix(rows, 2 * n).rref()
    sum_rows, meet_rows = [], []
    for row in red.entries[: len(pivots)]:
        left, right = row[:n], row[n:]
        if is_zero_vec(left):
            meet_rows.append(right)
        else:
            sum_rows.append(left)
    return Subspace(n, sum_rows), Subspace(n, meet_rows)


def annihilator(s: Subspace) -> Subspace:
    """All dual vectors pairing to zero with s (coordinate pairing).

    s's basis is already in RREF, so the kernel is read off its pivots.
    """
    return _echelon_kernel(s.basis.entries, s.pivots, s.ambient_dim)


def invariant_closure(n: int, start_rows: Iterable[Sequence],
                      images: Callable[[tuple], Iterable[Sequence]]) -> Subspace:
    """Smallest subspace of Q^n containing start_rows and closed under some linear maps.

    images(v) yields the image of v under each of the maps.  Worklist: each
    row that enlarges the span is queued once, as it was inserted, and its
    images are inserted in turn, until the span is all of Q^n.
    """
    rows, pivots, work = [], [], []
    for v in start_rows:
        if row := _insert(rows, pivots, v):
            work.append(row)
    while work and len(rows) < n:
        for image in images(work.pop()):
            if row := _insert(rows, pivots, image):
                work.append(row)
                if len(rows) == n:
                    break
    return Subspace(n, rows)


def solve_in_subspace(m: Matrix, sub: Subspace, v: Sequence) -> Optional[tuple]:
    """Find x in sub with m x = v, or None.

    Returned vector lives in the ambient space of sub.
    """
    restricted = m * sub.basis.transpose()
    t = solve(restricted, v)
    return None if t is None else combine(t, sub.basis.entries, sub.ambient_dim)


def symmetric_signature(m: Matrix) -> tuple[int, int, int]:
    """(positives, negatives, rank) of a symmetric rational matrix.

    Exact congruence diagonalization; no eigenvalues are computed.
    """
    if m.rows != m.cols:
        raise ValueError("signature of non-square matrix")
    n = m.rows
    a = [list(row) for row in m.entries]
    for i in range(n):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_into(i, j, f):
        # row_i += f*row_j and col_i += f*col_j
        a[i] = [x + f * y for x, y in zip(a[i], a[j])]
        for row in a:
            row[i] = row[i] + f * row[j]

    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            found = None
            for i in range(k + 1, n):
                if a[i][i] != 0:
                    found = i
                    break
            if found is not None:
                swap(k, found)
            else:
                off = None
                for i in range(k, n):
                    for j in range(i + 1, n):
                        if a[i][j] != 0:
                            off = (i, j)
                            break
                    if off:
                        break
                if off is None:
                    break  # remaining block is zero
                i, j = off
                add_into(i, j, ONE)  # makes a[i][i] = 2*a[i][j] != 0
                if i != k:
                    swap(k, i)
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k] != 0:
                add_into(i, k, -a[i][k] / d)
    return pos, neg, pos + neg
