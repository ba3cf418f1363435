"""Independent orbit-dimension oracle, computed with sympy over QQ.

The orbit dimension at a covector f is the rank of the KKS pairing
B[i][j] = f([e_i, e_j]).  This module reads the structure constants straight
from a definition document and ranks B with sympy's `DomainMatrix`, sharing
no code with `orbitkit`.
"""

from __future__ import annotations

from fractions import Fraction

from sympy import QQ
from sympy.polys.matrices import DomainMatrix


def kks_rank(doc: dict, coords) -> int:
    n = doc["dim"]
    f = [Fraction(x) for x in coords]
    rows = [[QQ(0)] * n for _ in range(n)]
    for item in doc["brackets"]:
        i, j = item["i"], item["j"]
        val = sum((f[int(k)] * Fraction(c) for k, c in item["coeffs"].items()), Fraction(0))
        rows[i][j] = QQ(val.numerator, val.denominator)
        rows[j][i] = -rows[i][j]
    return DomainMatrix(rows, (n, n), QQ).rank()
