"""Small exact linear algebra over Q (Fraction matrices)."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

Matrix = list[list[Fraction]]


def _echelon(a: Matrix, cols: int) -> list[int]:
    """Gauss-Jordan on a in place, pivoting in its first cols columns.

    Returns the pivot columns; stops once every row has a pivot.  Zero
    entries take no Fraction arithmetic: x / f and x - g * 0 are x.
    """
    rows = len(a)
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        f = a[r][c]
        a[r] = [x / f if x else x for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                g = a[i][c]
                a[i] = [x - g * y if y else x for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return pivots


def rank(m: Matrix) -> int:
    return len(_echelon([row[:] for row in m], len(m[0]) if m else 0))


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def inverse(m: Matrix) -> Optional[Matrix]:
    n = len(m)
    a = [row[:] + unit for row, unit in zip(m, identity(n))]
    if len(_echelon(a, n)) < n:
        return None
    return [row[n:] for row in a]


def solve(m: Matrix, rhs: Sequence[Sequence[Fraction]]):
    """Solve m*X = rhs for all columns at once; None when inconsistent.

    Underdetermined systems get free variables set to zero.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    width = len(rhs[0])
    a = [m[i][:] + list(rhs[i]) for i in range(rows)]
    pivots = _echelon(a, cols)
    if any(any(row[cols:]) for row in a[len(pivots):]):
        return None
    x = [[Fraction(0)] * width for _ in range(cols)]
    for i, c in enumerate(pivots):
        x[c] = a[i][cols:]
    return x
