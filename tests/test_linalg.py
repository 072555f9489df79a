"""Exact Gauss-Jordan (rank, inverse) against sympy on sparse matrices."""

import random
from fractions import Fraction

import pytest

from frontal_kernel import linalg


def _sparse_matrix(rng, rows, cols):
    # about 70 % zeros, with some rows and columns entirely zero
    zero_rows = {i for i in range(rows) if rng.random() < 0.15}
    zero_cols = {j for j in range(cols) if rng.random() < 0.15}
    return [[Fraction(0) if i in zero_rows or j in zero_cols
             or rng.random() < 0.7
             else Fraction(rng.randint(-5, 5), rng.randint(1, 4))
             for j in range(cols)] for i in range(rows)]


def _sympy(m):
    import sympy
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator)
                          for c in row] for row in m])


@pytest.mark.parametrize("seed", range(8))
def test_rank_matches_sympy(seed):
    rng = random.Random(seed)
    for _ in range(10):
        m = _sparse_matrix(rng, rng.randint(1, 9), rng.randint(1, 9))
        assert linalg.rank(m) == _sympy(m).rank()


@pytest.mark.parametrize("seed", range(8))
def test_inverse_matches_sympy(seed):
    rng = random.Random(100 + seed)
    for _ in range(10):
        n = rng.randint(1, 6)
        m = _sparse_matrix(rng, n, n)
        if rng.random() < 0.5:
            # a nonzero entry in every row and column: mostly nonsingular
            for i, j in enumerate(rng.sample(range(n), n)):
                m[i][j] = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
        inv = linalg.inverse(m)
        singular = _sympy(m).rank() < n
        assert (inv is None) == singular
        if inv is not None:
            product = [[sum(m[i][k] * inv[k][j] for k in range(n))
                        for j in range(n)] for i in range(n)]
            assert product == [[Fraction(int(i == j)) for j in range(n)]
                               for i in range(n)]
