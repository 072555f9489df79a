"""Polynomial gcds and squarefree parts through one elimination."""

import pytest

from frontal_kernel import Limits, ResourceLimitError, ring
from frontal_kernel.squarefree import gcd, is_squarefree, squarefree_part


def test_gcd_with_zero_is_the_other_argument():
    R = ring("x", "y", local=True)
    x, y = R.gens()
    p = 3 * x ** 2 - y
    assert gcd(p, R.zero()) == p.monic()
    assert gcd(R.zero(), p) == p.monic()


def test_gcd_of_coprime_and_shared_factors():
    R = ring("x", "y")
    x, y = R.gens()
    a = x ** 2 + y
    assert gcd(a ** 3 * (x - y), 2 * a * (x + 1)) == a
    assert gcd(x + 1, y - 2) == R.one()


def test_squarefree_part_keeps_limits():
    R = ring("x", "y", local=True)
    x, y = R.gens()
    a = y ** 2 - x ** 3
    p = a ** 2 * (x + y)
    with pytest.raises(ResourceLimitError):
        squarefree_part(p, Limits(max_pairs=1))
    assert squarefree_part(p).monic() == (a * (x + y)).monic()
    assert not is_squarefree(p)
    assert is_squarefree(a * (x + y))
