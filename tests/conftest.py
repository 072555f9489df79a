"""Shared germ builders for the test suite."""

import pytest

from frontal_kernel import germ, ring, unfolding


@pytest.fixture
def e6():
    """The plane-curve germ (x^3, x^4)."""
    R = ring("x", local=True)
    x = R.var(0)
    return germ(R, x ** 3, x ** 4)


@pytest.fixture
def e6_unfolding(e6):
    """The one-parameter frontal stabilisation of (x^3, x^4)."""
    R = ring("x", "t", local=True)
    x, t = R.var(0), R.var(1)
    from fractions import Fraction
    return unfolding(e6, ["t"],
                     [x ** 3 + t * x, x ** 4 + (x ** 2 * t).scale(Fraction(2, 3))],
                     stable_asserted=True)


@pytest.fixture
def e6_nonfrontal_unfolding(e6):
    """A stabilisation of (x^3, x^4) that is not frontal."""
    R = ring("x", "t", local=True)
    x, t = R.var(0), R.var(1)
    from fractions import Fraction
    return unfolding(e6, ["t"],
                     [x ** 3 - t * x, x ** 4 + (x ** 2 * t).scale(Fraction(3, 2))])


@pytest.fixture
def cusp():
    """The plane-curve germ (x^2, x^3)."""
    R = ring("x", local=True)
    x = R.var(0)
    return germ(R, x ** 2, x ** 3)


@pytest.fixture
def cusp_unfolding(cusp):
    R = ring("x", "t", local=True)
    x, t = R.var(0), R.var(1)
    from fractions import Fraction
    return unfolding(cusp, ["t"],
                     [x ** 2, x ** 3 + (x ** 2 * t).scale(Fraction(3, 2))],
                     stable_asserted=True)


@pytest.fixture
def cuspidal_edge():
    """(x, y^2, y^3): the cuspidal edge."""
    R = ring("x", "y", local=True)
    x, y = R.var(0), R.var(1)
    return germ(R, x, y ** 2, y ** 3)


@pytest.fixture
def folded_umbrella():
    """(x, y^2, x*y^3)."""
    R = ring("x", "y", local=True)
    x, y = R.var(0), R.var(1)
    return germ(R, x, y ** 2, x * y ** 3)


@pytest.fixture
def f4():
    """(x, y^2, y^5 + x^3*y): not frontal."""
    R = ring("x", "y", local=True)
    x, y = R.var(0), R.var(1)
    return germ(R, x, y ** 2, y ** 5 + x ** 3 * y)


@pytest.fixture
def swallowtail():
    """The swallowtail front parametrization."""
    R = ring("y", "u", local=True)
    y, u = R.var(0), R.var(1)
    return germ(R, u, (y ** 3).scale(-4) - (u * y).scale(2),
                (y ** 4).scale(3) + u * y ** 2)


@pytest.fixture
def corpus_files():
    """The parsed germ files of the bundled corpus, in file-name order."""
    from frontal_kernel import germfile
    from frontal_kernel.cli import _corpus_dir
    return [germfile.parse(entry.read_text(encoding="utf-8"))
            for entry in sorted(_corpus_dir().iterdir())
            if entry.name.endswith(".germ")]
