"""Map germs, frontality, Nash lifts, wave fronts."""

from fractions import Fraction

import pytest

from frontal_kernel import (DivisionError, GermError, corank, frontal_lift,
                            germ, is_frontal, is_wavefront, membership,
                            multigerm, multiplicity, nash_lift,
                            prenormal_candidates, ramification_ideal, ring, std)
from frontal_kernel.basis import DEFAULT_LIMITS, Limits, ResourceLimitError
from frontal_kernel.germfile import parse
from frontal_kernel.germs import compose_linear, min_generators


def test_corank(cuspidal_edge, e6):
    assert corank(cuspidal_edge) == 1
    assert corank(e6) == 1
    R = ring("x", "y", local=True)
    imm = germ(R, R.var(0), R.var(1), R.var(0) ** 2)
    assert corank(imm) == 0


def test_frontal_examples(cuspidal_edge, folded_umbrella, f4, e6, swallowtail):
    for f in (cuspidal_edge, folded_umbrella, e6, swallowtail):
        flag, witnesses = is_frontal(f)
        assert flag and witnesses is not None
        # the witness generates the ramification ideal
        basis = std([witnesses[0]])
        for m in ramification_ideal(f):
            assert membership(m, basis)
    flag, witnesses = is_frontal(f4)
    assert not flag and witnesses is None


def test_frontal_witness_values(cuspidal_edge, e6):
    flag, w = is_frontal(cuspidal_edge)
    y = cuspidal_edge.source.var(1)
    assert membership(y, std([w[0]])) and membership(w[0], std([y]))
    flag, w = is_frontal(e6)
    x = e6.source.var(0)
    assert membership(x ** 2, std([w[0]])) and membership(w[0], std([x ** 2]))


def test_wavefront(cuspidal_edge, folded_umbrella, e6):
    assert is_wavefront(cuspidal_edge)
    assert is_wavefront(e6)
    assert not is_wavefront(folded_umbrella)


def test_nash_lift_cuspidal_edge(cuspidal_edge):
    pre, nash = frontal_lift(cuspidal_edge)
    # prenormal form (x, y; p = y^2-block?) -- check the division identity
    # dq/dy = mu * dp/dy for each p in the p-block
    for j in range(pre.k):
        lhs = pre.q.diff(pre.n - pre.k + j)
        rhs = nash.mu[j] * pre.p[j].diff(pre.n - pre.k + j)
        diff = lhs - rhs
        if not nash.exact:
            # identity holds modulo the jet order used by the division
            diff = diff.jet(nash.jet_order - 1)
        assert diff.is_zero()
    # the residual 1-form vanishes identically for an exact lift
    if nash.exact:
        assert all(r.is_zero() for r in nash.residual(pre))


def test_nash_lift_power_series():
    # f = (x, y^2 + y^3, y^3): mu = 3y/(2 + 3y) is not a polynomial
    R = ring("x", "y", local=True)
    x, y = R.gens()
    f = germ(R, x, y ** 2 + y ** 3, y ** 3)
    pre, nash = frontal_lift(f)
    assert nash.exact is False
    assert nash.jet_order == DEFAULT_LIMITS.jet_order
    assert pre.q_index == 2
    series = R.zero()
    for i in range(1, DEFAULT_LIMITS.jet_order + 1):
        series = series + (y ** i).scale(
            Fraction(3, 2) * Fraction(-3, 2) ** (i - 1))
    assert nash.mu[0] == series
    # q = y^2 + y^3: 2y + 3y^2 is not in the local ideal (3y^2)
    with pytest.raises(DivisionError):
        nash_lift(prenormal_candidates(f)[0])
    # the local division obeys the normal-form step limit
    with pytest.raises(ResourceLimitError):
        nash_lift(pre, Limits(max_pairs=0))


def test_multiplicity(e6, cusp):
    assert multiplicity(e6) == 3
    assert multiplicity(cusp) == 2
    with pytest.raises(GermError):
        R = ring("x", "y", local=True)
        multiplicity(germ(R, R.var(0), R.var(1) ** 2, R.var(1) ** 3))


def test_multigerm_frontality():
    # two immersed lines through the origin
    R = ring("x", local=True)
    x = R.var(0)
    f = multigerm(R, [x, x ** 2], [x ** 2, x])
    flag, _ = is_frontal(f)
    assert flag


def test_frontality_linear_invariance(e6, f4):
    # frontality is preserved by linear coordinate changes
    source_change = [[Fraction(2)]]
    target_change = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    g = compose_linear(e6, source_change, target_change)
    assert is_frontal(g)[0]
    sc = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    tc = [[Fraction(1), Fraction(0), Fraction(0)],
          [Fraction(1), Fraction(1), Fraction(0)],
          [Fraction(0), Fraction(0), Fraction(1)]]
    h = compose_linear(f4, sc, tc)
    assert not is_frontal(h)[0]


def test_prenormal_candidates(cuspidal_edge):
    cands = prenormal_candidates(cuspidal_edge)
    assert cands
    pre = cands[0]
    assert pre.k == 1
    # the components reproduce the germ up to target permutation/linear change
    comps = pre.components()
    assert len(comps) == 3


def _parsed_map(components):
    return parse("frontal-kernel v1\nring x, y;\nmap f = "
                 + components + ";\n").maps["f"]


def test_frontal_generic_change_folded_umbrella():
    # a generic linear change of (x, y^2, x*y^3) that once ran for minutes
    f = _parsed_map(
        "-4*y + 2*y^2 - 8*x*y + 8*x^2 + 2*y^4 - 12*x*y^3 + 24*x^2*y^2 "
        "- 16*x^3*y, -4*y - y^2 + 4*x*y - 4*x^2, -4*y - y^2 + 4*x*y "
        "- 4*x^2 - 4*y^4 + 24*x*y^3 - 48*x^2*y^2 + 32*x^3*y")
    assert is_frontal(f)[0] is True


@pytest.mark.parametrize("sign", ["+", "-"])
def test_min_generators_f4_shears(sign):
    # the shears of f4 = (x, y^2, y^5 + x^3*y) with source entry 1 and
    # target entries (1, +-1, 1): R(f) needs two generators
    tail = "y^4 + 3*x*y^3 + 3*x^2*y^2 + x^3*y + y^5"
    f = _parsed_map(f"y + x {sign} y^2 + {tail}, y^2 + {tail}, {tail}")
    assert min_generators(ramification_ideal(f)) == (2, False)
