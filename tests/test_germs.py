"""Map germs, frontality, Nash lifts, wave fronts."""

import itertools
import random
from fractions import Fraction

import pytest

from frontal_kernel import (DivisionError, GermError, corank, frontal_lift,
                            germ, is_frontal, is_wavefront, membership,
                            multigerm, multiplicity, nash_lift,
                            prenormal_candidates, ramification_ideal, ring, std)
from frontal_kernel.basis import DEFAULT_LIMITS, Limits, ResourceLimitError
from frontal_kernel.germfile import parse
from frontal_kernel.derlog import LogField
from frontal_kernel.germs import (_linear_part, _local_quotient,
                                  compose_linear, maximal_minors,
                                  min_generators, poly_det)
from frontal_kernel.ring import RingMismatchError


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


def test_frontal_lift_kept_per_limits():
    # the lift is kept on the germ under its limits: another jet order gets
    # its own jet, and a repeated call returns the kept result
    R = ring("x", "y", local=True)
    x, y = R.gens()
    f = germ(R, x, y ** 2 + y ** 3, y ** 3)
    lift = frontal_lift(f)
    short = frontal_lift(f, 0, Limits(jet_order=6))
    assert short[1].jet_order == 6
    assert short[1].mu[0] == lift[1].mu[0].jet(6)
    assert short[1].mu[0] != lift[1].mu[0]
    assert frontal_lift(f) is lift
    assert frontal_lift(f, 0, Limits(jet_order=6)) is short


def _cramer_lift(pre, limits):
    """Reference lift: mu from the y-block system (dp/dy) mu = dq/dy by
    Cramer's rule, each quotient divided in the local ring, then lam by
    back-substitution in dq - sum mu dp; (mu, lam, exact)."""
    n, k = pre.n, pre.k
    ys = range(n - k, n)
    P = [[pj.diff(ell) for pj in pre.p] for ell in ys]
    b = [pre.q.diff(ell) for ell in ys]
    det = poly_det(P)
    if det.is_zero():
        raise DivisionError("singular p-block")
    mu, exact = [], True
    for j in range(k):
        col = [[b[r] if t == j else P[r][t] for t in range(k)]
               for r in range(k)]
        quotient = _local_quotient(poly_det(col), det, limits)
        if quotient is None:
            raise DivisionError("no lift for this split")
        mu.append(quotient[0])
        exact = exact and quotient[1]
    lam = []
    for i in range(n - k):
        li = pre.q.diff(i)
        for m, pj in zip(mu, pre.p):
            li = li - m * pj.diff(i)
        lam.append(li)
    return tuple(mu), tuple(lam), exact


def _random_prenormal_germ(rng):
    """(x, p, q) of corank k: q = F(x, p) has the polynomial lift dF/dp,
    a random q mostly has none, and p_j + c*q in place of p_j turns a lift
    mu into mu/(1 + c*mu_j), a power series."""
    n, k = rng.choice([(2, 1), (2, 2), (3, 1), (3, 2)])
    R = ring(*[f"x{i + 1}" for i in range(n - k)],
             *[f"y{j + 1}" for j in range(k)], local=True)
    xs, ys = R.gens()[:n - k], R.gens()[n - k:]

    def terms(gens, degrees, count):
        p = R.zero()
        for _ in range(count):
            m = R.one()
            for _ in range(rng.choice(degrees)):
                m = m * rng.choice(gens)
            p = p + m.scale(rng.choice([-2, -1, 1, 2, 3]))
        return p

    p = [y ** 2 + terms(R.gens(), [2, 3], rng.randint(0, 1)) for y in ys]
    if rng.random() < 2 / 3:
        q = terms(xs + p, [2], rng.randint(1, 2))
    else:
        q = terms(R.gens(), [2, 3], rng.randint(1, 3))
    if rng.random() < 0.6:
        j = rng.randrange(k)
        p[j] = p[j] + q.scale(rng.choice([-1, 1, 2]))
    if q.is_zero() or any(pj.is_zero() for pj in p):
        return None
    return germ(R, *xs, *p, q)


def test_nash_lift_matches_cramers_rule():
    # differential: on every prenormal candidate of seeded germs, the lift
    # from the maximal minors and the Cramer reference agree on the error,
    # or on mu, exact and jet_order, and on lam up to the jet order
    rng = random.Random(2718)
    order = DEFAULT_LIMITS.jet_order
    seen = set()
    germs = 0
    while germs < 150:
        f = _random_prenormal_germ(rng)
        if f is None:
            continue
        germs += 1
        for pre in prenormal_candidates(f):
            try:
                mu, lam, exact = _cramer_lift(pre, DEFAULT_LIMITS)
            except DivisionError:
                with pytest.raises(DivisionError):
                    nash_lift(pre)
                seen.add((pre.n, pre.k, "none"))
                continue
            nash = nash_lift(pre)
            assert nash.mu == mu and nash.exact == exact
            assert nash.jet_order == (None if exact else order)
            if exact:
                assert nash.lam == lam
            else:
                assert [li.jet(order) for li in lam] == list(nash.lam)
            seen.add((pre.n, pre.k, "exact" if exact else "jet"))
    assert seen == {(n, k, kind) for n, k in [(2, 1), (2, 2), (3, 1), (3, 2)]
                    for kind in ("exact", "jet", "none")}


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


def _folded_umbrella_change():
    # a generic linear change of (x, y^2, x*y^3) that once ran for minutes
    return _parsed_map(
        "-4*y + 2*y^2 - 8*x*y + 8*x^2 + 2*y^4 - 12*x*y^3 + 24*x^2*y^2 "
        "- 16*x^3*y, -4*y - y^2 + 4*x*y - 4*x^2, -4*y - y^2 + 4*x*y "
        "- 4*x^2 - 4*y^4 + 24*x*y^3 - 48*x^2*y^2 + 32*x^3*y")


def _y7_change():
    # a generic linear change of (x, y^2, y^7 + x^3*y) whose rank-4
    # Nakayama count once ran past 30 s
    f = _parsed_map("x, y^2, y^7 + x^3*y")
    return compose_linear(
        f, [[Fraction(-1), Fraction(-1)], [Fraction(-1), Fraction(-2)]],
        [[Fraction(1), Fraction(0), Fraction(-2)],
         [Fraction(-1), Fraction(2), Fraction(-2)],
         [Fraction(2), Fraction(-1), Fraction(2)]])


@pytest.mark.parametrize("build, frontal",
                         [(_folded_umbrella_change, True), (_y7_change, False)],
                         ids=["folded_umbrella", "y7"])
def test_frontal_generic_change_folded_umbrella(build, frontal):
    flag, witnesses = is_frontal(build())
    assert flag is frontal
    if not frontal:
        assert witnesses is None


@pytest.mark.parametrize("sign", ["+", "-"])
def test_min_generators_f4_shears(sign):
    # the shears of f4 = (x, y^2, y^5 + x^3*y) with source entry 1 and
    # target entries (1, +-1, 1): R(f) needs two generators
    tail = "y^4 + 3*x*y^3 + 3*x^2*y^2 + x^3*y + y^5"
    f = _parsed_map(f"y + x {sign} y^2 + {tail}, y^2 + {tail}, {tail}")
    assert min_generators(ramification_ideal(f)) == (2, False)
    assert is_frontal(f) == (False, None)


def test_linear_part_is_the_gradient_at_zero():
    rng = random.Random(14)
    R = ring("x", "y", "z", local=True)
    for _ in range(30):
        p = R.zero()
        for _ in range(rng.randint(0, 5)):
            exp = tuple(rng.randint(0, 2) for _ in range(3))
            p = p + R.monomial(exp, Fraction(rng.randint(-5, 5),
                                             rng.randint(1, 4)))
        assert _linear_part(p) == [p.diff(i).constant_term() for i in range(3)]


def test_ramification_ideal_keeps_the_minor_order(corpus_files):
    # reference: every n x n minor of the Jacobian matrix (rows the source
    # variables), components chosen in lexicographic order, so the deleted
    # component descends; zero minors are dropped
    germs = [f for gf in corpus_files for f in gf.maps.values()]
    assert len(germs) == 8
    for f in germs:
        comps, n = f.components, f.n
        jac = [[c.diff(i) for c in comps] for i in range(n)]
        minors = [poly_det([[row[j] for j in cols] for row in jac])
                  for cols in itertools.combinations(range(n + 1), n)]
        assert ramification_ideal(f) == [m for m in minors if not m.is_zero()]


def test_maximal_minors_form_one_fraction_per_term(monkeypatch, e6, f4,
                                                   swallowtail):
    # the minors are Bareiss eliminations on integer forms, with the
    # partials taken on integer numerators: one Fraction per term of each
    # minor, where Poly arithmetic would form one per partial, product and sum
    R = ring("x", "y", local=True)
    x, y = R.gens()
    frac = (x, Fraction(2, 3) * y ** 3 + Fraction(-5, 7) * x * y,
            Fraction(1, 4) * y ** 4 + Fraction(3, 2) * x ** 2 * y ** 2
            + y ** 5)
    cases = [f.components for f in (e6, f4, swallowtail)] + [frac]
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(cls)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    for comps in cases:
        made.clear()
        minors = maximal_minors(comps)
        assert len(made) <= sum(len(m.terms) for m in minors)
    made.clear()
    assert Fraction(1, 3) and made


def test_minors_determinants_and_fields_refuse_mixed_rings():
    R, S = ring("x", "y", local=True), ring("x", "y")
    x, y = R.gens()
    u, v = S.gens()
    with pytest.raises(RingMismatchError):
        poly_det([[x, y], [u, v]])
    with pytest.raises(RingMismatchError):
        maximal_minors([x, y ** 2, u ** 3])
    with pytest.raises(RingMismatchError):
        LogField((u, v), R.zero()).apply(x * y)
    with pytest.raises(RingMismatchError):
        LogField((x, y), S.one()).verify(x * y)
