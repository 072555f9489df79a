"""Exact polynomial arithmetic and orderings."""

import importlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from frontal_kernel import Poly, associates, exact_divide, quasihomogeneous_weights, ring
from frontal_kernel import basis
from frontal_kernel.germfile import _ExprParser, tokenize
from frontal_kernel.ring import (Ordering, Ring, RingMismatchError,
                                 block_ordering)


def parse_poly(text, R):
    return _ExprParser(tokenize(text + ";"), 0, R).parse_expr()


def test_basic_arithmetic():
    R = ring("x", "y")
    x, y = R.var(0), R.var(1)
    p = (x + y) ** 2
    assert p == x ** 2 + x * y.scale(2) + y ** 2
    assert (p - p).is_zero()
    assert (x * y) * R.const(Fraction(1, 2)) == (x * y).scale(Fraction(1, 2))
    assert (-x) + x == R.zero()


def test_leading_term_global_vs_local():
    # global degrevlex picks the highest degree, local ds the lowest
    Rg = ring("x")
    Rl = ring("x", local=True)
    x = Rg.var(0)
    p = x + x ** 3
    assert p.leading_exp() == (3,)
    xl = Rl.var(0)
    pl = xl + xl ** 3
    assert pl.leading_exp() == (1,)
    assert pl.order() == 1
    assert pl.ecart() == 2


def test_diff_and_substitute():
    R = ring("x", "y")
    x, y = R.var(0), R.var(1)
    p = x ** 3 * y + y ** 2
    assert p.diff(0) == (x ** 2 * y).scale(3)
    assert p.diff(1) == x ** 3 + y.scale(2)
    q = p.substitute([y, x], R)     # swap the variables
    assert q == y ** 3 * x + x ** 2


def test_jet_truncation():
    R = ring("x", local=True)
    x = R.var(0)
    p = x + x ** 2 + x ** 5
    assert p.jet(2) == x + x ** 2
    assert p.jet(10) == p


def test_map_to_between_rings():
    R = ring("x", "y", local=True)
    S = ring("y", "x", "z")
    p = R.var(0) ** 2 + R.var(1)
    q = p.map_to(S)
    assert q == S.var(1) ** 2 + S.var(0)
    with pytest.raises(Exception):
        p.map_to(ring("z", "w"))


def test_str_round_trip():
    R = ring("x", "y", local=True)
    x, y = R.var(0), R.var(1)
    p = (x ** 2 * y).scale(Fraction(3, 2)) - y ** 3 + x.scale(-1)
    again = parse_poly(str(p), R)
    assert again == p


def test_exact_divide():
    R = ring("x", "y", local=True)
    x, y = R.var(0), R.var(1)
    p = (x ** 2 - y ** 2) * (x + y ** 3)
    q = x + y ** 3
    assert exact_divide(p, q) == x ** 2 - y ** 2
    assert exact_divide(x ** 2 + y, x) is None


def test_associates():
    R = ring("x", local=True)
    x = R.var(0)
    assert associates(x ** 2, (x ** 2).scale(Fraction(-7, 3)))
    assert not associates(x ** 2, x ** 3)


def test_quasihomogeneous_weights():
    R = ring("y1", "y2", local=True)
    y1, y2 = R.var(0), R.var(1)
    g = y2 ** 3 - y1 ** 4
    qh = quasihomogeneous_weights(g)
    assert qh is not None
    w, d, _ = qh
    assert list(w) == [3, 4] and d == 12
    assert quasihomogeneous_weights(y1 ** 2 + y1 ** 3 + y2) is None


def test_quasihomogeneous_weights_need_full_reduction():
    # the pivot row of X is reduced by the later pivot of Z before the
    # weights are read off it
    R = ring("X", "Y", "Z")
    X, Y, Z = R.gens()
    g = Z ** 2 - X ** 2 * Y + 2 * X * Y ** 5 - Y ** 9
    assert quasihomogeneous_weights(g) == ((8, 2, 9), 18, (False, False, False))


def test_quasihomogeneous_weights_of_weighted_homogeneous_polynomials():
    # with a pure power of every variable the weights are unique up to scale
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(2, 4)
        R = ring(*[f"y{i + 1}" for i in range(n)])
        w = [rng.randint(1, 4) for _ in range(n)]
        d = math.lcm(*w) * rng.randint(1, 2)
        pure = [tuple(d // w[i] if j == i else 0 for j in range(n))
                for i in range(n)]
        mixed = [e for e in itertools.product(*[range(d // wi) for wi in w])
                 if sum(wi * a for wi, a in zip(w, e)) == d]
        exps = pure + rng.sample(mixed, min(3, len(mixed)))
        g = sum((R.monomial(e, rng.choice([-3, -2, -1, 1, 2, 3]))
                 for e in exps), R.zero())
        qh = quasihomogeneous_weights(g)
        assert qh is not None, g
        weights, degree, free = qh
        assert all(sum(wi * a for wi, a in zip(weights, e)) == degree
                   for e, _ in g.terms)
        assert list(weights) == [wi // math.gcd(*w) for wi in w]
        assert not any(free)


def test_weighted_ring_degree():
    R = ring("x", "y", weights=(2, 3))
    p = R.var(0) ** 3 + R.var(1) ** 2
    assert p.weighted_degree() == 6


def test_quasihomogeneous_weights_beyond_small_free_values():
    # Z - X*Y^7 needs w_Z > 7*w_Y, out of reach of free values 1..6
    R = ring("X", "Y", "Z")
    X, Y, Z = R.gens()
    qh = quasihomogeneous_weights(Z - X * Y ** 7)
    assert qh is not None
    w, d, free = qh
    assert all(wi > 0 for wi in w) and not any(free)
    assert w[2] == d == w[0] + 7 * w[1]


def test_quasihomogeneous_weights_of_planted_weights():
    # terms of one weighted degree under weights up to 12, often beyond the
    # free values 1..6; and no weights in 1..12 fit when None is returned
    rng = random.Random(14)
    R = ring("X", "Y", "Z")
    X, Y, Z = R.gens()
    for _ in range(40):
        w = [rng.randint(1, 12) for _ in range(3)]
        e0 = tuple(rng.randint(0, 4) for _ in range(3))
        d = sum(wi * a for wi, a in zip(w, e0))
        same = [e for e in itertools.product(*[range(d // wi + 1) for wi in w])
                if sum(wi * a for wi, a in zip(w, e)) == d and e != e0]
        if not same:
            continue
        g = sum((R.monomial(e, 1) for e in [e0] + rng.sample(
            same, min(rng.randint(1, 2), len(same)))), R.zero())
        qh = quasihomogeneous_weights(g)
        assert qh is not None, g
        assert all(wi > 0 for wi in qh[0])
        assert len({sum(wi * a for wi, a in zip(qh[0], e))
                    for e, _ in g.terms}) == 1
    # Z^a - X^b*Y^c needs a*w_Z > c*w_Y
    for a, b, c in itertools.product(range(1, 3), range(1, 4), range(1, 13)):
        qh = quasihomogeneous_weights(Z ** a - X ** b * Y ** c)
        assert qh is not None
        (wx, wy, wz), d, _ = qh
        assert min(wx, wy, wz) > 0 and a * wz == b * wx + c * wy == d
    for _ in range(40):
        exps = {tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(3)}
        g = sum((R.monomial(e, 1) for e in exps), R.zero())
        if quasihomogeneous_weights(g) is None:
            assert not any(
                len({sum(wi * a for wi, a in zip(w, e)) for e in exps}) == 1
                for w in itertools.product(range(1, 13), repeat=3)), g


def test_quasihomogeneous_weights_stop_at_full_column_rank(monkeypatch):
    # the rows w.(e - e0) = 0 have no free column, so only w = 0 solves
    # them and the vertex search is not reached
    def unreachable(exps):
        raise AssertionError("vertex search on a full-rank system")
    monkeypatch.setattr(importlib.import_module("frontal_kernel.ring"),
                        "_vertex_weights", unreachable)
    R = ring("y1", "y2", local=True)
    y1, y2 = R.gens()
    g = (y2 ** 5 + Fraction(25, 3) * y1 ** 3 * y2 ** 3 - y1 ** 7
         + Fraction(125, 9) * y1 ** 6 * y2 + Fraction(3125, 243) * y1 ** 8)
    assert quasihomogeneous_weights(g) is None


def test_map_to_a_ring_of_the_same_names_matches_the_general_path():
    # same names: the exponents stay and only the ordering's sort remains
    rng = random.Random(31)
    names = ("x", "y", "z")
    rings = [ring(*names), ring(*names, local=True),
             ring(*names, local=True, weights=(2, 3, 5)),
             Ring(names, block_ordering((1, 2), (Ordering(),
                                                 Ordering(local=True))))]
    for _ in range(60):
        R, S = rng.choice(rings), rng.choice(rings)
        p = R.from_terms((tuple(rng.randint(0, 3) for _ in names),
                          Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                         for _ in range(rng.randint(0, 6)))
        mapped = p.map_to(S)
        assert mapped.ring is S
        assert mapped.terms == S.from_terms(p.terms).terms


def test_equal_orderings_share_one_key_memo(monkeypatch):
    # every ring() and eliminate() builds a new Ordering; equal values share
    # one memo, so each exponent is keyed once per process
    assert ring("x", "y").ordering.sort_key is ring("a", "b").ordering.sort_key
    assert (ring("x", "y", local=True, weights=(2, 3)).ordering.sort_key
            is ring("a", "b", local=True, weights=(2, 3)).ordering.sort_key)
    seen = []
    std = basis._std

    def record(vecs, *args):
        seen.append(vecs[0][0].ring.ordering.sort_key)
        return std(vecs, *args)
    monkeypatch.setattr(basis, "_std", record)
    for names in (("x", "y", "z"), ("u", "v", "w")):
        R = ring(*names)
        a, b, c = R.gens()
        basis.eliminate([b - a ** 2, c - a ** 3], [0])
    assert len(seen) == 2 and seen[0] is seen[1]
    # orderings that differ in locality, weights or block sizes do not
    g, l = Ordering(), Ordering(local=True)
    distinct = [g, l, Ordering(weights=(Fraction(1), Fraction(2))),
                Ordering(weights=(Fraction(2), Fraction(1))),
                Ordering(local=True, weights=(Fraction(1), Fraction(2))),
                block_ordering((1, 2), (g, l)), block_ordering((2, 1), (g, l)),
                block_ordering((1, 2), (l, g)), block_ordering((1, 2), (g, g))]
    keys = [o.sort_key for o in distinct]
    assert len({id(k) for k in keys}) == len(keys)
    exps = list(itertools.product(range(3), repeat=3))
    for o, key in zip(distinct, keys):
        assert [key(e) for e in exps] == [o.key(e) for e in exps]


def test_associates_refuses_polynomials_of_different_rings():
    R, S = ring("x"), ring("x", local=True)
    with pytest.raises(RingMismatchError):
        associates(R.var(0), S.var(0))
    with pytest.raises(RingMismatchError):
        associates(R.zero(), S.zero())
    with pytest.raises(RingMismatchError):
        exact_divide(R.var(0), S.var(0))
    with pytest.raises(RingMismatchError):
        exact_divide(R.zero(), S.var(0))
