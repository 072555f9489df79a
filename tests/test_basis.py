"""Standard bases, normal forms, dimensions, elimination, quotients."""

import itertools
import math
import operator
import random
import time
from fractions import Fraction

import pytest

from frontal_kernel import (INFINITE, Limits, Poly, ResourceLimitError,
                            StdBasis, eliminate, germfile, ideal_quotient,
                            membership, membership_certificate, normal_form,
                            ring, saturation, std, subquotient_dimension,
                            syzygies, vs_dimension)
from frontal_kernel.basis import (_divisor, _lt, _vec_comb, _vec_degree,
                                  colon_submodule, minimal_subset,
                                  relative_vs_dimension, vector_normal_form)
from frontal_kernel.germs import min_generators, ramification_ideal
from frontal_kernel.invariants import (M_F_dimension, _relative_module,
                                       frontal_codimension, good_equation,
                                       siersma_count)
from frontal_kernel.ring import Ordering, Ring, block_ordering


def test_vs_dimension_local_milnor():
    # Milnor algebra of x^3 + y^4: dimension (3-1)(4-1) = 6
    R = ring("x", "y", local=True)
    x, y = R.var(0), R.var(1)
    basis = std([x ** 2, y ** 3])
    assert vs_dimension(basis) == 6


def test_vs_dimension_infinite():
    R = ring("x", "y", local=True)
    basis = std([R.var(0) ** 2])
    assert vs_dimension(basis) is INFINITE


def test_local_unit_handling():
    # 1 + x is a unit locally, so <x + x^2> = <x>
    R = ring("x", local=True)
    x = R.var(0)
    basis = std([x + x ** 2])
    assert membership(x, basis)
    assert normal_form(x ** 5, basis).is_zero()


def test_membership_certificate_soundness():
    R = ring("x", "y", local=True)
    x, y = R.var(0), R.var(1)
    gens = [x ** 2 + y, y ** 3]
    p = x ** 2 * y ** 3 + y ** 4
    cert = membership_certificate(p, gens)
    assert cert is not None
    unit, cof = cert
    assert unit.is_unit()
    acc = R.zero()
    for c, g in zip(cof, gens):
        acc = acc + c * g
    assert acc == unit * p
    assert membership_certificate(x, gens) is None


def test_membership_certificate_keeps_the_slot_of_a_zero_generator():
    R = ring("x", "y", local=True)
    x, y = R.gens()
    g1, g2 = x ** 2 + y ** 3, x * y - y ** 4
    p = y * g1 + (1 + x) * g2
    unit, cof = membership_certificate(p, [g1, R.zero(), g2])
    assert len(cof) == 3 and cof[1].is_zero()
    assert unit.is_unit()
    assert cof[0] * g1 + cof[2] * g2 == unit * p


def test_an_ideal_with_a_unit_has_the_basis_one():
    # the saturation of this local ideal is the unit ideal; a long unit
    # kept as its basis made membership run past 20 s
    R = ring("x", "y", local=True)
    x, y = R.gens()
    gens = [Fraction(21, 2) * x * y ** 3 - 48 * x ** 3 * y ** 3
            + Fraction(129, 2) * x ** 5 * y ** 3 - 27 * x ** 7 * y ** 3,
            -Fraction(2, 5) * y - Fraction(5, 6) * y ** 2 + 8 * x ** 3]
    basis = std(saturation(gens, 3 * y - 3 * x ** 2 * y))
    assert basis.polys() == [R.one()]
    start = time.perf_counter()
    assert membership(1 - 2 * x ** 2 + x * y + y ** 3, basis)
    assert time.perf_counter() - start < 1
    assert std([1 + x, x * y]).polys() == [R.one()]
    S = ring("x", "y")
    assert std([S.var(0) + 3, S.var(0)]).polys() == [S.one()]


def test_normal_form_idempotent():
    R = ring("x", "y", local=True)
    x, y = R.var(0), R.var(1)
    basis = std([x ** 2 - y ** 3, x * y ** 2])
    p = x ** 4 + x * y + y ** 6
    nf = normal_form(p, basis)
    assert normal_form(nf, basis) == nf
    assert membership(p - nf, basis)


def test_eliminate_circle():
    # Eliminating t from (y1 - t^2, y2 - t^3) gives y2^2 - y1^3
    R = ring("t", "y1", "y2")
    t, y1, y2 = R.var(0), R.var(1), R.var(2)
    sub, gens = eliminate([y1 - t ** 2, y2 - t ** 3], [0])
    gens = [g for g in gens if not g.is_zero()]
    assert len(gens) == 1
    S = gens[0].ring
    from frontal_kernel import associates
    assert associates(gens[0], S.var(1) ** 2 - S.var(0) ** 3)


def test_eliminate_keeps_the_weights_of_the_ordering():
    # a Ring built on a weighted Ordering and one from ring(weights=...)
    # are the same ring: the subring keeps the weights (1, 5) of x and y, so
    # y^2 (weighted degree 10) leads the eliminant
    weights = (1, 1, 5)
    direct = Ring(("s", "x", "y"),
                  Ordering(weights=tuple(map(Fraction, weights))))
    assert direct == ring("s", "x", "y", weights=weights)
    assert direct.weights == (1, 1, 5)
    s, x, y = direct.gens()
    sub, (g,) = eliminate([s - x ** 2, s * y - x ** 3 + y ** 2], [0])
    assert sub.weights == (1, 5) and sub.ordering.weights == (1, 5)
    assert str(g) == "y^2 + x^2*y - x^3"


def test_syzygies_vanish():
    R = ring("x", "y", local=True)
    x, y = R.var(0), R.var(1)
    gens = [x ** 2, x * y, y ** 2]
    for v in syzygies(gens):
        acc = R.zero()
        for c, g in zip(v, gens):
            acc = acc + c * g
        assert acc.is_zero()


def test_syzygies_keep_the_slot_of_a_zero_generator():
    R = ring("x", "y")
    x, y = R.gens()
    assert syzygies([x, R.zero(), y]) == [(R.zero(), R.one(), R.zero()),
                                         (y, R.zero(), -x)]


def test_ideal_quotient_and_saturation():
    R = ring("x", "y")
    x, y = R.var(0), R.var(1)
    # (x^2*y) : x = (x*y);  (x^2*y) : x^inf = (y)
    q = ideal_quotient([x ** 2 * y], x)
    qb = std(q)
    assert membership(x * y, qb) and not membership(y, qb)
    sat = saturation([x ** 2 * y], x)
    sb = std(sat)
    assert membership(y, sb) and not membership(R.one(), sb)


@pytest.mark.parametrize("name, mu", [("e6", 1), ("e6_nonfrontal", 3),
                                      ("infinite_mf", 12)])
def test_siersma_count_pinned(name, mu):
    from frontal_kernel import germfile
    from frontal_kernel.cli import _corpus_dir
    text = (_corpus_dir() / f"{name}.germ").read_text(encoding="utf-8")
    U = germfile.parse(text).unfoldings["F"]
    assert [siersma_count(U, t0) for t0 in (1, 2, 3)] == [mu] * 3


def test_subquotient_dimension():
    R = ring("x", local=True)
    x = R.var(0)
    # <x> / <x^3> has basis x, x^2
    assert subquotient_dimension([x], [x ** 3]) == 2


@pytest.mark.parametrize("local", [True, False])
def test_relative_vs_dimension_of_monomial_ideals(local):
    # the count of L(P) minus L(J) against the colon module on monomial
    # ideals: finite, infinite beyond the largest exponent of J, and zero
    R = ring("x", "y", "z", local=local)
    x, y, z = R.gens()
    cases = [([x, y ** 2, z], [x ** 2, x * y, y ** 4, z], 3),
             ([x * y, z ** 2], [x ** 2 * y, x * y ** 3, z ** 3], INFINITE),
             ([x, y], [x ** 2, y], INFINITE),
             ([x ** 2, y * z], [x ** 2, y * z], 0),
             ([R.one()], [x, y ** 2, z ** 3], 6)]
    for nums, dens, value in cases:
        assert relative_vs_dimension(std(nums), std(dens)) == value
        assert subquotient_dimension(nums, dens) == value


def test_relative_vs_dimension_refuses_a_block_ordering():
    R = Ring(("x", "y"), block_ordering((1, 1), (Ordering(local=True),
                                                 Ordering(local=True))))
    x, y = R.gens()
    with pytest.raises(ValueError):
        relative_vs_dimension(std([x, y]), std([x ** 2, y]))


def test_resource_limit():
    R = ring("x", "y", "z", local=True)
    gens = [R.var(0) ** 7 + R.var(1) ** 8, R.var(1) ** 7 + R.var(2) ** 8,
            R.var(2) ** 7 + R.var(0) ** 8]
    with pytest.raises(ResourceLimitError):
        std(gens, limits=Limits(max_pairs=1))


@pytest.mark.parametrize("field, least", [
    ("max_pairs", 0), ("max_degree", 0), ("jet_order", 1)])
def test_limits_refuse_values_below_their_least(field, least):
    # the least value itself is a limit like any other
    assert getattr(Limits(**{field: least}), field) == least
    with pytest.raises(ValueError, match=f"^{field} must be at least "
                                         f"{least}$"):
        Limits(**{field: least - 1})


def test_limits_count_every_pair_and_step():
    # every pair popped from the queue counts against max_pairs, the ones
    # the product and chain criteria skip included
    R = ring("x", "y", "z")
    x, y, z = R.gens()
    with pytest.raises(ResourceLimitError):
        std([x, y], limits=Limits(max_pairs=0))  # product criterion
    std([x, y], limits=Limits(max_pairs=1))
    # (0, 1) and (0, 2) reduce to zero; the chain criterion skips (1, 2)
    with pytest.raises(ResourceLimitError):
        std([x * y, x * z, y * z], limits=Limits(max_pairs=2))
    std([x * y, x * z, y * z], limits=Limits(max_pairs=3))
    # a Mora normal form takes at most 20 * max_pairs steps; this one 25
    L = ring("u", "v", local=True)
    u, v = L.gens()
    basis = std([u - v ** 2])
    with pytest.raises(ResourceLimitError):
        normal_form(u ** 25, basis, Limits(max_pairs=1))
    assert normal_form(u ** 25, basis, Limits(max_pairs=2)) == v ** 50
    # the cusp graph ideal and a rank-2 local colon module: the first
    # max_pairs that suffices is unchanged by the order of the pair queue
    G = ring("x", "y1", "y2")
    t, y1, y2 = G.gens()
    graph = [y1 - t ** 2, y2 - t ** 3]
    for k in (1, 9):
        with pytest.raises(ResourceLimitError):
            eliminate(graph, [0], Limits(max_pairs=k))
    assert eliminate(graph, [0], Limits(max_pairs=10))[1] == \
        eliminate(graph, [0])[1]
    numerator, denominator = [u ** 2 + v ** 3, v ** 2], [u ** 4, v ** 4]
    for k in (1, 7):
        with pytest.raises(ResourceLimitError):
            colon_submodule(numerator, denominator, Limits(max_pairs=k))
    assert colon_submodule(numerator, denominator, Limits(max_pairs=8)) == \
        colon_submodule(numerator, denominator)


def test_every_normal_form_takes_one_step_budget():
    # global remainders divide through the same loop as Mora's normal
    # form, so they too stop after 20 * max_pairs steps; this one takes 25
    R = ring("X", "Y")
    X, Y = R.gens()
    basis = std([X - Y])
    with pytest.raises(ResourceLimitError):
        normal_form(X ** 25, basis, Limits(max_pairs=1))
    assert normal_form(X ** 25, basis, Limits(max_pairs=2)) == Y ** 25


def test_colength_ordering_independent():
    # the colength of a zero-dimensional ideal does not depend on which
    # global ordering is used after homogenization tricks; here we compare
    # the local count against the known product formula
    R = ring("x", "y", local=True)
    x, y = R.var(0), R.var(1)
    for a in range(2, 5):
        for b in range(2, 5):
            assert vs_dimension(std([x ** a, y ** b])) == a * b


# ---------------------------------------------------------------------------
# I1/(I2 + a*I1) through ``times`` against the explicit products v*a_c


def _explicit_route(nums, dens, variables):
    products = [v * g for v in variables for g in nums]
    return subquotient_dimension(nums, list(dens) + products,
                                 check_containment=False)


def test_min_generators_matches_explicit_products(
        cuspidal_edge, folded_umbrella, f4, e6, swallowtail):
    R = ring("x", "y", local=True)
    x, y = R.gens()
    hand = [([x ** 2 + y ** 3, x * y, y ** 4], 2),            # m-primary
            ([x * y + x ** 3], 1),                            # principal
            ([x ** 2 + y ** 3, x * y + y ** 4, y ** 2 + x ** 3], 3)]
    ideals = [ramification_ideal(f) for f in
              (cuspidal_edge, folded_umbrella, f4, e6, swallowtail)]
    for gens, count in hand:
        assert min_generators(gens) == (count, False)
    for gens in ideals + [gens for gens, _ in hand]:
        reference = _explicit_route(gens, [], gens[0].ring.gens())
        assert min_generators(gens) == (reference, False)


def test_relative_module_matches_explicit_products(
        e6_unfolding, e6_nonfrontal_unfolding, cusp_unfolding):
    for U in (e6_unfolding, e6_nonfrontal_unfolding, cusp_unfolding):
        ge = good_equation(U)
        nums, dens, param_vars = _relative_module(ge)
        assert M_F_dimension(ge) == _explicit_route(nums, dens, param_vars)
        assert frontal_codimension(ge) == _explicit_route(
            nums, dens + [ge.G], param_vars)


# ---------------------------------------------------------------------------
# The tag corner against the explicit generators (0, v*e_c) through std


def _explicit_colon(nums, dens, variables):
    """The basis of N = {c : sum c_i a_i in <dens> + a*<nums>} from one
    public ``std`` of the module generated by (a_c, e_c), (d, 0) and the
    monomials (0, v*e_c): its elements that vanish in the first r
    components, cut to the last s."""
    nums = [a if isinstance(a, tuple) else (a,) for a in nums]
    R = nums[0][0].ring
    s, r = len(nums), len(nums[0])

    def tag(c, p):
        return tuple(p if j == c else R.zero() for j in range(s))

    big = [a + tag(c, R.one()) for c, a in enumerate(nums)]
    big += [(d,) + (R.zero(),) * s for d in dens]
    big += [(R.zero(),) * r + tag(c, v) for v in variables for c in range(s)]
    return StdBasis(R, s, [v[r:] for v in std(big).elements
                           if all(p.is_zero() for p in v[:r])])


def _explicit_minimal_subset(gens):
    stair = _explicit_colon(gens, [], gens[0][0].ring.gens()).leading_data()
    return [t for t in range(len(gens))
            if not any(not any(e) for e in stair.get(t, []))]


def _explicit_subquotient(nums, dens, variables):
    basis = _explicit_colon(nums, dens, variables)
    return vs_dimension(basis) if basis.elements else INFINITE


def _sorted_leads(basis):
    return sorted((c, e) for c, es in basis.leading_data().items()
                  for e in es)


def _single_term_module(rng, R, rank):
    """Three vectors of 0 and terms of order 1 or 2, two seeded
    combinations of them and a variable multiple of one, shuffled."""
    def term():
        exp = rng.choice([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
        return R.monomial(exp, rng.choice([-2, -1, 0, 1, 2, 3]))

    gens = []
    while len(gens) < 3:
        v = tuple(term() for _ in range(rank))
        if any(not c.is_zero() for c in v):
            gens.append(v)
    for _ in range(2):
        coef = [R.const(rng.randint(-2, 2)) + term() for _ in gens]
        gens.append(tuple(sum((c * g[k] for c, g in zip(coef, gens)),
                              R.zero()) for k in range(rank)))
    gens.append(tuple(R.var(rng.randint(0, 1)) * c for c in rng.choice(gens)))
    rng.shuffle(gens)
    return gens


@pytest.mark.parametrize("rank", [1, 2])
def test_minimal_subset_matches_explicit_monomials(rank):
    rng = random.Random(17 + rank)
    R = ring("x", "y", local=True)
    for _ in range(10):
        gens = _single_term_module(rng, R, rank)
        assert minimal_subset(gens) == _explicit_minimal_subset(gens)
        s, corner = colon_submodule(gens, (), times=R.gens())
        assert (_sorted_leads(StdBasis(R, s, corner))
                == _sorted_leads(_explicit_colon(gens, [], R.gens())))


def test_minimal_subset_matches_explicit_monomials_on_f4_shears():
    # the ramification ideals of f4 = (x, y^2, y^5 + x^3*y) and of its
    # shears with source entry 1 and target entries (1, +-1, 1)
    tail = "y^4 + 3*x*y^3 + 3*x^2*y^2 + x^3*y + y^5"
    for comps in ("x, y^2, y^5 + x^3*y",
                  f"y + x + y^2 + {tail}, y^2 + {tail}, {tail}",
                  f"y + x - y^2 + {tail}, y^2 + {tail}, {tail}"):
        f = germfile.parse(f"frontal-kernel v1\nring x, y;\nmap f = {comps};\n"
                           ).maps["f"]
        gens = [(p,) for p in ramification_ideal(f)]
        assert minimal_subset(gens) == _explicit_minimal_subset(gens)


@pytest.mark.parametrize("local", [True, False])
def test_subquotient_times_matches_explicit_monomials(local):
    rng = random.Random(23 + local)
    R = ring("x", "y", local=local)
    x, y = R.gens()
    for _ in range(8):
        nums = [x ** rng.randint(1, 3) + _random_poly(rng, R, 4),
                y ** rng.randint(1, 3) + _random_poly(rng, R, 4),
                _random_poly(rng, R, 2)]
        nums = [p for p in nums if not p.is_zero()]
        dens = [_random_poly(rng, R, 1) * rng.choice(nums) for _ in range(2)]
        # (x^3, y^3)*I1 in I2 keeps I1/(I2 + a*I1) finite for every a
        dens = [d for d in dens if not d.is_zero()] + [
            v ** 3 * n for v in (x, y) for n in nums]
        for variables in ([x], [y], [x, y]):
            assert (subquotient_dimension(nums, dens, check_containment=False,
                                          times=variables)
                    == _explicit_subquotient(nums, dens, variables))
            s, corner = colon_submodule(nums, dens, times=variables)
            explicit = _explicit_colon(nums, dens, variables)
            if local:
                assert (_sorted_leads(StdBasis(R, s, corner))
                        == _sorted_leads(explicit))
            else:
                # a reduced Groebner basis is unique
                assert set(corner) == set(explicit.elements)


def test_colon_times_takes_ring_variables_only():
    R = ring("x", "y", local=True)
    x, y = R.gens()
    with pytest.raises(ValueError):
        colon_submodule([x, y], [], times=[x * y])


# ---------------------------------------------------------------------------
# Elimination against the full block-order basis


def _eliminate_through_full_std(gens, elim):
    """The elements free of the eliminated variables in the reduced basis of
    the whole ideal in the block ring."""
    R = gens[0].ring
    keep = [i for i in range(R.arity) if i not in elim]
    work = Ring(tuple(R.names[i] for i in elim + keep),
                block_ordering((len(elim), len(keep)),
                               (Ordering(), Ordering())))
    sub = Ring(tuple(R.names[i] for i in keep), Ordering())
    return [p.map_to(sub) for p in std([g.map_to(work) for g in gens]).polys()
            if not any(any(e[:len(elim)]) for e, _ in p.terms)]


def test_eliminate_matches_the_full_block_basis():
    rng = random.Random(29)
    R = ring("t", "x", "y")
    checked = 0
    for _ in range(12):
        gens = []
        for _ in range(3):
            p = R.zero()
            for _ in range(rng.randint(2, 3)):
                exp = tuple(rng.randint(0, 2) for _ in range(3))
                p = p + R.monomial(exp, Fraction(rng.randint(-4, 4),
                                                 rng.randint(1, 3)))
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        for elim in ([0], [0, 1]):
            _, out = eliminate(gens, elim)
            assert out == _eliminate_through_full_std(gens, elim)
            checked += len(out)
    assert checked > 20


# ---------------------------------------------------------------------------
# Exact values: coefficients are integers inside std and Fractions outside


def _terms(p):
    return [(e, str(c)) for e, c in p.terms]


def test_certificates_and_normal_forms_pinned():
    # values recorded before std worked over the integers; every returned
    # basis, remainder and certificate must stay exactly the same
    R = ring("x", "y", local=True)
    x, y = R.gens()
    g1, g2 = Fraction(3, 2) * x ** 2 + y ** 3, x * y ** 2 - Fraction(2, 7) * y ** 4
    S = ring("x", "y")
    X, Y = S.gens()
    h1, h2 = X ** 2 + Fraction(1, 3) * Y, X * Y - 2
    cases = [
        # local, the third basis element comes from an S-vector
        ([g1, g2], y ** 5 + Fraction(6, 49) * y ** 6 + x * y * g1,
         x ** 3 + x * y + 2 * y ** 2,
         [((0, 0), "1")],
         [[((1, 1), "1"), ((0, 2), "1")], [((1, 0), "-3/2"), ((0, 2), "-3/7")]],
         [((1, 1), "1"), ((0, 2), "2"), ((3, 0), "1")]),
        # local, the certificate's unit comes from Mora-appended elements
        ([x + x ** 2 - Fraction(1, 3) * y ** 2, y ** 2 + Fraction(2, 5) * x * y ** 2],
         x ** 2 + x * y, x * y + y ** 3 + Fraction(1, 7),
         [((0, 0), "1"), ((1, 0), "1"), ((0, 1), "-1"), ((1, 1), "-1"),
          ((0, 2), "7/15"), ((1, 2), "2/15"), ((0, 3), "-2/15")],
         [[((1, 0), "1"), ((0, 1), "1"), ((1, 1), "-1"), ((0, 2), "-2/3"),
           ((1, 2), "2/15")],
          [((0, 1), "1/3"), ((0, 2), "-2/9")]],
         [((0, 0), "1/7"), ((1, 1), "1"), ((0, 3), "1")]),
        # global
        ([h1, h2], Y ** 2 + 6 * X + (X + Y) * h1,
         X ** 3 + Fraction(5, 2) * X * Y ** 2 + Y,
         [((0, 0), "1")],
         [[((1, 0), "1"), ((0, 1), "4")], [((1, 0), "-3")]],
         [((0, 1), "6"), ((0, 0), "-2/3")]),
    ]
    for gens, member, other, unit, cofactors, remainder in cases:
        u, cof = membership_certificate(member, gens)
        assert _terms(u) == unit
        assert [_terms(c) for c in cof] == cofactors
        assert _terms(normal_form(other, std(gens))) == remainder
    assert [[_terms(p) for p in v] for v in std(cases[0][0]).elements] == [
        [[((2, 0), "1"), ((0, 3), "2/3")]],
        [[((1, 2), "1"), ((0, 4), "-2/7")]],
        [[((0, 5), "1"), ((0, 6), "6/49")]]]
    assert [[_terms(p) for p in v] for v in std(cases[2][0]).elements] == [
        [[((2, 0), "1"), ((0, 1), "1/3")]],
        [[((1, 1), "1"), ((0, 0), "-2")]],
        [[((0, 2), "1"), ((1, 0), "6")]]]


def _random_poly(rng, R, min_order):
    p = R.zero()
    for _ in range(rng.randint(1, 3)):
        exp = (rng.randint(0, 3), rng.randint(0, 3))
        if sum(exp) >= min_order:
            p = p + R.monomial(exp, Fraction(rng.randint(-9, 9),
                                             rng.randint(1, 6)))
    return p


def test_returned_coefficients_are_fractions():
    rng = random.Random(41)

    def fractions(*polys):
        return all(type(c) is Fraction for p in polys for _, c in p.terms)

    for local in (True, False):
        R = ring("x", "y", local=local)
        x, y = R.gens()
        for _ in range(8):
            if local:
                gens = [Fraction(rng.randint(1, 9), 4) * x ** 2
                        + _random_poly(rng, R, 3),
                        y ** 3 + _random_poly(rng, R, 4)]
            else:
                gens = [g for g in (_random_poly(rng, R, 1) for _ in range(3))
                        if not g.is_zero()]
            basis = std(gens)
            assert fractions(*basis.polys())
            assert fractions(normal_form(_random_poly(rng, R, 0), basis))
            member = sum((R.monomial((rng.randint(0, 2), rng.randint(0, 2)),
                                     Fraction(rng.randint(1, 9), 7)) * g
                          for g in gens), R.zero())
            u, cof = membership_certificate(member, gens)
            assert fractions(u, *cof)
    R = ring("x", "y", local=True)
    x, y = R.gens()
    zero = R.zero()
    for _ in range(6):
        gens = [(x ** 2 + _random_poly(rng, R, 3), 3 * y),
                (y ** 3 + _random_poly(rng, R, 4), Fraction(1, 2) * x),
                (zero, Fraction(5, 3) * x ** 2 + _random_poly(rng, R, 3))]
        basis = std(gens)
        assert fractions(*(p for v in basis.elements for p in v))
        v = (_random_poly(rng, R, 0), _random_poly(rng, R, 0))
        assert fractions(*vector_normal_form(v, basis))


def test_certificates_agree_with_membership_on_monomial_ideals():
    # local ideals with a monomial generator; the tracked and the untracked
    # normal form must decide membership alike, and each certificate must
    # satisfy u*p = sum c_i*g_i with u a unit.  The members take one-term
    # cofactors: with random polynomial cofactors some certificates swell
    # past minutes (see CHANGES.md)
    rng = random.Random(13)
    R = ring("x", "y", local=True)
    x, y = R.gens()
    decided = {True: 0, False: 0}
    for _ in range(40):
        gens = [R.monomial((rng.randint(1, 3), rng.randint(0, 2))),
                y ** rng.randint(2, 4) + _random_poly(rng, R, 2),
                _random_poly(rng, R, 1)]
        gens = [g for g in gens if not g.is_zero()]
        basis = std(gens)
        member = sum((R.monomial((rng.randint(0, 2), rng.randint(0, 2)),
                                 Fraction(rng.randint(1, 9), 7)) * g
                      for g in gens), R.zero())
        for p in (member, _random_poly(rng, R, 1), _random_poly(rng, R, 2)):
            if p.is_zero():
                continue
            cert = membership_certificate(p, gens)
            inside = membership(p, basis)
            assert (cert is not None) == inside
            decided[inside] += 1
            if cert is not None:
                u, cof = cert
                assert u.is_unit()
                assert sum((c * g for c, g in zip(cof, gens)),
                           R.zero()) == u * p
    assert decided[True] >= 20 and decided[False] >= 20


# ---------------------------------------------------------------------------
# Saturation against an iterated-quotient reference


def _saturation_reference(gens, f):
    """I : f^infinity as the first I : f^k with I : f^(k+1) inside it."""
    current = gens
    while True:
        nxt = ideal_quotient(current, f)
        basis = std(current)
        if all(membership(g, basis) for g in nxt):
            return current
        current = nxt


def _is_unit_ideal(basis):
    return any(not any(v[0].terms[0][0]) for v in basis.elements)


def _nonzero(draw):
    while (p := draw()).is_zero():
        pass
    return p


def test_saturation_matches_iterated_quotients():
    # f is the sum of two terms of degree <= 2 in each variable with integer
    # coefficients in [-3, 3]; each of the two generators is f^a * p with
    # a <= 2 and p as in _random_poly.  Every iterated quotient stays small;
    # 21 of the 40 saturations are proper ideals.
    rng = random.Random(7)
    for case in range(40):
        R = ring("x", "y", local=case % 2 == 1)
        f = _nonzero(lambda: sum(
            (R.monomial(e, rng.randint(-3, 3))
             for e in [(rng.randint(0, 2), rng.randint(0, 2))
                       for _ in range(2)] if any(e)),
            R.zero()))
        gens = [f ** rng.randint(0, 2) * _nonzero(
            lambda: _random_poly(rng, R, 0)) for _ in range(2)]
        sat, ref = std(saturation(gens, f)), std(_saturation_reference(gens, f))
        if _is_unit_ideal(ref):
            # normal forms against a unit with a long tail are slow
            assert _is_unit_ideal(sat)
            continue
        assert all(membership(g, ref) for g in sat.polys())
        assert all(membership(g, sat) for g in ref.polys())


# ---------------------------------------------------------------------------
# The integer vectors of a StdBasis and the integer product kernel


def test_std_elements_are_the_monic_form_of_its_integer_vectors():
    # std keeps the primitive integer vectors that the pair loop returns;
    # normal forms and dimensions read only them, and the monic Fraction
    # elements are built on first read
    rng = random.Random(53)
    cases = []
    for local in (True, False):
        R = ring("x", "y", local=local)
        x, y = R.gens()
        for _ in range(4):
            cases.append((R, [Fraction(rng.randint(1, 9), 4) * x ** 2
                              + _random_poly(rng, R, 3),
                              y ** 3 + _random_poly(rng, R, 4)]))
    R = ring("x", "y", local=True)
    x, y = R.gens()
    for _ in range(4):
        cases.append((R, [(x ** 2 + _random_poly(rng, R, 3), 3 * y),
                          (y ** 3 + _random_poly(rng, R, 4),
                           Fraction(1, 2) * x),
                          (R.zero(), Fraction(5, 3) * x ** 2
                           + _random_poly(rng, R, 3))]))
    for R, gens in cases:
        basis = std(gens)
        rank = len(basis.vectors[0])
        vector_normal_form((_random_poly(rng, R, 0),) * rank, basis)
        vs_dimension(basis)
        assert "elements" not in vars(basis)
        assert len(basis.elements) == len(basis.vectors)
        for element, v, lead in zip(basis.elements, basis.vectors,
                                    basis.leads):
            c, e, k = lead
            coeffs = [n for p in v for _, n in p.terms]
            assert all(type(n) is int for n in coeffs)
            assert math.gcd(*coeffs) == 1 and k > 0
            assert (c, e, k) == _lt_of(v)
            assert element == tuple(p.scale(Fraction(1, k)) for p in v)
            assert all(type(n) is Fraction
                       for p in element for _, n in p.terms)


def _lt_of(v):
    c = next(i for i, p in enumerate(v) if p.terms)
    return (c, *v[c].terms[0])


def test_std_basis_built_from_given_elements():
    # StdBasis(ring, rank, elements) with Fraction elements that are not
    # monic, as siersma_count builds it: the elements stay as given and
    # dimensions and normal forms agree with std's own basis
    R = ring("x", "y", local=True)
    x, y = R.gens()
    made = std([x ** 2 + Fraction(2, 3) * y ** 3, x * y])
    given = StdBasis(R, 1, [tuple(p.scale(Fraction(-5, 2)) for p in v)
                            for v in made.elements])
    assert given.elements == [(p.scale(Fraction(-5, 2)),)
                              for p in made.polys()]
    assert given.leading_data() == made.leading_data()
    assert vs_dimension(given) == vs_dimension(made) == 5
    p = x ** 3 + Fraction(7, 4) * y ** 4 + x * y ** 2 + 1
    assert normal_form(p, given) == normal_form(p, made)
    dens = [x ** 2, x * y, y ** 3]
    s, gens = colon_submodule([x, y], dens)
    assert vs_dimension(StdBasis(R, s, gens)) == \
        subquotient_dimension([x, y], dens) == 3


def test_poly_product_forms_one_fraction_per_term(monkeypatch):
    # the product scales each operand to integers once and forms one
    # Fraction per term of the result; a term-by-term Fraction product
    # would form one per partial product and one per sum
    R = ring("x", "y", local=True)
    x, y = R.gens()
    p = Fraction(1, 3) + Fraction(-2, 5) * x + Fraction(7, 2) * y
    q = (p + x * y) ** 3
    cases = [(p, q), (q, q), (q, p.scale(6)), (x * y, q), (q, R.const(3))]
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(cls)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    for a, b in cases:
        made.clear()
        product = a * b
        assert len(made) <= len(product.terms)
    made.clear()
    assert Fraction(1, 3) and made


# The kernels of the pair loop against the code they replaced, kept here as
# the references: the same vectors, divisor picks and counts.

def _kernel_rings():
    names = ("x", "y", "z")
    return [ring(*names), ring(*names, local=True),
            ring(*names, local=True, weights=(2, 3, 5)),
            Ring(names, block_ordering((1, 2), (Ordering(),
                                                Ordering(local=True))))]


def _int_poly(rng, R):
    """Zero one time in three, else a few integer terms, sorted by R."""
    if rng.randrange(3) == 0:
        return R.zero()
    return R._from_dict({tuple(rng.randint(0, 3) for _ in range(R.arity)):
                         rng.choice([-7, -2, -1, 1, 3, 4, 9])
                         for _ in range(rng.randint(1, 4))})


def _shifted(p, b, exp):
    return p.ring._from_dict({tuple(map(operator.add, e, exp)): b * c
                              for e, c in p.terms})


def _vec_comb_by_dict(a, v, b, exp, w):
    """a*v - b*x^exp*w with a dict merge and a sort for every component
    where w is nonzero."""
    out = []
    for p, q in zip(v, w):
        if not q.terms:
            out.append(p if a == 1 or not p.terms else
                       Poly(p.ring, tuple([(e, a * c) for e, c in p.terms])))
            continue
        acc = {e: a * c for e, c in p.terms}
        for e, c in q.terms:
            e = tuple(map(operator.add, e, exp))
            c = acc.get(e, 0) - b * c
            if c:
                acc[e] = c
            else:
                del acc[e]
        out.append(q.ring._from_dict(acc))
    return tuple(out)


def test_vec_comb_matches_the_dict_merge():
    rng = random.Random(61)
    zero_shifts = 0
    for R in _kernel_rings():
        for _ in range(150):
            rank = rng.randint(1, 3)
            v = tuple(_int_poly(rng, R) for _ in range(rank))
            w = tuple(_int_poly(rng, R) for _ in range(rank))
            a = rng.choice([1, 1, 2, -3])
            b = rng.choice([1, -1, 2, -5])
            exp = tuple(rng.randint(0, 2) for _ in range(R.arity))
            if rng.randrange(4) == 0:
                # a*v cancels the shift of w in the first component
                v = (_shifted(w[0], Fraction(b, a), exp),) + v[1:]
            zero_shifts += sum(not p.terms and bool(q.terms)
                               for p, q in zip(v, w))
            got = _vec_comb(a, v, b, exp, w)
            want = _vec_comb_by_dict(a, v, b, exp, w)
            assert [(p.ring, p.terms) for p in got] == \
                [(p.ring, p.terms) for p in want]
    assert zero_shifts > 100


def test_divisor_matches_the_least_ecart_of_all_divisors():
    rng = random.Random(67)
    found = missed = 0
    for R in _kernel_rings():
        for _ in range(150):
            rank = rng.randint(1, 3)
            vecs = [v for v in (tuple(_int_poly(rng, R) for _ in range(rank))
                                for _ in range(rng.randint(1, 8)))
                    if _lt(v)]
            leads = [_lt(v) for v in vecs]
            ecarts = [_vec_degree(v) - sum(lead[1])
                      for v, lead in zip(vecs, leads)]
            h = tuple(_int_poly(rng, R) for _ in range(rank))
            if not _lt(h):
                continue
            comp, exp, _ = _lt(h)
            divs = [i for i, (c, e, _) in enumerate(leads)
                    if c == comp and all(map(operator.le, e, exp))]
            want = min(divs, key=ecarts.__getitem__) if divs else -1
            assert _divisor(leads, ecarts, comp, exp) == want
            found += want >= 0
            missed += want < 0
    assert found > 50 and missed > 50


def _box_count(stdbasis):
    """Standard monomials of every component counted one by one in the box
    under the pure powers."""
    n = stdbasis.ring.arity
    stair = stdbasis.leading_data()
    total = 0
    for comp in range(stdbasis.rank):
        exps = stair.get(comp, [])
        if any(not any(e) for e in exps):
            continue
        bounds = []
        for i in range(n):
            pures = [e[i] for e in exps if sum(e) == e[i]]
            if not pures:
                return INFINITE
            bounds.append(min(pures))
        for mono in itertools.product(*(range(b) for b in bounds)):
            if not any(all(a <= b for a, b in zip(e, mono)) for e in exps):
                total += 1
    return total


def test_vs_dimension_matches_the_box_count():
    rng = random.Random(71)
    kinds = set()
    for _ in range(300):
        n = rng.randint(1, 3)
        rank = rng.randint(1, 2)
        R = ring(*"xyz"[:n], local=rng.random() < 0.5)
        exps = []
        for c in range(rank):
            if rng.random() < 0.8:
                exps += [(c, tuple(rng.randint(1, 5) if j == i else 0
                                   for j in range(n))) for i in range(n)]
            if rng.random() < 0.05:
                exps.append((c, (0,) * n))
            exps += [(c, tuple(rng.randint(0, 4) for _ in range(n)))
                     for _ in range(rng.randint(0, 5))]
        stdbasis = StdBasis(R, rank, [
            tuple(R.monomial(e) if j == c else R.zero() for j in range(rank))
            for c, e in exps])
        want = _box_count(stdbasis)
        assert vs_dimension(stdbasis) == want
        kinds.add((n, rank, want is INFINITE))
    assert len(kinds) == 12
