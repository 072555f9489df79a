"""Standard bases, normal forms, dimensions, elimination, quotients."""

import pytest

from frontal_kernel import (INFINITE, Limits, ResourceLimitError, eliminate,
                            ideal_quotient, membership, membership_certificate,
                            normal_form, ring, saturation, std,
                            subquotient_dimension, syzygies, vs_dimension)
from frontal_kernel.germs import min_generators, ramification_ideal
from frontal_kernel.invariants import (M_F_dimension, _relative_module,
                                       frontal_codimension, good_equation)


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


def test_syzygies_vanish():
    R = ring("x", "y", local=True)
    x, y = R.var(0), R.var(1)
    gens = [x ** 2, x * y, y ** 2]
    for v in syzygies(gens):
        acc = R.zero()
        for c, g in zip(v, gens):
            acc = acc + c * g
        assert acc.is_zero()


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


def test_subquotient_dimension():
    R = ring("x", local=True)
    x = R.var(0)
    # <x> / <x^3> has basis x, x^2
    assert subquotient_dimension([x], [x ** 3]) == 2


def test_resource_limit():
    R = ring("x", "y", "z", local=True)
    gens = [R.var(0) ** 7 + R.var(1) ** 8, R.var(1) ** 7 + R.var(2) ** 8,
            R.var(2) ** 7 + R.var(0) ** 8]
    with pytest.raises(ResourceLimitError):
        std(gens, limits=Limits(max_pairs=1))


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
