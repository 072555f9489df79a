"""Generating families of wave fronts and their discriminants."""

from fractions import Fraction

import pytest

from frontal_kernel import (GenFamError, associates, critical_set_certificate,
                            discriminant, generating_family_of, germ,
                            image_equation, membership, ring, std,
                            verify_discriminant_equals_image)


def test_cuspidal_edge_family(cuspidal_edge):
    fam = generating_family_of(cuspidal_edge)
    assert fam.k == 1
    assert critical_set_certificate(fam)
    assert verify_discriminant_equals_image(cuspidal_edge, fam)


def test_e6_family(e6):
    fam = generating_family_of(e6)
    assert critical_set_certificate(fam)
    assert verify_discriminant_equals_image(e6, fam)


def test_cusp_family(cusp):
    fam = generating_family_of(cusp)
    assert critical_set_certificate(fam)
    assert verify_discriminant_equals_image(cusp, fam)


def test_swallowtail_family(swallowtail):
    fam = generating_family_of(swallowtail)
    assert critical_set_certificate(fam)
    assert verify_discriminant_equals_image(swallowtail, fam)


def test_discriminant_matches_image_directly(cuspidal_edge):
    fam = generating_family_of(cuspidal_edge)
    disc = discriminant(fam)
    img = image_equation(cuspidal_edge)
    assert associates(disc.equation.map_to(img.ring), img.equation)


def test_corrupted_family_rejected(cuspidal_edge):
    import dataclasses
    fam = generating_family_of(cuspidal_edge)
    y = fam.ring.var(fam.n - 1)
    bad_h = fam.hprime + y ** 3
    comps = fam.components[:-1] + (bad_h,)
    bad = dataclasses.replace(fam, hprime=bad_h, components=comps)
    assert not verify_discriminant_equals_image(cuspidal_edge, bad)


def test_immersion_has_no_family_parameters():
    R = ring("x", local=True)
    x = R.var(0)
    f = germ(R, x, x ** 2)
    fam = generating_family_of(f)
    assert fam.k == 0
    assert critical_set_certificate(fam)
    assert verify_discriminant_equals_image(f, fam)


@pytest.mark.parametrize("sheared", [True, False], ids=["shear", "swap"])
def test_discriminant_in_the_germ_target_coordinates(sheared):
    # (x, y^2 + x, y^3) and (x, y^3, y^2) are cuspidal edges with the
    # prenormal form (x, y^2, y^3): its target coordinates are a shear of
    # f's, or f's with the last two swapped
    R = ring("x", "y", local=True)
    x, y = R.gens()
    f = (germ(R, x, y ** 2 + x, y ** 3) if sheared
         else germ(R, x, y ** 3, y ** 2))
    fam = generating_family_of(f)
    assert critical_set_certificate(fam)
    assert verify_discriminant_equals_image(f, fam)


def _two_std_certificate(fam):
    """Both inclusions by membership in a standard basis of the other
    ideal: the check the substitution u = p replaced."""
    r, n, k = fam.ring, fam.n, fam.k
    crit = [fam.hprime.diff(n - k + j) for j in range(k)]
    crit = [c for c in crit if not c.is_zero()]
    graph = [r.var(n + i) - fam.p[i] for i in range(k)]
    cb, gb = std(crit), std(graph)
    return (all(membership(g, cb) for g in graph)
            and all(membership(c, gb) for c in crit))


def test_critical_set_certificate_refuses_a_wrong_family(cuspidal_edge):
    import dataclasses
    fam = generating_family_of(cuspidal_edge)
    x, y, u = fam.ring.gens()
    assert fam.p == (y ** 2,)
    assert critical_set_certificate(fam) and _two_std_certificate(fam)
    # a p-block off the critical set: dh'/dy = 3/2 (u - y^2) is not zero
    # at u = y^2 + y^3
    wrong_p = dataclasses.replace(fam, p=(y ** 2 + y ** 3,))

    def with_hprime(hprime):
        return dataclasses.replace(
            fam, hprime=hprime, components=fam.components[:-1] + (hprime,))

    # dh'/dy = 2y (u - y^2) vanishes on the graph but does not generate
    # its ideal; dh'/dy = 1 + u generates more than it
    too_small = with_hprime(y ** 2 * u - (y ** 4).scale(Fraction(1, 2)))
    too_large = with_hprime(y + y * u)
    for bad in (wrong_p, too_small, too_large):
        assert critical_set_certificate(bad) is False
        assert _two_std_certificate(bad) is False
