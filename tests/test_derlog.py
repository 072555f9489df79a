"""Logarithmic vector fields and Saito's freeness test."""

import pytest

from frontal_kernel import (DerlogError, StdBasis, associates, derlog,
                            epsilon_split, image_equation, is_free_divisor,
                            ring, syzygies, vs_dimension)
from frontal_kernel.basis import colon_submodule
from frontal_kernel.derlog import commutator, is_logarithmic


def test_cuspidal_edge_image_is_free(cuspidal_edge):
    g = image_equation(cuspidal_edge).equation
    der = derlog(g)
    assert len(der.generators) == 3
    for field in der.generators:
        assert field.verify(g)
    report = is_free_divisor(g, derivations=der)
    assert report.free
    assert associates(report.determinant.monic(), g.monic())


def test_plane_cusp_is_free(cusp):
    g = image_equation(cusp).equation
    report = is_free_divisor(g)
    assert report.free
    assert report.generator_count == 2


def test_a1_cone_is_not_free():
    # an isolated surface singularity is never a free divisor
    R = ring("X", "Y", "Z", local=True)
    X, Y, Z = R.gens()
    g = X ** 2 + Y ** 2 + Z ** 2
    report = is_free_divisor(g)
    assert not report.free
    assert report.generator_count > 3


def test_fermat_cubic_is_not_free():
    R = ring("X", "Y", "Z", local=True)
    X, Y, Z = R.gens()
    report = is_free_divisor(X ** 3 + Y ** 3 + Z ** 3)
    assert not report.free


def test_swallowtail_discriminant_is_free(swallowtail):
    g = image_equation(swallowtail).equation
    report = is_free_divisor(g)
    assert report.free


def test_epsilon_split(cuspidal_edge):
    g = image_equation(cuspidal_edge).equation
    (unit, coeffs), kernel = epsilon_split(g)
    assert unit.is_unit()
    acc = g.ring.zero()
    for c in range(len(coeffs)):
        acc = acc + coeffs[c] * g.diff(c)
    assert acc == unit * g
    for field in kernel:
        assert field.apply(g).is_zero()


def test_commutator_is_logarithmic(cuspidal_edge):
    g = image_equation(cuspidal_edge).equation
    der = derlog(g)
    gens = der.generators
    for a in gens:
        for b in gens:
            assert is_logarithmic(g, commutator(a, b))


def test_normal_crossings_free():
    R = ring("X", "Y", local=True)
    X, Y = R.gens()
    report = is_free_divisor(X * Y)
    assert report.free


def test_free_divisor_unit_is_local():
    # every plane curve is free (Saito); here det = (-3/2 - 2*y1*y2)*g, a
    # unit of the local ring times g but not a constant times g
    R = ring("y1", "y2", local=True)
    y1, y2 = R.gens()
    g = y2 ** 2 - y1 ** 3 - y1 ** 4 * y2
    report = is_free_divisor(g)
    assert report.free
    assert report.generator_count == 2
    assert not associates(report.determinant, g)


def test_derlog_requires_local_ring():
    R = ring("X", "Y")
    with pytest.raises(DerlogError):
        derlog(R.var(0) * R.var(1))


def test_derlog_count_is_nakayama_count_on_corpus_images(corpus_files):
    # M is spanned by the fields of the syzygies of (dg/dy_1..dg/dy_m, g);
    # a minimal generating set of M has dim M/mM elements, counted here as
    # the colength of the presentation of M/mM
    counts = []
    for parsed in corpus_files:
        g = image_equation(parsed.maps["f"]).equation
        R = g.ring
        m = R.arity
        raw = [v[:m] for v in syzygies([g.diff(i) for i in range(m)] + [g])
               if any(not c.is_zero() for c in v[:m])]
        s, gens = colon_submodule(raw, (), times=R.gens())
        der = derlog(g)
        assert len(der.generators) == vs_dimension(StdBasis(R, s, gens))
        assert all(field.verify(g) for field in der.generators)
        counts.append(len(der.generators))
    # cusp, cuspidal edge (dg/dX = 0), e6, e6_nonfrontal, f4, folded
    # umbrella, infinite_mf, swallowtail
    assert counts == [2, 3, 2, 2, 4, 4, 4, 3]
