"""Logarithmic vector fields and Saito's freeness test."""

import importlib
import random
from fractions import Fraction

import pytest

from frontal_kernel import (DerlogError, StdBasis, associates, derlog,
                            epsilon_split, germ, image_equation,
                            is_free_divisor, membership, ring, std, syzygies,
                            vs_dimension)
from frontal_kernel.basis import (DEFAULT_LIMITS, colon_submodule,
                                  minimal_subset)
from frontal_kernel.derlog import (LogField, _prune_minimal, _syzygy_fields,
                                   commutator, is_logarithmic)
from frontal_kernel.germs import min_generators


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


# ---------------------------------------------------------------------------
# Minimal generating subsets against the one-at-a-time pruning


def _prune_one_at_a_time(fields):
    """Reference: drop each field, highest order first, that lies in the
    submodule spanned by the fields still kept (one std and one membership
    per field)."""
    keep = list(range(len(fields)))
    order = sorted(keep, key=lambda i: -min(c.order() for c in fields[i].coeffs
                                            if not c.is_zero()))
    for i in order:
        others = [j for j in keep if j != i]
        if others and membership(
                fields[i].coeffs, std([fields[j].coeffs for j in others])):
            keep = others
    return [fields[i] for i in keep]


def test_pruning_matches_one_at_a_time_on_corpus_images(corpus_files):
    # both field families: Der(-log g) (partials and g) and the kernel of
    # epsilon_split (partials only)
    for parsed in corpus_files:
        g = image_equation(parsed.maps["f"]).equation
        partials = [g.diff(i) for i in range(g.ring.arity)]
        for gens in (partials + [g], partials):
            fields = _syzygy_fields(g, gens, DEFAULT_LIMITS)
            assert (_prune_minimal(fields, DEFAULT_LIMITS)
                    == _prune_one_at_a_time(fields)), str(g)


def _small_term(rng, R):
    """0 or a term of order 1 or 2."""
    exp = rng.choice([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
    return R.monomial(exp, rng.choice([-2, -1, 0, 1, 2, 3]))


def _planted_module(rng, R, rank):
    """Random vectors of the given rank plus planted redundant ones, inserted
    at random places: combinations of the others with coefficients
    c + c'*x_i (units or not) and a variable multiple of one of them."""
    gens = []
    while len(gens) < 3:
        v = tuple(_small_term(rng, R) for _ in range(rank))
        if any(not c.is_zero() for c in v):
            gens.append(v)
    for _ in range(2):
        coef = [R.const(rng.randint(-2, 2))
                + R.var(rng.randint(0, 1)).scale(rng.randint(-2, 2))
                for _ in gens]
        v = tuple(sum((c * g[k] for c, g in zip(coef, gens)), R.zero())
                  for k in range(rank))
        if any(not c.is_zero() for c in v):
            gens.insert(rng.randint(0, len(gens)), v)
    x = R.var(rng.randint(0, R.arity - 1))
    g = rng.choice(gens)
    gens.insert(rng.randint(0, len(gens)), tuple(x * c for c in g))
    return gens


@pytest.mark.parametrize("rank", [1, 2])
def test_pruning_matches_one_at_a_time_on_planted_modules(rank):
    rng = random.Random(14 + rank)
    R = ring("x", "y", local=True)
    for _ in range(12):
        gens = _planted_module(rng, R, rank)
        fields = [LogField(v, R.zero()) for v in gens]
        pruned = _prune_minimal(fields, DEFAULT_LIMITS)
        assert pruned == _prune_one_at_a_time(fields)
        # the three random vectors generate the module
        assert len(pruned) <= 3 < len(fields)
        if rank == 1:
            ideal = [v[0] for v in gens]
            assert min_generators(ideal) == (len(minimal_subset(ideal)), False)


def test_minimal_subset_edge_cases():
    R = ring("x", "y", local=True)
    x, y = R.gens()
    assert minimal_subset([]) == []
    # a zero generator and a multiple of a later one are dropped
    assert minimal_subset([R.zero(), x * y + y ** 3, y, x]) == [2, 3]
    with pytest.raises(ValueError):
        minimal_subset([ring("x", "y").var(0)])
    with pytest.raises(ValueError):
        min_generators([ring("x", "y").one()])


def test_minimal_subset_of_a_principal_ideal_with_long_generators():
    # (y) with 3y fourth: every other generator is a multiple of a later one
    # or lies in m*(y).  A membership test of each generator in the span of
    # the others runs past 10 s here; the one standard basis of N takes ms.
    R = ring("x", "y", local=True)
    x, y = R.gens()
    h = Fraction(1, 2)
    gens = [-6 * y - 4 * x * y - 3 * h * x * y ** 2 - 4 * x * y ** 3
            - 3 * h * x ** 3 * y ** 2 + 4 * x ** 2 * y ** 3,
            3 * h * x * y ** 3,
            -3 * y - 4 * x * y + 3 * x * y ** 2 + Fraction(4, 3) * x ** 3 * y
            + 19 * h * x * y ** 3 + Fraction(4, 3) * x ** 2 * y ** 3
            + 2 * x ** 2 * y ** 4 + Fraction(4, 3) * x ** 2 * y ** 5
            + h * x ** 4 * y ** 4 - Fraction(4, 3) * x ** 3 * y ** 5,
            4 * x * y, 3 * y, 3 * h * x * y ** 2]
    assert minimal_subset(gens) == [4]
    assert min_generators(gens) == (1, False)


def test_epsilon_split_of_a_one_variable_germ_has_no_kernel():
    # one partial has no syzygies: the kernel is empty, not an error
    R = ring("y", local=True)
    y = R.var(0)
    (unit, coeffs), kernel = epsilon_split(y ** 2 + y ** 3)
    assert kernel == []
    assert LogField(coeffs, unit).verify(y ** 2 + y ** 3)


# ---------------------------------------------------------------------------
# The Saito-Cramer certificate against Nakayama's selection


@pytest.fixture
def minimal_subset_calls(monkeypatch):
    """The calls of derlog's minimal_subset, one entry each."""
    calls = []

    def counted(*args):
        calls.append(args)
        return minimal_subset(*args)
    monkeypatch.setattr(importlib.import_module("frontal_kernel.derlog"),
                        "minimal_subset", counted)
    return calls


def _derlog_fields(g):
    return _syzygy_fields(g, [g.diff(i) for i in range(g.ring.arity)] + [g],
                          DEFAULT_LIMITS)


def test_certified_free_basis_is_the_nakayama_selection(
        minimal_subset_calls, cusp, e6, cuspidal_edge, swallowtail):
    # the free divisors of the corpus and seeded (x^a, c x^b): the last m
    # offered fields pass the certificate and are kept with no standard
    # basis, and they are the fields that minimal_subset selects
    rng = random.Random(29)
    R = ring("x", local=True)
    x = R.var(0)
    germs = [cusp, e6, cuspidal_edge, swallowtail]
    for a, b in ((2, 3), (2, 5), (3, 4), (3, 5), (4, 7)):
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
        germs.append(germ(R, x ** a, (x ** b).scale(c)))
    for f in germs:
        g = image_equation(f).equation
        fields = _derlog_fields(g)
        minimal_subset_calls.clear()
        certified = _prune_minimal(fields, DEFAULT_LIMITS, g)
        assert not minimal_subset_calls
        assert len(certified) == g.ring.arity
        assert certified == _prune_minimal(fields, DEFAULT_LIMITS)
        assert len(minimal_subset_calls) == 1


def test_surfaces_and_a_non_reduced_g_take_minimal_subset(
        minimal_subset_calls, folded_umbrella):
    # a surface that is not free fails the certificate, and so does
    # (y1^2 - y2^3)^2, whose fields span Der(-log) of its reduced equation,
    # with determinants a unit times y1^2 - y2^3, not times g
    S = ring("x", "y", local=True)
    x, y = S.gens()
    c = Fraction(random.Random(31).randint(1, 5), 2)
    R = ring("y1", "y2", local=True)
    y1, y2 = R.gens()
    for g in (image_equation(folded_umbrella).equation,
              image_equation(germ(S, x, y ** 2, y ** 5 + (x ** 2 * y).scale(c))
                             ).equation,
              (y1 ** 2 - y2 ** 3) ** 2):
        minimal_subset_calls.clear()
        der = derlog(g)
        assert len(minimal_subset_calls) == 1
        assert list(der.generators) == _prune_minimal(_derlog_fields(g),
                                                      DEFAULT_LIMITS)
    assert len(der.generators) == 2


def test_certificate_needs_the_cramer_divisions():
    # for h = y1^2 - y2^3 and g = h^2, D = (h*E2, E1) has det 36 g, where
    # E1 = 3y1 d/dy1 + 2y2 d/dy2 and E2 = 3y2^2 d/dy1 + 2y1 d/dy2 (det 6h);
    # but y1^2*E2 = (y1^2/h)*(h*E2) is no O-combination of D, so the
    # certificate fails and minimal_subset keeps all three fields
    R = ring("y1", "y2", local=True)
    y1, y2 = R.gens()
    h = y1 ** 2 - y2 ** 3
    e1, e2 = (3 * y1, 2 * y2), (3 * y2 ** 2, 2 * y1)
    fields = [LogField(tuple(y1 ** 2 * c for c in e2), R.zero()),
              LogField(tuple(h * c for c in e2), R.zero()),
              LogField(e1, R.zero())]
    pruned = _prune_minimal(fields, DEFAULT_LIMITS, h ** 2)
    assert pruned == _prune_minimal(fields, DEFAULT_LIMITS) == fields
