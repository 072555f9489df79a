"""Image equations, Milnor numbers, Siersma counts, Jacobian modules."""

import random
import time
from fractions import Fraction

import pytest

from frontal_kernel import (INFINITE, InvariantError, Limits, LogField,
                            M_F_dimension, ResourceLimitError, associates,
                            conductor_colength, frontal_codimension,
                            frontal_milnor_siersma, good_equation, germ,
                            hat_M_dimension, image_equation, milnor_number,
                            piene_lambda, plane_curve_invariants, ring,
                            quasihomogeneous_weights,
                            samuel_multiplicity_estimate, siersma_count,
                            unfolding, unfolding_image_equation,
                            meets_origin_again, value_semigroup)
from frontal_kernel import basis, cli, germfile, invariants
from frontal_kernel.basis import (eliminate, membership_certificate, std,
                                  subquotient_dimension, vs_dimension)
from frontal_kernel.invariants import _ae_dimension_at_order, _graph_ideal


def test_image_equation_e6(e6):
    img = image_equation(e6)
    R = img.ring
    y1, y2 = R.var(0), R.var(1)
    assert img.equation == y2 ** 3 - y1 ** 4


def test_image_equation_limits_not_shared(e6):
    # a result kept under the default limits is not returned under a degree
    # limit below the image's degree of 4
    img = image_equation(e6)
    with pytest.raises(ResourceLimitError):
        image_equation(e6, Limits(max_degree=3))
    assert image_equation(e6) is img


def test_image_determinant_of_size_12_is_fast():
    # (x^12, x^13 + x^14) is a 12 x 12 characteristic determinant, which a
    # Leibniz expansion over the 12! permutations would not finish
    R = ring("x", local=True)
    x = R.var(0)
    f = germ(R, x ** 12, x ** 13 + x ** 14)
    start = time.perf_counter()
    img = image_equation(f)
    assert time.perf_counter() - start < 2
    _, (ref,) = eliminate(*_graph_ideal(f.components, ("y1", "y2")))
    assert img.equation == ref.monic().map_to(img.ring)


def test_image_equation_cuspidal_edge(cuspidal_edge):
    img = image_equation(cuspidal_edge)
    R = img.ring
    Y, Z = R.var(1), R.var(2)
    assert img.equation == Z ** 2 - Y ** 3


def test_image_equation_folded_umbrella(folded_umbrella):
    img = image_equation(folded_umbrella)
    R = img.ring
    X, Y, Z = R.var(0), R.var(1), R.var(2)
    assert img.equation == Z ** 2 - X ** 2 * Y ** 3


def test_image_equation_multigerm_dedup():
    # two branches with the same image produce one reduced factor
    from frontal_kernel import multigerm
    R = ring("x", local=True)
    x = R.var(0)
    f = multigerm(R, [x ** 2, x ** 3], [x ** 2, -(x ** 3)])
    img = image_equation(f)
    y1, y2 = img.ring.var(0), img.ring.var(1)
    # the image is the union: (y2^2 - y1^3) for each branch, but the two
    # branches differ, so the product of the distinct reduced factors appears
    pulled = img.equation.substitute([x ** 2, x ** 3], R)
    assert pulled.is_zero()


def test_milnor_numbers(e6, cusp):
    assert milnor_number(image_equation(e6).equation) == 6
    assert milnor_number(image_equation(cusp).equation) == 2
    R = ring("x", "y", local=True)
    assert milnor_number(R.var(0) ** 2) is INFINITE


def test_siersma_frontal_stabilisation(e6_unfolding):
    res = frontal_milnor_siersma(e6_unfolding)
    assert res.value == 1
    assert len(res.witnesses) == 2


def test_siersma_nonfrontal_stabilisation(e6_nonfrontal_unfolding):
    res = frontal_milnor_siersma(e6_nonfrontal_unfolding)
    assert res.value == 3


def test_siersma_single_values(e6_unfolding):
    assert siersma_count(e6_unfolding, 1) == 1
    assert siersma_count(e6_unfolding, 2) == 1


def test_siersma_trivial_unfolding(cuspidal_edge):
    R = ring("x", "y", "t", local=True)
    x, y = R.var(0), R.var(1)
    U = unfolding(cuspidal_edge, ["t"], [x, y ** 2, y ** 3])
    assert frontal_milnor_siersma(U).value == 0


def test_good_equation_certificate(e6_unfolding, cusp_unfolding):
    for U in (e6_unfolding, cusp_unfolding):
        ge = good_equation(U)
        assert ge.verify_certificate()
        assert not ge.augmented


def test_computed_good_equation_takes_no_gcd(monkeypatch):
    # the unfolding image equation is irreducible by construction; only an
    # explicit good_equation statement is tested for squarefreeness
    def refuse(*args):
        raise AssertionError("squarefree test of a computed equation")
    monkeypatch.setattr(invariants, "is_squarefree", refuse)
    for name in ("cusp", "e6", "infinite_mf"):
        text = (cli._corpus_dir() / f"{name}.germ").read_text(encoding="utf-8")
        U, = germfile.parse(text).unfoldings.values()
        ge = good_equation(U)
        assert not ge.augmented and ge.verify_certificate()


def test_good_equation_matches_the_membership_reference():
    # seeded 1-parameter unfoldings (x^a, x^b + c x^(b+1) + al t x^k
    # + be t^2 x^m): G needs the added parameter exactly when G is not in
    # J(G) by a membership certificate, and every certificate is a field
    # sending G to unit * G
    R = ring("x", local=True)
    x = R.var(0)
    S = ring("x", "t", local=True)
    xs, t = S.gens()
    rng = random.Random(9)
    kinds = set()
    for _ in range(8):
        a, b = rng.choice([(2, 3), (2, 5), (3, 4)])
        c = rng.choice((0, 0, -1, 1, 2))
        k, m = rng.randint(1, b - 1), rng.randint(1, b)
        al, be = rng.choice((-2, -1, 1, 2, 3)), rng.choice((0, 1))
        base = germ(R, x ** a, x ** b + (x ** (b + 1)).scale(c))
        U = unfolding(base, ["t"], [
            xs ** a, xs ** b + (xs ** (b + 1)).scale(c)
            + (t * xs ** k).scale(al) + (t * t * xs ** m).scale(be)])
        ge = good_equation(U)
        G = unfolding_image_equation(U)
        cert = membership_certificate(G, [G.diff(i)
                                          for i in range(G.ring.arity)])
        assert ge.augmented == (cert is None)
        assert ge.verify_certificate()
        assert LogField(ge.cofactors, ge.unit).verify(ge.G)
        if cert is not None:
            u, cof = cert
            assert LogField(tuple(cof), u).verify(G)
        kinds.add((quasihomogeneous_weights(G) is not None, ge.augmented))
    # the weighted Euler field, a membership certificate and the added
    # parameter all occur
    assert kinds == {(True, False), (False, False), (False, True)}


def test_good_equation_restriction(e6_unfolding):
    ge = good_equation(e6_unfolding)
    R = ge.ring
    images = [R.var(i) for i in range(ge.y_count)] + \
             [R.const(0)] * (R.arity - ge.y_count)
    restricted = ge.G.substitute(images, R)
    assert associates(restricted.map_to(ge.base_equation.ring),
                      ge.base_equation)


def test_M_F_and_codim(e6_unfolding, cusp_unfolding):
    ge6 = good_equation(e6_unfolding)
    assert M_F_dimension(ge6) == 1
    assert frontal_codimension(ge6) == 1
    gcu = good_equation(cusp_unfolding)
    assert M_F_dimension(gcu) == 0
    assert frontal_codimension(gcu) == 0


def test_codim_le_M_F(e6_unfolding, cusp_unfolding):
    for U in (e6_unfolding, cusp_unfolding):
        ge = good_equation(U)
        assert frontal_codimension(ge) <= M_F_dimension(ge)


def test_M_F_infinite():
    R = ring("x", "y", local=True)
    x, y = R.var(0), R.var(1)
    base = germ(R, x, y ** 2, y ** 7 + x ** 7 * y ** 5)
    S = ring("x", "y", "t", local=True)
    xs, ys, ts = S.var(0), S.var(1), S.var(2)
    U = unfolding(base, ["t"],
                  [xs, ys ** 2, ys ** 7 + xs ** 7 * ys ** 5 + ts * ys ** 3])
    ge = good_equation(U)
    assert M_F_dimension(ge) is INFINITE
    assert frontal_codimension(ge) is INFINITE


def test_samuel_equals_siersma(e6_unfolding, cusp_unfolding):
    for U in (e6_unfolding, cusp_unfolding):
        ge = good_equation(U)
        est = samuel_multiplicity_estimate(ge)
        assert est.window is not None and len(est.window) == 3
        assert est.value == frontal_milnor_siersma(U).value


def test_hat_M(cuspidal_edge, folded_umbrella, e6):
    assert hat_M_dimension(cuspidal_edge) == 0
    assert hat_M_dimension(folded_umbrella) == 1
    assert hat_M_dimension(e6) == 1


def test_hat_M_takes_no_containment_check(monkeypatch, cuspidal_edge,
                                          folded_umbrella, e6):
    # dg/dy(y) are generators of the eliminated ideal, so J(g) lies in the
    # preimage by construction and no membership is tested
    def refuse(*args):
        raise AssertionError("containment check in hat_M")
    monkeypatch.setattr(basis, "membership", refuse)
    assert [hat_M_dimension(f)
            for f in (cuspidal_edge, folded_umbrella, e6)] == [0, 1, 1]


def _hat_M_from_pullbacks(f):
    """Reference: the preimage of J(g) eliminated from (y - f(x), dg/dy o f)."""
    image = image_equation(f)
    partials = [p for p in (image.equation.diff(i)
                            for i in range(image.ring.arity))
                if not p.is_zero()]
    pullbacks = [p.substitute(list(f.components), f.source) for p in partials]
    _, pre = eliminate(*_graph_ideal(
        f.components, image.ring.names,
        extra=[p for p in pullbacks if not p.is_zero()], local=True))
    return subquotient_dimension([p.map_to(image.ring) for p in pre],
                                 partials)


def test_hat_M_from_dg_of_y_matches_the_pullbacks():
    # (y - f(x), dg/dy(y)) and (y - f(x), dg/dy(f(x))) are the same ideal
    rng = random.Random(17)
    R = ring("x", local=True)
    x = R.var(0)
    values = []
    for a, b in ((2, 3), (2, 5), (3, 4), (3, 5), (2, 7)):
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
        for f in (germ(R, x ** a, (x ** b).scale(c)),
                  germ(R, x ** a, x ** b + (x ** (b + 1)).scale(c))):
            values.append(hat_M_dimension(f))
            assert values[-1] == _hat_M_from_pullbacks(f)
    assert set(values) != {0}


def _hat_M_by_the_colon_module(f):
    """Reference: dim preimage/J(g) by the colon module, on every germ."""
    image = image_equation(f)
    partials = [p for p in (image.equation.diff(i)
                            for i in range(image.ring.arity))
                if not p.is_zero()]
    _, pre = eliminate(*_graph_ideal(f.components, image.ring.names,
                                     extra=partials, local=True))
    return subquotient_dimension([p.map_to(image.ring) for p in pre],
                                 partials)


def test_hat_M_by_colengths_matches_the_colon_module(
        corpus_files, cusp, e6, cuspidal_edge, folded_umbrella, f4,
        swallowtail):
    # the count of leading terms of the preimage outside L(J(g)); the colon
    # module as reference on every corpus and fixture germ, on seeded plane
    # curves whose colon module finishes ((x^5, x^6 + c x^7) is one where it
    # does not) and on seeded surfaces (x, y^p, y^q + c x^j y), with two
    # that are not quasihomogeneous and one where both give INFINITE
    rng = random.Random(19)
    R = ring("x", local=True)
    x = R.var(0)
    germs = [f for parsed in corpus_files for f in parsed.maps.values()]
    germs += [cusp, e6, cuspidal_edge, folded_umbrella, f4, swallowtail]
    for a, b in ((2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (3, 7), (4, 5),
                 (4, 7), (3, 8)):
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
        germs += [germ(R, x ** a, (x ** b).scale(c)),
                  germ(R, x ** a, x ** b + (x ** (b + 1)).scale(c))]
    S = ring("x", "y", local=True)
    x, y = S.gens()
    for p, q, j in ((2, 3, 2), (2, 5, 1), (2, 5, 3), (2, 7, 2), (3, 4, 1),
                    (3, 5, 1), (3, 5, 2)):
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
        germs.append(germ(S, x, y ** p, y ** q + (x ** j * y).scale(c)))
    unusual = {germ(S, x, y ** 2, y ** 3 + x ** 2 * y + x ** 3 * y ** 3): 1,
               germ(S, x, y ** 3, y ** 5 + x * y + x ** 2 * y ** 2): 2,
               germ(S, x, y ** 3, y ** 4 + x * y): INFINITE}
    germs += list(unusual)
    finite, values = [], []
    for f in germs:
        values.append(hat_M_dimension(f))
        assert values[-1] == _hat_M_by_the_colon_module(f)
        assert values[-1] == unusual.get(f, values[-1])
        finite.append(milnor_number(image_equation(f).equation) is not INFINITE
                      and values[-1] != 0)
    assert any(finite) and not all(finite)
    surfaces = set(values[-10:])
    assert INFINITE in surfaces and len(surfaces - {INFINITE}) > 2


def test_hat_M_of_the_returning_quintic_by_its_colengths():
    # (x^5, x^6 + x^7): mu = (5 - 1)(6 - 1) = 20 and the preimage of J(g)
    # has colength 14 by a fresh standard basis, so hat_M = 6
    R = ring("x", local=True)
    x = R.var(0)
    f = germ(R, x ** 5, x ** 6 + x ** 7)
    image = image_equation(f)
    assert milnor_number(image.equation) == 20
    partials = [image.equation.diff(i) for i in range(2)]
    _, pre = eliminate(*_graph_ideal(f.components, image.ring.names,
                                     extra=partials, local=True))
    assert vs_dimension(std([p.map_to(image.ring) for p in pre])) == 14
    assert hat_M_dimension(f) == 6


def test_hat_M_with_finite_mu_builds_no_colon_module(monkeypatch, e6,
                                                     folded_umbrella):
    # the basis of J(g) is kept per germ: the mu line and hat_M of the
    # folded umbrella (mu infinite) share one std, and hat_M counts leading
    # terms with no colon module; e6 reads hat_M off its value semigroup
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper
    for name in ("_jacobian_basis", "subquotient_dimension"):
        monkeypatch.setattr(invariants, name,
                            counted(name, getattr(invariants, name)))
    assert invariants.image_milnor_number(image_equation(e6)) == 6
    assert hat_M_dimension(e6) == 1
    assert calls == ["_jacobian_basis"]
    calls.clear()
    assert invariants.image_milnor_number(
        image_equation(folded_umbrella)) is INFINITE
    assert hat_M_dimension(folded_umbrella) == 1
    assert calls == ["_jacobian_basis"]


def test_piene_lambda_and_conductor(cuspidal_edge, e6):
    lam = piene_lambda(cuspidal_edge)
    y = cuspidal_edge.source.var(1)
    assert associates(lam, y ** 2)
    assert conductor_colength(lam) is INFINITE  # source has two variables
    lam6 = piene_lambda(e6)
    x = e6.source.var(0)
    assert associates(lam6, x ** 6)
    assert conductor_colength(lam6) == 6


def test_conductor_colength_is_two_delta(e6, cusp, corpus_files):
    # c = 2*delta on every plane-curve germ of the fixtures and the corpus
    plane = [e6, cusp] + [f for gf in corpus_files
                          for f in gf.maps.values() if f.n == 1]
    assert len(plane) == 5
    for f in plane:
        pc = plane_curve_invariants(f)
        lam = piene_lambda(f)
        assert conductor_colength(lam) == 2 * pc.delta


def test_plane_curve_chain_e6(e6):
    pc = plane_curve_invariants(e6)
    assert (pc.mu, pc.delta, pc.mult) == (6, 3, 3)
    assert pc.mu_image == 3
    assert pc.mu_frontal == 1
    assert pc.codim_ae == 3
    assert pc.codim_fe == 1


def test_plane_curve_chain_cusp(cusp):
    pc = plane_curve_invariants(cusp)
    assert (pc.mu, pc.delta, pc.mult) == (2, 1, 2)
    assert pc.mu_image == 1
    assert pc.mu_frontal == 0
    assert pc.codim_ae == 1
    assert pc.codim_fe == 0


@pytest.mark.parametrize("a, b, delta", [
    (2, 3, 1), (2, 5, 2), (3, 4, 3), (2, 7, 3), (3, 5, 4), (3, 7, 6),
    (4, 5, 6), (3, 8, 7), (4, 7, 9), (5, 6, 10)])
def test_codim_ae_equals_delta_quasihomogeneous(a, b, delta):
    # Mond (Looking at bent wires, 1995): codim_Ae <= delta for a plane
    # curve, with equality exactly for the quasihomogeneous ones
    R = ring("x", local=True)
    x = R.var(0)
    pc = plane_curve_invariants(germ(R, x ** a, x ** b))
    assert pc.delta == delta == (a - 1) * (b - 1) // 2
    assert pc.codim_ae == delta


def test_codim_ae_below_delta_not_quasihomogeneous():
    R = ring("x", local=True)
    x = R.var(0)
    for f in (germ(R, x ** 3, x ** 7 + x ** 8), germ(R, x ** 4, x ** 5 + x ** 7)):
        pc = plane_curve_invariants(f)
        assert (pc.codim_ae, pc.delta) == (5, 6)


def _ae_dimension_dense(f, N):
    # the unpruned construction: x^i * f' for every i < N and the untruncated
    # p^a * q^b for every a + b <= N, ranked by sympy
    import sympy
    B = len(f.branches)
    rows = []

    def add_row(entries):
        row = [Fraction(0)] * (2 * N * B)
        for b, comp, p in entries:
            for e, c in p.terms:
                if e[0] < N:
                    row[(2 * b + comp) * N + e[0]] += c
        rows.append(row)
    for b, (p, q) in enumerate(f.branches):
        for i in range(N):
            mono = p.ring.monomial((i,))
            add_row([(b, 0, mono * p.diff(0)), (b, 1, mono * q.diff(0))])
    for a in range(N + 1):
        for e in range(N + 1 - a):
            prods = [(b, p ** a * q ** e) for b, (p, q) in enumerate(f.branches)]
            add_row([(b, 0, m) for b, m in prods])
            add_row([(b, 1, m) for b, m in prods])
    matrix = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator)
                            for c in row] for row in rows])
    return 2 * N * B - matrix.rank()


@pytest.mark.parametrize("N", [8, 12, 16])
def test_ae_jet_rows_pruned_match_dense(N, e6, cusp):
    from frontal_kernel import multigerm
    R = ring("x", local=True)
    x = R.var(0)
    germs = [cusp, e6, germ(R, x ** 3, x ** 7 + x ** 8),
             # ord p^a q^b differs between the branches
             multigerm(R, [x, x ** 3], [x ** 2, x ** 3])]
    for f in germs:
        assert _ae_dimension_at_order(f, N) == _ae_dimension_dense(f, N)


def test_plane_curve_immersion():
    R = ring("x", local=True)
    x = R.var(0)
    f = germ(R, x, x ** 2)
    pc = plane_curve_invariants(f)
    assert (pc.mu, pc.delta, pc.mu_frontal, pc.codim_ae, pc.codim_fe) == \
        (0, 0, 0, 0, 0)


def test_unfolding_validation(e6):
    R = ring("x", "t", local=True)
    x, t = R.var(0), R.var(1)
    with pytest.raises(InvariantError):
        # restricting to t = 0 does not recover the base germ
        unfolding(e6, ["t"], [x ** 3 + x, x ** 4])


def _value_semigroup_germs():
    """Seeded plane branches that do not pass through the origin again,
    with (x^4, x^6 + x^7), whose orders are not coprime: S = <4, 6, 13>."""
    rng = random.Random(23)
    R = ring("x", local=True)
    x = R.var(0)
    germs = [germ(R, x ** 4, x ** 6 + x ** 7)]
    for a, b in ((2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (3, 7), (4, 5),
                 (4, 7), (3, 8)):
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
        germs += [germ(R, x ** a, (x ** b).scale(c)),
                  germ(R, x ** b + (x ** (b + 1)).scale(c), x ** a)]
    return germs


def test_value_semigroup_matches_the_global_routes():
    # where the branch does not return to the origin, its global image
    # equation is its local one, so the Jacobian std, the conductor std and
    # the colon module each give the semigroup's number
    for f in _value_semigroup_germs():
        assert not meets_origin_again(f)
        S = value_semigroup(f)
        assert S.conductor == 2 * S.delta
        assert S.conductor == milnor_number(image_equation(f).equation)
        assert S.conductor == conductor_colength(piene_lambda(f))
        assert S.delta - S.multiplicity + 1 == hat_M_dimension(f) \
            == _hat_M_by_the_colon_module(f)
        pc = plane_curve_invariants(f)
        assert (pc.mu, pc.delta, pc.mult) == (S.conductor, S.delta,
                                              S.multiplicity)


def test_value_semigroup_of_non_coprime_orders():
    R = ring("x", local=True)
    x = R.var(0)
    S = value_semigroup(germ(R, x ** 4, x ** 6 + x ** 7))
    assert S.values == (0, 4, 6, 8, 10, 12, 13, 14)
    assert (S.conductor, S.delta, S.multiplicity) == (16, 8, 4)


@pytest.mark.parametrize("a, b", [(1, 2), (2, 3), (2, 9), (3, 5), (4, 9),
                                  (5, 7), (7, 4)])
def test_value_semigroup_of_coprime_monomials(a, b):
    # Zariski: gcd(a, b) = 1 gives S = <a, b>, so delta = (a - 1)(b - 1)/2
    R = ring("x", local=True)
    x = R.var(0)
    S = value_semigroup(germ(R, x ** a, x ** b))
    c = (a - 1) * (b - 1)
    assert S.conductor == c and S.delta == c // 2
    assert S.multiplicity == min(a, b)
    assert S.values == tuple(v for v in range(c)
                             if any((v - i * a) % b == 0
                                    for i in range(v // a + 1)))


def test_generic_degree_two_keeps_the_image_route():
    # (x^2, x^4 + x^6) factors through x^2: every value is even, S has no
    # conductor, and hat_M comes from the image equation, which is smooth
    R = ring("x", local=True)
    x = R.var(0)
    f = germ(R, x ** 2, x ** 4 + x ** 6)
    assert value_semigroup(f) is None
    assert milnor_number(image_equation(f).equation) == 0
    assert hat_M_dimension(f) == _hat_M_by_the_colon_module(f) == 0
    # r = x + x^2 is no power of x, so only the values below the degree
    # limit show that they stay even
    r = x + x ** 2
    g = germ(R, r ** 2, r ** 4 + r ** 6)
    assert value_semigroup(g, Limits(max_degree=24)) is None


def test_value_semigroup_past_the_degree_limit():
    # (x^5, x^6 + x^7) has conductor 20, which series of degree 10 do not
    # certify
    R = ring("x", local=True)
    x = R.var(0)
    f = germ(R, x ** 5, x ** 6 + x ** 7)
    with pytest.raises(ResourceLimitError, match="value semigroup"):
        value_semigroup(f, Limits(max_degree=10))
    assert value_semigroup(f, Limits(max_degree=24)).conductor == 20


def test_returning_branch_meets_the_origin_again():
    # (x^2 + x^3, x^3 + x^4) = (1 + x)(x^2, x^3) maps x = -1 to the origin
    # too: its global image equation has two branches there, the germ one
    R = ring("x", local=True)
    x = R.var(0)
    f = germ(R, x ** 2 + x ** 3, x ** 3 + x ** 4)
    assert meets_origin_again(f)
    S = value_semigroup(f)
    assert (S.conductor, S.delta, S.multiplicity) == (2, 1, 2)
    assert milnor_number(image_equation(f).equation) == 5
    assert plane_curve_invariants(f).mu == 2
    assert hat_M_dimension(f) == 0
