"""Randomized algebraic-identity and invariance properties (fixed seeds)."""

import random
from fractions import Fraction

from frontal_kernel import (associates, germ, image_equation, is_frontal,
                            membership, milnor_number, normal_form,
                            plane_curve_invariants, ring, std, eliminate,
                            vs_dimension)
from frontal_kernel.germs import compose_linear, poly_det


def random_poly(rng, R, max_terms=4, max_deg=4, min_order=0):
    p = R.zero()
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_deg) for _ in range(R.arity))
        if sum(exp) < min_order:
            continue
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        p = p + R.monomial(exp, c)
    return p


def test_leibniz_rule():
    rng = random.Random(11)
    R = ring("x", "y", "z", local=True)
    for _ in range(200):
        p = random_poly(rng, R)
        q = random_poly(rng, R)
        i = rng.randrange(3)
        assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)


def test_substitution_is_a_homomorphism():
    rng = random.Random(12)
    R = ring("x", "y", local=True)
    S = ring("s", "t", local=True)
    for _ in range(60):
        p = random_poly(rng, R)
        q = random_poly(rng, R)
        images = [random_poly(rng, S, max_deg=2), random_poly(rng, S, max_deg=2)]
        assert (p + q).substitute(images, S) == \
            p.substitute(images, S) + q.substitute(images, S)
        assert (p * q).substitute(images, S) == \
            p.substitute(images, S) * q.substitute(images, S)


def test_normal_form_idempotent_random():
    rng = random.Random(13)
    R = ring("x", "y", local=True)
    for _ in range(30):
        gens = [random_poly(rng, R, min_order=1) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        basis = std(gens)
        p = random_poly(rng, R)
        nf = normal_form(p, basis)
        assert normal_form(nf, basis) == nf
        assert membership(p - nf, basis)


def test_elimination_sound_on_points():
    # any eliminant must vanish on the parametrized points
    rng = random.Random(14)
    R = ring("t", "a", "b")
    t = R.var(0)
    for _ in range(10):
        c2 = rng.randint(1, 3)
        c3 = rng.randint(1, 3)
        gens = [R.var(1) - t ** 2 * R.const(c2), R.var(2) - t ** 3 * R.const(c3)]
        sub, out = eliminate(gens, [0])
        for g in out:
            if g.is_zero():
                continue
            for val in (Fraction(1), Fraction(-2), Fraction(1, 2)):
                a = c2 * val ** 2
                b = c3 * val ** 3
                total = Fraction(0)
                for exp, coeff in g.terms:
                    total += coeff * a ** exp[0] * b ** exp[1]
                assert total == 0


def test_frontality_witness_on_random_plane_curves():
    # q' = h * p' by construction, so the ramification ideal is (p')
    rng = random.Random(15)
    R = ring("x", local=True)
    x = R.var(0)
    done = 0
    while done < 50:
        a = rng.randint(2, 5)
        p = x ** a
        for _ in range(rng.randint(0, 2)):
            p = p + (x ** rng.randint(a + 1, a + 4)).scale(
                Fraction(rng.randint(-3, 3)))
        h = random_poly(rng, R, max_terms=3, max_deg=3)
        if h.is_zero():
            continue
        # q = "integral" of h * p' term by term
        integrand = h * p.diff(0)
        q = R.from_terms(((e[0] + 1,), c / (e[0] + 1))
                         for e, c in integrand.terms)
        if q.order() <= p.order():
            continue
        f = germ(R, p, q)
        flag, witnesses = is_frontal(f)
        assert flag
        w = witnesses[0]
        pprime = p.diff(0)
        assert membership(pprime, std([w])) and membership(w, std([pprime]))
        done += 1


def test_frontality_invariant_under_linear_changes(e6, cuspidal_edge, f4):
    rng = random.Random(16)

    def random_invertible(n):
        while True:
            m = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                 for _ in range(n)]
            # quick determinant check via the polynomial helper
            R = ring(*[f"z{i}" for i in range(n)])
            det = poly_det([[R.const(c) for c in row] for row in m])
            if not det.is_zero():
                return m

    def unipotent(n):
        # upper-triangular shears: invertible, and they keep the local
        # standard-basis computations on the negative example tractable
        return [[Fraction(1) if i == j else
                 Fraction(rng.randint(-2, 2)) if i < j else Fraction(0)
                 for j in range(n)] for i in range(n)]

    for f, expected, make, trials in ((e6, True, random_invertible, 8),
                                      (cuspidal_edge, True, random_invertible, 8),
                                      (f4, False, unipotent, 4)):
        n = f.n
        for _ in range(trials):
            sc = make(n)
            tc = make(n + 1)
            g = compose_linear(f, sc, tc)
            assert is_frontal(g)[0] == expected


def test_image_equation_scale_invariance(e6):
    # rescaling the target changes the image equation by a unit only
    img = image_equation(e6)
    scaled = compose_linear(
        e6, [[Fraction(1)]],
        [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(3)]])
    img2 = image_equation(scaled)
    # both vanish on the other parametrization after rescaling: compare
    # by pulling back
    x = e6.source.var(0)
    pulled = img2.equation.substitute([c for c in e6.components], e6.source)
    # (2x^3, 3x^4) is the scaled parametrization
    pulled2 = img2.equation.substitute([(x ** 3).scale(2),
                                        (x ** 4).scale(3)], e6.source)
    assert pulled2.is_zero()


def test_plane_curve_formula_consistency():
    # mu = 2*delta - r + 1 and codim_fe = codim_ae - mult + 1 on samples
    R = ring("x", local=True)
    x = R.var(0)
    samples = [
        germ(R, x ** 2, x ** 3),
        germ(R, x ** 2, x ** 5),
        germ(R, x ** 3, x ** 4),
        germ(R, x ** 3, x ** 5),
    ]
    for f in samples:
        pc = plane_curve_invariants(f)
        assert pc.mu == 2 * pc.delta - pc.branch_count + 1
        assert pc.codim_fe == pc.codim_ae - pc.mult + 1
        assert pc.mu_image == pc.delta
        assert pc.mu_frontal == pc.mu_image - pc.mult + 1
        assert pc.mu == milnor_number(pc.equation)


def test_colength_independent_of_variable_order():
    # the colength of a zero-dimensional ideal is intrinsic: permuting the
    # variables (hence changing the monomial ordering's tie-breaks) must not
    # change it.  50 random zero-dimensional ideals.
    from frontal_kernel import vs_dimension
    rng = random.Random(17)
    cases = 0
    while cases < 50:
        R = ring("x", "y", local=True)
        S = ring("y", "x", local=True)
        a, b = rng.randint(2, 5), rng.randint(2, 5)
        gens = [R.var(0) ** a, R.var(1) ** b]
        if rng.random() < 0.7:
            gens.append(random_poly(rng, R, max_terms=3, max_deg=4, min_order=1))
        gens = [g for g in gens if not g.is_zero()]
        d1 = vs_dimension(std(gens))
        d2 = vs_dimension(std([g.map_to(S) for g in gens]))
        assert d1 == d2
        cases += 1


def test_piene_identity_residuals(e6, cusp, cuspidal_edge, folded_umbrella):
    # dg/dy_i o f = (-1)^i lambda * minor_i must hold exactly for every i
    from frontal_kernel import piene_lambda
    from frontal_kernel.germs import poly_det
    for f in (e6, cusp, cuspidal_edge, folded_umbrella):
        img = image_equation(f)
        lam = piene_lambda(f, img)
        g = img.equation
        comps = list(f.components)
        src = f.source
        n = f.n
        rows = [[c.diff(i) for i in range(n)] for c in comps]
        for i in range(n + 1):
            sub = rows[:i] + rows[i + 1:]
            minor = poly_det(sub) if n else src.one()
            sign = Fraction(-1) ** (i + 1)
            residual = g.diff(i).substitute(comps, src) - \
                (lam * minor).scale(sign)
            assert residual.is_zero()


def test_milnor_additivity_on_quasihomogeneous():
    # mu of y2^b - y1^a is (a-1)(b-1)
    for a in range(2, 6):
        for b in range(2, 6):
            R = ring("y1", "y2", local=True)
            g = R.var(1) ** b - R.var(0) ** a
            assert milnor_number(g) == (a - 1) * (b - 1)


def test_machine_report_byte_identical(tmp_path):
    import io
    from frontal_kernel.cli import _run_file, _emit, _limits_from
    from frontal_kernel.basis import Limits
    text = """frontal-kernel v1
ring x;
map f = x^3, x^4;
analyze f frontal image mu plane_curve conductor genfam derlog;
"""
    outputs = []
    for _ in range(2):
        run = _run_file(text, "analyze", Limits())
        buf = io.StringIO()
        _emit(run, "machine", buf)
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]


def test_known_monomials_leave_std_unchanged():
    # std drops every term a single-term generator divides; appending
    # monomials that already lie in the ideal or module must not change
    # the quotient dimension or the ideal
    rng = random.Random(17)
    for local in (True, False):
        R = ring("x", "y", local=local)
        x, y = R.gens()
        for _ in range(12):
            # pure powers lead (locally: lowest order; globally: highest
            # degree), so the quotient is finite and monomials lie in I
            a, b = rng.randint(2, 4), rng.randint(2, 4)
            if local:
                tails = [random_poly(rng, R, 3, 5, min_order=a + 1),
                         random_poly(rng, R, 3, 5, min_order=b + 1)]
            else:
                tails = [random_poly(rng, R, 3, a - 1).jet(a - 1),
                         random_poly(rng, R, 3, b - 1).jet(b - 1)]
            gens = [x ** a + tails[0], y ** b + tails[1],
                    random_poly(rng, R, min_order=1)]
            gens = [g for g in gens if not g.is_zero()]
            basis = std(gens)
            known = [R.monomial((i, j)) for i in range(a + b)
                     for j in range(a + b)
                     if membership(R.monomial((i, j)), basis)]
            assert known
            more = std(gens + rng.sample(known, min(3, len(known))))
            assert vs_dimension(more) == vs_dimension(basis)
            assert all(membership(g, more) for g in gens)
            assert all(membership(g, basis) for g in more.polys())
    # a rank-2 module in the local ring, with known monomial vectors
    R = ring("x", "y", local=True)
    x, y = R.gens()
    zero = R.zero()
    for _ in range(8):
        gens = [(x ** 2 + random_poly(rng, R, 2, 4, min_order=3), y),
                (y ** 3 + random_poly(rng, R, 2, 4, min_order=4), x),
                (zero, x ** 2 + random_poly(rng, R, 2, 4, min_order=3)),
                (zero, y ** 2 + random_poly(rng, R, 2, 4, min_order=3))]
        basis = std(gens)
        known = [tuple(R.monomial((i, j)) if c == k else zero
                       for k in range(2))
                 for c in range(2) for i in range(6) for j in range(6)]
        known = [v for v in known if membership(v, basis)]
        assert known
        more = std(gens + rng.sample(known, min(3, len(known))))
        assert vs_dimension(more) == vs_dimension(basis)
        assert all(membership(g, more) for g in gens)
        assert all(membership(v, basis) for v in more.elements)
