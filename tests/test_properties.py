"""Randomized algebraic-identity and invariance properties (fixed seeds)."""

import math
import random
from fractions import Fraction

from frontal_kernel import (INFINITE, associates, exact_divide, germ,
                            image_equation, is_frontal, membership,
                            milnor_number, normal_form,
                            plane_curve_invariants, ring, std, eliminate,
                            vs_dimension)
from frontal_kernel.basis import DEFAULT_LIMITS
from frontal_kernel.germs import compose_linear, poly_det
from frontal_kernel.invariants import _graph_ideal
from frontal_kernel.ring import Ordering, Ring, block_ordering
from frontal_kernel.squarefree import gcd, squarefree_part


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
                                      (f4, False, unipotent, 4),
                                      (f4, False, random_invertible, 8)):
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
        lam = piene_lambda(f)
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


def test_milnor_orlik_on_image_equations(e6, cusp, cuspidal_edge,
                                         folded_umbrella, f4, swallowtail):
    # mu = prod(d/w_i - 1) for a quasihomogeneous isolated singularity
    # (Milnor-Orlik), on every image equation of the corpus and the fixtures
    from frontal_kernel import germfile, quasihomogeneous_weights
    from frontal_kernel.cli import _corpus_dir
    maps = [e6, cusp, cuspidal_edge, folded_umbrella, f4, swallowtail]
    for entry in _corpus_dir().iterdir():
        if entry.name.endswith(".germ"):
            maps += germfile.parse(entry.read_text(encoding="utf-8")).maps.values()
    checked = set()
    for f in maps:
        g = image_equation(f).equation
        qh = quasihomogeneous_weights(g)
        mu = milnor_number(g)
        if qh is None or mu is INFINITE:
            continue
        weights, d = qh[0], qh[1]
        expected = Fraction(1)
        for w in weights:
            expected *= Fraction(d, w) - 1
        assert mu == expected, str(g)
        checked.add(str(g))
    assert checked == {"y2^2 - y1^3", "y2^3 - y1^4"}


def test_machine_report_byte_identical(tmp_path):
    import io
    from frontal_kernel.cli import _run_file, _limits_from
    from frontal_kernel.basis import Limits
    text = """frontal-kernel v1
ring x;
map f = x^3, x^4;
analyze f frontal image mu plane_curve conductor genfam derlog;
"""
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        _run_file(text, "analyze", Limits(), buf)
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


def _to_sympy(p, symbols):
    import sympy
    expr = sympy.Integer(0)
    for e, c in p.terms:
        term = sympy.Rational(c.numerator, c.denominator)
        for s, a in zip(symbols, e):
            if a:
                term *= s ** a
        expr += term
    return expr


def _term_set(polys, symbols):
    """The polynomials as a set of term sets, monic in grevlex."""
    import sympy
    out = set()
    for p in polys:
        q = sympy.Poly(p, *symbols, domain="QQ")
        q = q.quo_ground(q.LC(order="grevlex"))
        out.add(frozenset((e, Fraction(int(c.p), int(c.q)))
                          for e, c in q.terms()))
    return out


def _seeded_ideals(rng, R, count):
    """Ideals of 2-3 generators of a few terms, none with a constant term."""
    for _ in range(count):
        gens = [random_poly(rng, R, 4, 2, min_order=1)
                for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            yield gens


def test_global_std_matches_sympy_groebner():
    # oracle: the reduced, monic grevlex Groebner basis is unique, so std
    # (degree first, ties by reverse lex) must return sympy's basis
    import sympy
    rng = random.Random(23)
    for names in (("x", "y"), ("x", "y", "z")):
        R = ring(*names)
        symbols = sympy.symbols(names)
        for gens in _seeded_ideals(rng, R, 12):
            ours = {frozenset(g.terms) for g in std(gens).polys()}
            theirs = sympy.groebner([_to_sympy(g, symbols) for g in gens],
                                    *symbols, order="grevlex")
            assert ours == _term_set(theirs.exprs, symbols), \
                [str(g) for g in gens]


def test_eliminate_matches_sympy_lex():
    # oracle: the elements of a lex basis free of the eliminated variables
    # generate the elimination ideal; compare both ideals by their reduced
    # grevlex bases in the kept variables.  The graph ideals (y - f(x)) are
    # the library's own use of eliminate.
    import sympy
    rng = random.Random(29)
    cases = []
    for names, elim in ((("x", "y"), [0]), (("x", "y", "z"), [0]),
                        (("x", "y", "z"), [0, 1])):
        cases += [(names, elim, gens)
                  for gens in _seeded_ideals(rng, ring(*names), 6)]
    # plane curves (x -> y1, y2) and surfaces (x, y^2, q(x, y))
    for names, n in ((("x", "y1", "y2"), 1), (("x", "y", "y1", "y2", "y3"), 2)):
        R, src = ring(*names), ring(*names[:n])
        for _ in range(6):
            if n == 1:
                comps = [random_poly(rng, src, 3, 5, min_order=1)
                         for _ in range(2)]
            else:
                comps = [src.var(0), src.var(1) ** 2,
                         random_poly(rng, src, 3, 3, min_order=2)]
            cases.append((names, list(range(n)),
                          [R.var(n + j) - c.map_to(R)
                           for j, c in enumerate(comps)]))
    for names, elim, gens in cases:
        symbols = sympy.symbols(names)
        kept = [s for i, s in enumerate(symbols) if i not in elim]
        _, ours = eliminate(gens, elim)
        lex = sympy.groebner([_to_sympy(g, symbols) for g in gens],
                             *symbols, order="lex")
        theirs = [e for e in lex.exprs
                  if not any(e.has(symbols[i]) for i in elim)]
        ours = [_to_sympy(g, kept) for g in ours]
        if not theirs:
            assert not ours, [str(g) for g in gens]
            continue
        assert _term_set(
            sympy.groebner(ours, *kept, order="grevlex").exprs, kept) == \
            _term_set(sympy.groebner(theirs, *kept, order="grevlex").exprs,
                      kept), [str(g) for g in gens]


def test_image_equations_are_squarefree(e6, cusp, cuspidal_edge,
                                        folded_umbrella, f4, swallowtail,
                                        e6_unfolding, cusp_unfolding,
                                        corpus_files):
    # image equations take no squarefree gcd: each branch eliminant of a
    # prime graph ideal is irreducible, so the product of the distinct ones
    # must already be squarefree
    from frontal_kernel import multigerm, unfolding_image_equation
    from frontal_kernel.squarefree import is_squarefree, squarefree_part
    R = ring("x", local=True)
    x = R.var(0)
    two_branches = multigerm(R, [x ** 2, x ** 3], [x ** 3, x ** 2])
    maps = [e6, cusp, cuspidal_edge, folded_umbrella, f4, swallowtail,
            two_branches]
    maps += [f for gf in corpus_files for f in gf.maps.values()]
    equations = [image_equation(f).equation for f in maps]
    unfoldings = [e6_unfolding, cusp_unfolding]
    unfoldings += [U for gf in corpus_files for U in gf.unfoldings.values()]
    equations += [unfolding_image_equation(U) for U in unfoldings]
    assert (len(maps), len(unfoldings)) == (15, 7)
    for eq in equations:
        assert is_squarefree(eq), str(eq)
        assert squarefree_part(eq) == eq, str(eq)
    assert image_equation(two_branches).equation.total_degree() == 6


def test_std_is_invariant_under_scaling_the_generators():
    # std makes every element primitive over the integers and monic at the
    # end; a content or leading-coefficient slip shows as a changed basis
    rng = random.Random(31)
    factors = (Fraction(22, 7), Fraction(-35, 9), Fraction(121, 13),
               Fraction(-64, 27))

    def scaled(v):
        k = rng.choice(factors)
        return tuple(p.scale(k) for p in v) if isinstance(v, tuple) \
            else v.scale(k)

    def terms(basis):
        return [[p.terms for p in v] for v in basis.elements]

    for local in (True, False):
        R = ring("x", "y", "z", local=local)
        for gens in _seeded_ideals(rng, R, 10):
            assert terms(std([scaled(g) for g in gens])) == terms(std(gens))
    R = ring("x", "y", local=True)
    x, y = R.gens()
    zero = R.zero()
    for _ in range(6):
        gens = [(x ** 2 + random_poly(rng, R, 2, 4, min_order=3), y),
                (y ** 3 + random_poly(rng, R, 2, 4, min_order=4), x),
                (zero, x * y + random_poly(rng, R, 2, 4, min_order=3))]
        assert terms(std([scaled(v) for v in gens])) == terms(std(gens))


def test_gcd_matches_sympy_gcd():
    # oracle: sympy's gcd over Q; both are defined up to a scalar, so they
    # are compared monic.  Products a^k*b and a*c share the factor a, in
    # local and global rings of 2 and 3 variables.  squarefree_part is also
    # checked against the same loop over the partials run on sympy's gcd.
    import sympy
    rng = random.Random(37)

    def draw(R):
        while True:
            p = random_poly(rng, R, 3, 2)
            if not p.is_constant():
                return p

    checked = 0
    for names in (("x", "y"), ("x", "y", "z")):
        symbols = sympy.symbols(names)

        def theirs(p):
            return sympy.Poly(_to_sympy(p, symbols), *symbols, domain="QQ")

        for local in (False, True):
            R = ring(*names, local=local)
            for _ in range(8):
                a, b, c = draw(R), draw(R), draw(R)
                p = a ** rng.randint(2, 3) * b
                q = a * c
                ours = gcd(p, q)
                assert ours.ring is R
                assert theirs(ours).monic() == \
                    theirs(p).gcd(theirs(q)).monic(), (str(p), str(q))
                g = theirs(p)
                for s in symbols:
                    d = theirs(p).diff(s)
                    if not d.is_zero:
                        g = g.gcd(d)
                assert theirs(squarefree_part(p)).monic() == \
                    theirs(p).exquo(g).monic(), str(p)
                checked += 1
    assert checked == 32


def test_global_normal_form_matches_sympy_reduced():
    # oracle: the remainder modulo a Groebner basis is unique (Cox, Little
    # and O'Shea, Ch. 2 section 6), so normal_form against std must equal
    # the remainder of sympy's division by its grevlex basis
    import sympy
    rng = random.Random(43)
    checked = 0
    for names in (("x", "y"), ("x", "y", "z")):
        R = ring(*names)
        symbols = sympy.symbols(names)
        for gens in _seeded_ideals(rng, R, 10):
            basis = std(gens)
            theirs = sympy.groebner([_to_sympy(g, symbols) for g in gens],
                                    *symbols, order="grevlex")
            for _ in range(3):
                p = random_poly(rng, R, 5, 5)
                _, remainder = sympy.reduced(_to_sympy(p, symbols),
                                             theirs.exprs, *symbols,
                                             order="grevlex")
                ours = _to_sympy(normal_form(p, basis), symbols)
                assert sympy.expand(ours - remainder) == 0, \
                    ([str(g) for g in gens], str(p))
                checked += 1
    assert checked == 60


def _nested_key(ordering, exp):
    """The per-block nested key that Ordering.key flattens: the reference
    for its comparisons."""
    if ordering.blocks is not None:
        parts, i = [], 0
        for size, sub in zip(ordering.block_sizes, ordering.blocks):
            parts.append(_nested_key(sub, exp[i:i + size]))
            i += size
        return tuple(parts)
    if ordering.weights is not None:
        deg = sum(w * e for w, e in zip(ordering.weights, exp))
    else:
        deg = sum(exp)
    return (-deg if ordering.local else deg, tuple(-e for e in reversed(exp)))


def _naive_product(p, q):
    """Term-by-term Fraction product of two {exp: coefficient} dicts."""
    acc = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def _naive_substitute(p, images, target):
    acc = {}
    for e, c in p.terms:
        term = {(0,) * target.arity: c}
        for img, a in zip(images, e):
            for _ in range(a):
                term = _naive_product(term, dict(img.terms))
        for e2, c2 in term.items():
            acc[e2] = acc.get(e2, 0) + c2
    return {e: c for e, c in acc.items() if c}


def test_poly_kernels_keep_the_axioms():
    # products, derivatives and substitution run on integer numerators;
    # random operands with negative and non-integral coefficients in
    # global, local, weighted and block rings check them against the ring
    # axioms and term-by-term Fraction references, and every result against
    # the nested ordering key
    from frontal_kernel.ring import Ordering, Ring, block_ordering
    rng = random.Random(61)
    names = ("x", "y", "z")
    half = Fraction(1, 2)
    rings = [
        ring(*names), ring(*names, local=True),
        ring(*names, weights=(1, 2, 3)),
        ring(*names, local=True, weights=(3, half, 2)),
        Ring(names, block_ordering((1, 2),
                                   (Ordering(), Ordering(local=True)))),
        Ring(names, block_ordering((2, 1), (
            block_ordering((1, 1), (Ordering(local=True), Ordering())),
            Ordering(weights=(Fraction(2),))))),
    ]

    def well_formed(p):
        keys = [_nested_key(p.ring.ordering, e) for e, _ in p.terms]
        return (all(a > b for a, b in zip(keys, keys[1:]))
                and all(type(c) is Fraction and c for _, c in p.terms))

    for R in rings:
        exps = [tuple(rng.randint(0, 4) for _ in names) for _ in range(30)]
        for a in exps:
            for b in exps:
                assert (R.ordering.key(a) < R.ordering.key(b)) == \
                    (_nested_key(R.ordering, a) < _nested_key(R.ordering, b))
        assert sorted(exps, key=R.ordering.key) == \
            sorted(exps, key=lambda e: _nested_key(R.ordering, e))
        S = rings[rng.randrange(len(rings))]
        for _ in range(25):
            p, q, r = (random_poly(rng, R, max_terms=5, max_deg=3)
                       for _ in range(3))
            pq = p * q
            assert dict(pq.terms) == _naive_product(dict(p.terms),
                                                    dict(q.terms))
            assert pq == q * p
            assert pq * r == p * (q * r)
            assert p * (q + r) == pq + p * r
            i = rng.randrange(3)
            assert pq.diff(i) == p.diff(i) * q + p * q.diff(i)
            images = [random_poly(rng, S, max_terms=3, max_deg=2)
                      for _ in names]
            images[rng.randrange(3)] = rng.choice(
                [S.zero(), S.const(Fraction(-3, 2)), S.var(0)])
            image = p.substitute(images, S)
            assert dict(image.terms) == _naive_substitute(p, images, S)
            assert all(map(well_formed, (pq, pq * r, p.diff(i), image)))


def _laplace_det(m):
    """det m by Laplace expansion along the first row, in plain Poly
    arithmetic: the reference for the integer Bareiss eliminations."""
    if len(m) == 1:
        return m[0][0]
    acc = m[0][0].ring.zero()
    for j, a in enumerate(m[0]):
        term = a * _laplace_det([row[:j] + row[j + 1:] for row in m[1:]])
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _kernel_rings(n):
    """Global, local, weighted (global and local) and block rings in n
    variables."""
    from frontal_kernel.ring import Ordering, Ring, block_ordering
    names = tuple(f"v{i}" for i in range(n))
    weights = range(1, n + 1)
    rings = [ring(*names), ring(*names, local=True),
             ring(*names, weights=weights),
             ring(*names, local=True, weights=weights)]
    if n > 1:
        rings.append(Ring(names, block_ordering(
            (1, n - 1), (Ordering(), Ordering(local=True)))))
    return rings


def _sparse_poly(rng, R):
    """A random polynomial with Fraction coefficients, zero one time in
    four."""
    return R.zero() if rng.random() < 0.25 else random_poly(rng, R, 3, 3)


def test_integer_minors_determinants_and_fields_match_poly_arithmetic():
    # seeded: poly_det, maximal_minors, LogField.apply and verify against
    # Laplace expansions and field sums in Poly arithmetic, for square
    # matrices of size 1-4 with zero entries and Fraction coefficients
    from frontal_kernel.derlog import LogField
    from frontal_kernel.germs import maximal_minors
    rng = random.Random(24)
    for n in range(1, 5):
        for R in _kernel_rings(n):
            for _ in range(6 if n < 4 else 2):
                m = [[_sparse_poly(rng, R) for _ in range(n)]
                     for _ in range(n)]
                det = poly_det(m)
                assert (det.ring, det.terms) == (R, _laplace_det(m).terms)

                comps = [_sparse_poly(rng, R) for _ in range(n + 1)]
                rows = [[c.diff(j) for j in range(n)] for c in comps]
                minors = maximal_minors(comps)
                assert [(p.ring, p.terms) for p in minors] == [
                    (R, _laplace_det(rows[:i] + rows[i + 1:]).terms)
                    for i in range(n + 1)]

                g = _sparse_poly(rng, R)
                coeffs = tuple(_sparse_poly(rng, R) for _ in range(n))
                value = LogField(coeffs, R.zero()).apply(g)
                expected = R.zero()
                for i, c in enumerate(coeffs):
                    expected = expected + c * g.diff(i)
                assert (value.ring, value.terms) == (R, expected.terms)
                # xi(g) = h*g for the field g*coeffs, with h = sum c_i dg_i
                scaled = tuple(c * g for c in coeffs)
                assert LogField(scaled, expected).verify(g)
                assert LogField(coeffs, R.zero()).verify(g) == \
                    expected.is_zero()
                if not g.is_zero():
                    assert not LogField(scaled, expected + 1).verify(g)


def _reference_exact_divide(p, q):
    """The division by round trips that ring.exact_divide replaced: a ring
    with a local block is read in degrevlex and divided there."""
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    R = p.ring
    if not R.ordering.is_global():
        glob = Ring(R.names, Ordering())
        quotient = _reference_exact_divide(p.map_to(glob), q.map_to(glob))
        return None if quotient is None else quotient.map_to(R)
    quotient = R.zero()
    qe, qc = q.leading_term()
    while not p.is_zero():
        pe, pc = p.leading_term()
        diff = tuple(a - b for a, b in zip(pe, qe))
        if any(d < 0 for d in diff):
            return None
        t = R.monomial(diff, pc / qc)
        quotient = quotient + t
        p = p - t * q
    return quotient


def _reference_associates(p, q):
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    return (_reference_exact_divide(p, q) is not None
            and _reference_exact_divide(q, p) is not None)


def test_division_and_associates_match_the_round_trip_reference():
    rng = random.Random(26)
    names = ("x", "y", "z")
    rings = [ring(*names), ring(*names, local=True),
             ring(*names, weights=(1, 2, 3)),
             ring(*names, local=True, weights=(3, 1, 2)),
             Ring(names, block_ordering(
                 [1, 2], [Ordering(local=True), Ordering()])),
             Ring(names, block_ordering(
                 [2, 1], [Ordering(), Ordering(local=True)]))]
    for R in rings:
        x, y, z = R.gens()
        # units and 1 - x, whose inverse is no polynomial
        divisors = [R.one() - x, R.one() + y * z, x.scale(3), R.const(-2)]
        quotients = 0
        for _ in range(40):
            q = rng.choice(divisors + [random_poly(rng, R, 3, 3)])
            h = random_poly(rng, R, 3, 3)
            r = random_poly(rng, R, 2, 4)
            c = Fraction(rng.choice([-3, -1, 2]), rng.randint(1, 3))
            for p in (q * h, q * h + r, h, q.scale(c), R.zero()):
                if q.is_zero():
                    continue
                expected = _reference_exact_divide(p, q)
                assert exact_divide(p, q) == expected, (str(p), str(q))
                quotients += expected is not None
                assert associates(p, q) == _reference_associates(p, q)
                assert associates(q, p) == _reference_associates(q, p)
        assert quotients > 40


def _random_tail(rng, R, order, max_deg):
    """A sum of up to three terms of total degree order..max_deg with
    Fraction coefficients."""
    p = R.zero()
    for _ in range(rng.randint(0, 3)):
        exp = [0] * R.arity
        for _ in range(rng.randint(order, max_deg)):
            exp[rng.randrange(R.arity)] += 1
        p = p + R.monomial(exp, Fraction(rng.randint(-5, 5),
                                         rng.randint(1, 4)))
    return p


def _determinant_cases(rng):
    """(components, target, params) of seeded branches of the form the
    characteristic determinant takes: plane curves whose least-degree
    component has a Fraction leading coefficient, surfaces and
    swallowtail-like germs with the identity component in any position and
    on either source variable, and unfoldings with parameters."""
    from frontal_kernel.germs import target_names
    cases = []
    R = ring("x", local=True)
    x = R.var(0)
    for _ in range(12):
        a = rng.randint(2, 4)
        b = rng.choice([b for b in range(a + 1, 8) if math.gcd(a, b) == 1])
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(2, 4))
        comps = [x ** a * c + _random_tail(rng, R, a + 1, a + 3),
                 x ** b + _random_tail(rng, R, b + 1, b + 2)]
        rng.shuffle(comps)
        cases.append((comps, target_names(2), ()))
    for names in (("x", "y"), ("y", "u")):
        R = ring(*names, local=True)
        for _ in range(8):
            i = rng.randrange(2)
            s, v = R.var(i), R.var(1 - i)
            p = rng.randint(2, 3)
            comps = [s, v ** p * Fraction(rng.randint(1, 4), rng.randint(1, 3))
                     + s * v * rng.randint(-2, 2),
                     v ** (p + 1) + _random_tail(rng, R, 2, p + 2)]
            rng.shuffle(comps)
            cases.append((comps, target_names(3), ()))
    R = ring("x", "t", local=True)
    x, t = R.gens()
    for _ in range(8):
        a = rng.randint(2, 3)
        b = rng.randint(a + 1, 5)
        comps = [x ** a + t * x * rng.randint(-2, 2),
                 x ** b + t * x ** (a - 1) * Fraction(rng.randint(1, 3),
                                                      rng.randint(1, 3))]
        rng.shuffle(comps)
        cases.append((comps, target_names(2), ("t",)))
    return cases


def test_image_determinant_matches_eliminate():
    # the characteristic determinant, certified squarefree, is the monic
    # eliminant of the graph ideal, term for term; eliminate is the
    # reference.  A branch of generic degree 2 onto its image, (x^2, x^4 +
    # x^6), and a linear change of the cuspidal edge, which has no identity
    # component, are left to the elimination
    from frontal_kernel.invariants import _branch_eliminant, _image_determinant
    rng = random.Random(30)
    cases = _determinant_cases(rng)
    assert len(cases) == 36
    for comps, target, params in cases:
        _, (ref,) = eliminate(*_graph_ideal(comps, target, params),
                              DEFAULT_LIMITS)
        ref = ref.monic()
        det = _image_determinant(comps, target, params, DEFAULT_LIMITS)
        assert det is not None, [str(c) for c in comps]
        assert (det.ring, det.terms) == (ref.ring, ref.terms), \
            [str(c) for c in comps]
    R = ring("x", local=True)
    x = R.var(0)
    S = ring("x", "y", local=True)
    X, Y = S.gens()
    for comps in ([x ** 2, x ** 4 + x ** 6],
                  [X + Y + Y ** 2, Y ** 2, Y ** 3 + X + Y]):
        target = ("y1", "y2") if len(comps) == 2 else ("X", "Y", "Z")
        assert _image_determinant(comps, target, (), DEFAULT_LIMITS) is None
        _, (ref,) = eliminate(*_graph_ideal(comps, target), DEFAULT_LIMITS)
        assert _branch_eliminant(comps, target, (), DEFAULT_LIMITS) == \
            ref.monic()
