"""Acceptance gate: the end-to-end guarantees of the library.

Each test prints a single PASS line when its criterion holds; a pytest
failure is the FAIL line.  Run with `pytest -v tests/test_acceptance.py`.
"""

import io
import random
import time
from fractions import Fraction

from frontal_kernel import (INFINITE, M_F_dimension, associates,
                            critical_set_certificate, frontal_codimension,
                            frontal_milnor_siersma, generating_family_of, germ,
                            good_equation, hat_M_dimension, image_equation,
                            is_frontal, is_free_divisor, membership,
                            milnor_number, multiplicity,
                            plane_curve_invariants, ring,
                            samuel_multiplicity_estimate, std, unfolding,
                            verify_discriminant_equals_image)
from frontal_kernel.basis import Limits
from frontal_kernel.cli import _run_file


def ok(n, text):
    print(f"ACCEPTANCE {n}: PASS ({text})")


def test_criterion_1_e6_invariant_chain(e6, e6_unfolding):
    """(x^3, x^4): the full invariant chain and the codimension equality."""
    assert milnor_number(image_equation(e6).equation) == 6
    pc = plane_curve_invariants(e6)
    assert pc.mu == 6
    assert pc.mu_image == 3
    assert multiplicity(e6) == 3 and pc.mult == 3
    res = frontal_milnor_siersma(e6_unfolding)
    assert res.value == 1 and res.witnesses == (1, 2)
    assert pc.mu_frontal == 1
    assert pc.codim_fe == 1
    ge = good_equation(e6_unfolding)
    assert frontal_codimension(ge) == 1
    # the equality mu_F = codim_Fe on this quasihomogeneous wave front
    assert res.value == frontal_codimension(ge) == pc.codim_fe
    ok(1, "mu=6, mu_I=3, mult=3, mu_F=1 = codim_Fe by both routes")


def test_criterion_2_nonfrontal_stabilisation(e6_nonfrontal_unfolding):
    """A non-frontal stabilisation of the same germ counts 3."""
    res = frontal_milnor_siersma(e6_nonfrontal_unfolding)
    assert res.value == 3
    ok(2, "non-frontal stabilisation has Siersma count 3")


def test_criterion_3_frontality_decisions(folded_umbrella, f4):
    """Frontality is decided with witnesses, positive and negative."""
    flag, witnesses = is_frontal(folded_umbrella)
    assert flag
    y = folded_umbrella.source.var(1)
    w = witnesses[0]
    assert membership(y, std([w])) and membership(w, std([y]))
    flag4, w4 = is_frontal(f4)
    assert not flag4 and w4 is None
    # its ramification ideal genuinely needs two generators
    from frontal_kernel.germs import min_generators, ramification_ideal
    count, unit = min_generators(ramification_ideal(f4))
    assert count == 2 and not unit
    # 50 random frontal plane curves with witness (p')
    rng = random.Random(1815)
    R = ring("x", local=True)
    x = R.var(0)
    done = 0
    while done < 50:
        a = rng.randint(2, 5)
        p = x ** a + (x ** (a + rng.randint(1, 3))).scale(
            Fraction(rng.randint(-2, 2)))
        h = R.zero()
        for _ in range(rng.randint(1, 3)):
            h = h + (x ** rng.randint(0, 3)).scale(
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        if h.is_zero():
            continue
        integrand = h * p.diff(0)
        q = R.from_terms(((e[0] + 1,), c / (e[0] + 1))
                         for e, c in integrand.terms)
        if q.is_zero() or q.order() <= p.order():
            continue
        flag, wits = is_frontal(germ(R, p, q))
        assert flag
        pp = p.diff(0)
        assert membership(pp, std([wits[0]]))
        assert membership(wits[0], std([pp]))
        done += 1
    ok(3, "witnessed yes/no decisions and 50 random frontal curves")


def test_criterion_4_hat_M(cuspidal_edge, folded_umbrella):
    """The Jacobian-module dimension distinguishes the two umbrellas."""
    assert hat_M_dimension(cuspidal_edge) == 0
    assert hat_M_dimension(folded_umbrella) == 1
    ok(4, "hat_M = 0 (cuspidal edge) and 1 (folded umbrella)")


def test_criterion_5_infinite_module_detected():
    """A non-finitely-determined fibre is reported as INFINITE, not a hang."""
    R = ring("x", "y", local=True)
    x, y = R.var(0), R.var(1)
    base = germ(R, x, y ** 2, y ** 7 + x ** 7 * y ** 5)
    S = ring("x", "y", "t", local=True)
    xs, ys, ts = S.var(0), S.var(1), S.var(2)
    U = unfolding(base, ["t"],
                  [xs, ys ** 2, ys ** 7 + xs ** 7 * ys ** 5 + ts * ys ** 3])
    ge = good_equation(U)
    assert M_F_dimension(ge) is INFINITE
    ok(5, "M_F reported INFINITE for the unbounded fibre")


def test_criterion_6_generating_families(cuspidal_edge, e6):
    """Generating families certified: critical set and discriminant."""
    for f in (cuspidal_edge, e6):
        fam = generating_family_of(f)
        assert critical_set_certificate(fam)
        assert verify_discriminant_equals_image(f, fam)
    ok(6, "critical-set graphs and discriminant=image for both models")


def test_criterion_7_free_divisors(cuspidal_edge, swallowtail):
    """Saito freeness of the two front images, within the time budget."""
    start = time.monotonic()
    g1 = image_equation(cuspidal_edge).equation
    r1 = is_free_divisor(g1)
    assert r1.free and associates(r1.determinant.monic(), g1.monic())
    g2 = image_equation(swallowtail).equation
    r2 = is_free_divisor(g2)
    assert r2.free and associates(r2.determinant.monic(), g2.monic())
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    ok(7, f"both front images are free divisors ({elapsed:.1f}s)")


def test_criterion_8_samuel_equals_siersma(e6_unfolding, cusp_unfolding):
    """Two independent computations of mu_F agree, with certificates."""
    for U in (e6_unfolding, cusp_unfolding):
        ge = good_equation(U)
        est = samuel_multiplicity_estimate(ge)
        sie = frontal_milnor_siersma(U)
        assert est.value == sie.value
        assert est.window is not None and len(est.window) == 3
        assert len(sie.witnesses) == 2
    ok(8, "Samuel multiplicity = Siersma count on both models")


def test_criterion_9_determinism_and_properties(tmp_path):
    """Machine reports are byte-identical across runs; the randomized
    property suites run as part of this same test session."""
    text = """frontal-kernel v1
ring x;
map f = x^3, x^4;
analyze f frontal wavefront image mu plane_curve conductor hat_M genfam derlog;
unfold F of f params t: x^3 + t*x, x^4 + 2/3*t*x^2;
assert_frontal_stable F;
analyze F siersma M_F codim_Fe samuel verify;
"""
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        run = _run_file(text, "analyze", Limits(), buf)
        assert run.exit_code == 0
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]
    ok(9, "byte-identical machine reports; property suites in session")
