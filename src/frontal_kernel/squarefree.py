"""Squarefree reduction of exact-rational polynomials.

The gcd comes from the least common multiple: for nonzero p and q the ideal
(p) ∩ (q) is principal, generated by l = lcm(p, q), and gcd(p, q) = p·q / l.
The intersection is one elimination of a fresh variable t from
(t·p, (1 − t)·q) in a global ring (Cox–Little–O'Shea, *Ideals, Varieties,
and Algorithms*, Ch. 4 §3).  A principal ideal has a one-element minimal
Gröbner basis, so the elimination returns l alone.  The gcd is polynomial
even when p lives in a local ring; it is returned monic in p's ordering.
"""

from __future__ import annotations

from .basis import DEFAULT_LIMITS, Limits, eliminate
from .ring import Poly, exact_divide, fresh_names, ring


def gcd(p: Poly, q: Poly, limits: Limits = DEFAULT_LIMITS) -> Poly:
    """The monic greatest common divisor of p and q, in p's ring."""
    if q.is_zero():
        return p.monic()
    if p.is_zero():
        return q.map_to(p.ring).monic()
    t_name, = fresh_names("t", 1, p.ring.names)
    work = ring(t_name, *p.ring.names)
    t = work.var(0)
    sub, lcm = eliminate([t * p.map_to(work), (work.one() - t) * q.map_to(work)],
                         [0], limits)
    if len(lcm) != 1:
        raise AssertionError(f"(p) ∩ (q) has {len(lcm)} basis elements, not 1")
    quotient = exact_divide(p.map_to(sub) * q.map_to(sub), lcm[0])
    if quotient is None:
        raise AssertionError("lcm(p, q) does not divide p·q")
    return quotient.map_to(p.ring).monic()


def squarefree_part(p: Poly, limits: Limits = DEFAULT_LIMITS) -> Poly:
    """p divided by its repeated factors, with p's leading coefficient."""
    if p.is_zero():
        raise ValueError("squarefree part of 0")
    g = p
    for i in range(p.ring.arity):
        d = p.diff(i)
        if not d.is_zero():
            g = gcd(g, d, limits)
    if g.is_constant():
        return p
    quotient = exact_divide(p, g)
    if quotient is None:
        raise AssertionError("gcd does not divide its argument")
    return quotient


def is_squarefree(p: Poly, limits: Limits = DEFAULT_LIMITS) -> bool:
    reduced = squarefree_part(p, limits)
    return reduced.total_degree() == p.total_degree()
