"""Logarithmic vector fields, the Euler-type splitting, and Saito's test."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .basis import (DEFAULT_LIMITS, Limits, membership, membership_certificate,
                    minimal_subset, std, syzygies)
from .germs import _form_det, _integer_row, poly_det
from .ring import (Poly, Ring, _exact_quotient, _forms, _int_diff,
                   _int_product, _numerators, _sum_of_products, exact_divide,
                   quasihomogeneous_weights)


class DerlogError(RuntimeError):
    """A logarithmic-derivation computation failed a precondition."""


@dataclass(frozen=True)
class LogField:
    """A vector field xi = sum coeffs_i d/dy_i with xi(g) = cofactor * g."""

    coeffs: tuple[Poly, ...]
    cofactor: Poly

    def _products(self, g: Poly) -> tuple[tuple[int, list], list]:
        """The integer form of g, and the nonzero products (1, [c_i,
        dg/dy_i]) of xi(g) as integer forms."""
        form, *coeffs = _forms(g.ring, [g, *self.coeffs])
        products = []
        for i, c in enumerate(coeffs):
            dg = _int_diff(form, i)
            if c[1] and dg[1]:
                products.append((1, [c, dg]))
        return form, products

    def apply(self, g: Poly) -> Poly:
        return _sum_of_products(g.ring, self._products(g)[1])

    def verify(self, g: Poly) -> bool:
        """xi(g) = cofactor * g, as xi(g) - cofactor * g summed once."""
        form, products = self._products(g)
        cofactor, = _forms(g.ring, [self.cofactor])
        if cofactor[1] and form[1]:
            products.append((-1, [cofactor, form]))
        return _sum_of_products(g.ring, products).is_zero()


@dataclass(frozen=True)
class LogDerivations:
    ring: Ring
    g: Poly
    generators: tuple[LogField, ...]   # minimal generating set
    epsilon: Optional[tuple[Poly, tuple[Poly, ...]]] = None
    # epsilon = (unit, coeffs): the field (1/unit) * sum coeffs_i d/dy_i
    # satisfies epsilon(g) = g; present iff g is in J(g).  It is the first
    # generator whose cofactor is a unit.


def _syzygy_fields(g: Poly, gens: list[Poly],
                   limits: Limits) -> list[LogField]:
    """Fields sum v_i d/dy_i, cofactor -v_m, of the syzygies v of ``gens``:
    the partials of g, with g itself last when a cofactor is wanted.  A
    vanishing partial keeps its syzygy slot and gives d/dy_i itself."""
    m = g.ring.arity
    zero = g.ring.zero()
    return [LogField(v[:m], -v[m] if len(v) > m else zero)
            for v in syzygies(gens, limits)
            if any(not c.is_zero() for c in v[:m])]


def _free_basis(fields: list[LogField], order: list[int],
                g: Poly) -> Optional[list[int]]:
    """The last m = arity of the fields offered in ``order`` when a
    Saito-Cramer certificate shows that they are a free basis of the
    module the fields span, else None.

    Those fields D are one when det D = u*g for a local unit u and g
    divides det(D with delta in row i) for every other field delta and
    every row i.  By Cramer's rule delta = sum_i (det_i / det D) D_i, with
    coefficients in O, so D generates the module, and D has rank m, so it
    is a free basis; Nakayama's rule (``minimal_subset``) keeps exactly D,
    since every other field lies in the span of the fields after it.  The
    divisions are needed beyond Saito's criterion: {xi : xi(g) in (g)} is
    Der(-log g_red), so for a g that is not reduced det D = u*g alone does
    not make D generate it.  Every determinant is a Laplace expansion
    along the replaced row, over the cofactors of D, taken once."""
    ring_ = g.ring
    m = ring_.arity
    chosen = [fields[i].coeffs for i in order[-m:]]
    # every term of det D has order at least the sum of the rows' orders,
    # and u*g has the order of g, so a larger sum rules D out at once
    if sum(min(c.order() for c in row if not c.is_zero())
           for row in chosen) > g.order():
        return None
    # rows scaled to integers: every determinant below is a nonzero
    # constant times the one over Q, which divisibility by g ignores
    rows = [_integer_row(_forms(ring_, row))[1] for row in chosen]
    # minors[i][k]: the integer terms of D's minor without row i and column k
    minors = [[_numerators(_form_det(ring_, [
        [(1, t) for t in r[:k] + r[k + 1:]] for r in rows[:i] + rows[i + 1:]
    ]).terms)[1] if m > 1 else [((0,), 1)] for k in range(m)]
        for i in range(m)]
    _, gn = _numerators(g.terms)
    content = gcd(*[n for _, n in gn])
    g_int = [(e, n // content) for e, n in gn]

    def quotient(i, row):
        """det(D with the integer ``row`` in row i), expanded along row i
        over the minors of D, divided by g; None when g does not divide
        it (Gauss's lemma: the primitive g divides it in Z[x])."""
        acc: dict = {}
        for k, a in enumerate(row):
            if a and minors[i][k]:
                _int_product([(e, n if (i + k) % 2 == 0 else -n)
                              for e, n in a], minors[i][k], acc)
        return _exact_quotient([t for t in acc.items() if t[1]], g_int)
    unit = quotient(0, rows[0])
    if unit is None or not any(not any(e) for e, _ in unit):
        return None
    for j in order[:-m]:
        delta = _integer_row(_forms(ring_, fields[j].coeffs))[1]
        if any(quotient(i, delta) is None for i in range(m)):
            return None
    return order[-m:]


def _prune_minimal(fields: list[LogField], limits: Limits,
                   g: Optional[Poly] = None) -> list[LogField]:
    """A minimal generating subset of the fields (Nakayama), in their order.

    The fields are offered highest order first, so a field is dropped when
    it is redundant beside the fields of lower or equal order after it.
    With g, the fields span Der(-log g), and the last m of them are kept
    alone when they are a certified free basis (``_free_basis``), with no
    standard basis; every other set of fields takes ``minimal_subset``.
    """
    order = sorted(range(len(fields)),
                   key=lambda i: -min(c.order() for c in fields[i].coeffs
                                      if not c.is_zero()))
    kept = None if g is None else _free_basis(fields, order, g)
    if kept is None:
        kept = [order[t] for t in minimal_subset(
            [fields[i].coeffs for i in order], limits)]
    return [fields[i] for i in sorted(kept)]


def derlog(g: Poly, limits: Limits = DEFAULT_LIMITS) -> LogDerivations:
    """Minimal generators of Der(-log V(g)) = {xi : xi(g) in (g)}.

    The cofactors of the generators generate (J(g) : g), which is the
    whole local ring exactly when g is in J(g), and then one of them is a
    unit: its field divided by it is the Euler-type field epsilon.
    """
    if g.is_zero():
        raise DerlogError("zero polynomial defines no divisor")
    ring_ = g.ring
    if ring_.ordering.is_global():
        raise DerlogError("logarithmic derivations are computed in local rings")
    partials = [g.diff(i) for i in range(ring_.arity)]
    fields = _syzygy_fields(g, partials + [g], limits)
    if not fields:
        raise DerlogError("no logarithmic fields found (is g a unit?)")
    minimal = _prune_minimal(fields, limits, g)
    for f in minimal:
        if not f.verify(g):
            raise AssertionError("unsound logarithmic-field certificate")
    eps = next(((f.cofactor, f.coeffs) for f in minimal
                if f.cofactor.is_unit()), None)
    return LogDerivations(ring_, g, tuple(minimal), eps)


def euler_certificate(g: Poly, limits: Limits = DEFAULT_LIMITS):
    """(unit, coeffs) with sum coeffs_i * dg/dy_i = unit * g, or None.

    This is the Euler-type field epsilon = (1/unit) sum coeffs_i d/dy_i with
    epsilon(g) = g, which exists exactly when g is in its Jacobian ideal J(g)
    (Saito).  A quasihomogeneous g takes the weighted Euler field
    sum (w_i/d) y_i d/dy_i with unit 1 and no standard basis; any other g
    takes the membership certificate of g in J(g), None when g is not in it.
    """
    ring_ = g.ring
    qh = quasihomogeneous_weights(g)
    if qh is not None:
        w, d, _ = qh
        coeffs = tuple(ring_.var(i).scale(Fraction(wi, d))
                       for i, wi in enumerate(w))
        return ring_.one(), coeffs
    cert = membership_certificate(g, [g.diff(i) for i in range(ring_.arity)],
                                  limits)
    if cert is None:
        return None
    u, cof = cert
    return u, tuple(cof)


def epsilon_split(g: Poly, limits: Limits = DEFAULT_LIMITS):
    """(epsilon, kernel generators) with Der(-log X) = (eps) + Der(-log g).

    epsilon is returned as (unit, coeffs), meaning (1/unit) sum coeffs d/dy_i;
    its evaluation on g equals g.  The kernel part consists of the fields
    annihilating g.
    """
    if g.is_zero():
        raise DerlogError("zero polynomial defines no divisor")
    eps = euler_certificate(g, limits)
    if eps is None:
        raise DerlogError("g is not in its Jacobian ideal: no Euler-type "
                          "splitting exists")
    partials = [g.diff(i) for i in range(g.ring.arity)]
    kernel = _syzygy_fields(g, partials, limits)
    u, coeffs = eps
    if not LogField(coeffs, u).verify(g):
        raise AssertionError("epsilon certificate is unsound")
    return eps, _prune_minimal(kernel, limits)


@dataclass(frozen=True)
class FreenessReport:
    free: bool
    generator_count: int
    determinant: Optional[Poly]
    note: str = ""


def is_free_divisor(g: Poly, limits: Limits = DEFAULT_LIMITS,
                    derivations: Optional[LogDerivations] = None) -> FreenessReport:
    """Saito's criterion on a minimal generating set of Der(-log V(g)):
    g is free iff the determinant of the fields is u*g for a unit u of the
    local ring.  The fields are polynomial, so for a reduced g the
    determinant is a polynomial multiple of g, and u is the quotient."""
    if derivations is None:
        derivations = derlog(g, limits)
    gens = derivations.generators
    m = g.ring.arity
    if len(gens) != m:
        note = (f"rank>{m}: {len(gens)} minimal generators"
                if len(gens) > m else
                f"only {len(gens)} generators for ambient rank {m}")
        return FreenessReport(False, len(gens), None, note)
    matrix = [list(f.coeffs) for f in gens]
    det = poly_det(matrix)
    if det.is_zero():
        return FreenessReport(False, m, det, "singular Saito matrix")
    unit = exact_divide(det, g)
    if unit is not None and unit.is_unit():
        return FreenessReport(True, m, det)
    return FreenessReport(False, m, det,
                          "Saito determinant is not a unit multiple of g")


def commutator(a: LogField, b: LogField) -> tuple[Poly, ...]:
    """Coefficients of [a, b] (no cofactor attached)."""
    ring_ = a.coeffs[0].ring
    m = ring_.arity
    out = []
    for i in range(m):
        acc = ring_.zero()
        for j in range(m):
            acc = acc + a.coeffs[j] * b.coeffs[i].diff(j)
            acc = acc - b.coeffs[j] * a.coeffs[i].diff(j)
        out.append(acc)
    return tuple(out)


def is_logarithmic(g: Poly, coeffs: Sequence[Poly],
                   limits: Limits = DEFAULT_LIMITS) -> bool:
    """Check xi(g) in (g) for the field with the given coefficients."""
    val = LogField(tuple(coeffs), g.ring.zero()).apply(g)
    if val.is_zero():
        return True
    return membership(val, std([g], limits=limits), limits)
