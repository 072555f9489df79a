"""Frontality, corank, Nash lifts and wave-front recognition for map germs."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .basis import (DEFAULT_LIMITS, INFINITE, Limits, membership,
                    membership_certificate, std, subquotient_dimension)
from .ring import Ordering, Poly, Ring, exact_divide, ring


class GermError(ValueError):
    """Invalid map germ input."""


class PrenormalError(RuntimeError):
    """No prenormal form reachable by linear coordinate changes."""


class DivisionError(RuntimeError):
    """The Nash-lift division failed (germ not frontal or wrong split)."""


def target_names(m: int) -> tuple[str, ...]:
    if m == 2:
        return ("y1", "y2")
    if m == 3:
        return ("X", "Y", "Z")
    return tuple(f"y{i + 1}" for i in range(m))


@dataclass(frozen=True)
class MapGerm:
    """Multi-germ (C^n, S) -> (C^{n+1}, 0): one component tuple per branch."""

    source: Ring
    branches: tuple[tuple[Poly, ...], ...]

    def __post_init__(self):
        n = self.source.arity
        if not self.branches:
            raise GermError("a map germ needs at least one branch")
        for comps in self.branches:
            if len(comps) != n + 1:
                raise GermError(
                    f"expected {n + 1} components, got {len(comps)}")
            for p in comps:
                if p.is_zero():
                    raise GermError("identically-zero component (not a finite germ)")
                if p.constant_term() != 0:
                    raise GermError("components must vanish at the origin")

    @property
    def n(self) -> int:
        return self.source.arity

    @property
    def components(self) -> tuple[Poly, ...]:
        if len(self.branches) != 1:
            raise GermError("multi-germ: pick a branch explicitly")
        return self.branches[0]

    def target_ring(self, local: bool = True) -> Ring:
        return ring(*target_names(self.n + 1), local=local)


def germ(source: Ring, *components: Poly) -> MapGerm:
    return MapGerm(source, (tuple(components),))


def multigerm(source: Ring, *branch_lists: Sequence[Poly]) -> MapGerm:
    return MapGerm(source, tuple(tuple(b) for b in branch_lists))


# ---------------------------------------------------------------------------
# Jacobian data


def jacobian_matrix(comps: Sequence[Poly]) -> list[list[Poly]]:
    """Rows indexed by source variables, columns by components."""
    n = comps[0].ring.arity
    return [[c.diff(i) for c in comps] for i in range(n)]


def poly_det(m: list[list[Poly]]) -> Poly:
    size = len(m)
    if size == 0:
        raise ValueError("empty matrix")
    if size == 1:
        return m[0][0]
    ring_ = m[0][0].ring
    acc = ring_.zero()
    for j in range(size):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * poly_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def jacobian_minors(comps: Sequence[Poly], k: int) -> list[Poly]:
    """All k x k minors of the Jacobian matrix of the components."""
    jac = jacobian_matrix(comps)
    n = len(jac)
    m = len(comps)
    if k > min(n, m):
        raise ValueError(f"minor size {k} exceeds matrix dimensions {n}x{m}")
    out = []
    for rows in itertools.combinations(range(n), k):
        for cols in itertools.combinations(range(m), k):
            sub = [[jac[i][j] for j in cols] for i in rows]
            d = poly_det(sub)
            if not d.is_zero():
                out.append(d)
    return out


def jacobian_at_zero(comps: Sequence[Poly]) -> linalg.Matrix:
    """d f(0): one row per component, one column per source variable."""
    n = comps[0].ring.arity
    rows = []
    for c in comps:
        rows.append([c.diff(i).constant_term() for i in range(n)])
    return rows


def corank_branch(comps: Sequence[Poly]) -> int:
    n = comps[0].ring.arity
    return n - linalg.rank(jacobian_at_zero(comps))


def corank(f: MapGerm) -> int:
    return max(corank_branch(b) for b in f.branches)


def ramification_ideal(f: MapGerm, branch: int = 0) -> list[Poly]:
    comps = f.branches[branch]
    minors = jacobian_minors(comps, f.n)
    if not minors:
        raise GermError("Jacobian identically singular: not a finite germ")
    return minors


# ---------------------------------------------------------------------------
# Minimal generators and the frontality criterion


def min_generators(gens: Sequence[Poly],
                   limits: Limits = DEFAULT_LIMITS) -> tuple[int, bool]:
    """(dim_C I/mI, unit_flag) for an ideal of a local ring (Nakayama)."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("zero ideal")
    ring_ = gens[0].ring
    if ring_.ordering.is_global():
        raise ValueError("minimal generator counts need a local ring")
    if any(g.is_unit() for g in gens):
        return 1, True
    dim = subquotient_dimension(gens, [], limits=limits,
                                check_containment=False, times=ring_.gens())
    if dim is INFINITE:
        raise AssertionError("I/mI infinite for a finitely generated ideal")
    return dim, False


def principal_generator(gens: Sequence[Poly],
                        limits: Limits = DEFAULT_LIMITS) -> Optional[Poly]:
    """A single generator of <gens> when the ideal is principal, else None."""
    gens = [g for g in gens if not g.is_zero()]
    count, unit = min_generators(gens, limits)
    if count > 1:
        return None
    if unit:
        return gens[0].ring.one()
    basis = std(gens, limits=limits)
    candidates = [v[0] for v in basis.elements] + list(gens)
    for cand in candidates:
        single = std([cand], limits=limits)
        if all(membership(g, single, limits) for g in gens):
            return cand.monic()
    raise AssertionError("principal ideal without a principal witness")


def is_frontal(f: MapGerm,
               limits: Limits = DEFAULT_LIMITS) -> tuple[bool, Optional[list[Poly]]]:
    """Jacobian criterion: frontal iff R(f) is principal on every branch.

    Returns (flag, witnesses) with one minimal generator per branch.
    """
    witnesses = []
    for b in range(len(f.branches)):
        gen = principal_generator(ramification_ideal(f, b), limits)
        if gen is None:
            return False, None
        witnesses.append(gen)
    return True, witnesses


def multiplicity(f: MapGerm) -> int:
    """Minimal order among the components (plane curves, per branch minimum)."""
    if f.n != 1:
        raise GermError("multiplicity is defined for plane-curve germs (n=1)")
    return min(min(c.order() for c in comps) for comps in f.branches)


# ---------------------------------------------------------------------------
# Prenormal form


@dataclass(frozen=True)
class PrenormalForm:
    """Branch written as (x, p_1..p_k, q) with the x-block exact projections."""

    source: Ring           # variables ordered as x_1..x_{n-k}, y_1..y_k
    k: int
    p: tuple[Poly, ...]
    q: Poly
    q_index: int           # which target component became q

    @property
    def n(self) -> int:
        return self.source.arity

    def components(self) -> list[Poly]:
        xs = [self.source.var(i) for i in range(self.n - self.k)]
        return xs + list(self.p) + [self.q]


def _linear_part(p: Poly) -> list[Fraction]:
    n = p.ring.arity
    return [p.diff(i).constant_term() for i in range(n)]


def prenormal_candidates(f: MapGerm, branch: int = 0) -> list[PrenormalForm]:
    """All prenormal splits of a branch reachable by linear changes.

    One candidate per admissible choice of the q component; the Nash-lift
    division decides which one is usable.
    """
    comps = list(f.branches[branch])
    n = f.n
    k = corank_branch(comps)
    if k == 0:
        raise PrenormalError("immersion: no prenormal form needed (k = 0)")

    # pick n-k components that are exactly linear, with independent gradients
    chosen: list[int] = []
    rows: list[list[Fraction]] = []
    for j, c in enumerate(comps):
        if len(chosen) == n - k:
            break
        if c.total_degree() == 1:
            row = _linear_part(c)
            if linalg.rank(rows + [row]) == len(rows) + 1:
                chosen.append(j)
                rows.append(row)
    if len(chosen) < n - k:
        raise PrenormalError(
            "corank witness components are not linear; a non-linear source "
            "change would be required")

    # complete the chosen gradients to a source basis with coordinate vectors
    amat = [r[:] for r in rows]
    for i in range(n):
        unit = [Fraction(1) if j == i else Fraction(0) for j in range(n)]
        if linalg.rank(amat + [unit]) == len(amat) + 1:
            amat.append(unit)
        if len(amat) == n:
            break
    ainv = linalg.inverse(amat)
    if ainv is None:
        raise AssertionError("source change is singular")

    identity = all(amat[i][j] == (1 if i == j else 0)
                   for i in range(n) for j in range(n))
    if identity:
        new_ring = f.source
        new_comps = comps
    else:
        names = tuple(f"x{i + 1}" for i in range(n - k)) + \
            tuple(f"y{i + 1}" for i in range(k))
        new_ring = ring(*names, local=True)
        # old variable i = sum_j ainv[i][j] * new_j
        images = []
        for i in range(n):
            img = new_ring.zero()
            for j in range(n):
                if ainv[i][j]:
                    img = img + new_ring.var(j).scale(ainv[i][j])
            images.append(img)
        new_comps = [c.substitute(images, new_ring) for c in comps]

    rest = [j for j in range(n + 1) if j not in chosen]
    # shear away linear parts of the non-projection components
    sheared = {}
    for j in rest:
        c = new_comps[j]
        lin = _linear_part(c)
        adjust = new_ring.zero()
        for i in range(n):
            if lin[i]:
                adjust = adjust + new_ring.var(i).scale(lin[i])
        sheared[j] = c - adjust

    out = []
    for qj in rest:
        p = tuple(sheared[j] for j in rest if j != qj)
        out.append(PrenormalForm(new_ring, k, p, sheared[qj], qj))
    return out


# ---------------------------------------------------------------------------
# Nash lift


@dataclass(frozen=True)
class NashData:
    """Tangent-hyperplane coefficients of the lift, possibly jet-truncated."""

    mu: tuple[Poly, ...]
    lam: tuple[Poly, ...]
    exact: bool
    jet_order: Optional[int]  # None when exact

    def residual(self, pre: PrenormalForm) -> list[Poly]:
        """Coefficients of dq - sum lam_i dx_i - sum mu_j dp_j, by variable."""
        n, k = pre.n, pre.k
        out = []
        for i in range(n):
            r = pre.q.diff(i)
            if i < n - k:
                r = r - self.lam[i]
            for j, pj in enumerate(pre.p):
                r = r - self.mu[j] * pj.diff(i)
            out.append(r)
        return out


def _local_quotient(b: Poly, a: Poly, limits: Limits) -> Optional[tuple[Poly, bool]]:
    """(b/a, exact) in the local ring, or None when b is not in (a).

    A polynomial quotient is returned exactly.  Otherwise Mora's normal form
    gives u*b = c*a with u a unit, and b/a = c*u^{-1} is returned as its
    jet of order limits.jet_order, with u^{-1} = u0^{-1} * sum t^i for
    t = 1 - u/u0.
    """
    quotient = exact_divide(b, a)
    if quotient is not None:
        return quotient, True
    cert = membership_certificate(b, [a], limits)
    if cert is None:
        return None
    u, (c,) = cert
    order = limits.jet_order
    one = a.ring.one()
    inv0 = 1 / u.constant_term()
    t = one - u.scale(inv0)
    series = one
    for _ in range(order):
        series = (one + t * series).jet(order)
    return (c * series).scale(inv0).jet(order), False


def nash_lift(pre: PrenormalForm, limits: Limits = DEFAULT_LIMITS) -> NashData:
    """Solve dq = sum lam dx + sum mu dp for the lift coefficients.

    The y-block of the 1-form gives a k x k system P mu = dq/dy, solved by
    Cramer's rule in the local ring.  Each quotient is a polynomial when one
    exists (all bundled fixtures); otherwise mu is its jet of order
    limits.jet_order.  A quotient outside the local ring means the germ is
    not frontal for this prenormal split, and raises DivisionError.
    """
    n, k = pre.n, pre.k
    ys = list(range(n - k, n))
    P = [[pj.diff(ell) for pj in pre.p] for ell in ys]   # k x k
    bvec = [pre.q.diff(ell) for ell in ys]
    det = poly_det(P)
    if det.is_zero():
        raise DivisionError("singular p-block")

    mu: list[Poly] = []
    exact = True
    for j in range(k):
        col = [[P[ell][t] if t != j else bvec[ell] for t in range(k)]
               for ell in range(k)]
        quotient = _local_quotient(poly_det(col), det, limits)
        if quotient is None:
            raise DivisionError("Nash division failed: germ is not frontal "
                                "for this prenormal split")
        mu_j, exact_j = quotient
        mu.append(mu_j)
        exact = exact and exact_j

    lam = []
    for i in range(n - k):
        li = pre.q.diff(i)
        for j, pj in enumerate(pre.p):
            li = li - mu[j] * pj.diff(i)
        lam.append(li)
    return NashData(tuple(mu), tuple(lam), exact,
                    None if exact else limits.jet_order)


def frontal_lift(f: MapGerm, branch: int = 0,
                 limits: Limits = DEFAULT_LIMITS) -> tuple[PrenormalForm, NashData]:
    """First prenormal candidate whose Nash division succeeds."""
    errors = []
    for pre in prenormal_candidates(f, branch):
        try:
            return pre, nash_lift(pre, limits)
        except DivisionError as exc:
            errors.append(exc)
    raise DivisionError(f"no prenormal split admits a Nash lift: {errors[-1]}")


def is_wavefront(f: MapGerm, limits: Limits = DEFAULT_LIMITS) -> bool:
    """True when the Nash lift (f, lam, mu) is an immersion on every branch."""
    for b in range(len(f.branches)):
        if corank_branch(f.branches[b]) == 0:
            continue  # immersed branch: lift trivially immersive
        pre, nash = frontal_lift(f, b, limits)
        comps = pre.components() + list(nash.lam) + list(nash.mu)
        if linalg.rank(jacobian_at_zero(comps)) != pre.n:
            return False
    return True


# ---------------------------------------------------------------------------
# Coordinate changes (used by the A-invariance property suite)


def compose_linear(f: MapGerm, source_change: linalg.Matrix,
                   target_change: linalg.Matrix) -> MapGerm:
    """psi o f o phi^{-1} for linear phi (source) and psi (target)."""
    n = f.n
    inv = linalg.inverse(source_change)
    if inv is None or linalg.inverse(target_change) is None:
        raise ValueError("coordinate changes must be invertible")
    images = []
    for i in range(n):
        img = f.source.zero()
        for j in range(n):
            if inv[i][j]:
                img = img + f.source.var(j).scale(inv[i][j])
        images.append(img)
    new_branches = []
    for comps in f.branches:
        pulled = [c.substitute(images, f.source) for c in comps]
        mixed = []
        for row in target_change:
            acc = f.source.zero()
            for coef, c in zip(row, pulled):
                if coef:
                    acc = acc + c.scale(coef)
            mixed.append(acc)
        new_branches.append(tuple(mixed))
    return MapGerm(f.source, tuple(new_branches))
