"""Frontality, corank, Nash lifts and wave-front recognition for map germs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import linalg
from .basis import (DEFAULT_LIMITS, Limits, membership_certificate,
                    minimal_subset, std)
from .ring import (Poly, Ring, _check_ring, _exact_quotient, _forms,
                   _int_diff, _int_product, _sum_of_products, exact_divide,
                   ring)


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


def once(obj, key, compute):
    """compute(), kept on obj under key: each later call returns that value.

    The store lives in the instance __dict__, outside the dataclass fields,
    so equality, hashing and dataclasses.fields() of obj are unchanged.  A
    compute() that raises stores nothing.  Keys carry every argument the
    result depends on besides obj (the Limits, the branch).
    """
    memo = obj.__dict__.setdefault("_once", {})
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def germ(source: Ring, *components: Poly) -> MapGerm:
    return MapGerm(source, (tuple(components),))


def multigerm(source: Ring, *branch_lists: Sequence[Poly]) -> MapGerm:
    return MapGerm(source, tuple(tuple(b) for b in branch_lists))


# ---------------------------------------------------------------------------
# Jacobian data


def _integer_row(row: list) -> tuple[int, list[list]]:
    """(d, entries) for a row of integer forms: d is the lcm of their
    denominators and entry k the terms of form k scaled over d."""
    d = math.lcm(*[fd for fd, _ in row])
    return d, [terms if fd == d else [(e, n * (d // fd)) for e, n in terms]
               for fd, terms in row]


def _form_det(ring_: Ring, rows: list[list]) -> Poly:
    """det of a square matrix of integer forms by Bareiss's fraction-free
    elimination (Bareiss, Math. Comp. 22, 1968).  Each row is scaled to
    integers over the lcm of its denominators.  Step k replaces each entry
    below and right of the pivot by (pivot*a_ij - a_ik*a_kj) / p, with p
    the previous pivot; every entry is then a minor of the integer matrix,
    so the division (``_exact_quotient``) is exact in Z[x].  A zero pivot
    swaps in a lower row that is nonzero in its column.  A 2 x 2 matrix
    takes the two products of its expansion and no division."""
    m = len(rows)
    den = 1
    mat = []
    for row in rows:
        d, entries = _integer_row(row)
        den *= d
        mat.append(entries)
    sign, prev = 1, None
    for k in range(m - 1):
        if not mat[k][k]:
            swap = next((i for i in range(k + 1, m) if mat[i][k]), None)
            if swap is None:
                return ring_.zero()
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        pivot = mat[k][k]
        for i in range(k + 1, m):
            lead = [(e, -n) for e, n in mat[i][k]]
            for j in range(k + 1, m):
                acc = _int_product(pivot, mat[i][j]) if mat[i][j] else {}
                if lead and mat[k][j]:
                    _int_product(lead, mat[k][j], acc)
                entry = [(e, n) for e, n in acc.items() if n]
                if prev and entry:
                    entry = _exact_quotient(entry, prev)
                    if entry is None:
                        raise AssertionError(
                            "Bareiss step is not an exact division")
                mat[i][j] = entry
        prev = pivot
    # a negative denominator carries the sign of the row swaps
    return ring_._from_numerators(dict(mat[-1][-1]), sign * den)


def poly_det(m: list[list[Poly]]) -> Poly:
    """det m by fraction-free elimination on integer forms."""
    if not m:
        raise ValueError("empty matrix")
    ring_ = m[0][0].ring
    return _form_det(ring_, [_forms(ring_, row) for row in m])


def maximal_minors(comps: Sequence[Poly],
                   deleted: Optional[Iterable[int]] = None) -> list[Poly]:
    """The n x n minors of the Jacobian matrix of the n + 1 components, in
    n variables, that delete the components listed in deleted, in its
    order; by default every one: entry i is the minor that deletes
    component i.  The partials are taken once, on the components' integer
    forms; for n = 1 a minor is the other component's derivative, whose
    terms keep their order."""
    ring_ = comps[0].ring
    if deleted is None:
        deleted = range(len(comps))
    if ring_.arity == 1:
        _check_ring(ring_, comps)
        return [comps[1 - i].diff(0) for i in deleted]
    rows = [[_int_diff(form, j) for j in range(ring_.arity)]
            for form in _forms(ring_, comps)]
    return [_form_det(ring_, rows[:i] + rows[i + 1:]) for i in deleted]


def _linear_part(p: Poly) -> list[Fraction]:
    """Coefficients of x_1, ..., x_n in p: its degree-1 terms."""
    out = [Fraction(0)] * p.ring.arity
    for e, c in p.terms:
        if sum(e) == 1:
            out[e.index(1)] = c
    return out


def jacobian_at_zero(comps: Sequence[Poly]) -> linalg.Matrix:
    """d f(0): one row per component, one column per source variable."""
    return [_linear_part(c) for c in comps]


def corank_branch(comps: Sequence[Poly]) -> int:
    n = comps[0].ring.arity
    return n - linalg.rank(jacobian_at_zero(comps))


def corank(f: MapGerm) -> int:
    return max(corank_branch(b) for b in f.branches)


def ramification_ideal(f: MapGerm, branch: int = 0) -> list[Poly]:
    """The nonzero maximal minors, deleted component descending."""
    minors = [m for m in reversed(maximal_minors(f.branches[branch]))
              if not m.is_zero()]
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
    if (any(g.is_unit() for g in gens)
            and not gens[0].ring.ordering.is_global()):
        return 1, True
    return len(minimal_subset(gens, limits)), False


def principal_generator(gens: Sequence[Poly],
                        limits: Limits = DEFAULT_LIMITS) -> Optional[Poly]:
    """A single generator of <gens> when the ideal is principal, else None.

    In a local degree ordering L(u*h*q) = L(h)*L(q) for a unit u, so the
    leading ideal of a principal ideal (h) is (L(h)) and its minimal
    standard basis is one element; conversely a standard basis generates
    the ideal, so a one-element basis is a generator (Greuel-Pfister,
    *A Singular Introduction to Commutative Algebra*, 1.7 and 2.3).
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("zero ideal")
    if gens[0].ring.ordering.is_global():
        raise ValueError("minimal generator counts need a local ring")
    if any(g.is_unit() for g in gens):
        return gens[0].ring.one()
    basis = std(gens, limits=limits).polys()
    return basis[0] if len(basis) == 1 else None


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
    # the linear target change: row i writes component i of components()
    # as a combination of the branch's own components
    target: tuple[tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return self.source.arity

    def components(self) -> list[Poly]:
        xs = [self.source.var(i) for i in range(self.n - self.k)]
        return xs + list(self.p) + [self.q]


def _combination(ring_: Ring, coeffs, polys) -> Poly:
    """sum c_k * p_k over the nonzero coefficients c_k, as one sum of
    products of integer forms."""
    return _sum_of_products(ring_, [(c, [form]) for c, form in
                                    zip(coeffs, _forms(ring_, polys)) if c])


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

    # the gradients of the exactly linear components, then the coordinate
    # vectors, as columns: the Gauss-Jordan pivots are the columns
    # independent of the earlier ones, so they pick n - k components with
    # independent gradients (their rank is at most n - k) and complete them
    # to a source basis with coordinate vectors
    linear = [j for j, c in enumerate(comps) if c.total_degree() == 1]
    columns = [_linear_part(comps[j]) for j in linear] + linalg.identity(n)
    pivots = linalg._echelon([list(row) for row in zip(*columns)],
                             len(columns))
    chosen = [linear[c] for c in pivots if c < len(linear)]
    if len(chosen) < n - k:
        raise PrenormalError(
            "corank witness components are not linear; a non-linear source "
            "change would be required")
    amat = [columns[c] for c in pivots]
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
        images = [_combination(new_ring, row, new_ring.gens()) for row in ainv]
        new_comps = [c.substitute(images, new_ring) for c in comps]

    rest = [j for j in range(n + 1) if j not in chosen]
    # shear away linear parts of the non-projection components; they lie in
    # the x-block, whose l-th variable is the component chosen[l].  Row j
    # of target writes component j, sheared, in the components of f.
    sheared, target = {}, linalg.identity(n + 1)
    for j in rest:
        c = new_comps[j]
        lin = _linear_part(c)
        sheared[j] = c - _combination(new_ring, lin, new_ring.gens())
        for l, a in zip(chosen, lin):
            target[j][l] -= a

    out = []
    for qj in rest:
        others = [j for j in rest if j != qj]
        p = tuple(sheared[j] for j in others)
        change = tuple(tuple(target[j]) for j in chosen + others + [qj])
        out.append(PrenormalForm(new_ring, k, p, sheared[qj], qj, change))
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

    The maximal minors m_i of the Jacobian of c = (x, p, q), m_i deleting
    c_i, satisfy sum (-1)^i m_i dc_i = 0: mu_j, the coefficient of
    dp_j = dc_i, is (-1)^(n-i+1) m_i / m_n, m_n = det(dp/dy), a polynomial
    when one exists (all bundled fixtures), else its jet of order
    limits.jet_order in the local ring.  A quotient outside the local ring
    means the germ is not frontal for this split: DivisionError.  lam is the
    x-block of dq - sum mu dp (dividing the x-block minors by m_n can take
    Mora's normal form thousands of times longer).
    """
    n, k = pre.n, pre.k
    # only the minors that delete a p-row or q
    *minors, det = maximal_minors(pre.components(), range(n - k, n + 1))
    if det.is_zero():
        raise DivisionError("singular p-block")

    mu: list[Poly] = []
    exact = True
    for i, minor in zip(range(n - k, n), minors):
        numerator = minor if (n - i) % 2 else -minor
        quotient = _local_quotient(numerator, det, limits)
        if quotient is None:
            raise DivisionError("Nash division failed: germ is not frontal "
                                "for this prenormal split")
        mu.append(quotient[0])
        exact = exact and quotient[1]

    jet_order = None if exact else limits.jet_order
    lam = []
    for i in range(n - k):
        li = pre.q.diff(i)
        for m, pj in zip(mu, pre.p):
            li = li - m * pj.diff(i)
        lam.append(li if exact else li.jet(jet_order))
    return NashData(tuple(mu), tuple(lam), exact, jet_order)


def frontal_lift(f: MapGerm, branch: int = 0,
                 limits: Limits = DEFAULT_LIMITS) -> tuple[PrenormalForm, NashData]:
    """First prenormal candidate whose Nash division succeeds (once per
    germ, branch and limits)."""
    return once(f, ("frontal_lift", branch, limits),
                lambda: _frontal_lift(f, branch, limits))


def _frontal_lift(f: MapGerm, branch: int,
                  limits: Limits) -> tuple[PrenormalForm, NashData]:
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
    inv = linalg.inverse(source_change)
    if inv is None or linalg.inverse(target_change) is None:
        raise ValueError("coordinate changes must be invertible")
    images = [_combination(f.source, row, f.source.gens()) for row in inv]
    new_branches = []
    for comps in f.branches:
        pulled = [c.substitute(images, f.source) for c in comps]
        new_branches.append(tuple(_combination(f.source, row, pulled)
                                  for row in target_change))
    return MapGerm(f.source, tuple(new_branches))
