"""Standard and Groebner bases for ideals and submodules of free modules.

One pair loop (``_std``) and one reduction loop (``_weak_nf``) serve every
ordering: Mora's tangent-cone normal form with the working-set extension
for local orderings, plain division for global ones, which also divides
past an irreducible leading term for remainders and interreduction.
Vectors are tuples of Poly; ideals are rank-1 modules.
Module orderings are position-over-term with lower component index on top,
which makes component elimination a plain block order.

Both loops take an optional corner: a monomial submodule that lies in the
module by construction, whose terms are dropped wherever they appear
instead of being reduced by generators (Greuel-Pfister 1.7, 2.3).  The one
corner in use is a*e_c for the tag components of a colon module
(``_colon_basis``), whose basis gets the monomials back at the end.
Callers that read only part of a basis interreduce only that part
(``eliminate``, ``_colon_basis``).

Arithmetic contract: inside ``std`` and its normal forms every vector is
an integer vector with coprime coefficients (fraction-free reduction,
Greuel-Pfister, *A Singular Introduction to Commutative Algebra*, 1.6-1.7).
Each reduction step is a*h - b*x^m*g for integers a and b, through the one
kernel ``_vec_comb``, followed by division by the content; only ``gcd`` and
``//`` touch the coefficients.  Each such vector is a nonzero scalar
multiple of the one that reduction over Q with monic basis elements gives
at the same step, with the same leading terms, ecarts, divisor choices and
pair order.  At the API the scalar is divided out: a ``StdBasis`` holds
the primitive integer vectors of ``_std`` with their leading terms and
ecarts and builds the monic ``Fraction`` vectors only when ``elements`` is
read, and normal forms and membership certificates return exactly the
``Fraction`` values of reduction over Q.  ``Poly`` products, substitution
and derivatives run on integer numerators as well (see ``ring``), forming
one ``Fraction`` per term of their result.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iproduct
from math import gcd, lcm
from operator import add, gt, le, sub
from typing import Optional, Sequence, Union

from .ring import Ordering, Poly, Ring, block_ordering, fresh_names


class ResourceLimitError(RuntimeError):
    """A configured pair or degree bound was exceeded; no partial answer."""


class _Infinite:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


@dataclass(frozen=True)
class Limits:
    """The bounds every computation runs under.  The command line sets each
    field with the flag of its name (``--max-pairs`` for ``max_pairs``)."""

    max_pairs: int = 20000
    max_degree: int = 80
    jet_order: int = 24

    def __post_init__(self):
        # a jet of order 0 drops the linear part that a lift's
        # wave-front test reads
        for name, least in (("max_pairs", 0), ("max_degree", 0),
                            ("jet_order", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}")


DEFAULT_LIMITS = Limits()

Vector = tuple[Poly, ...]


def _vector(g: Union[Poly, Vector]) -> Vector:
    return (g,) if isinstance(g, Poly) else tuple(g)


def _as_vectors(gens: Sequence[Union[Poly, Vector]]) -> tuple[list[Vector], int]:
    vecs: list[Vector] = []
    rank = None
    for g in gens:
        v = _vector(g)
        if rank is None:
            rank = len(v)
        elif rank != len(v):
            raise ValueError("mixed vector ranks")
        if any(not p.is_zero() for p in v):
            vecs.append(v)
    if rank is None:
        raise ValueError("empty generator list")
    return vecs, rank


def _lt(v: Vector, width: Optional[int] = None):
    """Leading (component, exponent, coefficient) of the first ``width``
    components (all by default) under POT, component 0 on top."""
    for c in range(len(v) if width is None else width):
        terms = v[c].terms
        if terms:
            e, k = terms[0]
            return c, e, k
    return None


def _vec_degree(v: Vector) -> int:
    ordering = v[0].ring.ordering
    if ordering.blocks is None and ordering.weights is None:
        # a degree ordering sorts a top-degree term first (global) or last
        at = -1 if ordering.local else 0
        return max((sum(p.terms[at][0]) for p in v if p.terms), default=-1)
    return max((p.total_degree() for p in v if p.terms), default=-1)


def _vec_is_zero(v: Vector) -> bool:
    return all(p.is_zero() for p in v)


def _vec_comb(a: int, v: Vector, b: int, exp, w: Vector) -> Vector:
    """a*v - b*x^exp*w for integers a and b (b nonzero): the one
    multiply-subtract of ``std`` and its normal forms.  Where w is zero the
    component of v is only scaled by a (kept as is for a = 1).  Where v is
    zero it is the shifted, scaled terms of w in w's order, since monomial
    orders are invariant under translation.  Every other component is
    merged in one dict pass and sorted once."""
    out = []
    for p, q in zip(v, w):
        if not q.terms:
            out.append(p if a == 1 or not p.terms else
                       Poly(p.ring, tuple([(e, a * c) for e, c in p.terms])))
            continue
        if not p.terms:
            out.append(Poly(q.ring, tuple([(tuple(map(add, e, exp)), -b * c)
                                           for e, c in q.terms])))
            continue
        acc = dict(p.terms) if a == 1 else {e: a * c for e, c in p.terms}
        for e, c in q.terms:
            e = tuple(map(add, e, exp))
            c = acc.get(e, 0) - b * c
            if c:
                acc[e] = c
            else:
                del acc[e]
        out.append(q.ring._from_dict(acc))
    return tuple(out)


def _divide(v: Vector, g: int) -> Vector:
    """v / g for an integer g that divides every coefficient of v."""
    return tuple(Poly(p.ring, tuple([(e, c // g) for e, c in p.terms]))
                 for p in v)


def _primitive(v: Vector) -> tuple[Vector, int, int]:
    """(d/g * v, d, g) for the integers d > 0 and g that make d/g * v an
    integer vector with coprime coefficients and a positive leading
    coefficient; v is nonzero."""
    coeffs = [c for p in v for _, c in p.terms]
    den = 1
    if any(type(c) is not int for c in coeffs):
        den = lcm(*[c.denominator for c in coeffs])
        v = tuple(Poly(p.ring, tuple([(e, c.numerator * (den // c.denominator))
                                      for e, c in p.terms])) for p in v)
        coeffs = [c for p in v for _, c in p.terms]
    g = gcd(*coeffs)
    if _lt(v)[2] < 0:
        g = -g
    return (v if g == 1 else _divide(v, g)), den, g


def _rational(v: Vector, num: int, den: int = 1) -> Vector:
    """The integer vector v divided by num/den, as Fraction terms."""
    return tuple(Poly(p.ring, tuple([(e, Fraction(c * den, num))
                                     for e, c in p.terms])) for p in v)


def _cut(v: Vector, corner) -> Vector:
    """v without its corner terms: for corner = (start, variables), the
    terms x^e*e_c with c >= start and x^e divisible by a variable of
    ``variables`` (indices)."""
    start, variables = corner
    out = list(v[:start])
    for p in v[start:]:
        terms = tuple([t for t in p.terms
                       if not any(t[0][i] for i in variables)])
        out.append(p if len(terms) == len(p.terms) else Poly(p.ring, terms))
    return tuple(out)


class StdBasis:
    """A confluent basis with minimal pairwise non-divisible leading terms.

    It holds primitive integer vectors (``vectors``) with their leading
    (component, exponent, coefficient) (``leads``) and ecarts (``ecarts``),
    which the normal forms reduce by.  ``elements``, the vectors over Q,
    is built on first read: monic for a basis from ``std``, as given for
    one built as ``StdBasis(ring, rank, elements)``.
    """

    def __init__(self, ring: Ring, rank: int, elements: Sequence[Vector]):
        self.ring = ring
        self.rank = rank
        self.elements = list(elements)
        self.vectors = [_primitive(v)[0] for v in self.elements]
        self.leads = [_lt(v) for v in self.vectors]
        self.ecarts = [_vec_degree(v) - sum(lead[1])
                       for v, lead in zip(self.vectors, self.leads)]

    @classmethod
    def _of(cls, ring: Ring, rank: int, vectors: list[Vector], leads: list,
            ecarts: list[int]) -> "StdBasis":
        """The basis of primitive integer vectors with their leading terms
        and ecarts, as ``_std`` returns them."""
        basis = cls.__new__(cls)
        basis.ring, basis.rank = ring, rank
        basis.vectors, basis.leads, basis.ecarts = vectors, leads, ecarts
        return basis

    @cached_property
    def elements(self) -> list[Vector]:
        return [_rational(v, lead[2]) for v, lead in zip(self.vectors,
                                                         self.leads)]

    def polys(self) -> list[Poly]:
        if self.rank != 1:
            raise ValueError("not an ideal basis")
        return [v[0] for v in self.elements]

    def leading_data(self) -> dict[int, list[tuple[int, ...]]]:
        stair: dict[int, list[tuple[int, ...]]] = {}
        for c, e, _ in self.leads:
            stair.setdefault(c, []).append(e)
        return stair


# ---------------------------------------------------------------------------
# Normal forms


def _divisor(leads, ecarts: list[int], comp: int, exp) -> int:
    """Index of the first leading term of least ecart among those in
    ``leads`` that divide x^exp e_comp, or -1 when none does: one scan,
    skipping the divisibility test where the ecart could not win."""
    i = -1
    for k, (c, e, _) in enumerate(leads):
        if (c == comp and (i < 0 or ecarts[k] < ecarts[i])
                and all(map(le, e, exp))):
            i = k
    return i


def _weak_nf(v: Vector, basis: list[Vector], leads: list, ecarts: list[int],
             ring: Ring, limits: Limits, width: int,
             full: bool = False, corner=None) -> tuple[Vector, int, int]:
    """Mora weak normal form of the integer vector v over the integer
    basis: u*v = sum a_i * basis_i + h/s with u a local unit (u = 1 for
    global orderings).  Returns (h, num, den) with s = num/den: h/s is the
    normal form that the same reduction over Q with monic basis elements
    gives, and h is integral unless ``full``.

    With ``full`` (global orderings, no payload) the loop goes on past an
    irreducible leading term: the term moves to the remainder, recorded
    with its exact ``Fraction`` coefficient at the scale of v, and the
    remainder is returned with s = 1.  Modulo a Groebner basis this is the
    canonical remainder of v.

    Only the first ``width`` components carry leading terms and ecarts; the
    others are a payload (a unit and cofactors) that every step combines
    like the rest, so a linear relation among the components that holds
    for v and every basis element holds for h; the reduction is the same
    with or without one (Greuel-Pfister 1.7).  ``leads`` and ``ecarts``
    belong to ``basis``.  Every normal form stops after 20 * max_pairs
    reduction steps.

    A ``corner`` (see ``_cut``) spans a monomial submodule that the basis
    stands for without holding it: its terms are dropped from h after each
    step, as reduction by those monomials would drop them.  The caller
    passes v without them.
    """
    is_global = ring.ordering.is_global()
    # the working set T with its leading terms and ecarts, kept in step
    T = list(basis)
    L = list(leads)
    E = list(ecarts)
    h = v
    num = den = 1  # h = num/den * the undivided rest of v
    rest = [[] for _ in v]
    steps = 0
    while (lead_h := _lt(h, width)) is not None:
        comp, exp, ch = lead_h
        i = _divisor(L, E, comp, exp)
        if i < 0:
            if not full:
                break
            # the leading terms met in one component only decrease, so the
            # remainder terms arrive in order
            rest[comp].append((exp, Fraction(ch * den, num)))
            h = h[:comp] + (Poly(ring, h[comp].terms[1:]),) + h[comp + 1:]
            continue
        steps += 1
        if steps > limits.max_pairs * 20:
            raise ResourceLimitError("normal form step limit exceeded")
        if not is_global:
            ecart_h = _vec_degree(h[:width]) - sum(exp)
            if E[i] > ecart_h:
                T.append(h)
                L.append(lead_h)
                E.append(ecart_h)
        _, ge, gk = L[i]
        d = gcd(gk, ch)
        a = gk // d
        h = _vec_comb(a, h, ch // d, tuple(map(sub, exp, ge)), T[i])
        if corner:
            h = _cut(h, corner)
        num *= a
        content = gcd(*[c for p in h for _, c in p.terms])
        if content > 1:
            h = _divide(h, content)
            den *= content
    if full:
        return tuple(Poly(ring, tuple(terms)) for terms in rest), 1, 1
    return h, num, den


def vector_normal_form(v: Vector, basis: StdBasis,
                       limits: Limits = DEFAULT_LIMITS) -> Vector:
    v = tuple(v)
    if _vec_is_zero(v):
        return v
    w, d, g = _primitive(v)
    h, num, den = _weak_nf(w, basis.vectors, basis.leads, basis.ecarts,
                           basis.ring, limits, len(w),
                           full=basis.ring.ordering.is_global())
    return _rational(h, num * d, den * g)


# ---------------------------------------------------------------------------
# Buchberger / Mora main loop


def std(gens: Sequence[Union[Poly, Vector]], *,
        limits: Limits = DEFAULT_LIMITS) -> StdBasis:
    """Standard basis (local orderings) or reduced Groebner basis (global),
    monic.  An ideal that contains a unit gets the basis [1], so every
    normal form against it ends after one pass over the terms."""
    vecs, rank = _as_vectors(gens)
    return _std_basis(*_std(vecs, rank, limits), vecs[0][0].ring, rank,
                      limits)


def _std_basis(G: list[Vector], LT: list, EC: list[int], ring: Ring,
               rank: int, limits: Limits) -> StdBasis:
    """What ``std`` returns for a minimal basis from ``_std``, or for a part
    of one that no other leading term reduces (``eliminate``)."""
    if rank == 1 and LT and not any(LT[0][1]):
        # a minimal basis with a unit leading term has no other element
        one = LT[0][1]
        G, LT, EC = [(Poly(ring, ((one, 1),)),)], [(0, one, 1)], [0]
    elif ring.ordering.is_global():
        _interreduce(G, LT, EC, ring, limits)
    return StdBasis._of(ring, rank, G, LT, EC)


def _std(vecs: list[Vector], width: int, limits: Limits, corner=None):
    """The Buchberger/Mora pair loop over nonzero vectors whose first
    ``width`` components carry the leading terms; the rest is a payload
    (see ``_weak_nf``).  Returns the minimal basis (G, LT, EC): primitive
    integer vectors, their leading (component, exponent, coefficient) and
    their ecarts.

    With a ``corner`` (see ``_cut``) the basis is one of the module
    generated by the vectors and the corner monomials, without those
    monomials: corner terms are cut from the inputs, from each S-vector and
    after each reduction step.  A corner monomial x_i*e_c pairs with no
    element, because no leading term is a corner term and an element led in
    a component c >= start has only components >= start, so x_i times it
    lies in the corner."""
    if corner:
        vecs = [w for w in (_cut(v, corner) for v in vecs)
                if not _vec_is_zero(w)]
    if not vecs:
        raise ValueError("all generators are zero")
    ring = vecs[0][0].ring

    G: list[Vector] = []
    LT: list = []
    EC: list[int] = []
    # partners[i]: the indices k whose pair with i is done
    partners: list[set[int]] = []

    def add_element(v: Vector):
        degree = _vec_degree(v[:width])
        if degree > limits.max_degree:
            raise ResourceLimitError(
                f"basis element degree exceeds limit {limits.max_degree}")
        v = _primitive(v)[0]
        lead = _lt(v, width)
        G.append(v)
        LT.append(lead)
        EC.append(degree - sum(lead[1]))
        partners.append(set())

    for v in vecs:
        add_element(v)
    zeros = (ring.zero(),) * len(G[0])

    # pending pairs, popped by (degree of the lcm, i, j)
    pairs: list[tuple[int, int, int]] = []

    def push_pairs(j):
        cj, ej, _ = LT[j]
        for i in range(j):
            ci, ei, _ = LT[i]
            if ci == cj:
                heapq.heappush(pairs, (sum(map(max, ei, ej)), i, j))

    for j in range(len(G)):
        push_pairs(j)
    processed = 0

    while pairs:
        _, i, j = heapq.heappop(pairs)
        partners[i].add(j)
        partners[j].add(i)
        processed += 1
        if processed > limits.max_pairs:
            raise ResourceLimitError(f"pair limit {limits.max_pairs} exceeded")
        ci, ei, ki = LT[i]
        _, ej, kj = LT[j]
        lcm_exp = tuple(map(max, ei, ej))
        # product criterion (valid for ideals only)
        if width == 1 and not any(map(min, ei, ej)):
            continue
        # chain criterion: some k, paired with i and with j (so in
        # component ci), whose leading term divides the lcm
        if any(all(map(le, LT[k][1], lcm_exp))
               for k in partners[i] & partners[j]):
            continue
        # the S-vector (kj/d)*x^(lcm-ei)*G[i] - (ki/d)*x^(lcm-ej)*G[j]; the
        # inner call only shifts and scales G[i]
        d = gcd(ki, kj)
        sp = _vec_comb(1, _vec_comb(1, zeros, -(kj // d),
                                    tuple(map(sub, lcm_exp, ei)), G[i]),
                       ki // d, tuple(map(sub, lcm_exp, ej)), G[j])
        if corner:
            sp = _cut(sp, corner)
        h = _weak_nf(sp, G, LT, EC, ring, limits, width, corner=corner)[0]
        if _lt(h, width) is None:
            continue
        add_element(h)
        push_pairs(len(G) - 1)

    keep = _minimal(LT)
    return ([G[i] for i in keep], [LT[i] for i in keep],
            [EC[i] for i in keep])


def _minimal(leads: list) -> list[int]:
    """Indices of the leading terms no other one divides (the first of
    equal leading terms stays)."""
    keep: list[int] = []
    for i, (ci, ei, _) in enumerate(leads):
        redundant = False
        for j, (cj, ej, _) in enumerate(leads):
            if i == j:
                continue
            if cj == ci and all(map(le, ej, ei)):
                if tuple(ej) == tuple(ei) and j > i:
                    continue  # keep the first of equal leading terms
                redundant = True
                break
        if not redundant:
            keep.append(i)
    return keep


def _interreduce(G: list[Vector], leads: list, ecarts: list[int], ring: Ring,
                 limits: Limits, corner=None):
    """Tail-reduce each element against the others (global orderings only).

    The leading terms of a minimal basis divide none of the others, so
    reduction keeps every leading exponent; the leading coefficient of the
    primitive result and the ecart may change, so both are refreshed."""
    if len(G) == 1:
        return
    for i in range(len(G)):
        reduced = _weak_nf(G[i], G[:i] + G[i + 1:], leads[:i] + leads[i + 1:],
                           ecarts[:i] + ecarts[i + 1:], ring, limits,
                           len(G[i]), full=True, corner=corner)[0]
        G[i] = _primitive(reduced)[0]
        leads[i] = _lt(G[i])
        ecarts[i] = _vec_degree(G[i]) - sum(leads[i][1])


# ---------------------------------------------------------------------------
# Membership, dimensions


def normal_form(p: Poly, basis: StdBasis, limits: Limits = DEFAULT_LIMITS) -> Poly:
    return vector_normal_form((p,), basis, limits)[0]


def membership(p: Union[Poly, Vector], basis: StdBasis,
               limits: Limits = DEFAULT_LIMITS) -> bool:
    v = (p,) if isinstance(p, Poly) else tuple(p)
    return _vec_is_zero(vector_normal_form(v, basis, limits))


def membership_certificate(p: Poly, gens: Sequence[Poly],
                           limits: Limits = DEFAULT_LIMITS):
    """If p is in <gens>, return (u, cofactors) with u*p = sum cof_i*gens_i,
    u a local unit (u = 1 for global orderings).  None otherwise.

    The pair loop runs on the vectors (g_i, 0, e_i), whose payload keeps
    each element's combination of the generators, and (p, 1, 0) is reduced
    against them: a result (0, u, -c) gives u*p = sum c_i*g_i.  A zero
    generator gets the cofactor 0."""
    ring = p.ring
    zero, one = ring.zero(), ring.one()
    m = len(gens)
    G, LT, EC = _std([(g, zero) + tuple(one if j == i else zero
                                        for j in range(m))
                      for i, g in enumerate(gens) if not g.is_zero()],
                     1, limits)
    w, d, g = _primitive((p, one) + (zero,) * m)
    h, num, den = _weak_nf(w, G, LT, EC, ring, limits, 1)
    if h[0].terms:
        return None
    u, *cof = _rational(h[1:], num * d, den * g)
    return u, [-c for c in cof]


def vs_dimension(basis: StdBasis) -> Union[int, _Infinite]:
    """C-dimension of ring^rank / <basis>: count of standard monomials."""
    n = basis.ring.arity
    stair = basis.leading_data()
    total = 0
    for comp in range(basis.rank):
        exps = stair.get(comp, [])
        if any(not any(e) for e in exps):
            continue  # unit leading term: component contributes 0
        if n == 0:
            total += 1
            continue
        bounds = []
        for i in range(n):
            pures = [e[i] for e in exps if sum(e) == e[i]]
            if not pures:
                return INFINITE
            bounds.append(min(pures))
        # column by column: below the head x^h (all exponents but the last)
        # the standard monomials are x^h*x_n^t for t under the least last
        # exponent of a leading term whose head divides x^h; the pure power
        # of x_n is one such term
        cols = [(e[:-1], e[-1]) for e in exps]
        for head in iproduct(*(range(b) for b in bounds[:-1])):
            total += min([t for h, t in cols if all(map(le, h, head))])
    return total


def relative_vs_dimension(numerator: StdBasis, denominator: StdBasis
                          ) -> Union[int, _Infinite]:
    """C-dimension of P/J for standard bases of submodules J <= P of
    ring^rank, finite or INFINITE: the number of monomials in L(P) that are
    not in L(J).

    In a local degree ordering L(I + m^k) = L(I) + m^k, so
    dim (P + m^k)/(J + m^k) counts those monomials of degree below k, and
    as k grows it tends to dim P/J, finite or not (Artin-Rees;
    Greuel-Pfister, *A Singular Introduction to Commutative Algebra*, 5.5).
    A global degree ordering counts the pieces of degree below k the same
    way.  A block ordering is refused: its leading terms are not those of
    least (or greatest) degree.

    The count walks up from the leading terms of P outside L(J), one
    variable at a time.  Whether x^e lies in L(J) depends only on e capped
    at the largest exponent t_i of each x_i among L(J)'s generators, so a
    counted monomial with some e_i > t_i has x^e*x_i^s counted for every s:
    the answer is then INFINITE, and otherwise the walk stays in a box."""
    ring = numerator.ring
    if ring.ordering.blocks is not None:
        raise ValueError("leading-term counts need a degree ordering")
    if numerator.rank != denominator.rank:
        raise ValueError("mixed module ranks")
    n = ring.arity
    below = denominator.leading_data()
    total = 0
    for comp, exps in numerator.leading_data().items():
        walls = below.get(comp, [])
        caps = [max([w[i] for w in walls], default=0) for i in range(n)]

        def outside(exp):
            return not any(all(map(le, w, exp)) for w in walls)
        todo = list({e for e in exps if outside(e)})
        seen = set(todo)
        while todo:
            exp = todo.pop()
            if any(map(gt, exp, caps)):
                return INFINITE
            total += 1
            for i in range(n):
                up = exp[:i] + (exp[i] + 1,) + exp[i + 1:]
                if up not in seen and outside(up):
                    seen.add(up)
                    todo.append(up)
    return total


# ---------------------------------------------------------------------------
# Elimination


def eliminate(gens: Sequence[Poly], elim: Sequence[int],
              limits: Limits = DEFAULT_LIMITS) -> tuple[Ring, list[Poly]]:
    """Intersection of the ideal with the subring omitting the given variables.

    Returns the subring (inheriting the original ordering style on the kept
    variables) and generators of the elimination ideal.  The generators are
    the elements of a minimal block-order standard basis free of the
    eliminated variables, so they are a minimal standard basis of the
    elimination ideal in the subring's ordering.  In a global ordering only
    these elements are interreduced, which gives the ones of the reduced
    basis: a term free of the eliminated variables is divisible only by a
    leading term free of them, and such an element lies in the subring.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    ring = gens[0].ring
    elim = sorted(set(elim))
    if not elim:
        return ring, list(gens)
    keep = [i for i in range(ring.arity) if i not in elim]
    names = tuple(ring.names[i] for i in elim) + tuple(ring.names[i] for i in keep)
    kept_weights = (None if ring.weights is None
                    else tuple(ring.weights[i] for i in keep))
    inner = Ordering(local=ring.ordering.local, weights=kept_weights)
    order = block_ordering((len(elim), len(keep)), (Ordering(), inner))
    work = Ring(names, order)
    G, LT, EC = _std([(g.map_to(work),) for g in gens], 1, limits)
    m = len(elim)
    free = [i for i, (p,) in enumerate(G)
            if not any(any(e[:m]) for e, _ in p.terms)]
    basis = _std_basis([G[i] for i in free], [LT[i] for i in free],
                       [EC[i] for i in free], work, 1, limits)
    sub = Ring(tuple(ring.names[i] for i in keep), inner)
    return sub, [p.map_to(sub) for p in basis.polys()]


# ---------------------------------------------------------------------------
# Syzygies, quotients, saturation


def syzygies(gens: Sequence[Union[Poly, Vector]],
             limits: Limits = DEFAULT_LIMITS) -> list[Vector]:
    """Generators of the first syzygy module of the given elements (a zero
    generator keeps its slot)."""
    return colon_submodule(gens, (), limits)[1]


def ideal_quotient(gens: Sequence[Poly], f: Poly,
                   limits: Limits = DEFAULT_LIMITS) -> list[Poly]:
    """(I : f) = {c : c*f in I}, the colon module of the single numerator f."""
    if f.is_zero():
        raise ValueError("quotient by zero")
    _, quotient = colon_submodule([f], gens, limits)
    return [v[0] for v in quotient] or [f.ring.zero()]


def saturation(gens: Sequence[Poly], f: Poly,
               limits: Limits = DEFAULT_LIMITS) -> list[Poly]:
    """(I : f^infinity) = (I, 1 - s*f) meet R for a fresh variable s
    (Rabinowitsch), by one elimination of s: a minimal standard basis in
    R's ordering."""
    if f.is_zero():
        raise ValueError("saturation by zero")
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("no nonzero generators")
    R = f.ring
    s_name, = fresh_names("s", 1, R.names)
    weights = None if R.weights is None else (Fraction(1),) + R.weights
    work = Ring((s_name,) + R.names,
                Ordering(local=R.ordering.local, weights=weights))
    s = work.var(0)
    _, out = eliminate([g.map_to(work) for g in gens]
                       + [work.one() - s * f.map_to(work)], [0], limits)
    return [p.map_to(R) for p in out]


# ---------------------------------------------------------------------------
# Subquotients


class ContainmentError(ValueError):
    """Denominator generators do not lie in the numerator ideal."""


def colon_submodule(numerator: Sequence[Union[Poly, Vector]],
                    denominator: Sequence[Union[Poly, Vector]],
                    limits: Limits = DEFAULT_LIMITS,
                    times: Sequence[Poly] = ()) -> tuple[int, list[Vector]]:
    """N = {c in R^s : sum c_i a_i in <denominator> + a*<numerator>} for
    numerator (a_1..a_s) in R^r, where a is the ideal of the variables in
    ``times``.

    Presents I1/(I2 + a*I1) as R^s/N.  N is the part in the last s
    components of the module generated by (a_c, e_c), (d, 0) for d in I2,
    and the monomials (0, v*e_c) for v in ``times``; then (v*a_c, 0) =
    v*(a_c, e_c) - (0, v*e_c) is in it.  The monomials are the corner of
    the pair loop rather than generators (see ``_colon_basis``); the ones
    that no other leading term divides end the returned basis.  Returns
    (s, generators of N); the generators form a standard basis of N under
    the module order.  A zero numerator keeps its slot: e_c is in N.
    """
    s, basis = _colon_basis(numerator, denominator, limits, times)
    return s, basis.elements


def _variable(v: Poly) -> int:
    """The index i of v = c*x_i, a nonzero multiple of a ring variable."""
    if len(v.terms) != 1 or sum(v.terms[0][0]) != 1:
        raise ValueError(f"{v} is not a ring variable")
    return v.terms[0][0].index(1)


def _colon_basis(numerator: Sequence[Union[Poly, Vector]],
                 denominator: Sequence[Union[Poly, Vector]], limits: Limits,
                 times: Sequence[Poly]) -> tuple[int, StdBasis]:
    """(s, the standard basis of N) for ``colon_submodule``: the integer
    vectors of the big module's basis that vanish in the first r
    components, cut to the last s.  None is converted to Fractions here.

    The monomials v*e_c of a*e_c, which lie in N, are not generators of the
    pair loop: they are its corner (see ``_std``), so every term in the tag
    components divisible by a variable of ``times`` is dropped as soon as it
    appears, and the monomials that no leading term divides are appended to
    the basis afterwards.  Elements led in the first r components are never
    tail-reduced or converted: nothing reads them."""
    nums = [_vector(a) for a in numerator]
    s = len(nums)
    if s == 0:
        raise ValueError("empty numerator")
    r = len(nums[0])
    ring = nums[0][0].ring
    zero = ring.zero()
    variables = sorted({_variable(v) for v in times})

    def tag(i, p):
        return tuple(p if j == i else zero for j in range(s))

    dens = [d for d in map(_vector, denominator) if not _vec_is_zero(d)]
    big, width = _as_vectors([a + tag(i, ring.one())
                              for i, a in enumerate(nums)]
                             + [d + (zero,) * s for d in dens])
    G, LT, EC = _std(big, width, limits, (r, variables) if variables else None)
    keep = [i for i, lead in enumerate(LT) if lead[0] >= r]
    vectors = [G[i][r:] for i in keep]
    leads = [(LT[i][0] - r,) + LT[i][1:] for i in keep]
    ecarts = [EC[i] for i in keep]
    if ring.ordering.is_global():
        _interreduce(vectors, leads, ecarts, ring, limits,
                     (0, variables) if variables else None)
    for c in range(s):
        for i in variables:
            exp = tuple(int(j == i) for j in range(ring.arity))
            if _divisor(leads, ecarts, c, exp) < 0:
                vectors.append(tag(c, ring.var(i)))
                leads.append((c, exp, 1))
                ecarts.append(0)
    return s, StdBasis._of(ring, s, vectors, leads, ecarts)


def minimal_subset(gens: Sequence[Union[Poly, Vector]],
                   limits: Limits = DEFAULT_LIMITS) -> list[int]:
    """Indices of a minimal generating subset of M = <gens> in a local ring.

    One standard basis of N = {c : sum c_i g_i in m*M}, the colon module of
    ``gens`` over zero with every variable in ``times``, so the pair loop
    drops every non-constant term of the tag components (the corner m*e_c)
    and only the constant tag terms are ever reduced.  Under POT
    (component 0 on top) e_t*1 is a leading term of N exactly when g_t lies
    in <g_{t+1}, ...> + m*M, i.e. when g_t is redundant beside the later
    generators (Nakayama); every other index is kept.  A zero generator is
    dropped.
    """
    if not gens:
        return []
    ring = _vector(gens[0])[0].ring
    if ring.ordering.is_global():
        raise ValueError("minimal generator counts need a local ring")
    _, basis = _colon_basis(gens, (), limits, ring.gens())
    redundant = {t for t, e, _ in basis.leads if not any(e)}
    return [t for t in range(len(gens)) if t not in redundant]


def subquotient_dimension(numerator: Sequence[Poly], denominator: Sequence[Poly],
                          limits: Limits = DEFAULT_LIMITS,
                          check_containment: bool = True,
                          times: Sequence[Poly] = ()) -> Union[int, _Infinite]:
    """dim_C I1/(I2 + a*I1) for ideals I2 <= I1, finite or INFINITE.

    ``times`` lists ring variables generating the ideal a (none by default,
    giving I1/I2); with every variable it is I1/(I2 + m*I1).  a*e_c is the
    corner of the one pair loop (see ``colon_submodule``).
    """
    nums = [g for g in numerator if not g.is_zero()]
    dens = [g for g in denominator if not g.is_zero()]
    if not nums:
        if dens:
            raise ContainmentError("denominator not contained in zero ideal")
        return 0
    if check_containment and dens:
        nbasis = std(nums, limits=limits)
        for d in dens:
            if not membership(d, nbasis, limits):
                raise ContainmentError(f"{d} is not in the numerator ideal")
    s, sub = _colon_basis(nums, dens, limits, times)
    if not sub.vectors:
        return INFINITE if nums[0].ring.arity > 0 else s
    return vs_dimension(sub)
