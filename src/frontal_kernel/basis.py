"""Standard and Groebner bases for ideals and submodules of free modules.

Local orderings use Mora's tangent-cone normal form (with the working-set
extension), global orderings plain division; the same Buchberger pair loop
drives both.  Vectors are tuples of Poly; ideals are rank-1 modules.
Module orderings are position-over-term with lower component index on top,
which makes component elimination a plain block order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Optional, Sequence, Union

from .ring import Ordering, Poly, Ring


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
    max_pairs: int = 20000
    max_degree: int = 80
    jet_order: int = 24
    param_trials: int = 4


DEFAULT_LIMITS = Limits()

Vector = tuple[Poly, ...]


def _as_vectors(gens: Sequence[Union[Poly, Vector]]) -> tuple[list[Vector], int]:
    vecs: list[Vector] = []
    rank = None
    for g in gens:
        if isinstance(g, Poly):
            v: Vector = (g,)
        else:
            v = tuple(g)
        if rank is None:
            rank = len(v)
        elif rank != len(v):
            raise ValueError("mixed vector ranks")
        if any(not p.is_zero() for p in v):
            vecs.append(v)
    if rank is None:
        raise ValueError("empty generator list")
    return vecs, rank


def _lt(v: Vector):
    """Leading (component, exponent, coefficient) under POT, component 0 on top."""
    for c, p in enumerate(v):
        if not p.is_zero():
            e, k = p.leading_term()
            return c, e, k
    return None


def _vec_degree(v: Vector) -> int:
    return max((p.total_degree() for p in v if not p.is_zero()), default=-1)


def _vec_sub_mult(v: Vector, w: Vector, exp, coeff) -> Vector:
    """v - coeff * x^exp * w."""
    return tuple(p - q.mul_term(exp, coeff) for p, q in zip(v, w))


def _vec_is_zero(v: Vector) -> bool:
    return all(p.is_zero() for p in v)


@dataclass
class StdBasis:
    """A confluent basis with minimal pairwise non-divisible leading terms."""

    ring: Ring
    rank: int
    elements: list[Vector]
    lineage: Optional[list[list[Poly]]] = None  # element i = sum lineage[i][j]*gen j
    source: Optional[list[Vector]] = None

    def polys(self) -> list[Poly]:
        if self.rank != 1:
            raise ValueError("not an ideal basis")
        return [v[0] for v in self.elements]

    def leading_data(self) -> dict[int, list[tuple[int, ...]]]:
        stair: dict[int, list[tuple[int, ...]]] = {}
        for v in self.elements:
            c, e, _ = _lt(v)
            stair.setdefault(c, []).append(e)
        return stair


# ---------------------------------------------------------------------------
# Normal forms


def _divides(lead, comp, exp) -> bool:
    """Whether the leading (component, exponent, ...) divides x^exp e_comp."""
    c, e = lead[:2]
    return c == comp and all(a <= b for a, b in zip(e, exp))


def _divisors(leads, comp, exp) -> list[int]:
    """Indices of the leading terms in ``leads`` that divide x^exp e_comp."""
    return [i for i, lead in enumerate(leads) if _divides(lead, comp, exp)]


def _is_monomial(v: Vector) -> bool:
    return sum(len(p.terms) for p in v) == 1


def _drop_known(v: Vector, monomials) -> Vector:
    """v without the terms that one of the (component, exponent) monomials
    divides.  Each monomial lies in the module, so this is a reduction."""
    if not monomials:
        return v
    out = []
    for comp, p in enumerate(v):
        mine = [m for m in monomials if m[0] == comp]
        if mine and p.terms:
            terms = tuple(t for t in p.terms
                          if not any(_divides(m, comp, t[0]) for m in mine))
            if len(terms) != len(p.terms):
                p = Poly(p.ring, terms)
        out.append(p)
    return tuple(out)


def _weak_nf(v: Vector, basis: list[Vector], leads: list, ring: Ring,
             limits: Limits, track: bool = False, gens_count: int = 0,
             lineage: Optional[list[list[Poly]]] = None):
    """Mora weak normal form: u*v = sum a_i * basis_i + h with u a local unit.

    With ``track`` the (u, a) data is returned, expressed against the
    original generators through ``lineage``.  For global orderings u = 1.
    Without ``track``, every term of h that the leading monomial of a
    single-term basis element divides is dropped as soon as it appears:
    that is a reduction by a module element, valid for every ordering, and
    it keeps the remainder inside the corner the monomials cut out.
    ``leads`` holds the leading term (``_lt``) of each basis element.
    """
    is_global = ring.ordering.is_global()
    # the working set T with its leading terms and ecarts, kept in step
    T = list(basis)
    L = list(leads)
    E = [_vec_degree(g) - sum(lead[1]) for g, lead in zip(T, L)]
    # (component, exponent) of the single-term basis elements
    monomials = ([] if track else
                 [lead[:2] for g, lead in zip(T, L) if _is_monomial(g)])
    h = _drop_known(v, monomials)
    # representation data for working elements appended by Mora's trick
    reps: dict[int, tuple[Poly, list[Poly]]] = {}
    u = ring.one()
    cof = [ring.zero() for _ in range(gens_count)] if track else None

    steps = 0
    while not _vec_is_zero(h):
        comp, exp, coeff = lead_h = _lt(h)
        divs_idx = _divisors(L, comp, exp)
        if not divs_idx:
            break
        steps += 1
        if steps > limits.max_pairs * 20:
            raise ResourceLimitError("normal form step limit exceeded")
        i = min(divs_idx, key=E.__getitem__)
        g = T[i]
        if not is_global:
            ecart_h = _vec_degree(h) - sum(exp)
            if E[i] > ecart_h:
                if track:
                    reps[len(T)] = (u, list(cof))
                T.append(h)
                L.append(lead_h)
                E.append(ecart_h)
        _, ge, gc = L[i]
        mexp = tuple(a - b for a, b in zip(exp, ge))
        mc = coeff / gc
        if track:
            if i < len(basis):
                # basis element: use its lineage directly
                if lineage is None:
                    raise ValueError("tracking requires lineage")
                for j, lp in enumerate(lineage[i]):
                    cof[j] = cof[j] + lp.mul_term(mexp, mc)
            else:
                gu, gcof = reps[i]
                # h_new = h - m*g where g = gu*v - sum gcof*gen
                u = u - gu.mul_term(mexp, mc)
                for j in range(gens_count):
                    cof[j] = cof[j] - gcof[j].mul_term(mexp, mc)
        h = _drop_known(_vec_sub_mult(h, g, mexp, mc), monomials)
    if track:
        return h, u, cof
    return h


def _full_nf(v: Vector, basis: list[Vector], leads: list, ring: Ring,
             limits: Limits) -> Vector:
    """Divide every term (global orderings only): canonical remainder.
    ``leads`` holds the leading term of each basis element."""
    result = [ring.zero() for _ in v]
    h = v
    steps = 0
    while not _vec_is_zero(h):
        comp, exp, coeff = _lt(h)
        divs = _divisors(leads, comp, exp)
        if divs:
            steps += 1
            if steps > limits.max_pairs * 40:
                raise ResourceLimitError("normal form step limit exceeded")
            g = basis[divs[0]]
            _, ge, gc = leads[divs[0]]
            h = _vec_sub_mult(h, g, tuple(a - b for a, b in zip(exp, ge)), coeff / gc)
        else:
            result[comp] = result[comp] + ring.monomial(exp, coeff)
            h = list(h)
            h[comp] = h[comp] - ring.monomial(exp, coeff)
            h = tuple(h)
    return tuple(result)


def vector_normal_form(v: Vector, basis: StdBasis,
                       limits: Limits = DEFAULT_LIMITS) -> Vector:
    ring = basis.ring
    leads = [_lt(g) for g in basis.elements]
    if ring.ordering.is_global():
        return _full_nf(v, basis.elements, leads, ring, limits)
    return _weak_nf(v, basis.elements, leads, ring, limits)


# ---------------------------------------------------------------------------
# Buchberger / Mora main loop


def std(gens: Sequence[Union[Poly, Vector]], *, limits: Limits = DEFAULT_LIMITS,
        track: bool = False) -> StdBasis:
    """Standard basis (local orderings) or Groebner basis (global)."""
    vecs, rank = _as_vectors(gens)
    if not vecs:
        raise ValueError("all generators are zero")
    ring = vecs[0][0].ring
    is_global = ring.ordering.is_global()

    G: list[Vector] = []
    LT: list = []  # leading (component, exponent, coefficient) of each G[i]
    lineage: Optional[list[list[Poly]]] = [] if track else None
    source = list(vecs)

    def add_element(v: Vector, lin: Optional[list[Poly]]):
        if _vec_degree(v) > limits.max_degree:
            raise ResourceLimitError(
                f"basis element degree exceeds limit {limits.max_degree}")
        c, e, k = _lt(v)
        scaled = tuple(p.scale(1 / k) for p in v)
        G.append(scaled)
        LT.append(_lt(scaled))
        if track:
            lineage.append([p.scale(1 / k) for p in lin])

    for i, v in enumerate(vecs):
        lin = [ring.one() if j == i else ring.zero() for j in range(len(vecs))] if track else None
        add_element(v, lin)

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
    done = set()
    processed = 0

    while pairs:
        _, i, j = heapq.heappop(pairs)
        done.add((i, j))
        processed += 1
        if processed > limits.max_pairs:
            raise ResourceLimitError(f"pair limit {limits.max_pairs} exceeded")
        ci, ei, _ = LT[i]
        _, ej, _ = LT[j]
        lcm = tuple(map(max, ei, ej))
        # product criterion (valid for ideals only)
        if rank == 1 and all(a + b == c for a, b, c in zip(ei, ej, lcm)):
            continue
        # chain criterion
        skip = False
        for k, (ck, ek, _) in enumerate(LT):
            if k in (i, j):
                continue
            if ck == ci and all(a <= b for a, b in zip(ek, lcm)):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done and pjk in done:
                    skip = True
                    break
        if skip:
            continue
        sp = _vec_sub_mult(
            tuple(p.mul_term(tuple(a - b for a, b in zip(lcm, ei)), Fraction(1))
                  for p in G[i]),
            G[j], tuple(a - b for a, b in zip(lcm, ej)), Fraction(1))
        if track:
            h, u, cof = _weak_nf(sp, G, LT, ring, limits, track=True,
                                 gens_count=len(vecs), lineage=lineage)
        else:
            h = _weak_nf(sp, G, LT, ring, limits)
            u = cof = None
        if _vec_is_zero(h):
            continue
        if track:
            # sp = x^a*G[i] - x^b*G[j]; u*sp - sum cof*gens = h  =>  lineage of h
            lin = [ring.zero() for _ in vecs]
            ai = tuple(a - b for a, b in zip(lcm, ei))
            aj = tuple(a - b for a, b in zip(lcm, ej))
            for t, lp in enumerate(lineage[i]):
                lin[t] = lin[t] + (u * lp).mul_term(ai, Fraction(1))
            for t, lp in enumerate(lineage[j]):
                lin[t] = lin[t] - (u * lp).mul_term(aj, Fraction(1))
            for t in range(len(vecs)):
                lin[t] = lin[t] - cof[t]
        else:
            lin = None
        add_element(h, lin)
        push_pairs(len(G) - 1)

    basis = StdBasis(ring, rank, G, lineage, source)
    leads = _minimalize(basis, LT)
    if is_global and not track:
        _interreduce(basis, leads, limits)
    return basis


def _minimalize(basis: StdBasis, leads: list) -> list:
    """Drop the elements whose leading term another one divides (the first
    of equal leading terms stays); returns the leading terms kept."""
    keep: list[int] = []
    for i, (ci, ei, _) in enumerate(leads):
        redundant = False
        for j, (cj, ej, _) in enumerate(leads):
            if i == j:
                continue
            if cj == ci and all(a <= b for a, b in zip(ej, ei)):
                if tuple(ej) == tuple(ei) and j > i:
                    continue  # keep the first of equal leading terms
                redundant = True
                break
        if not redundant:
            keep.append(i)
    basis.elements = [basis.elements[i] for i in keep]
    if basis.lineage is not None:
        basis.lineage = [basis.lineage[i] for i in keep]
    return [leads[i] for i in keep]


def _interreduce(basis: StdBasis, leads: list, limits: Limits):
    """Tail-reduce each element against the others (global orderings only).

    The leading terms of a minimal basis divide none of the others, so
    reduction keeps every leading term and ``leads`` stays valid."""
    elems = basis.elements
    for i in range(len(elems)):
        others = elems[:i] + elems[i + 1:]
        if not others:
            continue
        reduced = _full_nf(elems[i], others, leads[:i] + leads[i + 1:],
                           basis.ring, limits)
        if not _vec_is_zero(reduced):
            c, e, k = _lt(reduced)
            elems[i] = tuple(p.scale(1 / k) for p in reduced)
    # lineage is invalidated by tail reduction against peers
    if basis.lineage is not None:
        basis.lineage = None


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
    u a local unit (u = 1 for global orderings).  None otherwise."""
    basis = std(gens, limits=limits, track=True)
    if basis.lineage is None:
        raise RuntimeError("lineage lost; certificate unavailable")
    h, u, cof = _weak_nf((p,), basis.elements,
                         [_lt(g) for g in basis.elements], basis.ring, limits,
                         track=True, gens_count=len(basis.source),
                         lineage=basis.lineage)
    if not _vec_is_zero(h):
        return None
    # u*p - sum cof_i*source_i = 0, sources are the nonzero original gens
    full = []
    k = 0
    for g in gens:
        if isinstance(g, Poly) and g.is_zero():
            full.append(basis.ring.zero())
        else:
            full.append(cof[k])
            k += 1
    return u, full


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
        for mono in iproduct(*(range(b) for b in bounds)):
            if not any(all(a <= b for a, b in zip(e, mono)) for e in exps):
                total += 1
    return total


# ---------------------------------------------------------------------------
# Elimination


def eliminate(gens: Sequence[Poly], elim: Sequence[int],
              limits: Limits = DEFAULT_LIMITS) -> tuple[Ring, list[Poly]]:
    """Intersection of the ideal with the subring omitting the given variables.

    Returns the subring (inheriting the original ordering style on the kept
    variables) and generators of the elimination ideal.
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
    from .ring import block_ordering
    order = block_ordering((len(elim), len(keep)), (Ordering(), inner))
    work = Ring(names, order)
    mapped = [g.map_to(work) for g in gens]
    basis = std(mapped, limits=limits)
    sub = Ring(tuple(ring.names[i] for i in keep),
               Ordering(local=ring.ordering.local, weights=kept_weights),
               kept_weights)
    out = []
    for v in basis.elements:
        p = v[0]
        if all(all(e[i] == 0 for i in range(len(elim))) for e, _ in p.terms):
            out.append(p.map_to(sub))
    return sub, out


# ---------------------------------------------------------------------------
# Syzygies, quotients, saturation


def syzygies(gens: Sequence[Union[Poly, Vector]],
             limits: Limits = DEFAULT_LIMITS) -> list[Vector]:
    """Generators of the first syzygy module of the given elements."""
    vecs, rank = _as_vectors(gens)
    m = len(vecs)
    if m == 0:
        raise ValueError("no nonzero generators")
    ring = vecs[0][0].ring
    big: list[Vector] = []
    for i, v in enumerate(vecs):
        unit = tuple(ring.one() if j == i else ring.zero() for j in range(m))
        big.append(tuple(v) + unit)
    basis = std(big, limits=limits)
    out = []
    for v in basis.elements:
        if all(v[c].is_zero() for c in range(rank)):
            out.append(v[rank:])
    return out


def ideal_quotient(gens: Sequence[Poly], f: Poly,
                   limits: Limits = DEFAULT_LIMITS) -> list[Poly]:
    """(I : f) via the last syzygy coordinate of (gens, f)."""
    if f.is_zero():
        raise ValueError("quotient by zero")
    gens = [g for g in gens if not g.is_zero()]
    syz = syzygies(list(gens) + [f], limits=limits)
    out = [s[-1] for s in syz if not s[-1].is_zero()]
    if not out:
        out = [gens[0].ring.zero()]
    return out


def _same_ideal(a: Sequence[Poly], b: Sequence[Poly], limits: Limits) -> bool:
    a = [g for g in a if not g.is_zero()]
    b = [g for g in b if not g.is_zero()]
    if not a or not b:
        return not a and not b
    ba = std(a, limits=limits)
    bb = std(b, limits=limits)
    return (all(membership(g, ba, limits) for g in b)
            and all(membership(g, bb, limits) for g in a))


def saturation(gens: Sequence[Poly], f: Poly,
               limits: Limits = DEFAULT_LIMITS) -> list[Poly]:
    """(I : f^infinity) by iterating the ideal quotient until it stabilises."""
    if f.is_zero():
        raise ValueError("saturation by zero")
    current = [g for g in gens if not g.is_zero()]
    if not current:
        raise ValueError("no nonzero generators")
    for _ in range(limits.max_pairs):
        nxt = ideal_quotient(current, f, limits=limits)
        if _same_ideal(current, nxt, limits):
            return current
        current = nxt
    raise ResourceLimitError("saturation did not stabilise")


# ---------------------------------------------------------------------------
# Subquotients


class ContainmentError(ValueError):
    """Denominator generators do not lie in the numerator ideal."""


def colon_submodule(numerator: Sequence[Poly], denominator: Sequence[Poly],
                    limits: Limits = DEFAULT_LIMITS,
                    times: Sequence[Poly] = ()) -> tuple[int, list[Vector]]:
    """N = {c in R^s : sum c_i a_i in <denominator> + a*<numerator>} for
    numerator (a_1..a_s), where a is the ideal of the variables in ``times``.

    Presents I1/(I2 + a*I1) as R^s/N.  For each v in ``times`` and each a_c
    the monomial vector (0, v*e_c) is added to the generators (a_c, e_c) and
    (d, 0), d in I2; then (v*a_c, 0) = v*(a_c, e_c) - (0, v*e_c) is in the
    module, and ``std`` drops every term that a known monomial divides, so
    the tag components stay constants.  Returns (s, generators of N); the
    generators form a standard basis of N under the module order.
    """
    nums = list(numerator)
    s = len(nums)
    if s == 0:
        raise ValueError("empty numerator")
    ring = nums[0].ring
    zero = ring.zero()
    zeros = (zero,) * s

    def tag(i, p):
        return tuple(p if j == i else zero for j in range(s))

    dens = [d for d in denominator if not d.is_zero()]
    big: list[Vector] = [(a,) + tag(i, ring.one()) for i, a in enumerate(nums)]
    big += [(d,) + zeros for d in dens]
    big += [(zero,) + tag(i, v) for v in times for i in range(s)]
    basis = std(big, limits=limits)
    out = [v[1:] for v in basis.elements if v[0].is_zero()]
    return s, out


def subquotient_dimension(numerator: Sequence[Poly], denominator: Sequence[Poly],
                          limits: Limits = DEFAULT_LIMITS,
                          check_containment: bool = True,
                          times: Sequence[Poly] = ()) -> Union[int, _Infinite]:
    """dim_C I1/(I2 + a*I1) for ideals I2 <= I1, finite or INFINITE.

    ``times`` lists ring variables generating the ideal a (none by default,
    giving I1/I2); with every variable it is I1/(I2 + m*I1).  The monomial
    vectors this adds bound the local standard basis (see
    ``colon_submodule``).
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
    s, ngens = colon_submodule(nums, dens, limits, times)
    if not ngens:
        return INFINITE if nums[0].ring.arity > 0 else s
    sub = StdBasis(nums[0].ring, s, ngens)
    return vs_dimension(sub)
