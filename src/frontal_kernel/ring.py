"""Exact multivariate polynomial arithmetic over Q with local/global orderings."""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Optional, Sequence

from .linalg import _echelon


class RingMismatchError(ValueError):
    """Operands live in different rings."""


# ---------------------------------------------------------------------------
# Monomial orderings
#
# An ordering is encoded by a key function exp -> tuple; larger key means
# larger monomial.  All keys are injective on exponent vectors, so every
# ordering here is total.


@dataclass(frozen=True)
class Ordering:
    """Monomial ordering: (weighted-)degree first, ties by reverse lex.

    ``local`` flips the degree comparison so that 1 beats every variable.
    ``blocks`` optionally splits the exponent vector into segments compared
    left to right (used for elimination and position-over-term tricks).
    """

    local: bool = False
    weights: Optional[tuple[Fraction, ...]] = None
    blocks: Optional[tuple["Ordering", ...]] = None
    block_sizes: Optional[tuple[int, ...]] = None

    def key(self, exp: tuple[int, ...]) -> tuple:
        """One flat tuple: for each block the signed degree, then the
        negated exponents in reverse order.  Every block contributes a
        fixed number of entries, so it compares as the nested per-block
        keys would."""
        if self.blocks is not None:
            out = ()
            i = 0
            for size, ordering in zip(self.block_sizes, self.blocks):
                out += ordering.key(exp[i:i + size])
                i += size
            return out
        if self.weights is not None:
            deg = sum(w * e for w, e in zip(self.weights, exp))
        else:
            deg = sum(exp)
        return (-deg if self.local else deg, *[-e for e in reversed(exp)])

    @functools.cached_property
    def sort_key(self):
        """``key`` memoised per ordering value: each exponent is keyed once
        per process, however many equal orderings are built."""
        return _shared_sort_key(self)

    def is_global(self) -> bool:
        if self.blocks is not None:
            return all(o.is_global() for o in self.blocks)
        return not self.local


@functools.cache
def _shared_sort_key(ordering: Ordering):
    """The one key memo of an ordering value.  Every ``ring()``, graph
    ideal and elimination builds a new ``Ordering``; equal ones share this
    memo, which holds one entry per distinct exponent sorted in it."""
    return functools.cache(ordering.key)


def block_ordering(sizes: Sequence[int], orderings: Sequence[Ordering]) -> Ordering:
    return Ordering(blocks=tuple(orderings), block_sizes=tuple(sizes))


# ---------------------------------------------------------------------------
# Rings


@dataclass(frozen=True)
class Ring:
    """A polynomial ring with named variables and a fixed monomial ordering.

    Weights, the ordering's, are positive rationals used by the weighted
    degree and by weighted orderings; they default to 1 for each variable.
    """

    names: tuple[str, ...]
    ordering: Ordering = field(default_factory=Ordering)

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")
        if self.weights is not None and len(self.weights) != len(self.names):
            raise ValueError("weight vector length differs from arity")

    @property
    def weights(self) -> Optional[tuple[Fraction, ...]]:
        return self.ordering.weights

    @property
    def arity(self) -> int:
        return len(self.names)

    def zero(self) -> "Poly":
        return Poly(self, ())

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c) -> "Poly":
        return self.monomial((0,) * self.arity, c)

    def var(self, i: int) -> "Poly":
        return self.monomial([int(j == i) for j in range(self.arity)])

    def gens(self) -> list["Poly"]:
        return [self.var(i) for i in range(self.arity)]

    def monomial(self, exp: Sequence[int], coeff=1) -> "Poly":
        coeff = Fraction(coeff)
        if coeff == 0:
            return self.zero()
        return Poly(self, ((tuple(exp), coeff),))

    def from_terms(self, terms: Iterable[tuple[tuple[int, ...], Fraction]]) -> "Poly":
        acc: dict[tuple[int, ...], Fraction] = {}
        for exp, c in terms:
            c0 = acc.get(exp)
            c = c if c0 is None else c0 + c
            if c:
                acc[exp] = c
            elif c0 is not None:
                del acc[exp]
        return self._from_dict(acc)

    def _from_dict(self, acc: dict[tuple[int, ...], Fraction]) -> "Poly":
        exps = sorted(acc, key=self.ordering.sort_key, reverse=True)
        return Poly(self, tuple([(e, acc[e]) for e in exps]))

    def _from_numerators(self, acc: dict[tuple[int, ...], int],
                         den: int) -> "Poly":
        """The sum of n/den * x^e over the nonzero entries n of acc: one
        sort and one Fraction per term."""
        exps = sorted([e for e, n in acc.items() if n],
                      key=self.ordering.sort_key, reverse=True)
        if den == 1:
            return Poly(self, tuple([(e, Fraction(acc[e])) for e in exps]))
        return Poly(self, tuple([(e, Fraction(acc[e], den)) for e in exps]))

    def weighted_degree(self, exp: tuple[int, ...]) -> Fraction:
        if self.weights is None:
            return Fraction(sum(exp))
        return sum(w * e for w, e in zip(self.weights, exp))

    def index(self, name: str) -> int:
        return self.names.index(name)


def ring(*names: str, local: bool = False, weights=None) -> Ring:
    w = None if weights is None else tuple(Fraction(x) for x in weights)
    return Ring(tuple(names), Ordering(local=local, weights=w))


def fresh_names(stem: str, k: int, taken) -> tuple[str, ...]:
    """k variable names outside ``taken``: ``stem`` alone when k = 1 and it
    is free, else stem1, stem2, ... skipping the taken ones."""
    if k == 1 and stem not in taken:
        return (stem,)
    numbered = (f"{stem}{i}" for i in itertools.count(1))
    return tuple(itertools.islice(
        (name for name in numbered if name not in taken), k))


# ---------------------------------------------------------------------------
# Polynomials
#
# Products, substitution and derivatives run on integer numerators: each
# operand is scaled once to integers over the least common denominator of
# its coefficients, and one Fraction is formed per term of the result.
# Substitution and the logarithmic-field checks of ``derlog`` are each one
# sum of products of such integer forms over one common denominator
# (``_sum_of_products``), with partial derivatives taken on the forms
# (``_int_diff``); the Jacobian minors and determinants of ``germs`` are
# fraction-free eliminations on the same forms.  Exact division is one
# routine on integer forms (``_exact_quotient``), behind ``exact_divide``
# and the Bareiss steps of those eliminations.
# ``Poly.terms`` holds Fraction coefficients, except inside ``std``: the
# Polys of ``StdBasis.vectors``, ``_std`` and ``_weak_nf`` hold ints.


def _numerators(terms) -> tuple[int, list]:
    """(D, [(e, n), ...]) with n/D the coefficient of x^e and D the least
    common denominator of the terms: the integer form of a Poly."""
    den = math.lcm(*[c.denominator for _, c in terms])
    if den == 1:
        return 1, [(e, c.numerator) for e, c in terms]
    return den, [(e, c.numerator * (den // c.denominator)) for e, c in terms]


def _check_ring(ring_: Ring, polys: Iterable["Poly"]) -> None:
    """Raise RingMismatchError unless every poly lives in ring_."""
    for p in polys:
        if p.ring is not ring_ and p.ring != ring_:
            raise RingMismatchError(
                f"rings differ: {ring_.names} vs {p.ring.names}")


def _forms(ring_: Ring, polys: Sequence["Poly"]) -> list[tuple[int, list]]:
    """The integer forms of polys, which must all live in ring_."""
    _check_ring(ring_, polys)
    return [_numerators(p.terms) for p in polys]


def _int_diff(form: tuple[int, list], var: int) -> tuple[int, list]:
    """The partial derivative in variable ``var`` of a form (D, [(e, n)]),
    over the same denominator D; the n may be any exact coefficients, ints
    or Fractions.  Lowering one exponent moves every surviving term by the
    same vector, and monomial orders are invariant under translation, so
    the surviving terms keep their order."""
    den, terms = form
    return den, [(e[:var] + (e[var] - 1,) + e[var + 1:], n * e[var])
                 for e, n in terms if e[var]]


def _int_product(p: Iterable, q: Iterable,
                 acc: Optional[dict] = None) -> dict[tuple[int, ...], int]:
    """{e: n} for the product of two sequences of integer terms (e, n),
    added into acc when it is given; a coefficient that cancels stays as 0."""
    if acc is None:
        acc = {}
    get = acc.get
    for e1, n1 in p:
        for e2, n2 in q:
            e = tuple(map(add, e1, e2))
            acc[e] = get(e, 0) + n1 * n2
    return acc


def _exact_quotient(p: list, q: list) -> Optional[list]:
    """p / q for integer polynomials [(e, n)], or None when q does not
    divide p in Z[x].  Lex division: each quotient term is the lex-leading
    term of what is left of p over that of q, so its coefficient is an
    integer when q | p in Z[x].  Lex is a well-order whatever the ring's
    ordering, so the loop ends."""
    (qe, qc), *tail = sorted(q, reverse=True)
    rest = dict(p)
    out = []
    while rest:
        e = max(rest)
        k, r = divmod(rest.pop(e), qc)
        shift = tuple(map(sub, e, qe))
        if r or min(shift, default=0) < 0:
            return None
        out.append((shift, k))
        for e2, n2 in tail:
            e3 = tuple(map(add, shift, e2))
            c = rest.get(e3, 0) - k * n2
            if c:
                rest[e3] = c
            else:
                rest.pop(e3, None)
    return out


def _sum_of_products(target: Ring, products) -> "Poly":
    """The sum of c * f_1 * ... * f_k over the products (c, [f_1, ..., f_k]),
    with c an int or a Fraction, k >= 1 and each f_i an integer form
    (D, [(e, n)]).

    The sum is taken in integers over the lcm of the products'
    denominators, in one accumulator that each product's last factor
    multiplies into: one sort and one Fraction per term of the result.
    """
    dens = []
    for c, factors in products:
        d = c.denominator
        for f in factors:
            d *= f[0]
        dens.append(d)
    den = math.lcm(*dens)
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    for (c, factors), d in zip(products, dens):
        k = c.numerator * (den // d)
        terms = factors[0][1]
        if len(factors) == 1:
            for e, n in terms:
                acc[e] = get(e, 0) + n * k
            continue
        for _, q in factors[1:-1]:
            terms = _int_product(terms, q).items()
        if k != 1:
            terms = [(e, n * k) for e, n in terms]
        _int_product(terms, factors[-1][1], acc)
    return target._from_numerators(acc, den)


class Poly:
    """Immutable polynomial: term list sorted decreasingly in the ring order."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: tuple):
        self.ring = ring
        self.terms = terms

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e, _ in self.terms)

    def is_unit(self) -> bool:
        """Invertible in the local ring: nonzero constant term."""
        return self.constant_term() != 0

    def constant_term(self) -> Fraction:
        zero = (0,) * self.ring.arity
        for e, c in self.terms:
            if e == zero:
                return c
        return Fraction(0)

    def leading_term(self) -> tuple[tuple[int, ...], Fraction]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    def leading_exp(self) -> tuple[int, ...]:
        return self.leading_term()[0]

    def leading_coeff(self) -> Fraction:
        return self.leading_term()[1]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def order(self) -> int:
        """Minimal total degree of a term (the order of the germ)."""
        if not self.terms:
            raise ValueError("zero polynomial has no order")
        return min(sum(e) for e, _ in self.terms)

    def ecart(self) -> int:
        return self.total_degree() - sum(self.leading_exp())

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lc = self.leading_coeff()
        if lc == 1:
            return self
        return Poly(self.ring, tuple((e, c / lc) for e, c in self.terms))

    def variables(self) -> set[int]:
        used: set[int] = set()
        for e, _ in self.terms:
            for i, a in enumerate(e):
                if a:
                    used.add(i)
        return used

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatchError(
                    f"rings differ: {self.ring.names} vs {other.ring.names}")
            return other
        return self.ring.const(other)

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            c0 = acc.get(e)
            c = c if c0 is None else c0 + c
            if c:
                acc[e] = c
            elif c0 is not None:
                del acc[e]
        return self.ring._from_dict(acc)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.ring, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Poly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        if len(other.terms) == 1:
            return self.mul_term(*other.terms[0])
        if len(self.terms) == 1:
            return other.mul_term(*self.terms[0])
        d1, p = _numerators(self.terms)
        d2, q = _numerators(other.terms)
        return self.ring._from_numerators(_int_product(p, q), d1 * d2)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative exponent")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return self.ring.zero()
        return Poly(self.ring, tuple((e, k * c) for e, k in self.terms))

    def mul_term(self, exp: tuple[int, ...], coeff: Fraction) -> "Poly":
        """self * coeff*x^exp: a monomial factor keeps the term order, so
        there is nothing to merge or sort."""
        if coeff == 0:
            return self.ring.zero()
        if coeff == 1:
            return Poly(self.ring, tuple([(tuple(map(add, e, exp)), c)
                                          for e, c in self.terms]))
        n, d = coeff.numerator, coeff.denominator
        return Poly(self.ring, tuple([
            (tuple(map(add, e, exp)), Fraction(c.numerator * n,
                                               c.denominator * d))
            for e, c in self.terms]))

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.ring == other.ring and dict(self.terms) == dict(other.terms)
        if isinstance(other, (int, Fraction)):
            return self == self.ring.const(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring.names, frozenset(self.terms)))

    # -- calculus and structure --------------------------------------------

    def diff(self, var: int) -> "Poly":
        if not 0 <= var < self.ring.arity:
            raise IndexError(f"no variable with index {var}")
        return Poly(self.ring, tuple(_int_diff((1, self.terms), var)[1]))

    def substitute(self, images: Sequence["Poly"], target: Optional[Ring] = None) -> "Poly":
        """Evaluate self at the given images (one per variable)."""
        if len(images) != self.ring.arity:
            raise ValueError("one image per variable required")
        if target is None:
            if not images:
                raise ValueError("target ring required for 0-ary substitution")
            target = images[0].ring
        images = [_numerators((img if isinstance(img, Poly)
                               else target.const(img)).terms)
                  for img in images]
        unit = [((0,) * target.arity, 1)]
        # powers[i][a] = (D, terms): the a-th power of image i over D
        powers = [[(1, unit)] for _ in images]

        def power(i: int, a: int) -> tuple[int, Iterable]:
            cache = powers[i]
            while len(cache) <= a:
                d, p = cache[-1]
                cache.append((d * images[i][0],
                              _int_product(p, images[i][1]).items()))
            return cache[a]

        # c * x^e is c times the product of the powers of the images
        products = []
        for e, c in self.terms:
            factors = []
            for i, a in enumerate(e):
                if a:
                    factors.append(power(i, a))
            products.append((c, factors or [(1, unit)]))
        return _sum_of_products(target, products)

    def jet(self, d) -> "Poly":
        """Truncate to terms of total degree <= d."""
        return Poly(self.ring, tuple(t for t in self.terms if sum(t[0]) <= d))

    def weighted_degree(self) -> Fraction:
        if not self.terms:
            return Fraction(-1)
        return max(self.ring.weighted_degree(e) for e, _ in self.terms)

    def map_to(self, other: Ring) -> "Poly":
        """Reinterpret in a ring with the same variable names (any order/ordering).
        With the names in the same order the exponents stay as they are, and
        only a different ordering sorts them."""
        if other.names == self.ring.names:
            if other.ordering == self.ring.ordering:
                return Poly(other, self.terms)
            key = other.ordering.sort_key
            return Poly(other, tuple(sorted(self.terms, key=lambda t: key(t[0]),
                                            reverse=True)))
        idx = [other.names.index(n) if n in other.names else -1
               for n in self.ring.names]
        acc = {}
        for e, c in self.terms:
            e2 = [0] * other.arity
            for i, a in enumerate(e):
                if a:
                    if idx[i] < 0:
                        raise ValueError(
                            f"variable {self.ring.names[i]} absent from target ring")
                    e2[idx[i]] = a
            acc[tuple(e2)] = c
        return other._from_dict(acc)

    # -- display ------------------------------------------------------------

    def __repr__(self) -> str:
        return f"Poly({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            factors = []
            for name, a in zip(self.ring.names, e):
                if a == 1:
                    factors.append(name)
                elif a > 1:
                    factors.append(f"{name}^{a}")
            body = "*".join(factors)
            if not body:
                chunk = str(c)
            elif c == 1:
                chunk = body
            elif c == -1:
                chunk = f"-{body}"
            else:
                chunk = f"{c}*{body}"
            parts.append(chunk)
        out = parts[0]
        for chunk in parts[1:]:
            out += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
        return out


# ---------------------------------------------------------------------------
# Exact division and quasihomogeneity


def exact_divide(p: Poly, q: Poly) -> Optional[Poly]:
    """Return p/q when q divides p exactly as polynomials, else None.

    The integer form of p is divided by the primitive integer form of q
    (``_exact_quotient``); by Gauss's lemma that quotient is integral
    exactly when q | p in Q[x].
    """
    (dp, pn), (dq, qn) = _forms(p.ring, [p, q])
    if not qn:
        raise ZeroDivisionError("division by the zero polynomial")
    content = math.gcd(*[n for _, n in qn])
    quotient = _exact_quotient(pn, [(e, n // content) for e, n in qn])
    if quotient is None:
        return None
    # p/q = (P/dp) / (content*Q'/dq) = (P/Q') * dq / (dp*content)
    return p.ring._from_numerators({e: k * dq for e, k in quotient},
                                   dp * content)


def associates(p: Poly, q: Poly) -> bool:
    """p = c*q for a nonzero constant c: their monic forms agree."""
    return p.monic() == p._coerce(q).monic()


def _vertex_weights(exps: list[list[int]]) -> Optional[list[Fraction]]:
    """Positive w with w.e = w.e' for all rows e, e' of ``exps``, or None.

    Every such w is a multiple of a point of the polytope
    P = {w >= 0 : w.e = 1 for every e}.  A vertex of P is the unique
    solution on its support, whose columns are independent, so the vertices
    are read off the positive solutions over all column subsets.  A positive
    point exists iff the vertices cover every column, and then their sum is
    one.
    """
    m = len(exps[0])
    total = [Fraction(0)] * m
    for size in range(1, m + 1):
        for cols in itertools.combinations(range(m), size):
            a = [[Fraction(e[j]) for j in cols] + [Fraction(1)] for e in exps]
            pivots = _echelon(a, size)
            if (len(pivots) == size and not any(row[size] for row in a[size:])
                    and all(row[size] > 0 for row in a[:size])):
                for j, row in zip(cols, a):
                    total[j] += row[size]
    return total if all(total) else None


def quasihomogeneous_weights(p: Poly):
    """Positive integer weights w and degree d with w.a = d for every term.

    Returns (weights, degree, free_mask) or None.  Variables absent from p
    get weight 1 and are flagged free.  An underdetermined system among the
    present variables takes the first free values in 1..6 that make every
    weight positive, else the vertex sum of ``_vertex_weights``, which
    decides whether positive weights exist at all.
    """
    if p.is_zero():
        raise ValueError("quasihomogeneity is undefined for 0")
    n = p.ring.arity
    exps = [e for e, _ in p.terms]
    present = sorted(p.variables())
    absent = [i for i in range(n) if i not in present]
    if not present:
        return None  # nonzero constant: w.a = d > 0 impossible
    m = len(present)
    base = exps[0]
    # rows . w = 0 in reduced row echelon form
    rows = [[Fraction(e[i] - base[i]) for i in present] for e in exps[1:]]
    pivots = _echelon(rows, m)
    free_cols = [j for j in range(m) if j not in pivots]
    if not free_cols:
        return None  # only w = 0 solves the rows, so no vertex exists either

    def solution(free_values):
        w = [Fraction(0)] * m
        for j, v in zip(free_cols, free_values):
            w[j] = Fraction(v)
        for row, col in zip(rows, pivots):
            w[col] = -sum(row[j] * w[j] for j in free_cols)
        return w

    w = None
    for trial in itertools.product(range(1, 7), repeat=len(free_cols)):
        cand = solution(trial)
        if all(v > 0 for v in cand):
            w = cand
            break
    if w is None:
        w = _vertex_weights([[e[i] for i in present] for e in exps])
    if w is None:
        return None
    scale = math.lcm(*[v.denominator for v in w])
    scaled = [int(v * scale) for v in w]
    g = math.gcd(*scaled)
    ints = [1] * n
    for j, i in enumerate(present):
        ints[i] = scaled[j] // g
    d = sum(wi * ai for wi, ai in zip(ints, base))
    # re-check every term
    for e in exps:
        if sum(wi * ai for wi, ai in zip(ints, e)) != d:
            return None
    free_mask = tuple(i in absent for i in range(n))
    return tuple(ints), d, free_mask
