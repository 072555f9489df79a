"""Image equations, Milnor numbers, Jacobian modules and frontal invariants."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import linalg
from .basis import (DEFAULT_LIMITS, INFINITE, Limits, ResourceLimitError,
                    StdBasis, _Infinite, colon_submodule, eliminate,
                    relative_vs_dimension, saturation, std,
                    subquotient_dimension, vs_dimension)
from .derlog import LogField, euler_certificate
from .germs import (GermError, MapGerm, maximal_minors, multiplicity, once,
                    poly_det, target_names)
from .ring import (Poly, Ring, _forms, _int_product, _numerators,
                   associates, exact_divide, fresh_names, ring)
from .squarefree import is_squarefree


class InvariantError(RuntimeError):
    """An invariant computation failed a precondition or sanity identity."""


# ---------------------------------------------------------------------------
# Image equations


@dataclass(frozen=True)
class ImageData:
    """Reduced defining equation of the image hypersurface.

    The equation is squarefree by construction, without a gcd: it is the
    product of the distinct principal generators of the branch graph
    eliminants, each irreducible over Q.  A branch's generator is its
    characteristic determinant D = c g^k when k = 1 is certified, else its
    elimination (see ``_image_equation``).
    """

    ring: Ring          # local ring in the target variables
    equation: Poly      # squarefree, monic leading coefficient


def _graph_names(comps: Sequence[Poly], target: Sequence[str],
                 params: Sequence[str]) -> tuple[str, ...]:
    """The names of the graph ring of ``_graph_ideal``, which must differ."""
    src = comps[0].ring
    names = src.names[:src.arity - len(params)] + tuple(target) + tuple(params)
    if len(set(names)) != len(names):
        raise InvariantError(
            f"source/target/parameter name clash in {names}; rename variables")
    return names


def _graph_ideal(comps: Sequence[Poly], target: Sequence[str],
                 params: Sequence[str] = (), extra: Sequence[Poly] = (),
                 local: bool = False) -> tuple[list[Poly], range]:
    """The graph ideal (y_j - f_j) of ``comps`` plus the ``extra``
    generators (on the source or the target), in the ring of the source
    variables, then ``target``, then the trailing ``params`` of the source;
    with the indices of the source variables, for ``eliminate``."""
    n = comps[0].ring.arity - len(params)
    big = ring(*_graph_names(comps, target, params), local=local)
    gens = [big.var(n + j) - c.map_to(big) for j, c in enumerate(comps)]
    return gens + [p.map_to(big) for p in extra], range(n)


def _branch_eliminant(comps: Sequence[Poly], target: Sequence[str],
                      params: Sequence[str], limits: Limits,
                      extra: Sequence[Poly] = ()) -> Poly:
    """The monic generator of the eliminant of the source variables from
    the graph ideal of one branch plus ``extra``: with no ``extra``, the
    certified characteristic determinant when the branch has its form
    (``_image_determinant``), else one elimination."""
    if not extra:
        g = _image_determinant(comps, target, params, limits)
        if g is not None:
            return g
    _, gens = eliminate(*_graph_ideal(comps, target, params, extra), limits)
    if not gens:
        raise InvariantError("elimination yields the zero ideal: image is "
                             "not a hypersurface (germ not finite?)")
    if len(gens) > 1:
        raise InvariantError("image is not a hypersurface: elimination ideal "
                             f"needs {len(gens)} generators")
    return gens[0].monic()


# the points t = 1, 2, 3, at which a characteristic determinant is
# specialised to certify that it is squarefree (see ``_squarefree_in``)
_CERTIFICATE_POINTS = 3


def _image_determinant(comps: Sequence[Poly], target: Sequence[str],
                       params: Sequence[str], limits: Limits
                       ) -> Optional[Poly]:
    """The branch eliminant as det(y_q I - A) (Mond-Pellikaan, *Fitting
    ideals and multiple points of analytic mappings*, LNM 1414, 1989), in
    the ring ``eliminate`` returns it in; None when the branch lacks the
    form below or the determinant is not certified.

    The form: n - 1 components are distinct source variables x_i (the
    parameters, mapped to themselves, count as such), leaving one source
    variable x_r, and one more component f_p has a nonzero constant
    leading coefficient lc in x_r, of least x_r-degree d among the two left.
    Then Q[x] is a free Q[x', y_p]-module with basis 1, x_r, ..., x_r^(d-1),
    where y_p acts as f_p, so x_r^d = (y_p - (f_p - lc x_r^d)) / lc.  A is
    multiplication by the last component f_q on that basis, written in the
    target coordinates.  D = det(y_q I - A) is the characteristic
    polynomial of f_q over the fraction field of Q[x', y_p], so D = c g^k:
    g is the minimal polynomial of f_q, the eliminant up to a constant c,
    and k is the generic degree of the branch onto its image.  D is monic
    in y_q of degree d, so if one specialisation of (x', y_p) leaves a
    squarefree polynomial in y_q then k = 1, and D.monic() is the eliminant.
    The specialisations are tested by a remainder sequence over Q, not by
    ``squarefree.is_squarefree``, whose gcd is one elimination per call and
    costs several times the determinant.  An uncertified D (k > 1, as for
    (x^2, x^4 + x^6)) falls back to ``eliminate``."""
    _graph_names(comps, target, params)
    n = comps[0].ring.arity - len(params)
    ident: dict[int, int] = {}      # source variable -> its component
    for i, c in enumerate(comps):
        if len(c.terms) == 1:
            e, k = c.terms[0]
            if k == 1 and sum(e) == 1 and e.index(1) < n:
                ident.setdefault(e.index(1), i)
    if len(ident) == n:     # leave the last one to be x_r
        ident.popitem()
    if len(ident) != n - 1:
        return None
    r = next(v for v in range(n) if v not in ident)
    # the target index of every source variable but x_r
    place = dict(ident)
    place.update({n + j: len(comps) + j for j in range(len(params))})
    arity = len(comps) + len(params)

    def split(h: Poly) -> list[dict]:
        # h as a polynomial in x_r over the target coordinates of x'
        out: list[dict] = []
        for e, c in h.terms:
            while len(out) <= e[r]:
                out.append({})
            te = [0] * arity
            for v, a in enumerate(e):
                if a and v != r:
                    te[place[v]] = a
            out[e[r]][tuple(te)] = c
        return out

    rest = [i for i in range(len(comps)) if i not in ident.values()]
    forms = {i: split(comps[i]) for i in rest}
    zero = (0,) * arity
    monic = [i for i in rest
             if len(forms[i]) > 1 and list(forms[i][-1]) == [zero]]
    if not monic:
        return None
    p = min(monic, key=lambda i: len(forms[i]))
    q, = (i for i in rest if i != p)
    *low, top = forms[p]
    d, lc = len(low), top[zero]
    # x_r^d in the basis: rho_0 = (y_p - a_0)/lc, rho_k = -a_k/lc
    rho = [{e: -c / lc for e, c in a.items()} for a in low]
    y_p = tuple(int(j == p) for j in range(arity))
    rho[0][y_p] = 1 / lc

    def times_x_r(w: list[dict]) -> list[dict]:
        *shifted, carry = w
        out = [{}] + shifted
        if carry:
            for i, a in enumerate(rho):
                if a:
                    out[i] = acc = dict(out[i])
                    _int_product(carry.items(), a.items(), acc)
        return out

    # the columns of A: f_q by Horner's rule, then times x_r, d - 1 times
    column: list[dict] = [{}] * d
    for coeff in reversed(forms[q]):
        column = times_x_r(column)      # a new dict at index 0
        for e, c in coeff.items():
            column[0][e] = column[0].get(e, 0) + c
    columns = [column]
    while len(columns) < d:
        columns.append(times_x_r(columns[-1]))
    T = ring(*target, *params)
    y_q = tuple(int(j == q) for j in range(arity))
    rows = [[T.from_terms([(e, -c) for e, c in columns[j][i].items()]
                          + ([(y_q, 1)] if i == j else []))
             for j in range(d)] for i in range(d)]
    D = poly_det(rows)
    if not any(_squarefree_in(D, q, t)
               for t in range(1, _CERTIFICATE_POINTS + 1)):
        return None
    degree = D.total_degree()
    if degree > limits.max_degree:
        raise ResourceLimitError(f"image determinant degree {degree} "
                                 f"exceeds limit {limits.max_degree}")
    return D.monic()


def _squarefree_in(D: Poly, q: int, t: int) -> bool:
    """Whether D, with every variable but the q-th set to t(1 + i t) for
    the i-th of them, is a squarefree polynomial in the q-th: whether its
    gcd with its derivative is a constant.  The gcd is the last term of a
    Euclidean remainder sequence, each remainder kept as a primitive
    integer multiple of the one over Q (a pseudo-remainder over its
    content)."""
    _, terms = _numerators(D.terms)
    coeffs: dict[int, int] = {}
    for e, n in terms:
        for i, a in enumerate(e):
            if a and i != q:
                n *= (t * (1 + i * t)) ** a
        coeffs[e[q]] = coeffs.get(e[q], 0) + n
    a = [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]
    b = [k * c for k, c in enumerate(a)][1:]   # its top entry is d a[d]
    return len(_int_gcd(a, b)) == 1


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """A gcd over Q of two polynomials given as integer coefficient lists
    from the constant term up, b with a nonzero last entry: the last
    nonzero remainder of their Euclidean sequence."""
    while b:
        a, b = b, _pseudo_remainder(a, b)
    return a


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """The remainder of lead(b)^k a by b over its content, polynomials as
    coefficient lists from the constant term up, b with a nonzero last
    entry; trimmed, so [] for a zero remainder."""
    lead, m = b[-1], len(b) - 1
    for k in range(len(a) - 1, m - 1, -1):
        c = a[k]
        if c:
            a = [lead * x for x in a]
            for i, bc in enumerate(b):
                a[k - m + i] -= c * bc
    a = a[:m]
    while a and not a[-1]:
        a.pop()
    content = math.gcd(*a)
    return [x // content for x in a] if content > 1 else a


def meets_origin_again(f: MapGerm) -> bool:
    """Whether a branch of the plane curve f (n = 1) also passes through
    the origin at some x != 0: whether the gcd over Q of its components
    has a root other than 0, that is, is not a monomial.  The image
    equation, which is global, then has branches at the origin that the
    germ does not have.  False for n >= 2, where this is not tested."""
    if f.n != 1:
        return False
    for comps in f.branches:
        lists = []
        for _, terms in _forms(f.source, comps):
            coeffs = [0] * (max(e for (e,), _ in terms) + 1)
            for (e,), n in terms:
                coeffs[e] = n
            lists.append(coeffs)
        if sum(map(bool, _int_gcd(*lists))) > 1:
            return True
    return False


def _check_vanishes(equation: Poly, comps: Sequence[Poly],
                    params: Sequence[Poly] = ()) -> None:
    src = comps[0].ring
    pulled = equation.substitute(list(comps) + list(params), src)
    if not pulled.is_zero():
        raise InvariantError("image equation does not vanish on the "
                             "parametrization (internal error)")


def image_equation(f: MapGerm, limits: Limits = DEFAULT_LIMITS) -> ImageData:
    """Reduced equation of the image, by one characteristic determinant or
    one graph-ideal elimination per branch (once per germ and limits)."""
    return once(f, ("image_equation", limits),
                lambda: _image_equation(f, limits))


def _image_equation(f: MapGerm, limits: Limits) -> ImageData:
    """The product of the distinct branch eliminants, monic.

    No squarefree reduction is needed.  The graph ideal (y - f(x)) of a
    branch is prime, since Q[x, y]/(y - f) is isomorphic to Q[x], so its
    elimination ideal is prime; when it is principal its generator g is
    irreducible over Q.  A branch of the form of ``_image_determinant``
    gives D = det(y_q I - A) = c g^k, with k the generic degree of the
    branch onto its image; D is taken only when k = 1 is certified (D is
    squarefree), so it is g up to the constant c.  Every other branch
    takes one elimination.  Distinct branches give pairwise non-associate
    irreducibles (associates are dropped below), so their product is
    squarefree.
    """
    tnames = target_names(f.n + 1)
    target = f.target_ring(local=True)
    factors: list[Poly] = []
    for comps in f.branches:
        g = _branch_eliminant(comps, tnames, (), limits).map_to(target)
        if not any(associates(g, h) for h in factors):
            factors.append(g)
    product = target.one()
    for g in factors:
        product = product * g
    reduced = product.monic()
    for comps in f.branches:
        _check_vanishes(reduced, comps)
    return ImageData(target, reduced)


# ---------------------------------------------------------------------------
# Milnor numbers


def _jacobian_basis(g: Poly, limits: Limits) -> StdBasis:
    """The standard basis of J(g) in the local ring at the origin; the
    basis [1] when a partial is a unit, with no pair loop."""
    local = g.ring if not g.ring.ordering.is_global() else \
        ring(*g.ring.names, local=True)
    gl = g if g.ring is local or g.ring == local else g.map_to(local)
    partials = [gl.diff(i) for i in range(local.arity)]
    partials = [p for p in partials if not p.is_zero()]
    if not partials:
        raise InvariantError("constant polynomial has no Jacobian ideal")
    if any(p.is_unit() for p in partials):
        return StdBasis(local, 1, [(local.one(),)])
    return std(partials, limits=limits)


def milnor_number(g: Poly,
                  limits: Limits = DEFAULT_LIMITS) -> Union[int, _Infinite]:
    """Colength of the Jacobian ideal in the local ring at the origin."""
    if g.is_zero():
        raise InvariantError("Milnor number of the zero polynomial")
    return vs_dimension(_jacobian_basis(g, limits))


def image_jacobian_basis(image: ImageData,
                         limits: Limits = DEFAULT_LIMITS) -> StdBasis:
    """The standard basis of J(g) for a kept image equation g (once per
    image and limits, so once per germ)."""
    return once(image, ("jacobian_basis", limits),
                lambda: _jacobian_basis(image.equation, limits))


def image_milnor_number(image: ImageData, limits: Limits = DEFAULT_LIMITS
                        ) -> Union[int, _Infinite]:
    """Milnor number of a kept image equation, read off its kept basis of
    J(g) (``image_jacobian_basis``).  For every germ but a plane branch,
    whose local numbers come from ``value_semigroup``, the ``mu`` line and
    the plane-curve chain count its standard monomials, and
    ``hat_M_dimension`` reads its leading terms."""
    return vs_dimension(image_jacobian_basis(image, limits))


# ---------------------------------------------------------------------------
# The value semigroup of a plane branch


@dataclass(frozen=True)
class ValueSemigroup:
    """The values S = {ord_x h(f(x)) : h in O_2} of a plane branch f
    (Zariski, *The Moduli Problem for Plane Branches*, 1973; Casas-Alvero,
    *Singularities of Plane Curves*, LMS LNS 276, 2000).  S holds every
    integer from its conductor c on, and its least positive value m is the
    multiplicity of f."""

    values: tuple[int, ...]     # the values below c, ascending from 0
    conductor: int
    multiplicity: int

    @property
    def delta(self) -> int:
        """The number of gaps of S, dim O_1 / f^*O_2."""
        return self.conductor - len(self.values)


def value_semigroup(f: MapGerm, limits: Limits = DEFAULT_LIMITS
                    ) -> Optional[ValueSemigroup]:
    """The value semigroup of f when f is one plane branch (n = 1) of
    generic degree 1, else None (once per germ and limits).

    The local numbers of the branch need no image equation: mu = c
    (Milnor's mu = 2 delta - r + 1 for r = 1 branch, with c = 2 delta), the
    conductor ideal is (x^c), of colength c, and hat_M = delta - m + 1
    (``hat_M_dimension``).  They hold also where the global image equation
    has branches at the origin that f does not have
    (``meets_origin_again``)."""
    return once(f, ("value_semigroup", limits),
                lambda: _value_semigroup(f, limits))


def _value_semigroup(f: MapGerm, limits: Limits) -> Optional[ValueSemigroup]:
    """Modulo x^N, Q[[p, q]] is spanned by the p^i q^j with
    i ord p + j ord q < N, every other product lying in (x^N), so the
    values of S below N are the pivots of their echelon form by lowest
    order (``_values_below``).  Once [c, c + m) lies in S, adding m gives
    every integer from c on: that certifies the conductor c.  N starts at
    (a - 1)(b - 1) + m for the orders a and b of p and q, the conductor of
    <a, b> plus m, which certifies in one round when gcd(a, b) = 1, since
    S = <a, b> then, and doubles until it certifies.

    Values that keep a common divisor > 1 mean a generic degree > 1, and S
    has no conductor: None when every exponent of p and q shares a divisor
    > 1, as in (x^2, x^4 + x^6), or when the values below the degree limit
    do.  Values of gcd 1 that do not certify within the limit raise
    ResourceLimitError."""
    if f.n != 1 or len(f.branches) != 1:
        return None
    p, q = f.components
    if math.gcd(*[e for c in (p, q) for (e,), _ in c.terms]) > 1:
        return None
    a, b = p.order(), q.order()
    m = min(a, b)
    # constant factors do not change the orders of the values
    forms = [terms for _, terms in _forms(f.source, (p, q))]
    cap = limits.max_degree + 1     # series of degree at most max_degree
    N = min((a - 1) * (b - 1) + m, cap)
    while True:
        values = _values_below(forms, N)
        c = N
        while c - 1 in values:
            c -= 1
        if N - c >= m:
            break
        if N == cap:
            if math.gcd(*values) > 1:
                return None
            raise ResourceLimitError(
                "value semigroup: the conductor is not certified by series "
                f"of degree at most {limits.max_degree} (max_degree)")
        N = min(2 * N, cap)
    S = ValueSemigroup(tuple(sorted(v for v in values if v < c)), c, m)
    # a plane branch is Gorenstein: S is symmetric, so c = 2 delta
    if c != 2 * S.delta:
        raise AssertionError(f"value semigroup has conductor {c}, "
                             f"not 2 delta = {2 * S.delta}")
    return S


def _values_below(forms: list[list], N: int) -> set[int]:
    """The orders below N of the nonzero series in the span of the
    products p^i q^j mod x^N, for the integer forms [p, q] of one variable
    (terms ((e,), n)): the pivots of one fraction-free echelon by lowest
    order.  A product's order is i ord p + j ord q, so each power p^i takes
    the factors q^j until its order reaches N."""
    p, q = forms
    pivots: dict[int, dict[int, int]] = {}

    def times(series, factor):
        # series * factor mod x^N
        return [(e, n) for e, n in _int_product(series, factor).items()
                if n and e[0] < N]

    power = [((0,), 1)]
    while power:
        product = power
        while product:
            row = {e: n for (e,), n in product}
            while row:
                k = min(row)
                pivot = pivots.get(k)
                if pivot is None:
                    content = math.gcd(*row.values())
                    pivots[k] = {e: n // content for e, n in row.items()}
                    break
                # s row - t pivot is zero at k, with no division
                g = math.gcd(pivot[k], row[k])
                s, t = pivot[k] // g, row[k] // g
                acc = {e: s * n for e, n in row.items()}
                for e, n in pivot.items():
                    acc[e] = acc.get(e, 0) - t * n
                row = {e: n for e, n in acc.items() if n}
            product = times(product, q)
        power = times(power, p)
    return set(pivots)


# ---------------------------------------------------------------------------
# Unfoldings


@dataclass(frozen=True)
class UnfoldingSpec:
    """An r-parameter unfolding F(x,u) = (f_u(x), u) of a mono-germ."""

    base: MapGerm
    params: tuple[str, ...]
    source: Ring                       # local ring: base variables then params
    components: tuple[Poly, ...]       # the n+1 components of f_u
    explicit_G: Optional[Poly] = None  # user-supplied good-equation candidate
    stable_asserted: bool = False      # user asserts frontal stability

    @property
    def r(self) -> int:
        return len(self.params)

    @property
    def n(self) -> int:
        return self.base.n

    def target_ring(self) -> Ring:
        return ring(*target_names(self.n + 1), *self.params, local=True)

    def unfolded_map(self) -> MapGerm:
        """F = (f_u, u) as a germ (C^{n+r}, 0) -> (C^{n+r+1}, 0)."""
        n = self.n
        param_vars = [self.source.var(n + j) for j in range(self.r)]
        return MapGerm(self.source, (tuple(self.components) + tuple(param_vars),))


def unfolding(base: MapGerm, params: Sequence[str],
              components: Sequence[Poly], *, explicit_G: Optional[Poly] = None,
              stable_asserted: bool = False) -> UnfoldingSpec:
    if len(base.branches) != 1:
        raise GermError("unfoldings are supported for mono-germs")
    n = base.n
    params = tuple(params)
    expected = tuple(base.source.names) + params
    src = components[0].ring
    if src.names != expected:
        raise InvariantError(
            f"unfolding components must live in variables {expected}, "
            f"got {src.names}")
    if len(components) != n + 1:
        raise InvariantError(f"expected {n + 1} components, got {len(components)}")
    zero = [src.const(0)] * len(params)
    for c, c0 in zip(components, base.components):
        if c.constant_term() != 0:
            raise InvariantError("unfolding components must vanish at the origin")
        restricted = c.substitute(
            [src.var(i) for i in range(n)] + zero, src)
        if restricted != c0.map_to(src):
            raise InvariantError(
                "setting the parameters to 0 does not recover the base germ")
    return UnfoldingSpec(base, params, src, tuple(components), explicit_G,
                         stable_asserted)


def unfolding_image_equation(U: UnfoldingSpec,
                             limits: Limits = DEFAULT_LIMITS) -> Poly:
    """Reduced equation of the image of F = (f_u, u), in (y, u) variables
    (once per unfolding and limits)."""
    return once(U, ("unfolding_image_equation", limits),
                lambda: _unfolding_image_equation(U, limits))


def _unfolding_image_equation(U: UnfoldingSpec, limits: Limits) -> Poly:
    # the graph ideal of F is prime (Q[x, u, y]/(y - f_u) is Q[x, u]), so its
    # principal eliminant is irreducible over Q and needs no squarefree gcd
    tnames = target_names(U.n + 1)
    g = _branch_eliminant(U.components, tnames, U.params, limits)
    target = U.target_ring()
    reduced = g.map_to(target).monic()
    param_vars = [U.source.var(U.n + j) for j in range(U.r)]
    _check_vanishes(reduced, U.components, param_vars)
    return reduced


# ---------------------------------------------------------------------------
# Siersma counts


def siersma_count(U: UnfoldingSpec, t0,
                  limits: Limits = DEFAULT_LIMITS) -> int:
    """Total Milnor number of g_{t0} at critical points off the zero level.

    The ambient Milnor ball is replaced by the whole affine chart: the count
    runs over every affine critical point of the specialized polynomial.
    """
    if U.r != 1:
        raise InvariantError("Siersma counts need a 1-parameter stabilisation")
    G = unfolding_image_equation(U, limits)
    gring = ring(*target_names(U.n + 1))
    images = [gring.var(i) for i in range(gring.arity)] + [gring.const(t0)]
    gt = G.substitute(images, gring)
    if gt.is_zero():
        raise InvariantError(f"specialization at t = {t0} is the zero polynomial")
    partials = [gt.diff(i) for i in range(gring.arity)]
    partials = [p for p in partials if not p.is_zero()]
    if not partials:
        raise InvariantError(f"specialization at t = {t0} is constant")
    # the saturation is already a degrevlex Groebner basis (see eliminate)
    sat = saturation(partials, gt, limits)
    dim = vs_dimension(StdBasis(gring, 1, [(q,) for q in sat]))
    if dim is INFINITE:
        raise InvariantError(
            f"non-isolated critical locus off the zero level at t = {t0}")
    return dim


SIERSMA_TRIALS = 5      # parameter values t0 = 1, 2, ... tried


@dataclass(frozen=True)
class SiersmaResult:
    value: int
    witnesses: tuple          # the two agreeing parameter values


def frontal_milnor_siersma(U: UnfoldingSpec,
                           limits: Limits = DEFAULT_LIMITS) -> SiersmaResult:
    """Siersma count at t0 = 1, 2, ... until two consecutive values agree."""
    prev = None
    for t0 in range(1, SIERSMA_TRIALS + 1):
        value = siersma_count(U, t0, limits)
        if prev is not None and value == prev:
            return SiersmaResult(value, (t0 - 1, t0))
        prev = value
    raise InvariantError(
        f"no two consecutive parameter values agree within "
        f"{SIERSMA_TRIALS} trials: genericity not certified")


# ---------------------------------------------------------------------------
# The module \hat M(g)


def hat_M_dimension(f: MapGerm,
                    limits: Limits = DEFAULT_LIMITS) -> Union[int, _Infinite]:
    """dim of (preimage of J(g)O_n under f^*) / J(g).

    The preimage is the elimination of the source variables from (y - f(x),
    dg/dy(y)): the same ideal as with the pullbacks dg/dy(f(x)), since
    dg/dy(y) - dg/dy(f(x)) lies in (y - f(x)), and generators of lower
    degree in the variables that are eliminated.  The partials dg/dy(y) are
    generators of that ideal and free of the source variables, so J(g) lies
    in the preimage by construction.

    A plane branch with a value semigroup S (``value_semigroup``) takes
    no image equation: the value is delta - m + 1.  J(g)O_1 = (x^(c+m-1)),
    since dg/dy_1 o f and dg/dy_2 o f are lambda times the derivatives of
    the components, of least order m - 1, and the conductor generator
    lambda has order c (Dedekind's formula for the different).  So
    dim O/preimage is the number of values of S below c + m - 1, which is
    c + m - 1 - delta, and mu = c.

    Every other germ counts the monomials in the leading ideal of the
    preimage that are not in that of J(g) (``relative_vs_dimension``), in
    the target's local degree ordering: that count is dim preimage/J(g),
    finite or INFINITE, whether mu is finite or not.  The preimage is the
    standard basis that ``eliminate`` returns, and J(g) is the germ's kept
    basis (``image_jacobian_basis``), which the ``mu`` line reads too, so
    the count runs no further pair loop."""
    if len(f.branches) != 1:
        raise GermError("the Jacobian module is computed for mono-germs")
    S = value_semigroup(f, limits)
    if S is not None:
        return S.delta - S.multiplicity + 1
    image = image_equation(f, limits)
    g = image.equation
    target = image.ring
    partials = [p for p in (g.diff(i) for i in range(target.arity))
                if not p.is_zero()]
    if any(p.is_unit() for p in partials):
        return 0  # smooth image: J(g) is the unit ideal
    comps = f.components
    if all(p.is_zero() for p in _pullbacks(f, g, limits)):
        raise InvariantError("all Jacobian pullbacks vanish (g not reduced?)")
    _, pre_gens = eliminate(*_graph_ideal(comps, target.names,
                                          extra=partials, local=True), limits)
    pre_gens = [p.map_to(target) for p in pre_gens if not p.is_zero()]
    if not pre_gens:
        raise InvariantError("empty preimage ideal (internal error)")
    # eliminate's generators are a standard basis in the target ordering
    return relative_vs_dimension(StdBasis(target, 1,
                                          [(p,) for p in pre_gens]),
                                 image_jacobian_basis(image, limits))


# ---------------------------------------------------------------------------
# Good defining equations


@dataclass(frozen=True)
class GoodEquation:
    """Reduced G with G in J(G) specializing to the base image equation.

    The certificate of G in J(G) is the Euler-type field
    (1/unit) sum cofactors_i d/dz_i that sends G to G, the one that
    Der(-log G) splits off (``derlog.euler_certificate``).
    """

    ring: Ring                 # local ring: target variables then parameters
    G: Poly
    y_count: int
    params: tuple[str, ...]
    augmented: bool            # a trivial (1+s)-parameter was added
    unit: Poly                 # unit * G = sum cofactor_i * dG/dz_i
    cofactors: tuple[Poly, ...]
    base_equation: Poly        # g = G restricted to parameters = 0

    def jacobian(self) -> list[Poly]:
        return [self.G.diff(i) for i in range(self.ring.arity)]

    def verify_certificate(self) -> bool:
        return (self.unit.is_unit()
                and LogField(self.cofactors, self.unit).verify(self.G))


def good_equation(U: UnfoldingSpec,
                  limits: Limits = DEFAULT_LIMITS) -> GoodEquation:
    """Check or repair the good-equation conditions for the unfolding image.

    G is the equation of an explicit ``good_equation`` statement, checked to
    be squarefree, or else the computed unfolding image equation, which is
    reduced by construction (see ``_unfolding_image_equation``) and takes no
    gcd.  The certificate of G in J(G) is ``euler_certificate``.  When G is
    not in its Jacobian ideal, one trivial unit parameter s is added and G
    becomes (1+s)G, which restores the membership via d/ds.
    """
    base_image = image_equation(U.base, limits)
    g = base_image.equation
    target = U.target_ring()
    if U.explicit_G is None:
        G0 = unfolding_image_equation(U, limits)
    else:
        G0 = U.explicit_G.map_to(target).monic()
        if not is_squarefree(G0, limits):
            raise InvariantError("defining equation is not reduced "
                                 "(squarefree test failed)")
    y_count = U.n + 1
    restricted = G0.substitute(
        [target.var(i) for i in range(y_count)] +
        [target.const(0)] * U.r, target)
    zero_params = restricted.map_to(base_image.ring)
    if not associates(zero_params.monic(), g):
        raise InvariantError(
            "setting the parameters to 0 does not recover the image equation")
    cert = euler_certificate(G0, limits)
    if cert is not None:
        u, cof = cert
        ge = GoodEquation(target, G0, y_count, U.params, False, u,
                          tuple(cof), g)
    else:
        s_name, = fresh_names("s", 1, target.names)
        ext = ring(*target.names, s_name, local=True)
        s = ext.var(ext.arity - 1)
        G = (ext.one() + s) * G0.map_to(ext)
        cof = [ext.zero()] * ext.arity
        cof[ext.arity - 1] = ext.one() + s  # (1+s) * dG/ds = G
        ge = GoodEquation(ext, G, y_count, U.params + (s_name,), True,
                          ext.one(), tuple(cof), g)
    if not ge.verify_certificate():
        raise AssertionError("good-equation membership certificate is unsound")
    return ge


# ---------------------------------------------------------------------------
# The relative module M_y(G) and its quotients


def _relative_module(ge: GoodEquation) -> tuple[list[Poly], list[Poly], list[Poly]]:
    """(J(G) generators, J_y(G) generators, parameter variables)."""
    jac = ge.jacobian()
    nums = [p for p in jac if not p.is_zero()]
    dens = [p for p in jac[:ge.y_count] if not p.is_zero()]
    if not nums:
        raise InvariantError("J(G) is the zero ideal")
    param_vars = [ge.ring.var(ge.y_count + j) for j in range(len(ge.params))]
    return nums, dens, param_vars


def M_F_dimension(ge: GoodEquation,
                  limits: Limits = DEFAULT_LIMITS) -> Union[int, _Infinite]:
    """dim of J(G) / (J_y(G) + m_r J(G)): the fibre of M_y(G) at 0."""
    nums, dens, param_vars = _relative_module(ge)
    return subquotient_dimension(nums, dens, limits=limits,
                                 check_containment=False, times=param_vars)


def frontal_codimension(ge: GoodEquation,
                        limits: Limits = DEFAULT_LIMITS) -> Union[int, _Infinite]:
    """dim of J(G) / (J_y(G) + (G) + m_r J(G))."""
    nums, dens, param_vars = _relative_module(ge)
    return subquotient_dimension(nums, dens + [ge.G], limits=limits,
                                 check_containment=False, times=param_vars)


@dataclass(frozen=True)
class SamuelEstimate:
    value: int
    window: Optional[tuple[int, ...]]    # k values with constant difference
    dims: tuple[int, ...]                # d_k = dim M_y(G) / m_r^k M_y(G)
    note: str = ""


SAMUEL_MAX_K = 12


def samuel_multiplicity_estimate(ge: GoodEquation,
                                 limits: Limits = DEFAULT_LIMITS) -> SamuelEstimate:
    """e(m_r; M_y(G)) from the Hilbert-Samuel values d_k.

    d_k is computed for k = 1..SAMUEL_MAX_K; the r-th finite difference of
    the d_k must be constant over three consecutive k before the value is
    accepted.
    """
    nums, dens, param_vars = _relative_module(ge)
    r = len(ge.params)
    if r == 0:
        value = subquotient_dimension(nums, dens, limits=limits,
                                      check_containment=False)
        if value is INFINITE:
            raise InvariantError("module is infinite-dimensional with no "
                                 "parameters: multiplicity undefined")
        return SamuelEstimate(value, None, (value,),
                              "no parameters: multiplicity is the dimension")
    s, N0 = colon_submodule(nums, dens, limits)
    ring_ = ge.ring
    param_idx = list(range(ge.y_count, ring_.arity))
    dims: list[int] = []
    for k in range(1, SAMUEL_MAX_K + 1):
        extras: list[tuple[Poly, ...]] = []
        for combo in itertools.combinations_with_replacement(param_idx, k):
            exp = [0] * ring_.arity
            for i in combo:
                exp[i] += 1
            mono = ring_.monomial(exp)
            for i in range(s):
                extras.append(tuple(mono if j == i else ring_.zero()
                                    for j in range(s)))
        gens = list(N0) + extras
        d = vs_dimension(std(gens, limits=limits))
        if d is INFINITE:
            raise InvariantError(f"d_{k} is infinite: m_r is not a reduction "
                                 "ideal for this module")
        dims.append(d)
        if len(dims) >= r + 3:
            diffs = list(dims)
            for _ in range(r):
                diffs = [b - a for a, b in zip(diffs, diffs[1:])]
            if diffs[-1] == diffs[-2] == diffs[-3]:
                window = (k - 2, k - 1, k)
                return SamuelEstimate(diffs[-1], window, tuple(dims))
    raise InvariantError(f"Hilbert-Samuel differences did not stabilise for "
                         f"k <= {SAMUEL_MAX_K}: estimate inconclusive")


# ---------------------------------------------------------------------------
# Piene's lambda and the conductor


def _pullbacks(f: MapGerm, g: Poly, limits: Limits) -> tuple[Poly, ...]:
    """dg/dy_i o f for every i, for the image equation g of the mono-germ f
    under limits (once per germ and limits): ``piene_lambda`` and
    ``hat_M_dimension`` read the same pullbacks."""
    return once(f, ("pullbacks", limits), lambda: tuple(
        g.diff(i).substitute(list(f.components), f.source)
        for i in range(g.ring.arity)))


def piene_lambda(f: MapGerm, limits: Limits = DEFAULT_LIMITS) -> Poly:
    """The conductor generator: dg/dy_i o f = (-1)^i lambda * minor_i, all i."""
    if len(f.branches) != 1:
        raise GermError("the conductor generator is computed for mono-germs")
    g = image_equation(f, limits).equation
    comps = list(f.components)
    n = f.n
    minors = maximal_minors(comps)
    pullbacks = _pullbacks(f, g, limits)
    lam = None
    for i in range(n + 1):
        if minors[i].is_zero():
            continue
        sign = Fraction(-1) ** (i + 1)
        lam = exact_divide(pullbacks[i], minors[i].scale(sign))
        if lam is not None:
            break
    if lam is None:
        raise InvariantError(
            "conductor division failed: image equation not reduced or the "
            "germ is not generically one-to-one")
    for i in range(n + 1):
        sign = Fraction(-1) ** (i + 1)
        if pullbacks[i] != lam * minors[i].scale(sign):
            raise InvariantError(f"conductor identity fails for component {i + 1}")
    return lam


def conductor_colength(lam: Poly,
                       limits: Limits = DEFAULT_LIMITS) -> Union[int, _Infinite]:
    """dim of the source local ring modulo the conductor ideal."""
    if lam.is_zero():
        raise InvariantError("zero conductor")
    if lam.is_unit():
        return 0
    return vs_dimension(std([lam], limits=limits))


# ---------------------------------------------------------------------------
# Plane-curve invariant chain


@dataclass(frozen=True)
class PlaneCurveInvariants:
    mu: int
    delta: int
    branch_count: int
    mult: int
    mu_image: int
    mu_frontal: int
    codim_ae: int
    codim_fe: int
    jet_order: int             # stabilised truncation order for codim_ae
    equation: Poly


def _ae_dimension_at_order(f: MapGerm, N: int) -> int:
    """dim of theta(f) / (TA_e f + m^N theta(f)) by jet linear algebra.

    The columns are the coefficients of x^k, k < N, of both components on
    every branch.  The rows span tf (x^i * f' on one branch) and wf
    ((p^a q^b, 0) and (0, p^a q^b) on all branches at once, a + b <= N).
    Only rows of order < N are built: the source is C^1, so
    ord(x^i f') = i + ord f' and ord(p^a q^b) = a ord p + b ord q, and a
    row of order >= N on every branch is zero mod x^N and leaves the rank
    as it is.  Powers are kept as (N - 1)-jets, which is exact because
    truncation mod x^N is a ring map.
    """
    rows: list[list[Fraction]] = []

    def add_row(entries):
        # entries: (branch, component, poly); one column block per pair
        row = [Fraction(0)] * (2 * N * len(f.branches))
        for b, comp, p in entries:
            base = (2 * b + comp) * N
            for e, c in p.terms:
                if e[0] < N:
                    row[base + e[0]] += c
        rows.append(row)

    def jets(p: Poly) -> list[Poly]:
        # p^k mod x^N for each k with k ord p < N
        seq, o = [p.ring.one()], p.order()
        while len(seq) * o < N:
            seq.append((seq[-1] * p).jet(N - 1))
        return seq

    for b, (p, q) in enumerate(f.branches):
        dp, dq = p.diff(0), q.diff(0)
        for i in range(N - min(dp.order(), dq.order())):
            mono = p.ring.monomial((i,))
            add_row([(b, 0, mono * dp), (b, 1, mono * dq)])

    orders = [(p.order(), q.order()) for p, q in f.branches]
    powers = [(jets(p), jets(q)) for p, q in f.branches]
    for a in range(N + 1):
        for bexp in range(N + 1 - a):
            live = [b for b, (op, oq) in enumerate(orders)
                    if a * op + bexp * oq < N]
            if not live:    # the orders only grow with bexp
                break
            prods = [(b, powers[b][0][a] * powers[b][1][bexp]) for b in live]
            add_row([(b, 0, m) for b, m in prods])
            add_row([(b, 1, m) for b, m in prods])
    return 2 * N * len(f.branches) - linalg.rank(rows)


def _ae_codimension(f: MapGerm, mu: int) -> tuple[int, int]:
    N = max(2 * mu + 2, 4)
    prev = _ae_dimension_at_order(f, N)
    for _ in range(6):
        N2 = 2 * N
        cur = _ae_dimension_at_order(f, N2)
        if cur == prev:
            return cur, N2
        prev, N = cur, N2
    raise InvariantError("A-codimension jet dimensions did not stabilise "
                         "(germ not finitely determined?)")


def plane_curve_invariants(f: MapGerm,
                           limits: Limits = DEFAULT_LIMITS) -> PlaneCurveInvariants:
    """mu, delta, mult, image/frontal Milnor numbers and both codimensions.

    A plane branch reads mu = c and delta, the number of gaps, off its
    value semigroup (``value_semigroup``); other curves read mu off the
    image equation and delta from Milnor's mu = 2 delta - r + 1 for r
    branches."""
    if f.n != 1:
        raise GermError("plane-curve invariants need source dimension 1")
    image = image_equation(f, limits)
    S = value_semigroup(f, limits)
    rb = len(f.branches)
    if S is not None:
        mu, delta = S.conductor, S.delta
    else:
        mu = image_milnor_number(image, limits)
        if mu is INFINITE:
            raise InvariantError("non-isolated image singularity: mu is "
                                 "infinite")
        if (mu + rb - 1) % 2:
            raise InvariantError("mu + r - 1 is odd: branch count or "
                                 "equation wrong")
        delta = (mu + rb - 1) // 2
    mult = multiplicity(f)
    mu_image = delta
    mu_frontal = mu_image - mult + 1
    codim_ae, order = _ae_codimension(f, mu)
    codim_fe = codim_ae - mult + 1
    return PlaneCurveInvariants(mu, delta, rb, mult, mu_image, mu_frontal,
                                codim_ae, codim_fe, order, image.equation)
