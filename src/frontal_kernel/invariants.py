"""Image equations, Milnor numbers, Jacobian modules and frontal invariants."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import linalg
from .basis import (DEFAULT_LIMITS, INFINITE, Limits, _Infinite, colon_submodule,
                    eliminate, membership_certificate, saturation, std,
                    subquotient_dimension, vs_dimension)
from .germs import (GermError, MapGerm, jacobian_matrix, multiplicity,
                    poly_det, target_names)
from .ring import Poly, Ring, associates, exact_divide, ring
from .squarefree import is_squarefree, squarefree_part


class InvariantError(RuntimeError):
    """An invariant computation failed a precondition or sanity identity."""


# ---------------------------------------------------------------------------
# Image equations


@dataclass(frozen=True)
class ImageData:
    """Reduced defining equation of the image hypersurface."""

    ring: Ring          # local ring in the target variables
    equation: Poly      # squarefree, monic leading coefficient


def _graph_ring(source_names: Sequence[str], target: Sequence[str],
                params: Sequence[str] = ()) -> Ring:
    names = tuple(source_names) + tuple(target) + tuple(params)
    if len(set(names)) != len(names):
        raise InvariantError(
            f"source/target/parameter name clash in {names}; rename variables")
    return ring(*names)


def _branch_eliminant(comps: Sequence[Poly], target: Sequence[str],
                      params: Sequence[str], limits: Limits) -> tuple[Ring, Poly]:
    """Eliminate the source variables from the graph ideal of one branch."""
    src = comps[0].ring
    n = src.arity - len(params)
    big = _graph_ring(src.names[:n], target, params)
    graph = []
    for j, c in enumerate(comps):
        yj = big.var(n + j)
        graph.append(yj - c.map_to(big))
    sub, gens = eliminate(graph, range(n), limits)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise InvariantError("elimination yields the zero ideal: image is "
                             "not a hypersurface (germ not finite?)")
    if len(gens) > 1:
        raise InvariantError("image is not a hypersurface: elimination ideal "
                             f"needs {len(gens)} generators")
    return sub, gens[0].monic()


def _check_vanishes(equation: Poly, comps: Sequence[Poly],
                    params: Sequence[Poly] = ()) -> None:
    src = comps[0].ring
    images = list(comps) + [p.map_to(src) for p in params]
    pulled = equation.substitute(images, src)
    if not pulled.is_zero():
        raise InvariantError("image equation does not vanish on the "
                             "parametrization (internal error)")


def image_equation(f: MapGerm, limits: Limits = DEFAULT_LIMITS) -> ImageData:
    """Reduced equation of the image, by graph-ideal elimination per branch."""
    tnames = target_names(f.n + 1)
    target = f.target_ring(local=True)
    factors: list[Poly] = []
    for comps in f.branches:
        _, g = _branch_eliminant(comps, tnames, (), limits)
        g = g.map_to(target)
        if not any(associates(g, h) for h in factors):
            factors.append(g)
    product = target.one()
    for g in factors:
        product = product * g
    reduced = squarefree_part(product).monic()
    for comps in f.branches:
        _check_vanishes(reduced, comps)
    return ImageData(target, reduced)


# ---------------------------------------------------------------------------
# Milnor numbers


def milnor_number(g: Poly,
                  limits: Limits = DEFAULT_LIMITS) -> Union[int, _Infinite]:
    """Colength of the Jacobian ideal in the local ring at the origin."""
    if g.is_zero():
        raise InvariantError("Milnor number of the zero polynomial")
    local = g.ring if not g.ring.ordering.is_global() else \
        ring(*g.ring.names, local=True)
    gl = g if g.ring is local or g.ring == local else g.map_to(local)
    partials = [gl.diff(i) for i in range(local.arity)]
    partials = [p for p in partials if not p.is_zero()]
    if not partials:
        raise InvariantError("constant polynomial has no Jacobian ideal")
    if any(p.is_unit() for p in partials):
        return 0
    return vs_dimension(std(partials, limits=limits))


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
    frontal_asserted: bool = False
    stable_asserted: bool = False

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
              frontal_asserted: bool = False,
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
                         frontal_asserted, stable_asserted)


def unfolding_image_equation(U: UnfoldingSpec,
                             limits: Limits = DEFAULT_LIMITS) -> Poly:
    """Reduced equation of the image of F = (f_u, u), in (y, u) variables."""
    tnames = target_names(U.n + 1)
    _, g = _branch_eliminant(U.components, tnames, U.params, limits)
    target = U.target_ring()
    reduced = squarefree_part(g.map_to(target)).monic()
    param_vars = [U.source.var(U.n + j) for j in range(U.r)]
    pulled = reduced.substitute(list(U.components) + param_vars, U.source)
    if not pulled.is_zero():
        raise InvariantError("unfolding image equation fails to vanish on F")
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
    sat = saturation(partials, gt, limits)
    dim = vs_dimension(std(sat, limits=limits))
    if dim is INFINITE:
        raise InvariantError(
            f"non-isolated critical locus off the zero level at t = {t0}")
    return dim


@dataclass(frozen=True)
class SiersmaResult:
    value: int
    witnesses: tuple          # the two agreeing parameter values


def frontal_milnor_siersma(U: UnfoldingSpec,
                           limits: Limits = DEFAULT_LIMITS) -> SiersmaResult:
    """Siersma count at t0 = 1, 2, ... until two consecutive values agree."""
    prev = None
    for t0 in range(1, limits.param_trials + 2):
        value = siersma_count(U, t0, limits)
        if prev is not None and value == prev:
            return SiersmaResult(value, (t0 - 1, t0))
        prev = value
    raise InvariantError(
        f"no two consecutive parameter values agree within "
        f"{limits.param_trials + 1} trials: genericity not certified")


# ---------------------------------------------------------------------------
# The module \hat M(g)


def hat_M_dimension(f: MapGerm, image: Optional[ImageData] = None,
                    limits: Limits = DEFAULT_LIMITS) -> Union[int, _Infinite]:
    """dim of (preimage of J(g)O_n under f^*) / J(g)."""
    if len(f.branches) != 1:
        raise GermError("the Jacobian module is computed for mono-germs")
    if image is None:
        image = image_equation(f, limits)
    g = image.equation
    target = image.ring
    partials = [g.diff(i) for i in range(target.arity)]
    if any(p.is_unit() for p in partials):
        return 0  # smooth image: J(g) is the unit ideal
    comps = f.components
    src = f.source
    pullbacks = [p.substitute(list(comps), src) for p in partials]
    pullbacks = [p for p in pullbacks if not p.is_zero()]
    if not pullbacks:
        raise InvariantError("all Jacobian pullbacks vanish (g not reduced?)")
    big = ring(*src.names, *target.names, local=True)
    graph = [big.var(src.arity + j) - c.map_to(big) for j, c in enumerate(comps)]
    gens = graph + [p.map_to(big) for p in pullbacks]
    sub, pre_gens = eliminate(gens, range(src.arity), limits)
    pre_gens = [p.map_to(target) for p in pre_gens if not p.is_zero()]
    if not pre_gens:
        raise InvariantError("empty preimage ideal (internal error)")
    denominators = [p for p in partials if not p.is_zero()]
    return subquotient_dimension(pre_gens, denominators, limits=limits,
                                 check_containment=True)


# ---------------------------------------------------------------------------
# Good defining equations


@dataclass(frozen=True)
class GoodEquation:
    """Reduced G with G in J(G) specializing to the base image equation."""

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
        lhs = self.unit * self.G
        rhs = self.ring.zero()
        for c, p in zip(self.cofactors, self.jacobian()):
            rhs = rhs + c * p
        return lhs == rhs and self.unit.is_unit()


def good_equation(U: UnfoldingSpec,
                  limits: Limits = DEFAULT_LIMITS) -> GoodEquation:
    """Check or repair the good-equation conditions for the unfolding image.

    When G is not in its Jacobian ideal, one trivial unit parameter s is
    added and G becomes (1+s)G, which restores the membership via d/ds.
    """
    base_image = image_equation(U.base, limits)
    g = base_image.equation
    target = U.target_ring()
    if U.explicit_G is not None:
        G0 = U.explicit_G.map_to(target).monic()
    else:
        G0 = unfolding_image_equation(U, limits)
    if not is_squarefree(G0):
        raise InvariantError("defining equation is not reduced (squarefree "
                             "test failed)")
    y_count = U.n + 1
    restricted = G0.substitute(
        [target.var(i) for i in range(y_count)] +
        [target.const(0)] * U.r, target)
    zero_params = restricted.map_to(base_image.ring)
    if not associates(zero_params.monic(), g):
        raise InvariantError(
            "setting the parameters to 0 does not recover the image equation")
    jac = [G0.diff(i) for i in range(target.arity)]
    cert = membership_certificate(G0, jac, limits)
    if cert is not None:
        u, cof = cert
        ge = GoodEquation(target, G0, y_count, U.params, False, u,
                          tuple(cof), g)
    else:
        s_name = "s"
        counter = 1
        while s_name in target.names:
            s_name = f"s{counter}"
            counter += 1
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


def samuel_multiplicity_estimate(ge: GoodEquation, K: int = 12,
                                 limits: Limits = DEFAULT_LIMITS) -> SamuelEstimate:
    """e(m_r; M_y(G)) from the Hilbert-Samuel values d_k.

    d_k is computed for k = 1..K; the r-th finite difference of the d_k must
    be constant over three consecutive k before the value is accepted.
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
    for k in range(1, K + 1):
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
                         f"k <= {K}: estimate inconclusive")


# ---------------------------------------------------------------------------
# Piene's lambda and the conductor


def piene_lambda(f: MapGerm, image: Optional[ImageData] = None,
                 limits: Limits = DEFAULT_LIMITS) -> Poly:
    """The conductor generator: dg/dy_i o f = (-1)^i lambda * minor_i, all i."""
    if len(f.branches) != 1:
        raise GermError("the conductor generator is computed for mono-germs")
    if image is None:
        image = image_equation(f, limits)
    g = image.equation
    comps = list(f.components)
    src = f.source
    n = f.n
    rows = [[c.diff(i) for i in range(n)] for c in comps]   # (n+1) x n
    minors = []
    for i in range(n + 1):
        sub = rows[:i] + rows[i + 1:]
        minors.append(poly_det(sub) if n else src.one())
    pullbacks = [g.diff(i).substitute(comps, src) for i in range(n + 1)]
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
    """dim of theta(f) / (TA_e f + m^N theta(f)) by jet linear algebra."""
    B = len(f.branches)
    width = 2 * N * B
    tring = f.target_ring(local=True)

    def col(branch: int, comp: int, power: int) -> int:
        return (branch * 2 + comp) * N + power

    rows: list[list[Fraction]] = []

    def add_vector(entries):
        # entries: list over branches of (poly, poly)
        row = [Fraction(0)] * width
        for b, (a0, a1) in enumerate(entries):
            for comp, p in enumerate((a0, a1)):
                for e, c in p.terms:
                    if e[0] < N:
                        row[col(b, comp, e[0])] += c
        rows.append(row)

    zero2 = None
    for b, comps in enumerate(f.branches):
        src = comps[0].ring
        if zero2 is None:
            zero2 = (src.zero(), src.zero())
        dp, dq = comps[0].diff(0), comps[1].diff(0)
        for i in range(N):
            mono = src.monomial((i,))
            entries = [zero2] * B
            entries[b] = (mono * dp, mono * dq)
            add_vector(entries)
    for a in range(N + 1):
        for bexp in range(N + 1 - a):
            entries0 = []
            entries1 = []
            for comps in f.branches:
                src = comps[0].ring
                m = (comps[0] ** a) * (comps[1] ** bexp)
                entries0.append((m, src.zero()))
                entries1.append((src.zero(), m))
            add_vector(entries0)
            add_vector(entries1)
    return width - linalg.rank(rows)


def _ae_codimension(f: MapGerm, mu: int,
                    limits: Limits = DEFAULT_LIMITS) -> tuple[int, int]:
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
    """mu, delta, mult, image/frontal Milnor numbers and both codimensions."""
    if f.n != 1:
        raise GermError("plane-curve invariants need source dimension 1")
    image = image_equation(f, limits)
    mu = milnor_number(image.equation, limits)
    if mu is INFINITE:
        raise InvariantError("non-isolated image singularity: mu is infinite")
    rb = len(f.branches)
    if (mu + rb - 1) % 2:
        raise InvariantError("mu + r - 1 is odd: branch count or equation wrong")
    delta = (mu + rb - 1) // 2
    mult = multiplicity(f)
    mu_image = delta
    mu_frontal = mu_image - mult + 1
    codim_ae, order = _ae_codimension(f, mu, limits)
    codim_fe = codim_ae - mult + 1
    return PlaneCurveInvariants(mu, delta, rb, mult, mu_image, mu_frontal,
                                codim_ae, codim_fe, order, image.equation)
