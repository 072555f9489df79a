"""Generating families of wave fronts and their discriminants."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import linalg
from .basis import DEFAULT_LIMITS, Limits, membership, std
from .germs import (MapGerm, NashData, PrenormalForm, _combination,
                    _linear_part, corank_branch, frontal_lift, target_names)
from .invariants import ImageData, _branch_eliminant, image_equation
from .ring import Poly, Ring, associates, fresh_names, ring
from .squarefree import squarefree_part


class GenFamError(RuntimeError):
    """Generating-family construction failed a precondition."""


@dataclass(frozen=True)
class GeneratingFamily:
    """A family h(u, x, y) = (x, u, h') whose discriminant is the front.

    Variables are ordered x-block, y-block (inherited from the prenormal
    form), then the new unfolding block u.  h' = q + sum mu_i (u_i - p_i).
    """

    ring: Ring                    # local: x_1..x_{n-k}, y_1..y_k, u_1..u_k
    n: int
    k: int
    components: tuple[Poly, ...]  # x-block, u-block, h'
    hprime: Poly
    p: tuple[Poly, ...]           # the p-block of the prenormal form, lifted
    # the prenormal target change (``PrenormalForm.target``): row i writes
    # target coordinate i of the family as a combination of the germ's own
    target: tuple[tuple[Fraction, ...], ...]
    exact: bool
    jet_order: Optional[int]


def generating_family(pre: PrenormalForm, nash: NashData) -> GeneratingFamily:
    """h(u,x,y) = (x, u, q + sum mu_i (u_i - p_i)) from the lift data."""
    n, k = pre.n, pre.k
    dmu_dy = [_linear_part(m)[n - k:] for m in nash.mu]
    if linalg.rank(dmu_dy) < k:
        raise GenFamError("d(mu)/dy is singular at the origin: the germ is "
                          "frontal but not a wave front")
    unames = fresh_names("u", k, pre.source.names)
    big = ring(*pre.source.names, *unames, local=True)
    uvars = [big.var(n + i) for i in range(k)]
    p = tuple(pj.map_to(big) for pj in pre.p)
    q = pre.q.map_to(big)
    mu = [m.map_to(big) for m in nash.mu]
    hprime = q
    for m, pj, u in zip(mu, p, uvars):
        hprime = hprime + m * (u - pj)
    xs = [big.var(i) for i in range(n - k)]
    comps = tuple(xs) + tuple(uvars) + (hprime,)
    return GeneratingFamily(big, n, k, comps, hprime, p, pre.target,
                            nash.exact, nash.jet_order)


def generating_family_of(f: MapGerm, branch: int = 0,
                         limits: Limits = DEFAULT_LIMITS) -> GeneratingFamily:
    """Generating family of a wave-front branch; immersions short-circuit."""
    comps = f.branches[branch]
    if corank_branch(comps) == 0:
        src = comps[0].ring
        identity = tuple(map(tuple, linalg.identity(f.n + 1)))
        return GeneratingFamily(src, f.n, 0, tuple(comps), comps[-1], (),
                                identity, True, None)
    pre, nash = frontal_lift(f, branch, limits)
    return generating_family(pre, nash)


def critical_set_certificate(fam: GeneratingFamily,
                             limits: Limits = DEFAULT_LIMITS) -> bool:
    """The critical ideal <dh'/dy_j> equals the graph ideal <u_i - p_i>.

    The graph ideal is the kernel of u -> p, also in the local ring since p
    vanishes at the origin, so a critical generator lies in it exactly when
    substituting u = p makes it zero.  The other inclusion is a membership
    in a standard basis of the critical ideal."""
    if fam.k == 0:
        return True
    r = fam.ring
    n, k = fam.n, fam.k
    crit = [fam.hprime.diff(n - k + j) for j in range(k)]
    graph = [r.var(n + i) - fam.p[i] for i in range(k)]
    crit = [c for c in crit if not c.is_zero()]
    if not crit:
        return False
    on_graph = r.gens()[:n] + list(fam.p)
    if any(not c.substitute(on_graph, r).is_zero() for c in crit):
        return False
    cb = std(crit, limits=limits)
    return all(membership(g, cb, limits) for g in graph)


def discriminant(fam: GeneratingFamily,
                 limits: Limits = DEFAULT_LIMITS) -> ImageData:
    """Critical values of h: the eliminant of the source variables from
    the graph-plus-critical ideal, one elimination (``_branch_eliminant``
    with the critical generators as ``extra``, which an image branch
    without a characteristic determinant takes too), reduced to a
    squarefree equation.  Its coordinates are the
    family's (x-block, u-block, h'); ``fam.target`` writes them in the
    germ's."""
    n, k = fam.n, fam.k
    if k == 0:
        return image_equation(MapGerm(fam.ring, (fam.components,)), limits)
    tnames = target_names(n + 1)
    crit = [fam.hprime.diff(n - k + j) for j in range(k)]
    g = _branch_eliminant(fam.components, tnames, (), limits, extra=crit)
    target = ring(*tnames, local=True)
    return ImageData(target, squarefree_part(g.map_to(target), limits).monic())


def verify_discriminant_equals_image(f: MapGerm, fam: GeneratingFamily,
                                     limits: Limits = DEFAULT_LIMITS) -> bool:
    """Mutual divisibility of the reduced image and discriminant equations.

    The discriminant lives in the prenormal target coordinates; each is
    replaced by its combination of f's target coordinates (``fam.target``),
    a linear substitution, before the comparison."""
    img = image_equation(f, limits)
    disc = discriminant(fam, limits).equation.map_to(img.ring)
    coords = [_combination(img.ring, row, img.ring.gens())
              for row in fam.target]
    return associates(img.equation, disc.substitute(coords, img.ring))
