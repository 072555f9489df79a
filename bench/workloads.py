"""Seeded inputs of the three benchmark workloads.

Every item is one germ file handed to the command-line entry point, plus
what its answer is checked against.  The generators build the germ files
from plain integer/Fraction arithmetic so that set-up imports nothing the
library does not import itself, and no answer reference comes from the
library under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

# A polynomial is a dict {exponent tuple: Fraction} over named variables.


@dataclass(frozen=True)
class Item:
    name: str
    text: str            # the germ file
    check: tuple         # ("golden", name) | ("frontal", bool)
    #                      | ("plane_curve", mu = colength, returning)
    #                      | ("surface", components as strings)


def _mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _add(p, q, scale=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + scale * c
    return {e: c for e, c in out.items() if c}


def _pow(p, k, n):
    out = {(0,) * n: Fraction(1)}
    for _ in range(k):
        out = _mul(out, p)
    return out


def _substitute(p, images, n):
    """p(images[0], ..., images[n-1])."""
    out = {}
    for e, c in p.items():
        term = {(0,) * n: Fraction(c)}
        for img, a in zip(images, e):
            term = _mul(term, _pow(img, a, n))
        out = _add(out, term)
    return out


def _to_str(p, names) -> str:
    parts = []
    for e in sorted(p, key=lambda e: (sum(e), e)):
        c = p[e]
        mono = "*".join(v if a == 1 else f"{v}^{a}"
                        for v, a in zip(names, e) if a)
        mag = abs(c)
        body = (mono if mag == 1 else f"{mag}*{mono}") if mono else str(mag)
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {body}" if parts else
                     f"-{body}" if c < 0 else body)
    return " ".join(parts)


def _poly(*terms):
    """{exponent: coefficient} from (coefficient, exponent...) tuples."""
    return {tuple(e): Fraction(c) for c, *e in terms}


def _germ_text(names, comps, directives: str) -> str:
    body = ", ".join(_to_str(c, names) for c in comps)
    return (f"frontal-kernel v1\nring {', '.join(names)};\n"
            f"map f = {body};\nanalyze f {directives};\n")


def _change(p_list, names, source, target):
    """target * (p o source): a linear change on both sides."""
    n = len(names)
    images = [{tuple(int(k == j) for k in range(n)): c
               for j, c in enumerate(row) if c} for row in source]
    pulled = [_substitute(p, images, n) for p in p_list]
    out = []
    for row in target:
        acc = {}
        for coef, c in zip(row, pulled):
            acc = _add(acc, c, coef)
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# corpus: the bundled fixtures, checked byte for byte against their goldens.

CORPUS = ("cusp", "cuspidal_edge", "e6", "e6_nonfrontal", "f4",
          "folded_umbrella", "infinite_mf", "swallowtail")


def corpus(rng: random.Random, corpus_dir: Path) -> list[Item]:
    """The user-facing reference run and the only workload that runs the
    Nash lift (linalg.solve), generating families and the unfolding chain.
    The seed only shuffles the order of the fixtures."""
    names = list(CORPUS)
    rng.shuffle(names)
    return [Item(n, (corpus_dir / f"{n}.germ").read_text(encoding="utf-8"),
                 ("golden", n)) for n in names]


# ---------------------------------------------------------------------------
# frontal-shears: `analyze f frontal` on linear changes of fixture germs.
# Frontality is an A-invariant, so the answer must be the base germ's.

SHEAR_BASES = {
    # name: (variables, components, frontal)
    "f4": (("x", "y"), (_poly((1, 1, 0)), _poly((1, 0, 2)),
                        _poly((1, 0, 5), (1, 3, 1))), False),
    "cuspidal_edge": (("x", "y"), (_poly((1, 1, 0)), _poly((1, 0, 2)),
                                   _poly((1, 0, 3))), True),
    "folded_umbrella": (("x", "y"), (_poly((1, 1, 0)), _poly((1, 0, 2)),
                                     _poly((1, 1, 3))), True),
    "swallowtail": (("y", "u"), (_poly((1, 0, 1)),
                                 _poly((-4, 3, 0), (-2, 1, 1)),
                                 _poly((3, 4, 0), (1, 2, 1))), True),
    "e6": (("x",), (_poly((1, 3)), _poly((1, 4))), True),
    "cusp": (("x",), (_poly((1, 2)), _poly((1, 3))), True),
}

# The f4 shears hold almost all of this workload's time, in one rank-4 local
# std each.  Their cost depends on the shear entries: between draws from
# {-2, -1, 1, 2} it varies by a factor of two (a zero entry makes a draw
# about a hundred times cheaper).  So each pass holds two fixed f4 shears
# with entries of magnitude 1 (magnitude 2 doubles the time of a pass).
F4_SHEARS = ((1, 1, 1, 1), (1, -1, 1, 1))   # (source a; target b, c, d)

# The other germs get shears with entries from {-2, -1, 1, 2}, drawn once
# from a fixed generator.  Generic linear changes are left out: about one
# change of the folded umbrella in ten takes more than 3 s to decide and some
# take minutes (see never_finish.json).  Thirty shears per germ give the
# item times a spread of costs: the cost of a shear of the swallowtail or
# the cuspidal edge varies fivefold between draws.
CHANGES_PER_GERM = 30

# The seed does not draw the shears: it would move item_p50_ms and
# item_tail_ms with the seed, as the costs of the draws vary.  The seed
# composes every item g with sign changes, D_t g(D_s x) for diagonal sign
# matrices D_s, D_t, and shuffles the items.  A sign change maps every step
# of the computation onto the one for g, term by term with the same
# coefficient sizes, so an item costs the same for every seed.


def _unipotent(n, upper):
    """Upper unitriangular matrix with the given entries above the diagonal."""
    it = iter(upper)
    return [[Fraction(1) if i == j else Fraction(next(it)) if i < j else
             Fraction(0) for j in range(n)] for i in range(n)]


def _shear_entries(rng: random.Random, n: int):
    """Entries above the diagonal, from {-2, -1, 1, 2}."""
    return [rng.choice((-2, -1, 1, 2)) for _ in range(n * (n - 1) // 2)]


def _signed(rng: random.Random, source, target):
    """source D_s and D_t target, with seeded diagonal sign matrices."""
    s = [rng.choice((-1, 1)) for _ in source]
    t = [rng.choice((-1, 1)) for _ in target]
    return ([[c * sk for c, sk in zip(row, s)] for row in source],
            [[c * ti for c in row] for row, ti in zip(target, t)])


def frontal_shears(rng: random.Random) -> list[Item]:
    """One large local std per f4 shear (coefficient swell) and many small
    frontality decisions; never linalg.solve, global eliminate or sympy."""
    items = []
    shears = random.Random("frontal-shears")

    def add(base, source, target, k):
        names, comps, frontal = SHEAR_BASES[base]
        changed = _change(comps, names, *_signed(rng, source, target))
        items.append(Item(f"{base}.{k}",
                          _germ_text(names, changed, "frontal"),
                          ("frontal", frontal)))

    for k, (a, b, c, d) in enumerate(F4_SHEARS):
        add("f4", _unipotent(2, [a]), _unipotent(3, [b, c, d]), k)
    for base in ("cuspidal_edge", "folded_umbrella", "swallowtail", "e6",
                 "cusp"):
        n = len(SHEAR_BASES[base][0])
        for k in range(CHANGES_PER_GERM):
            add(base, _unipotent(n, _shear_entries(shears, n)),
                _unipotent(n + 1, _shear_entries(shears, n + 1)), k)
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# image-sweep: many short image analyses (global eliminate, the sympy gcd,
# small local std's).

PLANE_PAIRS = tuple((a, b) for a in range(2, 26) for b in range(a + 1, 26)
                    if gcd(a, b) == 1 and (a - 1) * (b - 1) <= 24)
SURFACES = tuple([(2, 2 * k + 1, j) for k in range(1, 5) for j in range(1, 4)]
                 + [(3, 4, 1), (3, 5, 1)])
# (x^a (1 + c x), x^b (1 + c x)) returns to the origin at x = -1/c.
RETURNING_PAIRS = ((2, 3), (2, 5), (3, 4))
DRAWS = 2   # coefficient draws per family member and pass


def _coefficient(rng: random.Random) -> Fraction:
    """A seeded nonzero rational p/q with |p| <= 5 and q <= 3."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                    rng.randint(1, 3))


def image_sweep(rng: random.Random) -> list[Item]:
    """Plane curves (x^a, x^b + c x^(b+1)) and (x^a, c x^b), quasihomogeneous
    surfaces (x, y^p, y^q + c x^j y), and returning plane curves."""
    items = []

    def add(name, names, comps, directives, check):
        text = _germ_text(names, comps, directives)
        if check == "surface":
            check = ("surface", tuple(_to_str(c, names) for c in comps))
        items.append(Item(name, text, check))

    for draw in range(DRAWS):
        for a, b in PLANE_PAIRS:
            mu = (a - 1) * (b - 1)
            c = _coefficient(rng)
            add(f"curve.{a}.{b}.{draw}", ("x",),
                (_poly((1, a)), _poly((1, b), (c, b + 1))),
                "image mu conductor", ("plane_curve", mu, False))
            c = _coefficient(rng)
            add(f"monomial.{a}.{b}.{draw}", ("x",),
                (_poly((1, a)), _poly((c, b))),
                "image mu conductor hat_M derlog", ("plane_curve", mu, False))
        for p, q, j in SURFACES:
            c = _coefficient(rng)
            add(f"surface.{p}.{q}.{j}.{draw}", ("x", "y"),
                (_poly((1, 1, 0)), _poly((1, 0, p)),
                 _poly((1, 0, q), (c, j, 1))),
                "image mu conductor hat_M derlog", "surface")
        for a, b in RETURNING_PAIRS:
            mu = (a - 1) * (b - 1)
            c = _coefficient(rng)
            add(f"returning.{a}.{b}.{draw}", ("x",),
                (_poly((1, a), (c, a + 1)), _poly((1, b), (c, b + 1))),
                "image mu conductor", ("plane_curve", mu, True))
    rng.shuffle(items)
    return items


WORKLOADS = ("corpus", "frontal-shears", "image-sweep")

# (fewest, most) passes of an untraced run; between the two, passes go on
# while the next one would end within --seconds.  item_p50_ms and
# item_tail_ms read ranks of the samples, so a workload whose items cost
# very different amounts needs a fixed pass count for them to read the same
# fixture in every run.  The corpus makes seven, about 30 s: item_tail_ms,
# which has ten samples beyond it, is then the median of the seven times of
# the second slowest fixture (cuspidal_edge), the ten beyond it being the
# slowest fixture's seven (swallowtail) and its own three slowest.
# frontal-shears makes two in 30 s at normal speed, and two on a slow
# machine too.
PASSES = {"corpus": (7, 7), "frontal-shears": (2, None),
          "image-sweep": (1, None)}


def generate(workload: str, seed: int, corpus_dir: Path) -> list[Item]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus":
        return corpus(rng, corpus_dir)
    if workload == "frontal-shears":
        return frontal_shears(rng)
    if workload == "image-sweep":
        return image_sweep(rng)
    raise ValueError(f"unknown workload {workload!r}")
