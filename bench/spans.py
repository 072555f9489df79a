"""Spans around the public functions of frontal_kernel, recorded from outside.

`Tracer.install()` replaces every module-level binding whose value *is* one
of the boundary functions below (so `from .basis import std` copies and
aliases such as `cli.compute_derlog` are caught) and wraps the `Poly`
arithmetic methods on the class.  Each call of a boundary records a span
(name, start, end, parent span, item id) in memory; `write()` saves them
when the run ends.  A boundary's self time is its duration minus the time
its child spans cover.

Poly arithmetic runs millions of times per pass, so `ring.arith` keeps no
spans: it adds its calls and time to counters and its time to the enclosing
span's child time.  Only the outermost arithmetic call counts (`-` calls
`+` and unary `-`; `**` calls `*`).  Time the tracer spends on its own
bookkeeping (input keys, coefficient sizes) is subtracted from every clock
reading, so spans measure the library, not the tracer.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import defaultdict
from time import perf_counter

BOUNDARIES = (
    "germfile.parse", "report.Report.machine",
    "germs.is_frontal", "germs.min_generators", "germs.frontal_lift",
    "germs.nash_lift",
    "linalg.solve", "linalg.rank", "linalg.inverse",
    "basis.std", "basis.eliminate", "basis.syzygies", "basis.saturation",
    "basis.subquotient_dimension", "basis.membership_certificate",
    "squarefree.squarefree_part", "squarefree.gcd",
    "invariants.image_equation", "invariants.unfolding_image_equation",
    "invariants.milnor_number", "invariants.plane_curve_invariants",
    "invariants.hat_M_dimension", "invariants.siersma_count",
    "invariants.good_equation",
    "genfam.generating_family_of", "genfam.verify_discriminant_equals_image",
    "derlog.derlog",
    "ring.exact_divide",
)
ARITH_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                 "__mul__", "__rmul__", "__pow__", "mul_term", "scale")
DISTINCT = ("basis.eliminate", "invariants.image_equation",
            "invariants.unfolding_image_equation")
ARITH = "ring.arith"


def _span_name(path: str) -> str:
    return "report.machine" if path == "report.Report.machine" else path


def span_names() -> list[str]:
    names = []
    for path in BOUNDARIES:
        names += (["basis.std.local", "basis.std.global"]
                  if path == "basis.std" else [_span_name(path)])
    return names + [ARITH]


def _coeff_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for _, c in poly.terms), default=0)


def _key(obj):
    """A hashable value equal for equal library inputs."""
    if hasattr(obj, "terms") and hasattr(obj, "ring"):
        return (obj.ring.names, obj.terms)
    if isinstance(obj, (list, tuple)):
        return tuple(_key(o) for o in obj)
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            _key(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, range):
        return tuple(obj)
    return obj


def _first_ring(gens):
    for g in gens:
        return g.ring if hasattr(g, "ring") else g[0].ring
    return None


class Tracer:
    def __init__(self, package):
        self.package = package
        self.undo: list[tuple] = []          # (owner, attribute, original)
        # span: [name, start, end, parent index or -1, item, child seconds]
        self.spans: list[list] = []
        self.open: list[int] = []
        self.item = None
        self.lost = 0.0
        self.in_arith = False
        self.arith_calls = 0
        self.arith_seconds = 0.0
        self.ring_bits = 0
        self.std_bits = 0
        self.std_degree = 0
        self.std_errors = 0
        self.max_cells = 0
        self.nash_failures = 0
        self.inputs = defaultdict(set)       # (boundary, item) -> input keys

    def now(self) -> float:
        return perf_counter() - self.lost

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the boundaries of the package, whose modules must be imported."""
        package = self.package
        prefix = package.__name__ + "."
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (m is package or name.startswith(prefix))]
        for path in BOUNDARIES:
            *owner_path, attr = path.split(".")
            owner = sys.modules[prefix + owner_path[0]]
            for part in owner_path[1:]:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(_span_name(path), original)
            owners = [(owner, attr)] if isinstance(owner, type) else [
                (module, name) for module in modules
                for name, value in vars(module).items() if value is original]
            for where, name in owners:
                self._replace(where, name, wrapper)
        poly = sys.modules[prefix + "ring"].Poly
        for attr in ARITH_METHODS:
            self._replace(poly, attr, self._wrap_arith(getattr(poly, attr)))

    def _replace(self, owner, name, value) -> None:
        self.undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Put back every original that install() replaced."""
        while self.undo:
            owner, name, original = self.undo.pop()
            setattr(owner, name, original)

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def _wrap_arith(self, fn):
        tracer = self

        def traced(*args):
            if tracer.in_arith:
                return fn(*args)
            tracer.in_arith = True
            start = perf_counter()
            try:
                result = fn(*args)
            finally:
                tracer.in_arith = False
            end = perf_counter()
            tracer.arith_calls += 1
            tracer.arith_seconds += end - start
            if tracer.open:
                tracer.spans[tracer.open[-1]][5] += end - start
            tracer.ring_bits = max(tracer.ring_bits, _coeff_bits(result))
            tracer.lost += perf_counter() - end
            return result
        traced.__wrapped__ = fn
        return traced

    # -- one boundary call --------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        t0 = perf_counter()
        if name == "basis.std":
            gens = args[0] if args else kwargs["gens"]
            ring = _first_ring(gens)
            name = ("basis.std.global" if ring is None or
                    ring.ordering.is_global() else "basis.std.local")
        elif name in DISTINCT:
            self.inputs[(name, self.item)].add(
                _key((args, tuple(sorted(kwargs.items())))))
        elif name.startswith("linalg."):
            for m in list(args[:2]) + list(kwargs.values()):
                if isinstance(m, list) and m and isinstance(m[0], list):
                    self.max_cells = max(self.max_cells, len(m) * len(m[0]))
        parent = self.open[-1] if self.open else -1
        span = [name, 0.0, 0.0, parent, self.item, 0.0]
        self.open.append(len(self.spans))
        self.spans.append(span)
        self.lost += perf_counter() - t0
        span[1] = self.now()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self._close(span, parent)
            kind = type(exc).__name__
            if name.startswith("basis.std.") and kind == "ResourceLimitError":
                self.std_errors += 1
            elif name == "germs.nash_lift" and kind == "DivisionError":
                self.nash_failures += 1
            raise
        self._close(span, parent)
        if name.startswith("basis.std."):
            t1 = perf_counter()
            for vec in result.elements:
                for p in vec:
                    self.std_bits = max(self.std_bits, _coeff_bits(p))
                    self.std_degree = max(self.std_degree, p.total_degree())
            self.lost += perf_counter() - t1
        return result

    def _close(self, span, parent) -> None:
        span[2] = self.now()
        self.open.pop()
        if parent >= 0:
            self.spans[parent][5] += span[2] - span[1]

    # -- results ------------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, per pass where they are totals."""
        calls = defaultdict(int)
        seconds = defaultdict(float)
        self_seconds = defaultdict(float)
        for name, start, end, _, _, child in self.spans:
            calls[name] += 1
            seconds[name] += end - start
            self_seconds[name] += end - start - child
        calls[ARITH] = self.arith_calls
        seconds[ARITH] = self_seconds[ARITH] = self.arith_seconds
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.s"] = seconds[name] / passes
            out[f"{name}.self_s"] = self_seconds[name] / passes
        out["ring.max_coeff_bits"] = self.ring_bits
        out["basis.std.out_max_coeff_bits"] = self.std_bits
        out["basis.std.out_max_degree"] = self.std_degree
        out["basis.std.errors"] = self.std_errors / passes
        out["linalg.max_cells"] = self.max_cells
        nash = calls["germs.nash_lift"]
        out["germs.nash_lift.fail_ratio"] = \
            self.nash_failures / nash if nash else 0.0
        for name in DISTINCT:
            distinct = sum(len(keys) for (n, _), keys in self.inputs.items()
                           if n == name)
            out[f"{name}.distinct_ratio"] = \
                distinct / calls[name] if calls[name] else 1.0
        return out

    def write(self, path) -> None:
        """One tab-separated line per span: item, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("item\tname\tstart_s\tend_s\tparent\n")
            for name, start, end, parent, item, _ in self.spans:
                out.write(f"{item}\t{name}\t{start:.6f}\t{end:.6f}\t{parent}\n")
