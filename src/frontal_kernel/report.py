"""Ordered key-value reports with per-entry certification status."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .basis import INFINITE
from .ring import Poly

EXACT = "exact"
CERTIFIED = "certified"
INFINITE_STATUS = "infinite"
NOT_COMPUTED = "not-computed"
ASSUMED = "assumed"
INCONCLUSIVE = "inconclusive"
ERROR = "error"


def render_value(value) -> str:
    if value is INFINITE:
        return "INFINITE"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, Poly):
        return str(value)
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(render_value(v) for v in value) + "]"
    return str(value)


def largest_digits(value) -> int:
    """The most decimal digits of an integer that rendering ``value`` would
    print (a numerator or denominator of a coefficient), counted without
    converting it to a string; 0 when it prints none."""
    if isinstance(value, Poly):
        value = [c for _, c in value.terms]
    if isinstance(value, (tuple, list)):
        return max(map(largest_digits, value), default=0)
    if isinstance(value, Fraction):
        return max(largest_digits(value.numerator),
                   largest_digits(value.denominator))
    if isinstance(value, int) and not isinstance(value, bool):
        n = abs(value)
        # 10**d <= n to start with, since 3/10 < log10(2)
        d = max((n.bit_length() - 1) * 3 // 10, 0)
        while 10 ** d <= n:
            d += 1
        return max(d, 1)
    return 0


@dataclass
class Entry:
    key: str
    value: object
    status: str = EXACT
    note: str = ""


@dataclass
class Report:
    title: str
    entries: list[Entry] = field(default_factory=list)

    def add(self, key: str, value, status: str = EXACT, note: str = "") -> None:
        self.entries.append(Entry(key, value, status, note))

    def machine(self) -> str:
        lines = [f"report\t{self.title}"]
        for e in self.entries:
            note = e.note.replace("\t", " ").replace("\n", " ")
            lines.append(f"{e.key}\t{render_value(e.value)}\t{e.status}\t{note}")
        return "\n".join(lines) + "\n"

    def pretty(self) -> str:
        lines = [f"== {self.title} =="]
        width = max((len(e.key) for e in self.entries), default=0)
        for e in self.entries:
            line = f"  {e.key.ljust(width)} : {render_value(e.value)}"
            if e.status != EXACT:
                line += f"  [{e.status}]"
            if e.note:
                line += f"  ({e.note})"
            lines.append(line)
        return "\n".join(lines) + "\n"
