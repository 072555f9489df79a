"""Parser and serializer for the `frontal-kernel v1` germ-file format.

Statements are semicolon-terminated; `#` starts a comment.  Supported:

    ring x, y;
    weights 1, 2;
    map f = x, y^2, x*y^3;
    unfold F of f params t: x^3 + t*x, x^4 + 2/3*t*x^2;
    good_equation F = y2^2 - y1^3;
    assert_frontal_stable F;
    analyze f frontal wavefront image;

The file is read with one cursor over one token list: `_ExprParser` holds
it with the expression grammar, and the statement parser extends it, setting
the ring each expression list is read in (the source ring, the unfolding
ring or the target ring).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import add
from typing import NamedTuple, Optional, Union

from .basis import DEFAULT_LIMITS, ResourceLimitError
from .germs import MapGerm, germ
from .invariants import InvariantError, UnfoldingSpec, unfolding
from .ring import Poly, Ring, ring

VERSION = "frontal-kernel v1"

DIRECTIVES = frozenset({
    "frontal", "wavefront", "corank", "image", "mu", "plane_curve",
    "conductor", "hat_M", "genfam", "derlog", "free_divisor",
    "siersma", "M_F", "codim_Fe", "samuel", "verify", "all",
})


class SyntaxErrorAt(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class RingStmt:
    names: tuple[str, ...]


@dataclass(frozen=True)
class WeightsStmt:
    weights: tuple[Fraction, ...]


@dataclass(frozen=True)
class MapStmt:
    name: str
    components: tuple[Poly, ...]


@dataclass(frozen=True)
class UnfoldStmt:
    name: str
    base: str
    params: tuple[str, ...]
    components: tuple[Poly, ...]


@dataclass(frozen=True)
class GoodEquationStmt:
    name: str
    equation: Poly


@dataclass(frozen=True)
class AssertStableStmt:
    name: str


@dataclass(frozen=True)
class AnalyzeStmt:
    name: str
    directives: tuple[str, ...]


Statement = Union[RingStmt, WeightsStmt, MapStmt, UnfoldStmt,
                  GoodEquationStmt, AssertStableStmt, AnalyzeStmt]


@dataclass
class GermFile:
    statements: list[Statement]
    weights: Optional[tuple[Fraction, ...]]  # of the last ring, if weighted
    maps: dict[str, MapGerm]
    unfoldings: dict[str, UnfoldingSpec]

    @property
    def analyses(self) -> list[AnalyzeStmt]:
        return [s for s in self.statements if isinstance(s, AnalyzeStmt)]


# ---------------------------------------------------------------------------
# Tokenizer


class Token(NamedTuple):
    kind: str       # name, number, punct, end
    text: str
    line: int
    column: int


# One match per token, run of blanks or comment.  A name starts with a letter
# or '_' and goes on with letters, digits or '_': \w is exactly
# str.isalnum() or '_', but [^\W\d] also admits numeric characters such as
# '²', which tokenize rejects as a name's first character.  Numbers are ASCII
# digits only (int() would also read other decimal digits).
_TOKEN = re.compile(r"[ \t\r]+|#.*|(?P<name>[^\W\d]\w*)|(?P<number>[0-9]+)"
                    r"|(?P<punct>[;,=:+\-*/^()])|(?P<other>.)")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    limit = sys.get_int_max_str_digits()
    new_token = tuple.__new__  # Token(...) without its Python-level __new__
    lines = text.split("\n")
    for line, source in enumerate(lines, 1):
        for m in _TOKEN.finditer(source):
            kind = m.lastgroup
            if kind is None:
                continue
            word, column = m.group(), m.start() + 1
            if kind == "other" or kind == "name" and not (
                    word[0].isalpha() or word[0] == "_"):
                raise SyntaxErrorAt(f"unexpected character {word[0]!r}",
                                    line, column)
            if kind == "number" and limit and len(word) > limit:
                raise SyntaxErrorAt(
                    f"integer literal of {len(word)} digits is longer than "
                    f"{limit} digits", line, column)
            tokens.append(new_token(Token, (kind, word, line, column)))
    tokens.append(Token("end", "", len(lines), len(lines[-1]) + 1))
    return tokens


# ---------------------------------------------------------------------------
# Expression parsing (sum of products; '/' needs a constant divisor)
#
# A term whose factors are numbers, variables or their powers is read as a
# monomial (exponents, coefficient): '*' adds exponents, '^' scales them and
# '/' divides the coefficient, an int until then.  A parenthesised factor is
# a Poly, and so is every product it enters.  A sum is merged and sorted
# once, with one Fraction per monomial term.  A punctuation token is known by
# its text alone.

Monomial = tuple[tuple[int, ...], Union[int, Fraction]]


def _degree(factor: Union[Monomial, Poly]) -> int:
    """Total degree; -1 for zero, as for the zero Poly."""
    if isinstance(factor, Poly):
        return factor.total_degree()
    return sum(factor[0]) if factor[1] else -1


class _ExprParser:
    """A cursor over a token list, and the expression grammar read with it
    in ``self.ring``."""

    def __init__(self, tokens: list[Token], pos: int, ring_: Ring,
                 max_degree: int = DEFAULT_LIMITS.max_degree):
        self.tokens = tokens
        self.pos = pos
        self.ring = ring_
        self.max_degree = max_degree

    @property
    def ring(self) -> Ring:
        return self._ring

    @ring.setter
    def ring(self, ring_: Ring) -> None:
        # with the exponents of a constant and of each variable of the ring
        self._ring = ring_
        names = ring_.names if ring_ is not None else ()
        self.const_exp = (0,) * len(names)
        self.var_exp = {name: tuple(int(i == j) for j in range(len(names)))
                        for i, name in enumerate(names)}

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise SyntaxErrorAt(message, tok.line, tok.column)

    def expect_punct(self, text: str) -> None:
        tok = self.peek()
        if not (tok.kind == "punct" and tok.text == text):
            self.error(f"expected {text!r}")
        self.take()

    def check_degree(self, degree: int, tok: Token,
                     what: str = "degree") -> None:
        """Refuse a product or power before expanding it past the bound."""
        if degree > self.max_degree:
            raise ResourceLimitError(
                f"line {tok.line}, column {tok.column}: {what} {degree} "
                f"exceeds limit {self.max_degree}")

    def poly(self, factor: Union[Monomial, Poly]) -> Poly:
        if isinstance(factor, Poly):
            return factor
        return self.ring.monomial(*factor)

    def parse_expr(self) -> Poly:
        """A signed sum of terms, merged and sorted once at the end."""
        terms = []
        sign = self.take_sign()
        while True:
            term = self.parse_term()
            if isinstance(term, Poly):
                terms += [(e, -c if sign == "-" else c) for e, c in term.terms]
            elif term[1]:
                terms.append((term[0], Fraction(-term[1] if sign == "-"
                                                else term[1])))
            sign = self.take_sign()
            if sign is None:
                return self.ring.from_terms(terms)

    def take_sign(self) -> Optional[str]:
        """Consume a leading '+' or '-' and return it, else None."""
        tok = self.tokens[self.pos]
        if tok.text == "+" or tok.text == "-":
            self.pos += 1
            return tok.text
        return None

    def parse_term(self) -> Union[Monomial, Poly]:
        acc = self.parse_power()
        while True:
            tok = self.tokens[self.pos]
            if tok.text == "*":
                self.pos += 1
                factor = self.parse_power()
                self.check_degree(_degree(acc) + _degree(factor), tok)
                if isinstance(acc, Poly) or isinstance(factor, Poly):
                    acc = self.poly(acc) * self.poly(factor)
                else:
                    acc = (tuple(map(add, acc[0], factor[0])),
                           acc[1] * factor[1])
            elif tok.text == "/":
                self.pos += 1
                divisor = self.parse_power()
                if isinstance(divisor, Poly):
                    c = divisor.constant_term() if divisor.is_constant() else 0
                else:
                    c = 0 if any(divisor[0]) else divisor[1]
                if not c:
                    self.error("division requires a nonzero constant divisor")
                if isinstance(acc, Poly):
                    acc = acc.scale(Fraction(1) / c)
                else:
                    acc = (acc[0], Fraction(acc[1], c))
            else:
                return acc

    def parse_power(self) -> Union[Monomial, Poly]:
        sign = self.take_sign()
        if sign is not None:
            # a unary sign inside a term applies to the power after it, and
            # no further '^' applies to the signed power: -x^2^3 stops at
            # the second '^', as x^2^3 does
            factor = self.parse_power()
            if sign == "+":
                return factor
            if isinstance(factor, Poly):
                return -factor
            return factor[0], -factor[1]
        base = self.parse_atom()
        tok = self.tokens[self.pos]
        if tok.text != "^":
            return base
        self.pos += 1
        exp = self.tokens[self.pos]
        if exp.kind != "number":
            self.error("exponent must be a nonnegative integer")
        self.pos += 1
        power = int(exp.text)
        self.check_degree(_degree(base) * power, tok)
        # a constant base has degree 0, but its power still grows
        self.check_degree(power, tok, "exponent")
        if isinstance(base, Poly):
            return base ** power
        return tuple([a * power for a in base[0]]), base[1] ** power

    def parse_atom(self) -> Union[Monomial, Poly]:
        tok = self.tokens[self.pos]
        if tok.kind == "number":
            self.pos += 1
            return self.const_exp, int(tok.text)
        if tok.kind == "name":
            exp = self.var_exp.get(tok.text)
            if exp is None:
                self.error(f"undeclared variable {tok.text!r} "
                           f"(known: {', '.join(self.ring.names)})")
            self.pos += 1
            return exp, 1
        if tok.text == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect_punct(")")
            return inner
        self.error("expected a variable, number, or '('")


# ---------------------------------------------------------------------------
# Statement parsing


class _Parser(_ExprParser):
    def __init__(self, text: str, max_degree: int):
        lines = text.split("\n", 1)
        if lines[0].strip() != VERSION:
            raise SyntaxErrorAt(
                f"missing or unsupported header (expected {VERSION!r})", 1, 1)
        body = lines[1] if len(lines) > 1 else ""
        # the leading newline keeps line numbers aligned with the file
        super().__init__(tokenize("\n" + body), 0, None, max_degree)
        self.statements: list[Statement] = []
        self.source_ring: Optional[Ring] = None
        self.maps: dict[str, MapGerm] = {}
        self.unfoldings: dict[str, UnfoldingSpec] = {}

    def expect_name(self, what: str = "name") -> str:
        tok = self.peek()
        if tok.kind != "name":
            self.error(f"expected a {what}")
        self.take()
        return tok.text

    def expect_keyword(self, word: str) -> None:
        tok = self.peek()
        if not (tok.kind == "name" and tok.text == word):
            self.error(f"expected keyword {word!r}")
        self.take()

    def parse(self) -> GermFile:
        while self.peek().kind != "end":
            self.statement()
        weights = self.source_ring.weights if self.source_ring else None
        return GermFile(self.statements, weights, self.maps, self.unfoldings)

    def statement(self) -> None:
        tok = self.peek()
        if tok.kind != "name":
            self.error("expected a statement keyword")
        handler = {
            "ring": self.ring_stmt,
            "weights": self.weights_stmt,
            "map": self.map_stmt,
            "unfold": self.unfold_stmt,
            "good_equation": self.good_equation_stmt,
            "assert_frontal_stable": self.assert_stable_stmt,
            "analyze": self.analyze_stmt,
        }.get(tok.text)
        if handler is None:
            self.error(f"unknown statement {tok.text!r}")
        self.take()
        handler()
        self.expect_punct(";")

    def comma_list(self, item) -> tuple:
        """One or more items, each read by item(), separated by ','."""
        items = [item()]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.take()
            items.append(item())
        return tuple(items)

    def expr_list(self, ring_: Ring) -> tuple[Poly, ...]:
        self.ring = ring_
        return self.comma_list(self.parse_expr)

    def ring_stmt(self) -> None:
        start = self.pos
        names = self.comma_list(self.expect_name)
        try:
            self.source_ring = ring(*names, local=True)
        except ValueError as exc:
            # at the first repeated name; the names are every other token
            i = next(i for i, name in enumerate(names) if name in names[:i])
            self.error(str(exc), self.tokens[start + 2 * i])
        self.statements.append(RingStmt(names))

    def weights_stmt(self) -> None:
        if self.source_ring is None:
            self.error("weights before any ring declaration")
        arity = self.source_ring.arity
        read = self.comma_list(self.weight)
        if len(read) != arity:
            # at the first weight too many, or at the end of too few
            self.error(f"{arity} weights required",
                       read[arity][0] if len(read) > arity else None)
        values = tuple(value for _, value in read)
        self.source_ring = ring(*self.source_ring.names, local=True,
                                weights=values)
        self.statements.append(WeightsStmt(values))

    def weight(self) -> tuple[Token, Fraction]:
        """A positive weight, with its first token."""
        tok = self.peek()
        if tok.kind != "number" or int(tok.text) == 0:
            self.error("expected a positive integer weight")
        self.take()
        if not (self.peek().kind == "punct" and self.peek().text == "/"):
            return tok, Fraction(int(tok.text))
        self.take()
        den = self.peek()
        if den.kind != "number" or int(den.text) == 0:
            self.error("expected a positive denominator")
        self.take()
        return tok, Fraction(int(tok.text), int(den.text))

    def map_stmt(self) -> None:
        if self.source_ring is None:
            self.error("map before any ring declaration")
        tok = self.peek()
        name = self.expect_name("map name")
        if name in self.maps or name in self.unfoldings:
            self.error(f"duplicate definition of {name!r}", tok)
        self.expect_punct("=")
        comps = self.expr_list(self.source_ring)
        if len(comps) != self.source_ring.arity + 1:
            self.error(f"expected {self.source_ring.arity + 1} components, "
                       f"got {len(comps)}")
        try:
            self.maps[name] = germ(self.source_ring, *comps)
        except ValueError as exc:
            self.error(str(exc))
        self.statements.append(MapStmt(name, comps))

    def unfold_stmt(self) -> None:
        tok = self.peek()
        name = self.expect_name("unfolding name")
        if name in self.maps or name in self.unfoldings:
            self.error(f"duplicate definition of {name!r}", tok)
        self.expect_keyword("of")
        tok = self.peek()
        base_name = self.expect_name("map name")
        base = self.maps.get(base_name)
        if base is None:
            self.error(f"undeclared map {base_name!r}", tok)
        self.expect_keyword("params")
        start = self.pos
        params = self.comma_list(self.expect_name)
        self.expect_punct(":")
        try:
            uring = ring(*base.source.names, *params, local=True)
        except ValueError as exc:
            # at the first parameter that repeats a variable or a parameter;
            # the parameters are every other token
            names = base.source.names
            i = next(i for i, p in enumerate(params)
                     if p in names or p in params[:i])
            self.error(str(exc), self.tokens[start + 2 * i])
        first = self.peek()
        comps = self.expr_list(uring)
        try:
            self.unfoldings[name] = unfolding(base, params, comps)
        except (ValueError, InvariantError) as exc:
            self.error(str(exc), first)
        self.statements.append(UnfoldStmt(name, base_name, params, comps))

    def good_equation_stmt(self) -> None:
        tok = self.peek()
        name = self.expect_name("unfolding name")
        spec = self.unfoldings.get(name)
        if spec is None:
            self.error(f"undeclared unfolding {name!r}", tok)
        self.expect_punct("=")
        try:
            self.ring = spec.target_ring()
        except ValueError as exc:
            # a parameter of the unfolding repeats a target variable
            self.error(str(exc), tok)
        equation = self.parse_expr()
        self.unfoldings[name] = replace(spec, explicit_G=equation)
        self.statements.append(GoodEquationStmt(name, equation))

    def assert_stable_stmt(self) -> None:
        tok = self.peek()
        name = self.expect_name("unfolding name")
        spec = self.unfoldings.get(name)
        if spec is None:
            self.error(f"undeclared unfolding {name!r}", tok)
        self.unfoldings[name] = replace(spec, stable_asserted=True)
        self.statements.append(AssertStableStmt(name))

    def analyze_stmt(self) -> None:
        tok = self.peek()
        name = self.expect_name("map or unfolding name")
        if name not in self.maps and name not in self.unfoldings:
            self.error(f"undeclared map or unfolding {name!r}", tok)
        directives = []
        while self.peek().kind == "name":
            tok = self.take()
            if tok.text not in DIRECTIVES:
                self.error(f"unknown directive {tok.text!r}", tok)
            directives.append(tok.text)
        self.statements.append(AnalyzeStmt(name, tuple(directives)))


def parse(text: str, max_degree: int = DEFAULT_LIMITS.max_degree) -> GermFile:
    """Parse a germ file.  A power or product whose degree would exceed
    ``max_degree`` raises ``ResourceLimitError`` before it is expanded."""
    return _Parser(text, max_degree).parse()


# ---------------------------------------------------------------------------
# Serializer (round-trip: serialize(parse(t)) reparses to the same AST)


def serialize(parsed: GermFile) -> str:
    lines = [VERSION]
    for stmt in parsed.statements:
        if isinstance(stmt, RingStmt):
            lines.append(f"ring {', '.join(stmt.names)};")
        elif isinstance(stmt, WeightsStmt):
            lines.append(f"weights {', '.join(map(str, stmt.weights))};")
        elif isinstance(stmt, MapStmt):
            comps = ", ".join(str(c) for c in stmt.components)
            lines.append(f"map {stmt.name} = {comps};")
        elif isinstance(stmt, UnfoldStmt):
            comps = ", ".join(str(c) for c in stmt.components)
            lines.append(f"unfold {stmt.name} of {stmt.base} "
                         f"params {', '.join(stmt.params)}: {comps};")
        elif isinstance(stmt, GoodEquationStmt):
            lines.append(f"good_equation {stmt.name} = {stmt.equation};")
        elif isinstance(stmt, AssertStableStmt):
            lines.append(f"assert_frontal_stable {stmt.name};")
        elif isinstance(stmt, AnalyzeStmt):
            tail = "".join(f" {d}" for d in stmt.directives)
            lines.append(f"analyze {stmt.name}{tail};")
    return "\n".join(lines) + "\n"
