"""Parser and serializer for the `frontal-kernel v1` germ-file format.

Statements are semicolon-terminated; `#` starts a comment.  Supported:

    ring x, y;
    weights 1, 2;
    map f = x, y^2, x*y^3;
    unfold F of f params t: x^3 + t*x, x^4 + 2/3*t*x^2;
    good_equation F = y2^2 - y1^3;
    assert_frontal_stable F;
    analyze f frontal wavefront image;
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .basis import DEFAULT_LIMITS, ResourceLimitError
from .germs import MapGerm, germ, target_names
from .invariants import UnfoldingSpec, unfolding
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
    source_ring: Optional[Ring]
    weights: Optional[tuple[Fraction, ...]]
    maps: dict[str, MapGerm]
    unfoldings: dict[str, UnfoldingSpec]
    analyses: list[AnalyzeStmt]


# ---------------------------------------------------------------------------
# Tokenizer


@dataclass(frozen=True)
class Token:
    kind: str       # name, number, punct, end
    text: str
    line: int
    column: int


PUNCT = set(";,=:+-*/^()")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif c.isalpha() or c == "_":
            start = i
            startcol = col
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(Token("name", text[start:i], line, startcol))
        elif c.isdigit():
            start = i
            startcol = col
            while i < len(text) and text[i].isdigit():
                i += 1
                col += 1
            tokens.append(Token("number", text[start:i], line, startcol))
        elif c in PUNCT:
            tokens.append(Token("punct", c, line, col))
            i += 1
            col += 1
        else:
            raise SyntaxErrorAt(f"unexpected character {c!r}", line, col)
    tokens.append(Token("end", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Expression parsing (sum of products; '/' needs a constant divisor)


class _ExprParser:
    def __init__(self, tokens: list[Token], pos: int, ring_: Ring,
                 max_degree: int = DEFAULT_LIMITS.max_degree):
        self.tokens = tokens
        self.pos = pos
        self.ring = ring_
        self.max_degree = max_degree

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str):
        tok = self.peek()
        raise SyntaxErrorAt(message, tok.line, tok.column)

    def check_degree(self, degree: int, tok: Token) -> None:
        """Refuse a product or power before expanding it past the bound."""
        if degree > self.max_degree:
            raise ResourceLimitError(
                f"line {tok.line}, column {tok.column}: degree {degree} "
                f"exceeds limit {self.max_degree}")

    def parse_expr(self) -> Poly:
        sign = 1
        tok = self.peek()
        if tok.kind == "punct" and tok.text in "+-":
            self.take()
            sign = -1 if tok.text == "-" else 1
        acc = self.parse_term().scale(sign)
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.text in "+-":
                self.take()
                term = self.parse_term()
                acc = acc + term if tok.text == "+" else acc - term
            else:
                return acc

    def parse_term(self) -> Poly:
        acc = self.parse_power()
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.text == "*":
                self.take()
                factor = self.parse_power()
                self.check_degree(acc.total_degree() + factor.total_degree(),
                                  tok)
                acc = acc * factor
            elif tok.kind == "punct" and tok.text == "/":
                self.take()
                divisor = self.parse_power()
                if not divisor.is_constant() or divisor.is_zero():
                    self.error("division requires a nonzero constant divisor")
                acc = acc.scale(Fraction(1) / divisor.constant_term())
            else:
                return acc

    def parse_power(self) -> Poly:
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "^":
            self.take()
            exp = self.peek()
            if exp.kind != "number":
                self.error("exponent must be a nonnegative integer")
            self.take()
            power = int(exp.text)
            self.check_degree(base.total_degree() * power, tok)
            return base ** power
        return base

    def parse_atom(self) -> Poly:
        tok = self.peek()
        if tok.kind == "number":
            self.take()
            return self.ring.const(int(tok.text))
        if tok.kind == "name":
            if tok.text not in self.ring.names:
                self.error(f"undeclared variable {tok.text!r} "
                           f"(known: {', '.join(self.ring.names)})")
            self.take()
            return self.ring.var(self.ring.index(tok.text))
        if tok.kind == "punct" and tok.text == "(":
            self.take()
            inner = self.parse_expr()
            close = self.peek()
            if not (close.kind == "punct" and close.text == ")"):
                self.error("expected ')'")
            self.take()
            return inner
        if tok.kind == "punct" and tok.text in "+-":
            # unary sign inside a term
            self.take()
            atom = self.parse_power()
            return atom.scale(-1 if tok.text == "-" else 1)
        self.error("expected a variable, number, or '('")


# ---------------------------------------------------------------------------
# Statement parsing


class _Parser:
    def __init__(self, text: str, max_degree: int):
        lines = text.split("\n", 1)
        if lines[0].strip() != VERSION:
            raise SyntaxErrorAt(
                f"missing or unsupported header (expected {VERSION!r})", 1, 1)
        body = lines[1] if len(lines) > 1 else ""
        self.tokens = tokenize("\n" + body)  # keep line numbers aligned
        self.pos = 0
        self.statements: list[Statement] = []
        self.source_ring: Optional[Ring] = None
        self.weights: Optional[tuple[Fraction, ...]] = None
        self.maps: dict[str, MapGerm] = {}
        self.unfoldings: dict[str, UnfoldingSpec] = {}
        self.analyses: list[AnalyzeStmt] = []
        self.max_degree = max_degree

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
        return GermFile(self.statements, self.source_ring, self.weights,
                        self.maps, self.unfoldings, self.analyses)

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

    def name_list(self) -> tuple[str, ...]:
        names = [self.expect_name()]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.take()
            names.append(self.expect_name())
        return tuple(names)

    def expr_list(self, ring_: Ring) -> tuple[Poly, ...]:
        sub = _ExprParser(self.tokens, self.pos, ring_, self.max_degree)
        exprs = [sub.parse_expr()]
        while (sub.peek().kind == "punct" and sub.peek().text == ","):
            sub.take()
            exprs.append(sub.parse_expr())
        self.pos = sub.pos
        return tuple(exprs)

    def ring_stmt(self) -> None:
        names = self.name_list()
        try:
            self.source_ring = ring(*names, local=True)
        except ValueError as exc:
            self.error(str(exc))
        self.statements.append(RingStmt(names))

    def weights_stmt(self) -> None:
        if self.source_ring is None:
            self.error("weights before any ring declaration")
        values = []
        while True:
            tok = self.peek()
            if tok.kind != "number":
                self.error("expected a positive integer weight")
            self.take()
            num = int(tok.text)
            if self.peek().kind == "punct" and self.peek().text == "/":
                self.take()
                den = self.peek()
                if den.kind != "number":
                    self.error("expected a denominator")
                self.take()
                values.append(Fraction(num, int(den.text)))
            else:
                values.append(Fraction(num))
            if self.peek().kind == "punct" and self.peek().text == ",":
                self.take()
            else:
                break
        if len(values) != self.source_ring.arity:
            self.error(f"{self.source_ring.arity} weights required")
        self.weights = tuple(values)
        self.source_ring = ring(*self.source_ring.names, local=True,
                                weights=self.weights)
        self.statements.append(WeightsStmt(tuple(values)))

    def map_stmt(self) -> None:
        if self.source_ring is None:
            self.error("map before any ring declaration")
        name = self.expect_name("map name")
        if name in self.maps or name in self.unfoldings:
            self.error(f"duplicate definition of {name!r}")
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
        name = self.expect_name("unfolding name")
        if name in self.maps or name in self.unfoldings:
            self.error(f"duplicate definition of {name!r}")
        self.expect_keyword("of")
        base_name = self.expect_name("map name")
        base = self.maps.get(base_name)
        if base is None:
            self.error(f"undeclared map {base_name!r}")
        self.expect_keyword("params")
        params = self.name_list()
        self.expect_punct(":")
        uring = ring(*base.source.names, *params, local=True)
        comps = self.expr_list(uring)
        try:
            self.unfoldings[name] = unfolding(base, params, comps)
        except ValueError as exc:
            self.error(str(exc))
        self.statements.append(UnfoldStmt(name, base_name, params, comps))

    def good_equation_stmt(self) -> None:
        name = self.expect_name("unfolding name")
        spec = self.unfoldings.get(name)
        if spec is None:
            self.error(f"undeclared unfolding {name!r}")
        self.expect_punct("=")
        sub = _ExprParser(self.tokens, self.pos, spec.target_ring(),
                          self.max_degree)
        equation = sub.parse_expr()
        self.pos = sub.pos
        self.unfoldings[name] = UnfoldingSpec(
            spec.base, spec.params, spec.source, spec.components,
            equation, spec.frontal_asserted, spec.stable_asserted)
        self.statements.append(GoodEquationStmt(name, equation))

    def assert_stable_stmt(self) -> None:
        name = self.expect_name("unfolding name")
        spec = self.unfoldings.get(name)
        if spec is None:
            self.error(f"undeclared unfolding {name!r}")
        self.unfoldings[name] = UnfoldingSpec(
            spec.base, spec.params, spec.source, spec.components,
            spec.explicit_G, True, True)
        self.statements.append(AssertStableStmt(name))

    def analyze_stmt(self) -> None:
        name = self.expect_name("map or unfolding name")
        if name not in self.maps and name not in self.unfoldings:
            self.error(f"undeclared map or unfolding {name!r}")
        directives = []
        while self.peek().kind == "name":
            d = self.take().text
            if d not in DIRECTIVES:
                self.error(f"unknown directive {d!r}")
            directives.append(d)
        stmt = AnalyzeStmt(name, tuple(directives))
        self.analyses.append(stmt)
        self.statements.append(stmt)


def parse(text: str, max_degree: int = DEFAULT_LIMITS.max_degree) -> GermFile:
    """Parse a germ file.  A power or product whose degree would exceed
    ``max_degree`` raises ``ResourceLimitError`` before it is expanded."""
    return _Parser(text, max_degree).parse()


# ---------------------------------------------------------------------------
# Serializer (round-trip: serialize(parse(t)) reparses to the same AST)


def _fraction(f: Fraction) -> str:
    return str(f)


def serialize(parsed: GermFile) -> str:
    lines = [VERSION]
    for stmt in parsed.statements:
        if isinstance(stmt, RingStmt):
            lines.append(f"ring {', '.join(stmt.names)};")
        elif isinstance(stmt, WeightsStmt):
            lines.append(f"weights {', '.join(map(_fraction, stmt.weights))};")
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
