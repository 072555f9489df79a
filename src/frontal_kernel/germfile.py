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

`tokenize` reads the text with one regex scan into token strings; a token's
kind is known by its first character, and the parsers compare strings.  The
token list carries its text, and the line and column of a token are found by
scanning that text again, only when an error reports them.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Union

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


class Tokens(list):
    """The token strings of a text, ending in the end marker '', and the
    text they were read from, which is scanned again for the line and
    column of a token only when an error reports them."""

    __slots__ = ("text",)


# One match per token, run of blanks or comment; group 1 is the token.  A
# name starts with a letter or '_' and goes on with letters, digits or '_':
# \w is exactly str.isalnum() or '_', but [^\W\d] also admits numeric
# characters such as '²', which tokenize rejects as a name's first
# character.  Numbers are ASCII digits only (int() would also read other
# decimal digits).  Any other character is a token of its own, rejected.
_TOKEN = re.compile(r"[ \t\r\n]+|#.*|([^\W\d]\w*|[0-9]+|[;,=:+\-*/^()]|.)")
_PUNCT = frozenset(";,=:+-*/^()")
_DIGITS = frozenset("0123456789")


def _is_name(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


def _position(tokens: Tokens, i: int) -> tuple[int, int]:
    """(line, column) of token i, by scanning the text again."""
    text = tokens.text
    if i < len(tokens) - 1:
        starts = (m.start() for m in _TOKEN.finditer(text) if m.lastindex)
        start = next(itertools.islice(starts, i, None))
    else:
        start = len(text)  # the end marker
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


def tokenize(text: str) -> Tokens:
    """The tokens of text.  A name is known by its first character, a
    letter or '_'; a number by its first, a digit; punctuation is one
    character of its own."""
    tokens = Tokens(filter(None, _TOKEN.findall(text)))
    tokens.append("")
    tokens.text = text
    limit = sys.get_int_max_str_digits()
    errors = {}
    for tok in set(tokens).difference(_PUNCT):
        first = tok[:1]
        if first in _DIGITS:  # not str.isdigit(), which '²' passes
            if limit and len(tok) > limit:
                errors[tok] = (f"integer literal of {len(tok)} digits is "
                               f"longer than {limit} digits")
        elif not (_is_name(tok) or tok == ""):
            errors[tok] = f"unexpected character {first!r}"
    if errors:
        i = min(map(tokens.index, errors))
        raise SyntaxErrorAt(errors[tokens[i]], *_position(tokens, i))
    return tokens


# ---------------------------------------------------------------------------
# Expression parsing (sum of products; '/' needs a constant divisor)
#
# A term is read in one loop, one signed power after another: a power of a
# number or a variable is multiplied into one exponent list and integer
# coefficient, and '/' divides the coefficient, an int until then.  A
# parenthesised sum is a Poly; its powers are multiplied into a second
# product, and the term is the monomial times that product.  A sum is merged
# and sorted once, with one Fraction per monomial term.

Monomial = tuple[tuple[int, ...], Union[int, Fraction]]


class _ExprParser:
    """A cursor over a token list, and the expression grammar read with it
    in ``self.ring``."""

    def __init__(self, tokens: Tokens, pos: int, ring_: Ring,
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
        # with the index of each variable of the ring
        self._ring = ring_
        names = ring_.names if ring_ is not None else ()
        self.var_index = {name: i for i, name in enumerate(names)}

    def peek(self) -> str:
        return self.tokens[self.pos]

    def take(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, at: Optional[int] = None):
        """Raise at token index at, by default at the cursor."""
        line, column = _position(self.tokens, self.pos if at is None else at)
        raise SyntaxErrorAt(message, line, column)

    def expect_punct(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            self.error(f"expected {text!r}")
        self.pos += 1

    def check_degree(self, degree: int, at: int,
                     what: str = "degree") -> None:
        """Refuse a product or power before expanding it past the bound."""
        if degree > self.max_degree:
            line, column = _position(self.tokens, at)
            raise ResourceLimitError(
                f"line {line}, column {column}: {what} {degree} "
                f"exceeds limit {self.max_degree}")

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
        if tok == "+" or tok == "-":
            self.pos += 1
            return tok
        return None

    def parse_term(self) -> Union[Monomial, Poly]:
        """Signed powers joined by '*' or '/'.

        A unary sign applies to the power after it, and no further '^'
        applies to the signed power: -x^2^3 stops at the second '^', as
        x^2^3 does.  Each product and power is checked against the degree
        bound before it is formed."""
        tokens, index, bound = self.tokens, self.var_index, self.max_degree
        # the term is the monomial (exp, coeff) times the product of its
        # parenthesised powers, once there is one
        exp = [0] * len(index)
        coeff, degree = 1, 0  # and sum(exp)
        product = None
        op = None             # index of the '*' or '/' before the power
        pos = self.pos
        while True:
            tok = tokens[pos]
            negative = False
            while tok == "-" or tok == "+":
                negative = negative != (tok == "-")
                pos += 1
                tok = tokens[pos]
            var = index.get(tok)
            if var is not None:
                base, base_degree = 1, 1
            elif tok.isdigit():
                base = int(tok)
                base_degree = 0 if base else -1
            elif tok == "(":
                self.pos = pos + 1
                base = self.parse_expr()
                self.expect_punct(")")
                pos = self.pos - 1
                base_degree = base.total_degree()
            else:
                self.pos = pos
                if _is_name(tok):
                    self.error(f"undeclared variable {tok!r} "
                               f"(known: {', '.join(self.ring.names)})")
                self.error("expected a variable, number, or '('")
            pos += 1
            k = 1
            if tokens[pos] == "^":
                caret = pos
                pos += 1
                if not tokens[pos].isdigit():
                    self.pos = pos
                    self.error("exponent must be a nonnegative integer")
                k = int(tokens[pos])
                pos += 1
                if base_degree * k > bound or k > bound:
                    self.check_degree(base_degree * k, caret)
                    # a constant base has degree 0, but its power still grows
                    self.check_degree(k, caret, "exponent")
            if isinstance(base, Poly):
                power = base ** k if k != 1 else base
                if negative:
                    power = -power
            else:
                power = None
                c = -base ** k if negative else base ** k

            if op is not None and tokens[op] == "/":
                if power is not None:
                    c = power.constant_term() if power.is_constant() else 0
                elif var is not None and k:
                    c = 0
                if not c:
                    self.pos = pos
                    self.error("division requires a nonzero constant divisor")
                coeff = Fraction(coeff, c)
            else:
                if op is not None:
                    # the degrees of the term so far and of the power; -1
                    # for zero, as for the zero Poly
                    d = 0 if product is None else product.total_degree()
                    acc_degree = degree + d if coeff and d >= 0 else -1
                    if power is not None:
                        power_degree = power.total_degree()
                    else:
                        power_degree = (0 if var is None else k) if c else -1
                    if acc_degree + power_degree > bound:
                        self.check_degree(acc_degree + power_degree, op)
                if power is not None:
                    product = power if product is None else product * power
                else:
                    if var is not None:
                        exp[var] += k
                        degree += k
                    coeff *= c

            tok = tokens[pos]
            if tok != "*" and tok != "/":
                self.pos = pos
                if product is None:
                    return tuple(exp), coeff
                return self.ring.monomial(exp, coeff) * product
            op = pos
            pos += 1


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
        if not _is_name(tok):
            self.error(f"expected a {what}")
        self.pos += 1
        return tok

    def expect_keyword(self, word: str) -> None:
        if self.peek() != word:
            self.error(f"expected keyword {word!r}")
        self.pos += 1

    def parse(self) -> GermFile:
        while self.peek():
            self.statement()
        weights = self.source_ring.weights if self.source_ring else None
        return GermFile(self.statements, weights, self.maps, self.unfoldings)

    def statement(self) -> None:
        tok = self.peek()
        if not _is_name(tok):
            self.error("expected a statement keyword")
        handler = {
            "ring": self.ring_stmt,
            "weights": self.weights_stmt,
            "map": self.map_stmt,
            "unfold": self.unfold_stmt,
            "good_equation": self.good_equation_stmt,
            "assert_frontal_stable": self.assert_stable_stmt,
            "analyze": self.analyze_stmt,
        }.get(tok)
        if handler is None:
            self.error(f"unknown statement {tok!r}")
        self.pos += 1
        handler()
        self.expect_punct(";")

    def comma_list(self, item) -> tuple:
        """One or more items, each read by item(), separated by ','."""
        items = [item()]
        while self.peek() == ",":
            self.pos += 1
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
            self.error(str(exc), start + 2 * i)
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

    def weight(self) -> tuple[int, Fraction]:
        """A positive weight, with the index of its first token."""
        start, num = self.pos, self.peek()
        if not num.isdigit() or int(num) == 0:
            self.error("expected a positive integer weight")
        self.pos += 1
        if self.peek() != "/":
            return start, Fraction(int(num))
        self.pos += 1
        den = self.peek()
        if not den.isdigit() or int(den) == 0:
            self.error("expected a positive denominator")
        self.pos += 1
        return start, Fraction(int(num), int(den))

    def map_stmt(self) -> None:
        if self.source_ring is None:
            self.error("map before any ring declaration")
        at = self.pos
        name = self.expect_name("map name")
        if name in self.maps or name in self.unfoldings:
            self.error(f"duplicate definition of {name!r}", at)
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
        at = self.pos
        name = self.expect_name("unfolding name")
        if name in self.maps or name in self.unfoldings:
            self.error(f"duplicate definition of {name!r}", at)
        self.expect_keyword("of")
        at = self.pos
        base_name = self.expect_name("map name")
        base = self.maps.get(base_name)
        if base is None:
            self.error(f"undeclared map {base_name!r}", at)
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
            self.error(str(exc), start + 2 * i)
        first = self.pos
        comps = self.expr_list(uring)
        try:
            self.unfoldings[name] = unfolding(base, params, comps)
        except (ValueError, InvariantError) as exc:
            self.error(str(exc), first)
        self.statements.append(UnfoldStmt(name, base_name, params, comps))

    def good_equation_stmt(self) -> None:
        at = self.pos
        name = self.expect_name("unfolding name")
        spec = self.unfoldings.get(name)
        if spec is None:
            self.error(f"undeclared unfolding {name!r}", at)
        self.expect_punct("=")
        try:
            self.ring = spec.target_ring()
        except ValueError as exc:
            # a parameter of the unfolding repeats a target variable
            self.error(str(exc), at)
        equation = self.parse_expr()
        self.unfoldings[name] = replace(spec, explicit_G=equation)
        self.statements.append(GoodEquationStmt(name, equation))

    def assert_stable_stmt(self) -> None:
        at = self.pos
        name = self.expect_name("unfolding name")
        spec = self.unfoldings.get(name)
        if spec is None:
            self.error(f"undeclared unfolding {name!r}", at)
        self.unfoldings[name] = replace(spec, stable_asserted=True)
        self.statements.append(AssertStableStmt(name))

    def analyze_stmt(self) -> None:
        at = self.pos
        name = self.expect_name("map or unfolding name")
        if name not in self.maps and name not in self.unfoldings:
            self.error(f"undeclared map or unfolding {name!r}", at)
        directives = []
        while _is_name(self.peek()):
            tok = self.take()
            if tok not in DIRECTIVES:
                self.error(f"unknown directive {tok!r}", self.pos - 1)
            directives.append(tok)
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
