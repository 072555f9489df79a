"""Germ-file parsing, serialization, and syntax diagnostics."""

import random
import sys
from fractions import Fraction

import pytest

from frontal_kernel import ring
from frontal_kernel.basis import ResourceLimitError
from frontal_kernel.cli import _corpus_dir
from frontal_kernel.germfile import (SyntaxErrorAt, _ExprParser, parse,
                                     serialize, tokenize)
from frontal_kernel.ring import Ring

GOOD = """frontal-kernel v1
# a comment
ring x;
map f = x^3, x^4;
analyze f frontal image mu;
unfold F of f params t: x^3 + t*x, x^4 + 2/3*t*x^2;
assert_frontal_stable F;
analyze F siersma M_F codim_Fe verify;
"""


def test_parse_good_file():
    parsed = parse(GOOD)
    assert "f" in parsed.maps
    assert "F" in parsed.unfoldings
    assert len(parsed.analyses) == 2
    assert parsed.analyses[0].directives == ("frontal", "image", "mu")


def test_serialize_round_trip():
    # the second file also has a good_equation statement
    for text in (GOOD, GOOD + "good_equation F = y2^3 - y1^4;\n"):
        once = serialize(parse(text))
        assert serialize(parse(once)) == once
    assert "good_equation F = y2^3 - y1^4;" in once
    # semantic content survives
    p1, p2 = parse(GOOD), parse(once)
    assert set(p1.maps) == set(p2.maps)
    assert p1.maps["f"].components == p2.maps["f"].components


def test_missing_header():
    with pytest.raises(SyntaxErrorAt):
        parse("ring x;\nmap f = x;\n")


def test_syntax_error_position():
    bad = "frontal-kernel v1\nring x;\nmap f = x^;\n"
    with pytest.raises(SyntaxErrorAt) as exc:
        parse(bad)
    assert exc.value.line == 3


def test_unknown_directive():
    bad = "frontal-kernel v1\nring x;\nmap f = x^2, x^3;\nanalyze f bogus;\n"
    with pytest.raises(SyntaxErrorAt):
        parse(bad)


def test_undeclared_ring():
    with pytest.raises(SyntaxErrorAt):
        parse("frontal-kernel v1\nmap f = x^2, x^3;\n")


def test_rational_coefficients():
    text = "frontal-kernel v1\nring x;\nmap f = 3/2*x^2, x^3;\n"
    parsed = parse(text)
    comps = parsed.maps["f"].components
    from fractions import Fraction
    assert comps[0].leading_coeff() == Fraction(3, 2)


def test_division_by_variable_rejected():
    bad = "frontal-kernel v1\nring x;\nmap f = x/x, x^2;\n"
    with pytest.raises(SyntaxErrorAt):
        parse(bad)


def test_serialize_round_trip_weighted():
    text = ("frontal-kernel v1\nring x, y;\nweights 2, 3/2;\n"
            "map f = x, y^2, y^3;\nanalyze f frontal;\n")
    once = serialize(parse(text))
    assert "weights 2, 3/2;" in once
    assert serialize(parse(once)) == once
    assert parse(once).weights == parse(text).weights


def test_a_new_ring_drops_the_weights():
    parsed = parse("frontal-kernel v1\nring x;\nweights 2;\nring x, y;\n"
                   "map f = x, y^2, y^3;\n")
    assert parsed.weights is None
    assert parsed.maps["f"].source.weights is None


H = "frontal-kernel v1\n"
_DIGITS = sys.get_int_max_str_digits()


@pytest.mark.parametrize("text, line, column, message", [
    pytest.param(H + f"ring x;\nmap f = x, {'7' * (_DIGITS + 1)}*x^2;\n",
                 3, 12, f"integer literal of {_DIGITS + 1} digits is longer "
                 f"than {_DIGITS} digits", id="long-literal"),
    pytest.param(H + "ring x;\nmap f = x$, x^2;\n", 3, 10,
                 "unexpected character '$'", id="unexpected-character"),
    pytest.param(H + "ring x;\nmap f = x/x, x^2;\n", 3, 12,
                 "division requires a nonzero constant divisor",
                 id="division-by-variable"),
    pytest.param(H + "ring x;\nmap f = x^, x^2;\n", 3, 11,
                 "exponent must be a nonnegative integer",
                 id="missing-exponent"),
    pytest.param(H + "ring x;\nmap f = x, z^2;\n", 3, 12,
                 "undeclared variable 'z' (known: x)",
                 id="undeclared-variable"),
    pytest.param(H + "ring x;\nmap f = (x + x^2, x^3;\n", 3, 17,
                 "expected ')'", id="unclosed-parenthesis"),
    pytest.param(H + "ring x;\nmap f = x*, x^2;\n", 3, 11,
                 "expected a variable, number, or '('", id="missing-operand"),
    pytest.param("ring x;\n", 1, 1,
                 "missing or unsupported header (expected 'frontal-kernel "
                 "v1')", id="missing-header"),
    pytest.param(H + "ring x\nmap f = x^2, x^3;\n", 3, 1, "expected ';'",
                 id="missing-semicolon"),
    pytest.param(H + "ring x;\nmap = x^2, x^3;\n", 3, 5,
                 "expected a map name", id="missing-name"),
    pytest.param(H + "ring x;\nmap f = x^2, x^3;\n"
                 "unfold F from f params t: x^2, x^3;\n", 4, 10,
                 "expected keyword 'of'", id="missing-keyword"),
    pytest.param(H + "ring x;\n; map f = x^2, x^3;\n", 3, 1,
                 "expected a statement keyword", id="statement-not-a-name"),
    pytest.param(H + "ring x;\nmapp f = x^2, x^3;\n", 3, 1,
                 "unknown statement 'mapp'", id="unknown-statement"),
    pytest.param(H + "ring x, x;\n", 2, 9,
                 "duplicate variable names: ('x', 'x')",
                 id="repeated-variable"),
    pytest.param(H + "weights 1;\n", 2, 9,
                 "weights before any ring declaration",
                 id="weights-before-ring"),
    pytest.param(H + "ring x, y;\nweights 0, 1;\n", 3, 9,
                 "expected a positive integer weight", id="zero-weight"),
    pytest.param(H + "ring x, y;\nweights 1/0, 1;\n", 3, 11,
                 "expected a positive denominator", id="zero-denominator"),
    pytest.param(H + "ring x, y;\nweights 1, 2, 3;\n", 3, 15,
                 "2 weights required", id="wrong-weight-count"),
    pytest.param(H + "map f = x^2, x^3;\n", 2, 5,
                 "map before any ring declaration", id="map-before-ring"),
    pytest.param(H + "ring x;\nmap f = x^2, x^3;\nmap f = x^2, x^5;\n", 4, 5,
                 "duplicate definition of 'f'", id="duplicate-map"),
    pytest.param(H + "ring x;\nmap f = x^2, x^3, x^5;\n", 3, 22,
                 "expected 2 components, got 3", id="wrong-component-count"),
    pytest.param(H + "ring x;\nmap f = x^2 + 1, x^3;\n", 3, 21,
                 "components must vanish at the origin",
                 id="component-off-origin"),
    pytest.param(H + "ring x;\nmap f = x^2, x^3;\n"
                 "unfold f of f params t: x^2, x^3;\n", 4, 8,
                 "duplicate definition of 'f'", id="duplicate-unfolding"),
    pytest.param(H + "ring x;\nunfold F of f params t: x^2, x^3;\n", 3, 13,
                 "undeclared map 'f'", id="undeclared-map"),
    pytest.param(H + "ring x;\nmap f = x^2, x^3;\n"
                 "unfold F of f params x: x^2, x^3;\n", 4, 22,
                 "duplicate variable names: ('x', 'x')",
                 id="param-is-source-variable"),
    pytest.param(H + "ring x;\nmap f = x^2, x^3;\n"
                 "unfold F of f params t: x^2, x^5 + t*x;\n", 4, 25,
                 "setting the parameters to 0 does not recover the base germ",
                 id="unfolding-misses-base"),
    pytest.param(H + "ring x;\nmap f = x^2, x^3;\n"
                 "good_equation F = y2^2 - y1^3;\n", 4, 15,
                 "undeclared unfolding 'F'", id="good-equation-undeclared"),
    pytest.param(H + "ring x;\nmap f = x^2, x^3;\n"
                 "unfold F of f params y1: x^2, x^3;\n"
                 "good_equation F = y2^2 - y1^3;\n", 5, 15,
                 "duplicate variable names: ('y1', 'y2', 'y1')",
                 id="param-is-target-variable"),
    pytest.param(H + "ring x;\nassert_frontal_stable F;\n", 3, 23,
                 "undeclared unfolding 'F'", id="assert-undeclared"),
    pytest.param(H + "ring x;\nanalyze f frontal;\n", 3, 9,
                 "undeclared map or unfolding 'f'", id="analyze-undeclared"),
    pytest.param(H + "ring x;\nmap f = x^2, x^3;\nanalyze f bogus;\n", 4, 11,
                 "unknown directive 'bogus'", id="unknown-directive"),
    pytest.param(H + "ring x, y;\nmap f = x, y, y*-x^2^3;\n", 3, 21,
                 "expected ';'", id="power-of-a-signed-power"),
    pytest.param(H + "ring x;\n# a comment; map f = x;\nmap f = x, z^2;\n", 4,
                 12, "undeclared variable 'z' (known: x)",
                 id="after-a-comment-line"),
    pytest.param(H + "ring x;\nmap f =\tx,\tz^2;\n", 3, 12,
                 "undeclared variable 'z' (known: x)", id="after-a-tab"),
    pytest.param(H + "ring x, y;\nmap f = x, y^2, x^3\n    + x/y;\n", 4, 10,
                 "division requires a nonzero constant divisor",
                 id="second-line-of-a-component"),
])
def test_each_syntax_error_site_gives_its_message_and_position(
        text, line, column, message):
    # one malformed input per place the parser raises SyntaxErrorAt
    with pytest.raises(SyntaxErrorAt) as exc:
        parse(text)
    assert (str(exc.value), exc.value.line, exc.value.column) == \
        (f"line {line}, column {column}: {message}", line, column)


def test_the_end_of_a_file_ending_in_a_comment_is_its_last_column():
    with pytest.raises(SyntaxErrorAt) as exc:
        parse(H + "ring x # no semicolon")
    assert str(exc.value) == "line 2, column 22: expected ';'"


def test_a_flat_sum_is_merged_and_sorted_once(monkeypatch):
    # the signed terms of a sum are collected and merged in one pass, not
    # by n - 1 additions that each merge and re-sort the partial sum
    R = ring("x", "y")
    n = 40
    text = " ".join(f"{'-' if k % 3 else '+'} {k + 1}*x^{k}*y^{n - k}"
                    for k in range(n)) + " + 7*x^3*y^37;"
    calls = []
    from_dict = Ring._from_dict

    def counted(self, acc):
        calls.append(len(acc))
        return from_dict(self, acc)
    monkeypatch.setattr(Ring, "_from_dict", counted)
    p = _ExprParser(tokenize(text), 0, R).parse_expr()
    assert calls == [n]
    monkeypatch.setattr(Ring, "_from_dict", from_dict)
    x, y = R.gens()
    expected = (x ** 3 * y ** 37).scale(7)
    for k in range(n):
        expected = expected + (x ** k * y ** (n - k)).scale(
            -(k + 1) if k % 3 else k + 1)
    assert p.terms == expected.terms


M = H + "ring x, y;\nmap f = x, {}, y^2;\n"


@pytest.mark.parametrize("component, error, message", [
    # a zero coefficient keeps the degree of the zero polynomial, -1
    ("0*x^80*x^80", SyntaxErrorAt,
     "line 3, column 28: identically-zero component (not a finite germ)"),
    ("x^80*x", ResourceLimitError,
     "line 3, column 16: degree 81 exceeds limit 80"),
    ("2^81", ResourceLimitError,
     "line 3, column 13: exponent 81 exceeds limit 80"),
    ("x/0", SyntaxErrorAt,
     "line 3, column 15: division requires a nonzero constant divisor"),
])
def test_products_and_powers_of_monomials_keep_their_checks(
        component, error, message):
    with pytest.raises(error) as exc:
        parse(M.format(component))
    assert str(exc.value) == message


def test_signs_and_zero_powers_of_monomials_parse():
    R = ring("x", "y", local=True)
    x, y = R.gens()
    assert parse(M.format("-x*-2")).maps["f"].components[1] == x.scale(2)
    assert parse(M.format("0^0*x")).maps["f"].components[1] == x


def test_a_name_starts_with_a_letter_and_goes_on_with_any_alphanumeric():
    with pytest.raises(SyntaxErrorAt) as exc:
        parse(H + "ring \u00b2;\n")
    assert str(exc.value) == "line 2, column 6: unexpected character '\u00b2'"
    assert parse(H + "ring x\u00b2;\n").statements[0].names == ("x\u00b2",)


def _expression(rng, R, depth):
    """(text, value) of a random signed sum; the value is built with Poly
    arithmetic, as the reference for the parser's own."""
    texts, value = [], R.zero()
    for k in range(rng.randint(1, 3)):
        sign = rng.choice("+-" if k else ("", "+", "-"))
        text, term = _term(rng, R, depth)
        texts.append(f"{sign} {text}" if sign else text)
        value = value - term if sign == "-" else value + term
    return " ".join(texts), value


def _term(rng, R, depth):
    text, value = _power(rng, R, depth)
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.3:
            n = rng.randint(1, 4)
            divisor, c = rng.choice([(f"{n}", n), (f"({n})", n),
                                     (f"-{n}", -n), (f"{n}^2", n * n)])
            text, value = f"{text}/{divisor}", value.scale(Fraction(1, c))
        else:
            factor, f = _power(rng, R, depth)
            text, value = f"{text}*{factor}", value * f
    return text, value


def _power(rng, R, depth):
    text, value = _atom(rng, R, depth)
    # after a unary sign, '^' binds to the signed power: -x^2 is -(x^2)
    if text[0] not in "+-" and rng.random() < 0.3:
        k = rng.randint(0, 3)
        return f"{text}^{k}", value ** k
    return text, value


def _atom(rng, R, depth):
    r = rng.random()
    if depth and r < 0.2:
        text, value = _expression(rng, R, depth - 1)
        return f"({text})", value
    if r < 0.3:
        sign = rng.choice("+-")
        text, value = _power(rng, R, depth)
        return f"{sign}{text}", -value if sign == "-" else value
    if r < 0.55:
        n = rng.randint(0, 5)
        return str(n), R.const(n)
    name = rng.choice(R.names)
    return name, R.var(R.index(name))


def test_expressions_parse_to_their_value_built_with_poly_arithmetic():
    # seeded: sums, products, powers, parentheses, '/' by constants and
    # unary signs, against the same expression evaluated with Poly
    R = ring("x", "y", "z", local=True)
    rng = random.Random(23)
    for _ in range(400):
        text, expected = _expression(rng, R, 2)
        tokens = tokenize(text)
        parser = _ExprParser(tokens, 0, R, max_degree=10 ** 6)
        p = parser.parse_expr()
        assert (p.ring, p.terms) == (R, expected.terms), text
        assert parser.pos == len(tokens) - 1, text


def _token_soup(rng):
    """A random token string, half of them after a valid map prefix."""
    vocab = ("ring map unfold of params good_equation assert_frontal_stable "
             "analyze weights x y t f F y1 y2 s frontal mu hat_M 0 1 2 3 17 "
             "; , = : + - * / ^ ( )").split()
    prefix = "ring x, y;\nmap f = " if rng.random() < 0.5 else ""
    tokens = [rng.choice(vocab) for _ in range(rng.randint(1, 30))]
    return "frontal-kernel v1\n" + prefix + " ".join(tokens) + "\n"


def _mutant(rng, text):
    """text with one character replaced, deleted or inserted."""
    i = rng.randrange(len(text))
    c = rng.choice("xyzt0123456789;,=:+-*/^() \n#_abfgsFG")
    return rng.choice((text[:i] + c + text[i + 1:], text[:i] + text[i + 1:],
                       text[:i] + c + text[i:]))


def test_parser_fuzz_raises_only_its_own_errors():
    # seeded, in process: random token strings and one-character mutations
    # of the corpus files either parse or raise SyntaxErrorAt or
    # ResourceLimitError, and each file that parses round-trips
    corpus = [entry.read_text(encoding="utf-8")
              for entry in sorted(_corpus_dir().iterdir())
              if entry.name.endswith(".germ")]
    assert len(corpus) == 8
    rng = random.Random(19)
    inputs = [_token_soup(rng) for _ in range(1000)]
    inputs += [_mutant(rng, rng.choice(corpus)) for _ in range(1500)]
    parsed = 0
    for text in inputs:
        try:
            once = parse(text)
        except (SyntaxErrorAt, ResourceLimitError):
            continue
        parsed += 1
        out = serialize(once)
        again = parse(out)
        assert serialize(again) == out
        assert {name: f.components for name, f in once.maps.items()} == \
            {name: f.components for name, f in again.maps.items()}
        assert {name: U.components for name, U in once.unfoldings.items()} \
            == {name: U.components for name, U in again.unfoldings.items()}
    assert parsed > 300
