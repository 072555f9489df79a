"""Germ-file parsing, serialization, and syntax diagnostics."""

import random

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
    once = serialize(parse(GOOD))
    twice = serialize(parse(once))
    assert once == twice
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
