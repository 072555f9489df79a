"""Germ-file parsing, serialization, and syntax diagnostics."""

import pytest

from frontal_kernel.germfile import SyntaxErrorAt, parse, serialize

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
