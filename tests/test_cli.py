"""Command-line interface: exit codes, formats, determinism."""

import time

import pytest

from frontal_kernel.cli import main

E6 = """frontal-kernel v1
ring x;
map f = x^3, x^4;
analyze f frontal image mu plane_curve;
unfold F of f params t: x^3 + t*x, x^4 + 2/3*t*x^2;
assert_frontal_stable F;
analyze F siersma M_F codim_Fe verify;
"""

SYNTAX_ERROR = """frontal-kernel v1
ring x;
map f = x^^3;
"""

DEGENERATE = """frontal-kernel v1
ring x, y;
map f = x^2, x^3, x^5;
analyze f frontal;
"""


def write(tmp_path, text, name="input.germ"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_check_ok(tmp_path, capsys):
    assert main(["check", write(tmp_path, E6)]) == 0


def test_syntax_error_exit_2(tmp_path, capsys):
    assert main(["check", write(tmp_path, SYNTAX_ERROR)]) == 2
    err = capsys.readouterr()
    assert "line 3" in err.out + err.err


def test_missing_file_exit_3(capsys):
    assert main(["analyze", "/nonexistent/x.germ"]) == 3


def test_precondition_exit_3(tmp_path, capsys):
    # a germ with identically singular Jacobian has no ramification ideal
    assert main(["analyze", write(tmp_path, DEGENERATE)]) == 3


def test_resource_exhaustion_exit_4(tmp_path, capsys):
    text = """frontal-kernel v1
ring x, y;
map f = x, y^2, y^7 + x^7*y^5;
analyze f image;
"""
    assert main(["--max-pairs", "2", "analyze", write(tmp_path, text)]) == 4


def test_analyze_exit_0_and_values(tmp_path, capsys):
    assert main(["--format", "machine", "analyze", write(tmp_path, E6)]) == 0
    out = capsys.readouterr().out
    assert "mu\t6\t" in out
    assert "verify.verdict\tequality\t" in out


def test_machine_output_deterministic(tmp_path, capsys):
    path = write(tmp_path, E6)
    main(["--format", "machine", "analyze", path])
    first = capsys.readouterr().out
    main(["--format", "machine", "analyze", path])
    second = capsys.readouterr().out
    assert first == second


def test_conjecture_violation_exit_5(tmp_path, capsys):
    # a user-supplied good equation that passes the formal checks but does
    # not come from the unfolding makes the two sides disagree
    text = """frontal-kernel v1
ring x;
map f = x^2, x^3;
unfold F of f params t: x^2, x^3 + 3/2*t*x^2;
good_equation F = y2^2 - y1^3 + t*y1;
assert_frontal_stable F;
analyze F siersma codim_Fe verify;
"""
    assert main(["--format", "machine", "analyze", write(tmp_path, text)]) == 5
    out = capsys.readouterr().out
    assert "verify.verdict\tVIOLATED\t" in out


def test_verdict_inconclusive(tmp_path, capsys):
    text = """frontal-kernel v1
ring x, y;
map f = x, y^2, y^7 + x^7*y^5;
unfold F of f params t: x, y^2, y^7 + x^7*y^5 + t*y^3;
analyze F M_F codim_Fe verify;
"""
    assert main(["--format", "machine", "analyze", write(tmp_path, text)]) == 0
    out = capsys.readouterr().out
    assert "M_F\tINFINITE\t" in out
    assert "verify.verdict\tinconclusive\t" in out


def test_env_limits_parsing(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FRONTAL_KERNEL_LIMITS", "max-pairs=2")
    assert main(["analyze", write(tmp_path, E6)]) == 4
    monkeypatch.setenv("FRONTAL_KERNEL_LIMITS", "bogus")
    assert main(["analyze", write(tmp_path, E6)]) == 3


def test_corpus_passes(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "8/8" in out


def test_parser_degree_limit_exit_4(tmp_path, capsys):
    # (1+x+y)^300 is refused before it is expanded
    text = """frontal-kernel v1
ring x, y;
map f = x, (1+x+y)^300, y^3;
"""
    path = write(tmp_path, text)
    start = time.perf_counter()
    assert main(["--max-degree", "80", "check", path]) == 4
    assert time.perf_counter() - start < 2
    out = capsys.readouterr().out
    assert "resource-limit" in out and "degree 300 exceeds limit 80" in out
    # a product is bounded too, and the bound follows --max-degree
    text = text.replace("(1+x+y)^300", "x^50*(1+y)^50")
    assert main(["--max-degree", "80", "check", write(tmp_path, text)]) == 4
    assert main(["--max-degree", "100", "check", write(tmp_path, text)]) == 0
