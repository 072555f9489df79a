"""Command-line interface: exit codes, formats, determinism."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from frontal_kernel import Limits, Poly, cli, invariants
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
    # the image has degree 19, and every input polynomial at most 12
    assert main(["--max-degree", "18", "analyze", write(tmp_path, text)]) == 4


@pytest.mark.parametrize("variables, components, limit, line", [
    # x^4 is refused as it is read, before any image is computed
    ("x", "x^3, x^4", "3",
     "degree\tresource-limit\terror\tline 3, column 15: degree 4 exceeds "
     "limit 3"),
    # the characteristic determinant has degree 19 from inputs of degree 12
    ("x, y", "x, y^2, y^7 + x^7*y^5", "18",
     "image.equation\tresource-limit\terror\timage determinant degree 19 "
     "exceeds limit 18")])
def test_max_degree_exit_4_names_the_stage(tmp_path, capsys, variables,
                                           components, limit, line):
    path = write(tmp_path, f"frontal-kernel v1\nring {variables};\n"
                 f"map f = {components};\nanalyze f image;\n")
    assert main(["--format", "machine", "--max-degree", limit, "analyze",
                 path]) == 4
    assert line in capsys.readouterr().out.splitlines()


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


def test_repeated_main_calls_share_one_parser(tmp_path, capsys):
    # the parser is built once per process; options of one call must not
    # leak into the next
    path = write(tmp_path, E6)
    runs = []
    for argv in (["--format", "machine", "analyze", path],
                 ["--max-pairs", "2", "analyze", path],
                 ["--format", "machine", "analyze", path]):
        code = main(argv)
        runs.append((code, capsys.readouterr().out))
    assert [code for code, _ in runs] == [0, 4, 0]
    assert runs[0] == runs[2]
    assert cli.build_parser() is cli.build_parser()


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


def test_explicit_good_equation_must_be_reduced(tmp_path, capsys):
    # an explicit good_equation is outside input, so it is tested for
    # squarefreeness before use
    text = """frontal-kernel v1
ring x;
map f = x^2, x^3;
unfold F of f params t: x^2, x^3 + 3/2*t*x^2;
good_equation F = (y2^2 - y1^3)^2;
analyze F M_F;
"""
    assert main(["--format", "machine", "analyze", write(tmp_path, text)]) == 3
    out = capsys.readouterr().out
    assert ("good_equation\tfailed\terror\tdefining equation is not reduced"
            in out)
    # under verify alone the good equation only feeds the verdict: its
    # failure is a soft one, and the verdict is inconclusive
    text = text.replace("analyze F M_F;", "analyze F verify;")
    assert main(["--format", "machine", "analyze", write(tmp_path, text)]) == 0
    out = capsys.readouterr().out
    assert ("good_equation\tunavailable\tinconclusive\tdefining equation "
            "is not reduced" in out)
    assert "verify.verdict\tinconclusive\t" in out


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


def test_corpus_reports_failing_and_missing_goldens(tmp_path, monkeypatch,
                                                   capsys):
    (tmp_path / "altered.germ").write_text(E6)
    (tmp_path / "altered.golden").write_text("report\tnot this\n")
    (tmp_path / "orphan.germ").write_text(E6)
    monkeypatch.setattr(cli, "_corpus_dir", lambda: tmp_path)
    assert cli._run_corpus(Limits(), sys.stdout) == 1
    out = capsys.readouterr().out
    assert "FAIL altered\n" in out
    assert "--- altered.golden\n+++ altered.actual\n" in out
    assert "-report\tnot this\n" in out
    assert "MISSING orphan: no golden file\n" in out
    assert out.endswith("0/2 fixtures match\n")


def test_limit_flags_mirror_the_limits_fields(tmp_path, capsys):
    assert main(["--max-pairs", "2", "analyze", write(tmp_path, E6)]) == 4
    args = cli.build_parser().parse_args(
        ["--max-pairs", "7", "--jet-order", "3", "corpus"])
    assert cli._limits_from(args) == Limits(max_pairs=7, jet_order=3)


WAVEFRONT = """frontal-kernel v1
ring x, y;
map f = x, y^2 + y^3, y^3;
analyze f frontal wavefront;
"""


@pytest.mark.parametrize("flags, message", [
    (["--jet-order", "0"], "jet_order must be at least 1"),
    (["--jet-order", "-1"], "jet_order must be at least 1"),
    (["--max-pairs", "-1"], "max_pairs must be at least 0"),
    (["--max-degree", "-1"], "max_degree must be at least 0"),
])
def test_out_of_range_limit_exit_3(tmp_path, capsys, flags, message):
    # a jet of order 0 loses the lift's linear part: this wave front
    # would be reported as `wavefront false exact`
    path = write(tmp_path, WAVEFRONT)
    assert main(flags + ["--format", "machine", "analyze", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_least_jet_order_keeps_the_wave_front(tmp_path, capsys):
    path = write(tmp_path, WAVEFRONT)
    assert main(["--jet-order", "1", "--format", "machine", "analyze",
                 path]) == 0
    assert "wavefront\ttrue\texact\t" in capsys.readouterr().out


def test_truncated_family_leaves_its_comparisons_inconclusive(tmp_path,
                                                              capsys):
    # mu = 3y/(2 + 3y) is not a polynomial, so the generating family is a
    # jet; the critical set and the discriminant are not compared on it
    path = write(tmp_path, WAVEFRONT.replace("wavefront;", "wavefront genfam;"))
    start = time.perf_counter()
    assert main(["--format", "machine", "analyze", path]) == 0
    assert time.perf_counter() - start < 2
    out = capsys.readouterr().out
    assert "\tcertified\tjet order 24\n" in out
    note = "unavailable\tinconclusive\tfamily truncated at jet order 24\n"
    assert f"genfam.critical_set_is_graph\t{note}" in out
    assert f"genfam.discriminant_equals_image\t{note}" in out


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
    # a constant base has degree 0, so its exponent is bounded instead
    text = "frontal-kernel v1\nring x, y;\nmap f = x, y^2, 3^40000000*y^3;\n"
    start = time.perf_counter()
    assert main(["--max-degree", "80", "check", write(tmp_path, text)]) == 4
    assert time.perf_counter() - start < 2
    out = capsys.readouterr().out
    assert "line 3, column 18: exponent 40000000 exceeds limit 80" in out


def test_each_elimination_runs_once_per_file(tmp_path, monkeypatch, capsys):
    # the image and the unfolding image are each one characteristic
    # determinant, and the discriminant one elimination, however many
    # analyses read them
    corpus = cli._corpus_dir()
    path = write(tmp_path, (corpus / "cusp.germ").read_text(encoding="utf-8"))
    seen, dets = [], []
    original = invariants.eliminate
    original_det = invariants._image_determinant

    def counting(gens, elim, limits):
        seen.append((tuple((g.ring.names, g.terms) for g in gens),
                     tuple(elim), limits))
        return original(gens, elim, limits)

    def counting_det(comps, target, params, limits):
        dets.append((tuple(c.terms for c in comps), tuple(target),
                     tuple(params), limits))
        return original_det(comps, target, params, limits)
    monkeypatch.setattr(invariants, "eliminate", counting)
    monkeypatch.setattr(invariants, "_image_determinant", counting_det)
    assert main(["--format", "machine", "analyze", path]) == 0
    assert len(seen) == len(set(seen)) == 1
    assert len(dets) == len(set(dets)) == 2
    golden = (corpus / "cusp.golden").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("variables, components, substitutions", [
    ("x", "x^3, 2*x^4", 3),
    ("x, y", "x, y^2, 1/3*x^2*y + y^7", 4)])
def test_pullbacks_are_substituted_once_per_germ(
        tmp_path, monkeypatch, capsys, variables, components, substitutions):
    # the conductor and hat_M read one set of pullbacks dg/dy_i o f; the
    # one other substitution checks that g vanishes on f
    seen = []
    original = Poly.substitute

    def counting(self, *args, **kwargs):
        seen.append(self)
        return original(self, *args, **kwargs)
    monkeypatch.setattr(Poly, "substitute", counting)
    path = write(tmp_path, f"frontal-kernel v1\nring {variables};\n"
                 f"map f = {components};\nanalyze f image conductor hat_M;\n")
    assert main(["--format", "machine", "analyze", path]) == 0
    assert len(seen) == substitutions


def test_reports_stream_statement_by_statement(tmp_path, monkeypatch, capsys):
    # a run cut short inside the second statement has already printed the
    # first statement's report
    text = """frontal-kernel v1
ring x;
map a = x^2, x^3;
map b = x^3, x^4;
analyze a frontal;
analyze b frontal;
"""
    original = cli._analyze_map

    def interrupted(run, name, f, directives, limits):
        if name == "b":
            raise KeyboardInterrupt
        return original(run, name, f, directives, limits)
    monkeypatch.setattr(cli, "_analyze_map", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["--format", "machine", "analyze", write(tmp_path, text)])
    out = capsys.readouterr().out
    assert out.startswith("report\tmap a\n")
    assert "frontal\ttrue\t" in out
    assert "map b" not in out


def test_cli_import_leaves_sympy_unloaded():
    # sympy is a test oracle only; the library must not load it
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, frontal_kernel.cli; "
            "sys.exit('sympy' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert done.returncode == 0


def test_internal_error_exit_6(tmp_path, monkeypatch, capsys):
    # a failed soundness check inside one stage is reported on that stage's
    # line and exits 6; the other analyses still run
    def unsound(f, limits):
        raise AssertionError("membership certificate is unsound")
    monkeypatch.setattr(invariants, "plane_curve_invariants", unsound)
    assert main(["--format", "machine", "analyze", write(tmp_path, E6)]) == 6
    captured = capsys.readouterr()
    assert ("plane_curve\tinternal-error\terror\t"
            "membership certificate is unsound\n") in captured.out
    assert "verify.verdict\tequality\t" in captured.out
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("body", [
    "ring x, y;\nweights 1/0, 1;\n",
    "ring x, y;\nweights 0, 1;\n",
    "ring x;\nmap f = x^2, x^3;\nunfold F of f params x: x^2, x^3;\n",
    "ring x;\nmap f = x^2, x^3;\nunfold F of f params t, t: x^2, x^3;\n",
    "ring x;\nmap f = x^2, x^3;\nunfold F of f params y1: x^2, x^3;\n"
    "good_equation F = y2^2 - y1^3;\n",
    "ring x;\nmap f = x^\u00b2, x^3;\n",
], ids=["zero-denominator", "zero-weight", "param-is-source-variable",
        "repeated-param", "param-is-target-variable", "superscript-digit"])
def test_malformed_germ_file_exit_2(tmp_path, capsys, body):
    # a zero weight or denominator, clashing variable names and a non-ASCII
    # digit are syntax errors, reported with their position, never a
    # traceback
    text = "frontal-kernel v1\n" + body
    assert main(["--format", "machine", "check", write(tmp_path, text)]) == 2
    out = capsys.readouterr()
    assert out.out.startswith("report\tparse\nsyntax\tfailed\terror\tline ")
    assert "Traceback" not in out.out + out.err


@pytest.mark.parametrize("body, column", [
    ("ring x, y;\nmap f = x, y^2, {}*y^3;\n", 17),
    ("ring x, y;\nmap f = x, y^{}, y^3;\n", 14),
    ("ring x, y;\nweights {}, 1;\n", 9),
], ids=["coefficient", "exponent", "weight"])
def test_integer_literal_past_the_digit_limit_exit_2(tmp_path, capsys, body,
                                                     column):
    # int() refuses a literal longer than sys.get_int_max_str_digits(); the
    # tokenizer reports it as a syntax error at its position
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    text = "frontal-kernel v1\n" + body.format(digits)
    assert main(["--format", "machine", "check", write(tmp_path, text)]) == 2
    out = capsys.readouterr()
    assert out.out.startswith("report\tparse\nsyntax\tfailed\terror\t"
                              f"line 3, column {column}: integer literal")
    assert "Traceback" not in out.out + out.err


def test_value_past_the_digit_limit_exit_4(tmp_path, capsys):
    # the image equation of (x, y^2, c^80*y^3) has the coefficient c^160,
    # 14400 digits for a 90-digit c: more than an int converts to a string
    limit = sys.get_int_max_str_digits()
    text = ("frontal-kernel v1\nring x, y;\n"
            f"map f = x, y^2, {'9' * 90}^80*y^3;\nanalyze f image;\n")
    assert main(["--format", "machine", "analyze", write(tmp_path, text)]) == 4
    out = capsys.readouterr()
    assert ("image.equation\tresource-limit\terror\timage.equation has an "
            f"integer of 14400 digits; at most {limit} digits can be printed\n"
            in out.out)
    # the rest of the report is printed, and the limit is left as it was
    assert out.out.endswith("image.weighted_degree\t6\texact\t\n")
    assert "Traceback" not in out.out + out.err
    assert sys.get_int_max_str_digits() == limit


def test_hat_M_of_the_returning_cusp(tmp_path, capsys):
    # f = (x^2 - x^3, x^3 - 2x^4 - 2x^5) is A-equivalent to the cusp
    # (x^2, x^3), so hat_M is the cusp's, 0, within a small pair budget
    for comps in ("x^2 - x^3, x^3 - 2*x^4 - 2*x^5", "x^2, x^3"):
        text = (f"frontal-kernel v1\nring x;\nmap f = {comps};\n"
                "analyze f hat_M;\n")
        assert main(["--format", "machine", "--max-pairs", "30", "analyze",
                     write(tmp_path, text)]) == 0
        assert capsys.readouterr().out.endswith("hat_M\t0\texact\t\n")


def test_hat_M_of_the_returning_quintic(tmp_path, capsys):
    # mu = 20 is finite, so hat_M is mu minus the preimage colength 14,
    # with no colon module (which runs for minutes on this germ)
    text = ("frontal-kernel v1\nring x;\nmap f = x^5, x^6 + x^7;\n"
            "analyze f hat_M;\n")
    start = time.perf_counter()
    assert main(["--format", "machine", "analyze",
                 write(tmp_path, text)]) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out.endswith("hat_M\t6\texact\t\n")


@pytest.mark.parametrize("name, weights", [("cusp", "2"),
                                           ("cuspidal_edge", "2, 3")])
def test_weighted_source_gives_the_golden(tmp_path, capsys, name, weights):
    # every report line is the same with weights on the source variables
    corpus = cli._corpus_dir()
    text = (corpus / f"{name}.germ").read_text(encoding="utf-8")
    ring_line = next(line for line in text.splitlines()
                     if line.startswith("ring "))
    text = text.replace(ring_line, f"{ring_line}\nweights {weights};")
    assert main(["--format", "machine", "analyze", write(tmp_path, text)]) == 0
    golden = (corpus / f"{name}.golden").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_image_of_a_large_weight_ratio_is_quasihomogeneous(tmp_path, capsys):
    # Z - X*Y^7 has positive weights only with w_Z > 7*w_Y
    text = ("frontal-kernel v1\nring x, y;\nmap f = x, y, x*y^7;\n"
            "analyze f image;\n")
    assert main(["--format", "machine", "analyze", write(tmp_path, text)]) == 0
    out = capsys.readouterr().out
    assert "image.equation\tZ - X*Y^7\t" in out
    assert "image.quasihomogeneous\ttrue\t" in out


@pytest.mark.parametrize("directive", ["derlog", "free_divisor"])
def test_derlog_alone_computes_the_image_it_needs(tmp_path, capsys,
                                                  directive):
    text = ("frontal-kernel v1\nring x;\nmap f = x^3, x^4;\n"
            f"analyze f {directive};\n")
    assert main(["--format", "machine", "analyze", write(tmp_path, text)]) == 0
    out = capsys.readouterr().out
    assert "derlog.generators\t2\texact\t\n" in out
    assert "derlog.free_divisor\ttrue\texact\t\n" in out


@pytest.mark.parametrize("body, analyze, line", [
    ("ring x, y;\nmap f = x, y^2, y^3;\n", "analyze f {};\n",
     "plane_curve\tskipped\tnot-computed\tgerm is not a plane curve (n = 2)"),
    ("ring x;\nmap f = x^2, x^3;\n"
     "unfold F of f params s, t: x^2, x^3 + s*x + t*x;\n", "analyze F {};\n",
     "siersma\tskipped\tnot-computed\tSiersma counts need 1 parameter, the "
     "unfolding has 2"),
    ("ring x, y;\nmap f = x, y^2, y^5 + x^3*y;\n", "analyze f {};\n",
     "genfam\tskipped\tnot-computed\tgerm is not frontal"),
], ids=["plane_curve-on-a-surface", "siersma-on-two-parameters",
        "genfam-on-a-non-frontal-germ"])
def test_a_named_directive_that_does_not_apply_says_why(tmp_path, capsys,
                                                        body, analyze, line):
    text = "frontal-kernel v1\n" + body
    directive = line.split("\t")[0]
    assert main(["--format", "machine", "analyze",
                 write(tmp_path, text + analyze.format(directive))]) == 0
    assert capsys.readouterr().out.endswith(line + "\n")
    # under `all` only the analyses that apply run
    assert main(["--format", "machine", "analyze",
                 write(tmp_path, text + analyze.format("all"))]) == 0
    assert f"\n{directive}\t" not in capsys.readouterr().out


def test_analyze_all_runs_every_map_analysis(tmp_path, capsys):
    text = E6.replace("frontal image mu plane_curve;", "all;")
    assert main(["--format", "machine", "analyze", write(tmp_path, text)]) == 0
    out = capsys.readouterr().out
    for key in ("frontal", "wavefront", "mu", "plane_curve.codim_fe",
                "conductor.colength", "hat_M", "genfam.hprime",
                "derlog.free_divisor"):
        assert f"\n{key}\t" in out


def test_a_file_without_analyze_analyses_every_map_and_unfolding(
        tmp_path, capsys):
    text = "\n".join(line for line in E6.splitlines()
                     if not line.startswith("analyze")) + "\n"
    assert main(["--format", "machine", "analyze", write(tmp_path, text)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("report\tmap f\n")
    assert "\nreport\tunfolding F\n" in out
    assert "\nhat_M\t1\texact\t\n" in out
    assert out.endswith("verify.verdict\tequality\texact\t\n")


def test_verify_command(tmp_path, capsys):
    e6 = str(cli._corpus_dir() / "e6.germ")
    assert main(["--format", "machine", "verify", e6]) == 0
    out = capsys.readouterr().out
    assert out.startswith("report\tunfolding F\n")
    assert "verify.verdict\tequality\t" in out
    # a file with no unfolding has nothing to verify
    text = "frontal-kernel v1\nring x;\nmap f = x^3, x^4;\n"
    assert main(["--format", "machine", "verify", write(tmp_path, text)]) == 3
    assert ("verify\tfailed\terror\tno unfolding declared in the input file"
            in capsys.readouterr().out)


def test_benchmark_tracer_finds_every_boundary():
    # bench/spans.py wraps library functions by name; a boundary deleted or
    # renamed in the library makes install() raise here, not in a traced run
    import importlib.util

    import frontal_kernel
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    std = frontal_kernel.std
    tracer = spans.Tracer(frontal_kernel)
    try:
        tracer.install()
        assert frontal_kernel.std is not std
    finally:
        tracer.uninstall()
    assert frontal_kernel.std is std


def test_returning_germ_prints_its_local_numbers(tmp_path, capsys):
    # (x^2 + x^3, x^3 + x^4) also maps x = -1 to the origin: mu and the
    # conductor colength are the germ's, from its value semigroup, and the
    # lines read off the global image equation say that they are global
    text = ("frontal-kernel v1\nring x;\nmap f = x^2 + x^3, x^3 + x^4;\n"
            "analyze f image mu conductor;\n")
    assert main(["--format", "machine", "analyze",
                 write(tmp_path, text)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "mu\t2\texact\t" in lines
    assert "conductor.colength\t2\texact\t" in lines
    for key in ("image.equation", "conductor.lambda"):
        line, = (l for l in lines if l.startswith(key + "\t"))
        assert line.endswith("\texact\t" + cli.GLOBAL)


def test_mu_of_the_e12_branch_is_fast(tmp_path, capsys):
    # the Jacobian standard basis of this image equation runs for minutes;
    # the value semigroup <3, 7> gives mu = (3 - 1)(7 - 1) at once
    text = ("frontal-kernel v1\nring x;\n"
            "map f = x^3 - x^4, x^7 + 1/2*x^8 + x^9;\nanalyze f mu;\n")
    start = time.perf_counter()
    assert main(["--format", "machine", "analyze",
                 write(tmp_path, text)]) == 0
    assert time.perf_counter() - start < 2
    lines = capsys.readouterr().out.splitlines()
    assert "mu\t12\texact\t" in lines
    assert any(l.startswith("image.equation\t") and l.endswith("\texact\t")
               for l in lines)


def test_value_semigroup_past_max_degree_exit_4(tmp_path, capsys):
    text = ("frontal-kernel v1\nring x;\nmap f = x^5, x^6 + x^7;\n"
            "analyze f mu;\n")
    assert main(["--format", "machine", "--max-degree", "10", "analyze",
                 write(tmp_path, text)]) == 4
    assert ("mu\tresource-limit\terror\tvalue semigroup: the conductor is not "
            "certified by series of degree at most 10 (max_degree)"
            ) in capsys.readouterr().out.splitlines()


def test_asymmetric_value_semigroup_exit_6(tmp_path, monkeypatch, capsys):
    # a plane branch has c = 2 delta; values {0, 3, 4, ...} would give c = 3
    # and delta = 2, which the soundness check refuses
    monkeypatch.setattr(invariants, "_values_below",
                        lambda forms, N: {0} | set(range(3, N)))
    text = "frontal-kernel v1\nring x;\nmap f = x^2, x^3;\nanalyze f mu;\n"
    assert main(["--format", "machine", "analyze",
                 write(tmp_path, text)]) == 6
    assert ("mu\tinternal-error\terror\tvalue semigroup has conductor 3, not "
            "2 delta = 4") in capsys.readouterr().out.splitlines()
