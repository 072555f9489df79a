"""Command-line driver: parse germ files, run analyses, verify the
Milnor-number/codimension inequality, and check the bundled corpus."""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import functools
import io
import sys
from importlib import resources
from typing import Optional

from . import genfam as gf
from . import germfile
from . import invariants as inv
from .derlog import DerlogError, derlog as compute_derlog, is_free_divisor
from .basis import INFINITE, Limits, ResourceLimitError
from .germs import (DivisionError, GermError, PrenormalError, corank,
                    is_frontal, is_wavefront)
from .report import (ASSUMED, CERTIFIED, ERROR, EXACT, INCONCLUSIVE,
                     INFINITE_STATUS, NOT_COMPUTED, Entry, Report,
                     largest_digits)
from .ring import quasihomogeneous_weights

EXIT_OK = 0
EXIT_SYNTAX = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4
EXIT_VIOLATION = 5
EXIT_INTERNAL = 6

# the note of a value read off the global image equation where the curve
# has other branches at the origin than the germ's
GLOBAL = "global: the curve passes through the origin again away from the germ"

_PRECONDITION_ERRORS = (GermError, PrenormalError, DivisionError,
                        inv.InvariantError, gf.GenFamError, DerlogError,
                        ValueError)


class _Run:
    """Writes each report to out as soon as it is complete, so a slow file
    shows how far it got, and keeps the worst exit code seen."""

    def __init__(self, out, fmt: str = "machine"):
        self.published = 0
        self.exit_code = EXIT_OK
        self.out = out
        self.fmt = fmt

    def publish(self, report: Report) -> None:
        try:
            text = _render(report, self.fmt)
        except ValueError:
            # an integer longer than the interpreter converts to a string
            self._refuse_long_values(report)
            text = _render(report, self.fmt)
        if self.published:
            self.out.write("\n")
        self.published += 1
        self.out.write(text)
        self.out.flush()

    def _refuse_long_values(self, report: Report) -> None:
        """Report each value with an integer of more digits than
        ``sys.get_int_max_str_digits()`` as a resource limit instead; the
        limit itself stays as it is."""
        limit = sys.get_int_max_str_digits()
        for i, entry in enumerate(report.entries):
            digits = largest_digits(entry.value)
            if limit and digits > limit:
                report.entries[i] = Entry(
                    entry.key, "resource-limit", ERROR,
                    f"{entry.key} has an integer of {digits} digits; "
                    f"at most {limit} digits can be printed")
                self.flag(EXIT_RESOURCE)

    def flag(self, code: int) -> None:
        if self.exit_code == EXIT_OK:
            self.exit_code = code

    def attempt(self, report: Report, key: str, fn, soft: bool = False):
        """Run fn(); record its value or the error class.

        Soft attempts feed a verdict only: their failure makes the verdict
        inconclusive instead of failing the run.  A failed internal soundness
        check (AssertionError) is a bug, soft or not: it is recorded as
        internal-error and the run exits 6.
        """
        try:
            return fn()
        except ResourceLimitError as exc:
            report.add(key, "resource-limit", ERROR, str(exc))
            self.flag(EXIT_RESOURCE)
        except _PRECONDITION_ERRORS as exc:
            if soft:
                report.add(key, "unavailable", INCONCLUSIVE, str(exc))
            else:
                report.add(key, "failed", ERROR, str(exc))
                self.flag(EXIT_PRECONDITION)
        except AssertionError as exc:
            report.add(key, "internal-error", ERROR, str(exc))
            self.flag(EXIT_INTERNAL)
        return None

    def record(self, report: Report, key: str, fn, soft: bool = False):
        """attempt(), then the value on the line of its own key, with the
        status infinite for INFINITE; returns the value, or None when fn
        failed."""
        value = self.attempt(report, key, fn, soft)
        if value is not None:
            report.add(key, value,
                       INFINITE_STATUS if value is INFINITE else EXACT)
        return value


def _wants(directives, *keys) -> bool:
    if not directives or "all" in directives:
        return True
    return any(k in directives for k in keys)


def _skip(report: Report, directives, key: str, reason: str) -> None:
    """Say why a directive named in the statement does not apply; under
    `all` or no directives, only the analyses that apply run."""
    if key in directives:
        report.add(key, "skipped", NOT_COMPUTED, reason)


def _analyze_map(run: _Run, name: str, f, directives, limits: Limits) -> Report:
    report = Report(f"map {name}")
    report.add("source.variables", ", ".join(f.source.names))
    report.add("branches", len(f.branches))
    report.add("corank", corank(f))

    frontal = witnesses = None
    if _wants(directives, "frontal", "wavefront", "genfam"):
        def compute():
            return is_frontal(f, limits)
        result = run.attempt(report, "frontal", compute)
        if result is not None:
            frontal, witnesses = result
            report.add("frontal", frontal)
            if frontal:
                report.add("frontal.witness",
                           ", ".join(str(w) for w in witnesses))

    if _wants(directives, "wavefront"):
        if frontal:
            run.record(report, "wavefront", lambda: is_wavefront(f, limits))
        elif frontal is False:
            report.add("wavefront", "skipped", NOT_COMPUTED,
                       "germ is not frontal")

    image = None
    if _wants(directives, "image", "mu", "conductor", "hat_M", "plane_curve",
              "derlog", "free_divisor"):
        image = run.attempt(report, "image.equation",
                            lambda: inv.image_equation(f, limits))
        if image is not None:
            report.add("image.equation", image.equation, EXACT,
                       GLOBAL if inv.meets_origin_again(f) else "")
            qh = quasihomogeneous_weights(image.equation)
            report.add("image.quasihomogeneous", qh is not None)
            if qh is not None:
                report.add("image.weights", qh[0])
                report.add("image.weighted_degree", qh[1])

    if _wants(directives, "mu") and image is not None:
        def mu():
            # one plane branch: mu = c, from its value semigroup
            S = inv.value_semigroup(f, limits)
            return (inv.image_milnor_number(image, limits) if S is None
                    else S.conductor)
        run.record(report, "mu", mu)

    if _wants(directives, "plane_curve") and f.n == 1 and image is not None:
        pc = run.attempt(report, "plane_curve",
                         lambda: inv.plane_curve_invariants(f, limits))
        if pc is not None:
            report.add("plane_curve.mu", pc.mu)
            report.add("plane_curve.delta", pc.delta)
            report.add("plane_curve.mult", pc.mult)
            report.add("plane_curve.mu_image", pc.mu_image)
            report.add("plane_curve.mu_frontal", pc.mu_frontal)
            report.add("plane_curve.codim_ae", pc.codim_ae, CERTIFIED,
                       f"jet order {pc.jet_order}")
            report.add("plane_curve.codim_fe", pc.codim_fe, CERTIFIED,
                       f"jet order {pc.jet_order}")
    elif f.n != 1:
        _skip(report, directives, "plane_curve",
              f"germ is not a plane curve (n = {f.n})")

    if _wants(directives, "conductor") and image is not None \
            and len(f.branches) == 1:
        lam = run.record(report, "conductor.lambda",
                         lambda: inv.piene_lambda(f, limits))
        if lam is not None:
            lam_line = report.entries[-1]

            def colength():
                # one plane branch: the conductor ideal is (x^c)
                S = inv.value_semigroup(f, limits)
                return (inv.conductor_colength(lam, limits) if S is None
                        else S.conductor)
            c = run.record(report, "conductor.colength", colength)
            # lambda comes from the image equation: on a plane curve it has
            # order c exactly when that equation is the germ's
            if f.n == 1 and c is not None and lam.order() != c:
                lam_line.note = GLOBAL

    if _wants(directives, "hat_M") and image is not None \
            and len(f.branches) == 1:
        run.record(report, "hat_M", lambda: inv.hat_M_dimension(f, limits))

    if _wants(directives, "genfam") and frontal:
        fam = run.attempt(report, "genfam",
                          lambda: gf.generating_family_of(f, 0, limits))
        if fam is not None:
            report.add("genfam.corank", fam.k)
            report.add("genfam.hprime", fam.hprime,
                       EXACT if fam.exact else CERTIFIED,
                       "" if fam.exact else f"jet order {fam.jet_order}")
            if not fam.exact:
                # exact comparisons, on a family right only to its jet order
                for key in ("critical_set_is_graph",
                            "discriminant_equals_image"):
                    report.add(f"genfam.{key}", "unavailable", INCONCLUSIVE,
                               f"family truncated at jet order {fam.jet_order}")
            else:
                cert = run.attempt(
                    report, "genfam.critical_set",
                    lambda: gf.critical_set_certificate(fam, limits))
                if cert is not None:
                    report.add("genfam.critical_set_is_graph", cert)
                run.record(
                    report, "genfam.discriminant_equals_image",
                    lambda: gf.verify_discriminant_equals_image(f, fam, limits))
    elif frontal is False:
        _skip(report, directives, "genfam", "germ is not frontal")

    if _wants(directives, "derlog", "free_divisor") and image is not None:
        ld = run.attempt(report, "derlog",
                         lambda: compute_derlog(image.equation, limits))
        if ld is not None:
            report.add("derlog.generators", len(ld.generators))
            for i, field in enumerate(ld.generators):
                report.add(f"derlog.generator.{i}",
                           tuple(field.coeffs))
            report.add("derlog.has_euler_type", ld.epsilon is not None)
            free = run.attempt(report, "derlog.free_divisor",
                               lambda: is_free_divisor(image.equation,
                                                          limits, ld))
            if free is not None:
                report.add("derlog.free_divisor", free.free,
                           EXACT, free.note)
    return report


def _analyze_unfolding(run: _Run, name: str, U, directives,
                       limits: Limits) -> Report:
    report = Report(f"unfolding {name}")
    report.add("base.variables", ", ".join(U.base.source.names))
    report.add("parameters", ", ".join(U.params))
    if U.stable_asserted:
        report.add("stability", "frontal-stable", ASSUMED,
                   "user-asserted, not verified")
    F = U.unfolded_map()
    fr = run.attempt(report, "unfolding.frontal",
                     lambda: is_frontal(F, limits))
    if fr is not None:
        report.add("unfolding.frontal", fr[0])

    run.record(report, "image.equation",
               lambda: inv.unfolding_image_equation(U, limits))

    siersma = None
    if _wants(directives, "siersma", "verify") and U.r == 1:
        res = run.attempt(report, "siersma",
                          lambda: inv.frontal_milnor_siersma(U, limits),
                          soft=not _wants(directives, "siersma"))
        if res is not None:
            siersma = res.value
            report.add("siersma", res.value, CERTIFIED,
                       "affine critical points; agreeing parameter values "
                       f"{res.witnesses[0]} and {res.witnesses[1]}")
    elif U.r != 1:
        _skip(report, directives, "siersma",
              f"Siersma counts need 1 parameter, the unfolding has {U.r}")

    ge = None
    if _wants(directives, "M_F", "codim_Fe", "samuel", "verify"):
        ge = run.attempt(report, "good_equation",
                         lambda: inv.good_equation(U, limits),
                         soft=not _wants(directives, "M_F", "codim_Fe",
                                         "samuel"))
        if ge is not None:
            report.add("good_equation.augmented", ge.augmented)
            report.add("good_equation.parameters", ", ".join(ge.params))

    mf = codim = None
    if ge is not None and _wants(directives, "M_F", "verify"):
        mf = run.record(report, "M_F",
                        lambda: inv.M_F_dimension(ge, limits),
                        soft=not _wants(directives, "M_F"))
    if ge is not None and _wants(directives, "codim_Fe", "verify"):
        codim = run.record(report, "codim_Fe",
                           lambda: inv.frontal_codimension(ge, limits),
                           soft=not _wants(directives, "codim_Fe"))

    samuel = None
    if ge is not None and _wants(directives, "samuel", "verify") \
            and mf is not INFINITE:
        est = run.attempt(report, "samuel",
                          lambda: inv.samuel_multiplicity_estimate(
                              ge, limits=limits),
                          soft=not _wants(directives, "samuel"))
        if est is not None:
            samuel = est.value
            note = (f"window k={est.window}" if est.window else est.note)
            report.add("samuel", est.value, CERTIFIED, note)

    if _wants(directives, "verify"):
        _verdict(run, report, U, siersma, samuel, codim, limits)
    return report


def _verdict(run: _Run, report: Report, U, siersma, samuel, codim,
             limits: Limits) -> None:
    mu_f = siersma if siersma is not None else samuel
    source = "siersma" if siersma is not None else "samuel"
    g = run.attempt(report, "verify",
                    lambda: inv.image_equation(U.base, limits))
    if g is None:
        return
    qh = quasihomogeneous_weights(g.equation) is not None
    report.add("verify.quasihomogeneous", qh)
    if mu_f is None or codim is None or codim is INFINITE:
        report.add("verify.verdict", "inconclusive", INCONCLUSIVE,
                   "a side is missing or infinite")
        return
    report.add("verify.mu_frontal", mu_f, CERTIFIED, f"via {source}")
    report.add("verify.codim_fe", codim)
    if mu_f < codim or (qh and mu_f != codim):
        report.add("verify.verdict", "VIOLATED", ERROR,
                   f"mu_F = {mu_f}, codim_Fe = {codim}, "
                   f"quasihomogeneous = {qh}")
        run.flag(EXIT_VIOLATION)
    else:
        verdict = "equality" if mu_f == codim else "inequality"
        report.add("verify.verdict", verdict)


# ---------------------------------------------------------------------------
# Entry points


def _run_file(text: str, mode: str, limits: Limits, out,
              fmt: str = "machine") -> _Run:
    """Run one germ file; its reports stream to out."""
    run = _Run(out, fmt)
    try:
        parsed = germfile.parse(text, limits.max_degree)
    except germfile.SyntaxErrorAt as exc:
        report = Report("parse")
        report.add("syntax", "failed", ERROR, str(exc))
        run.publish(report)
        run.exit_code = EXIT_SYNTAX
        return run
    except ResourceLimitError as exc:
        report = Report("parse")
        report.add("degree", "resource-limit", ERROR, str(exc))
        run.publish(report)
        run.exit_code = EXIT_RESOURCE
        return run

    if mode == "check":
        report = Report("parse")
        report.add("syntax", "ok")
        report.add("maps", ", ".join(parsed.maps) or "(none)")
        report.add("unfoldings", ", ".join(parsed.unfoldings) or "(none)")
        run.publish(report)
        return run

    if mode == "verify":
        if not parsed.unfoldings:
            report = Report("verify")
            report.add("verify", "failed", ERROR,
                       "no unfolding declared in the input file")
            run.publish(report)
            run.flag(EXIT_PRECONDITION)
            return run
        for name, U in parsed.unfoldings.items():
            run.publish(_analyze_unfolding(run, name, U, ("verify",), limits))
        return run

    analyses = parsed.analyses
    if not analyses:
        analyses = [germfile.AnalyzeStmt(name, ()) for name in parsed.maps]
        analyses += [germfile.AnalyzeStmt(name, ())
                     for name in parsed.unfoldings]
    for stmt in analyses:
        if stmt.name in parsed.maps:
            run.publish(_analyze_map(
                run, stmt.name, parsed.maps[stmt.name], stmt.directives,
                limits))
        else:
            run.publish(_analyze_unfolding(
                run, stmt.name, parsed.unfoldings[stmt.name],
                stmt.directives, limits))
    return run


def _render(report: Report, fmt: str) -> str:
    return report.machine() if fmt == "machine" else report.pretty()


def _limits_from(args) -> Limits:
    """Limits() with each field whose flag was given set from it."""
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(Limits)}
    return Limits(**{k: v for k, v in values.items() if v is not None})


def _corpus_dir():
    return resources.files("frontal_kernel") / "corpus"


def _run_corpus(limits: Limits, out) -> int:
    corpus = _corpus_dir()
    names = sorted(entry.name[:-5] for entry in corpus.iterdir()
                   if entry.name.endswith(".germ"))
    failures = 0
    for name in names:
        text = (corpus / f"{name}.germ").read_text(encoding="utf-8")
        golden_path = corpus / f"{name}.golden"
        buf = io.StringIO()
        _run_file(text, "analyze", limits, buf)
        actual = buf.getvalue()
        if not golden_path.is_file():
            out.write(f"MISSING {name}: no golden file\n")
            failures += 1
            continue
        expected = golden_path.read_text(encoding="utf-8")
        if actual == expected:
            out.write(f"PASS {name}\n")
        else:
            failures += 1
            out.write(f"FAIL {name}\n")
            diff = difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                fromfile=f"{name}.golden", tofile=f"{name}.actual")
            out.writelines(diff)
    out.write(f"{len(names) - failures}/{len(names)} fixtures match\n")
    return EXIT_OK if failures == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="frontal-kernel",
        description="Frontality, wave fronts and frontal singularity "
                    "invariants of polynomial map germs (exact arithmetic).")
    parser.add_argument("--format", choices=("pretty", "machine"),
                        default="pretty")
    for field in dataclasses.fields(Limits):
        parser.add_argument("--" + field.name.replace("_", "-"), type=int,
                            help=f"Limits.{field.name} (default "
                                 f"{field.default})")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, desc in (("check", "parse and validate a germ file"),
                      ("analyze", "run the analyses requested in the file"),
                      ("verify", "check mu_F >= codim_Fe on each unfolding")):
        p = sub.add_parser(cmd, help=desc)
        p.add_argument("file")
    sub.add_parser("corpus", help="run the bundled fixtures against goldens")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        limits = _limits_from(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    if args.command == "corpus":
        return _run_corpus(limits, sys.stdout)
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    return _run_file(text, args.command, limits, sys.stdout,
                     args.format).exit_code


if __name__ == "__main__":
    sys.exit(main())
