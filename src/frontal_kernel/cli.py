"""Command-line driver: parse germ files, run analyses, verify the
Milnor-number/codimension inequality, and check the bundled corpus."""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import io
import os
import sys
from importlib import resources
from typing import Optional

from . import genfam as gf
from . import germfile
from . import invariants as inv
from .derlog import DerlogError, derlog as compute_derlog, is_free_divisor
from .basis import INFINITE, Limits, ResourceLimitError
from .germs import (DivisionError, GermError, PrenormalError, corank,
                    is_frontal, is_wavefront, frontal_lift)
from .report import (ASSUMED, CERTIFIED, ERROR, EXACT, INCONCLUSIVE,
                     INFINITE_STATUS, NOT_COMPUTED, Report)
from .ring import quasihomogeneous_weights

EXIT_OK = 0
EXIT_SYNTAX = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4
EXIT_VIOLATION = 5

_PRECONDITION_ERRORS = (GermError, PrenormalError, DivisionError,
                        inv.InvariantError, gf.GenFamError, DerlogError,
                        ValueError)


class _Run:
    """Collects reports and the worst exit code seen."""

    def __init__(self):
        self.reports: list[Report] = []
        self.exit_code = EXIT_OK

    def flag(self, code: int) -> None:
        if self.exit_code == EXIT_OK:
            self.exit_code = code

    def attempt(self, report: Report, key: str, fn, soft: bool = False):
        """Run fn(); record its value or the error class.

        Soft attempts feed a verdict only: their failure makes the verdict
        inconclusive instead of failing the run.
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
        return None


def _status_of(value) -> str:
    return INFINITE_STATUS if value is INFINITE else EXACT


def _wants(directives, *keys) -> bool:
    if not directives or "all" in directives:
        return True
    return any(k in directives for k in keys)


def _explicit(directives, key) -> bool:
    """The user asked for this result itself, not just as a verify input."""
    return not directives or "all" in directives or key in directives


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
            def compute():
                return is_wavefront(f, limits)
            wf = run.attempt(report, "wavefront", compute)
            if wf is not None:
                report.add("wavefront", wf)
        elif frontal is False:
            report.add("wavefront", "skipped", NOT_COMPUTED,
                       "germ is not frontal")

    image = None
    if _wants(directives, "image", "mu", "conductor", "hat_M", "plane_curve"):
        image = run.attempt(report, "image.equation",
                            lambda: inv.image_equation(f, limits))
        if image is not None:
            report.add("image.equation", image.equation)
            qh = quasihomogeneous_weights(image.equation)
            report.add("image.quasihomogeneous", qh is not None)
            if qh is not None:
                report.add("image.weights", qh[0])
                report.add("image.weighted_degree", qh[1])

    if _wants(directives, "mu") and image is not None:
        mu = run.attempt(report, "mu",
                         lambda: inv.milnor_number(image.equation, limits))
        if mu is not None:
            report.add("mu", mu, _status_of(mu))

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

    if _wants(directives, "conductor") and image is not None \
            and len(f.branches) == 1:
        lam = run.attempt(report, "conductor.lambda",
                          lambda: inv.piene_lambda(f, image, limits))
        if lam is not None:
            report.add("conductor.lambda", lam)
            colen = run.attempt(report, "conductor.colength",
                                lambda: inv.conductor_colength(lam, limits))
            if colen is not None:
                report.add("conductor.colength", colen, _status_of(colen))

    if _wants(directives, "hat_M") and image is not None \
            and len(f.branches) == 1:
        hm = run.attempt(report, "hat_M",
                         lambda: inv.hat_M_dimension(f, image, limits))
        if hm is not None:
            report.add("hat_M", hm, _status_of(hm))

    if _wants(directives, "genfam") and frontal:
        fam = run.attempt(report, "genfam",
                          lambda: gf.generating_family_of(f, 0, limits))
        if fam is not None:
            report.add("genfam.corank", fam.k)
            report.add("genfam.hprime", fam.hprime,
                       EXACT if fam.exact else CERTIFIED,
                       "" if fam.exact else f"jet order {fam.jet_order}")
            cert = run.attempt(report, "genfam.critical_set",
                               lambda: gf.critical_set_certificate(fam, limits))
            if cert is not None:
                report.add("genfam.critical_set_is_graph", cert)
            match = run.attempt(
                report, "genfam.discriminant_equals_image",
                lambda: gf.verify_discriminant_equals_image(f, fam, limits))
            if match is not None:
                report.add("genfam.discriminant_equals_image", match)

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
    if U.frontal_asserted or U.stable_asserted:
        report.add("stability", "frontal-stable", ASSUMED,
                   "user-asserted, not verified")
    F = U.unfolded_map()
    fr = run.attempt(report, "unfolding.frontal",
                     lambda: is_frontal(F, limits))
    if fr is not None:
        report.add("unfolding.frontal", fr[0])

    G = run.attempt(report, "image.equation",
                    lambda: inv.unfolding_image_equation(U, limits))
    if G is not None:
        report.add("image.equation", G)

    siersma = None
    if _wants(directives, "siersma", "verify") and U.r == 1:
        res = run.attempt(report, "siersma",
                          lambda: inv.frontal_milnor_siersma(U, limits),
                          soft=not _explicit(directives, "siersma"))
        if res is not None:
            siersma = res.value
            report.add("siersma", res.value, CERTIFIED,
                       "affine critical points; agreeing parameter values "
                       f"{res.witnesses[0]} and {res.witnesses[1]}")

    ge = None
    if _wants(directives, "M_F", "codim_Fe", "samuel", "verify"):
        soft_ge = not any(_explicit(directives, k)
                          for k in ("M_F", "codim_Fe", "samuel"))
        ge = run.attempt(report, "good_equation",
                         lambda: inv.good_equation(U, limits), soft=soft_ge)
        if ge is not None:
            report.add("good_equation.augmented", ge.augmented)
            report.add("good_equation.parameters", ", ".join(ge.params))

    mf = codim = None
    if ge is not None and _wants(directives, "M_F", "verify"):
        mf = run.attempt(report, "M_F",
                         lambda: inv.M_F_dimension(ge, limits),
                         soft=not _explicit(directives, "M_F"))
        if mf is not None:
            report.add("M_F", mf, _status_of(mf))
    if ge is not None and _wants(directives, "codim_Fe", "verify"):
        codim = run.attempt(report, "codim_Fe",
                            lambda: inv.frontal_codimension(ge, limits),
                            soft=not _explicit(directives, "codim_Fe"))
        if codim is not None:
            report.add("codim_Fe", codim, _status_of(codim))

    samuel = None
    if ge is not None and _wants(directives, "samuel", "verify") \
            and mf is not INFINITE:
        est = run.attempt(report, "samuel",
                          lambda: inv.samuel_multiplicity_estimate(
                              ge, limits=limits),
                          soft=not _explicit(directives, "samuel"))
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


def _run_file(text: str, mode: str, limits: Limits) -> _Run:
    run = _Run()
    try:
        parsed = germfile.parse(text, limits.max_degree)
    except germfile.SyntaxErrorAt as exc:
        report = Report("parse")
        report.add("syntax", "failed", ERROR, str(exc))
        run.reports.append(report)
        run.exit_code = EXIT_SYNTAX
        return run
    except ResourceLimitError as exc:
        report = Report("parse")
        report.add("degree", "resource-limit", ERROR, str(exc))
        run.reports.append(report)
        run.exit_code = EXIT_RESOURCE
        return run

    if mode == "check":
        report = Report("parse")
        report.add("syntax", "ok")
        report.add("maps", ", ".join(parsed.maps) or "(none)")
        report.add("unfoldings", ", ".join(parsed.unfoldings) or "(none)")
        run.reports.append(report)
        return run

    if mode == "verify":
        if not parsed.unfoldings:
            report = Report("verify")
            report.add("verify", "failed", ERROR,
                       "no unfolding declared in the input file")
            run.reports.append(report)
            run.flag(EXIT_PRECONDITION)
            return run
        for name, U in parsed.unfoldings.items():
            run.reports.append(
                _analyze_unfolding(run, name, U, ("verify",), limits))
        return run

    analyses = parsed.analyses
    if not analyses:
        analyses = [germfile.AnalyzeStmt(name, ()) for name in parsed.maps]
        analyses += [germfile.AnalyzeStmt(name, ())
                     for name in parsed.unfoldings]
    for stmt in analyses:
        if stmt.name in parsed.maps:
            run.reports.append(_analyze_map(
                run, stmt.name, parsed.maps[stmt.name], stmt.directives,
                limits))
        else:
            run.reports.append(_analyze_unfolding(
                run, stmt.name, parsed.unfoldings[stmt.name],
                stmt.directives, limits))
    return run


def _emit(run: _Run, fmt: str, out) -> None:
    chunks = []
    for report in run.reports:
        chunks.append(report.machine() if fmt == "machine" else report.pretty())
    out.write("\n".join(chunks))


def _limits_from(args, env: Optional[str]) -> Limits:
    """Limits() overridden by FRONTAL_KERNEL_LIMITS, then by the flags.

    A field such as max_pairs is set by the key max-pairs and the flag
    --max-pairs.
    """
    fields = {f.name.replace("_", "-"): f.name for f in dataclasses.fields(Limits)}
    values = {}
    if env:
        for part in env.split(","):
            part = part.strip()
            if not part:
                continue
            key, _, val = part.partition("=")
            key = key.strip()
            if key not in fields:
                raise ValueError(f"unknown limit {key!r} in "
                                 "FRONTAL_KERNEL_LIMITS")
            values[fields[key]] = int(val)
    for name in fields.values():
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return Limits(**values)


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
        run = _run_file(text, "analyze", limits)
        buf = io.StringIO()
        _emit(run, "machine", buf)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frontal-kernel",
        description="Frontality, wave fronts and frontal singularity "
                    "invariants of polynomial map germs (exact arithmetic).")
    parser.add_argument("--format", choices=("pretty", "machine"),
                        default="pretty")
    parser.add_argument("--max-pairs", type=int, default=None)
    parser.add_argument("--max-degree", type=int, default=None)
    parser.add_argument("--jet-order", type=int, default=None)
    parser.add_argument("--param-trials", type=int, default=None)
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
        limits = _limits_from(args, os.environ.get("FRONTAL_KERNEL_LIMITS"))
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
    run = _run_file(text, args.command, limits)
    _emit(run, args.format, sys.stdout)
    return run.exit_code


if __name__ == "__main__":
    sys.exit(main())
