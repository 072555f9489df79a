"""Digest of the command-line output on every benchmark item.

    python3 tools/output_digest.py --seeds 1 2

Run from anywhere in a source checkout: the library is imported from its
`src/` and the items come from its `bench/workloads.py`, which is only
read.  For each seed and each workload (corpus, frontal-shears,
image-sweep) every item runs through
`frontal_kernel.cli.main(["--format", "machine", "analyze", file])`, as
in `bench/run.py`, and one line gives the item count and a sha256 over the
items' stdout and exit codes, in the workload's order.  Two checkouts that
print the same lines give the same bytes and exit codes on every item:
this is the byte-identity check for a change that must not move an output.
Two more lines follow, digested the same way over the eight corpus
fixtures, in name order: one of `main(["--format", "machine", "verify",
file])` and one of `main(["--format", "pretty", "analyze", file])`, the two
paths of the command line that the workloads do not take.  Last comes one
line per seed, `seed K\tlifts\tN candidates\tsha256`, over the Nash lift
of every prenormal candidate of every map and unfolded map in the three
workloads, in their order, as `frontal_kernel.germs.nash_lift` returns it
under the default limits: mu, lam (as its jet of the lift's jet order when
the lift is not exact), exact and jet_order, or the class of the error
raised; a branch without prenormal candidates counts once, with the class
of its error.  No command-line line prints lam, so this is the identity
check for it.

    python3 tools/output_digest.py --seeds 1 2 --items

also prints, before each workload line, one line per item: its name, its
exit code and the sha256 of its stdout, so that two checkouts whose
workload lines differ can be compared item by item.

    python3 tools/output_digest.py --seeds 1 2 --parse

parses every item's germ file with `frontal_kernel.germfile.parse` instead
of running it, and prints one line per seed: the file count and a sha256
over the outcomes of all three workloads (the corpus workload is the eight
corpus fixtures).  An outcome is `serialize(parse(text))`, or the error's
class, message, line and column.  A second line per seed digests the
outcomes of 1,000 random token strings and 1,500 one-character mutations of
the corpus fixtures, drawn from `random.Random(seed)` by the generators of
`tests/test_germfile.py`, so that rejected inputs and their positions are
compared too.  Two checkouts that print the same lines parse every file
alike: this is the parity check for a parser change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "tests"))

import workloads  # noqa: E402
from test_germfile import _mutant, _token_soup  # noqa: E402
from frontal_kernel import cli, germfile  # noqa: E402
from frontal_kernel.germs import nash_lift, prenormal_candidates  # noqa: E402


CORPUS = ROOT / "src" / "frontal_kernel" / "corpus"
# the command lines digested over the corpus fixtures after the workloads
FIXTURE_COMMANDS = {"verify": ["--format", "machine", "verify"],
                    "pretty analyze": ["--format", "pretty", "analyze"]}


def items(workload: str, seed: int):
    return workloads.generate(workload, seed, CORPUS)


def fixtures():
    """(name, text) of each corpus fixture, in name order."""
    return [(path.stem, path.read_text(encoding="utf-8"))
            for path in sorted(CORPUS.glob("*.germ"))]


def outcomes(texts, argv: list[str], workdir: Path):
    """(item name, stdout, exit code) of `main(argv + [file])` on each
    (name, text) pair."""
    for i, (name, text) in enumerate(texts):
        path = workdir / f"{i:03d}.germ"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv + [str(path)])
        except Exception as exc:  # a traceback is an outcome to compare too
            code = f"raised {type(exc).__name__}: {exc}"
        yield name, out.getvalue(), code


def digest(label: str, results, show_items: bool) -> None:
    """One line: the item count and a sha256 over the items' stdout and
    exit codes; with show_items, one line per item before it."""
    sha, count = hashlib.sha256(), 0
    for name, out, code in results:
        sha.update(f"{out}\nexit {code}\n".encode("utf-8"))
        count += 1
        if show_items:
            item_sha = hashlib.sha256(out.encode("utf-8"))
            print(f"{label}\t{name}\texit {code}\t{item_sha.hexdigest()}",
                  flush=True)
    print(f"{label}\t{count} items\t{sha.hexdigest()}", flush=True)


def parse_outcome(text: str) -> str:
    """serialize(parse(text)), or the error raised, with its position."""
    try:
        return germfile.serialize(germfile.parse(text))
    except Exception as exc:  # a traceback is an outcome to compare too
        return (f"raised {type(exc).__name__}: {exc} (line "
                f"{getattr(exc, 'line', None)}, column "
                f"{getattr(exc, 'column', None)})\n")


def parse_digest(seed: int, show_items: bool) -> None:
    sha, count = hashlib.sha256(), 0
    for workload in workloads.WORKLOADS:
        for item in items(workload, seed):
            outcome = parse_outcome(item.text)
            sha.update(outcome.encode("utf-8"))
            count += 1
            if show_items:
                item_sha = hashlib.sha256(outcome.encode("utf-8"))
                print(f"seed {seed}\tparse\t{workload}\t{item.name}\t"
                      f"{item_sha.hexdigest()}", flush=True)
    print(f"seed {seed}\tparse\t{count} files\t{sha.hexdigest()}",
          flush=True)
    rng = random.Random(seed)
    corpus = [text for _, text in fixtures()]
    inputs = [_token_soup(rng) for _ in range(1000)]
    inputs += [_mutant(rng, rng.choice(corpus)) for _ in range(1500)]
    sha = hashlib.sha256()
    for text in inputs:
        sha.update(parse_outcome(text).encode("utf-8"))
    print(f"seed {seed}\tparse fuzz\t{len(inputs)} inputs\t"
          f"{sha.hexdigest()}", flush=True)


def lift_outcome(pre) -> str:
    """mu, lam up to the jet order, exact and jet_order of the lift of a
    prenormal candidate, or the class of the error it raises."""
    try:
        nash = nash_lift(pre)
    except Exception as exc:  # an error is an outcome to compare too
        return f"raised {type(exc).__name__}\n"
    lam = nash.lam if nash.exact else [li.jet(nash.jet_order)
                                       for li in nash.lam]
    return (f"mu {', '.join(map(str, nash.mu))}; "
            f"lam {', '.join(map(str, lam))}; "
            f"exact {nash.exact}; jet_order {nash.jet_order}\n")


def lift_outcomes(f):
    """The lift outcome of each prenormal candidate of each branch of f; a
    branch without candidates gives the class of its error instead."""
    for branch in range(len(f.branches)):
        try:
            candidates = prenormal_candidates(f, branch)
        except Exception as exc:  # an error is an outcome to compare too
            yield f"raised {type(exc).__name__}\n"
            continue
        yield from map(lift_outcome, candidates)


def lift_digest(seed: int) -> None:
    """One line: the number of lift outcomes of the maps and unfolded maps
    of every workload item at the seed, and a sha256 over them."""
    sha, count = hashlib.sha256(), 0
    for workload in workloads.WORKLOADS:
        for item in items(workload, seed):
            parsed = germfile.parse(item.text)
            for f in [*parsed.maps.values(),
                      *(U.unfolded_map() for U in parsed.unfoldings.values())]:
                for outcome in lift_outcomes(f):
                    sha.update(outcome.encode("utf-8"))
                    count += 1
    print(f"seed {seed}\tlifts\t{count} candidates\t{sha.hexdigest()}",
          flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--items", action="store_true",
                        help="also print one line per item")
    parser.add_argument("--parse", action="store_true",
                        help="digest parse outcomes instead of CLI outputs")
    args = parser.parse_args(argv)
    if args.parse:
        for seed in args.seeds:
            parse_digest(seed, args.items)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for workload in workloads.WORKLOADS:
                texts = [(item.name, item.text)
                         for item in items(workload, seed)]
                argv = ["--format", "machine", "analyze"]
                digest(f"seed {seed}\t{workload}",
                       outcomes(texts, argv, Path(tmp)), args.items)
        for label, argv in FIXTURE_COMMANDS.items():
            digest(f"fixtures\t{label}",
                   outcomes(fixtures(), argv, Path(tmp)), args.items)
    for seed in args.seeds:
        lift_digest(seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
