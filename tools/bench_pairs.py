"""Paired benchmark runs of a parent revision and the working tree.

    python3 tools/bench_pairs.py --parent REV --workload W --pairs N \\
        --seconds S [--seed K]

Run from anywhere in a source checkout.  REV is exported with
`git archive` to a temporary directory, and the files of this checkout's
working tree (uncommitted edits and untracked files that git does not
ignore included) are copied to a sibling of it, so that both sides run
from fresh trees alike.  `bench/run.py --workload W --seed K --seconds S
--trace 0` runs N times in each tree, one pair after another, alternating
which side runs first.  Each run's end-to-end metrics are read from the
last line of its output, as BENCHMARK.json names them; only `bench/` and
`BENCHMARK.json` of each tree are read.

One line per run gives the side, its metrics, the number of items it
attempted and `correct`.  Then one line
per end-to-end metric gives the parent's median [first quartile, third
quartile], the change's median, the number of pairs in which the change
is better (ties count for neither side) and the median [quartiles] of the
per-pair ratios change/parent (over the pairs whose parent value is not
zero; `n/a` when there is none), and a last line the `correct` value of
every run.  A host slow spell moves both runs of a pair, so the ratios
show a gain that the spread of the unpaired medians can hide.  A gain is
claimed when the change wins at least nine pairs in ten and the medians
differ by more than the parent's quartile distance.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> None:
    """The files of rev, as `git archive` gives them, in a new dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def copy_worktree(dest: Path) -> None:
    """The working tree's files, as `git ls-files` lists them (tracked and
    untracked, not ignored), in a new dest."""
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others",
         "--exclude-standard"], capture_output=True, check=True).stdout
    dest.mkdir()
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file may be deleted, not staged
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one untraced bench/run.py run in tree."""
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: bench/run.py failed in {tree}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="the revision to compare the working tree with")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    metrics = spec["end_to_end"]
    results = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        export(args.parent, trees["parent"])
        copy_worktree(trees["change"])
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            for side in order:
                result = run(trees[side], args.workload, args.seed,
                             args.seconds)
                results[side].append(result)
                values = " ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                    for m in metrics)
                print(f"pair {i + 1}\t{side}\t{values}\t"
                      f"attempted={result['attempted']}\t"
                      f"correct={result['correct']}", flush=True)

    print(f"# {args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s runs: medians, the parent's quartiles, and "
          f"the pairs the change wins")
    for m in metrics:
        name = m["name"]
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        q1, q3 = quartiles(parent)
        ratios = [c / p for p, c in zip(parent, change) if p]
        if ratios:
            r1, r3 = quartiles(ratios)
            ratio = (f"{statistics.median(ratios):.4g} "
                     f"[{r1:.4g}, {r3:.4g}]")
        else:
            ratio = "n/a"
        print(f"{name} ({m['unit']})\tparent {statistics.median(parent):.6g}"
              f" [{q1:.6g}, {q3:.6g}]\tchange "
              f"{statistics.median(change):.6g}\twins {wins}/{args.pairs}"
              f"\tratio {ratio}")
    for side in ("parent", "change"):
        print(f"correct\t{side}\t"
              + " ".join(str(r["correct"]) for r in results[side]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
