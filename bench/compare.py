"""Compare two result files of `run.py --workload all --out FILE`.

    python3 bench/compare.py bench/baseline.json new.json

For each workload and each end-to-end metric of BENCHMARK.json, prints both
values, the relative change and whether they agree within the metric's
bound.  A change beyond the bound is `worse` or `better` by the metric's
direction.  Exits 1 when any metric is worse, else 0.  One run per side
is a smoke test: where the machine's speed drifts, a claim needs the
medians of repeated runs of both sides.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verdict(base: float, new: float, bound: float, better: str):
    """(relative change, 'agree' | 'worse' | 'better')."""
    change = (new - base) / base
    if abs(change) <= bound:
        return change, "agree"
    got_worse = change > 0 if better == "lower" else change < 0
    return change, "worse" if got_worse else "better"


def compare(base: dict, new: dict, spec: dict) -> int:
    worse = 0
    if base["seconds"] != new["seconds"]:
        print(f"note: runs of {base['seconds']} s and {new['seconds']} s "
              "are not comparable")
    for workload in sorted(set(base["results"]) | set(new["results"])):
        if workload not in base["results"] or workload not in new["results"]:
            print(f"{workload}: only in one file")
            worse += 1
            continue
        print(f"== {workload}")
        b = base["results"][workload]["trace0"]["metrics"]
        n = new["results"][workload]["trace0"]["metrics"]
        for m in spec["end_to_end"]:
            name = m["name"]
            change, word = verdict(b[name]["value"], n[name]["value"],
                                   m["bound"], m["better"])
            worse += word == "worse"
            print(f"  {name:<14} {b[name]['value']:>12.6g} -> "
                  f"{n[name]['value']:>12.6g} {m['unit']:<6} "
                  f"{change:+8.1%}  bound {m['bound']:.0%}  {word}")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text(encoding="utf-8"))
                 for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return compare(base, new, spec)


if __name__ == "__main__":
    sys.exit(main())
