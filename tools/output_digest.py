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
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402
from frontal_kernel import cli  # noqa: E402


def digest(workload: str, seed: int, workdir: Path) -> tuple[int, str]:
    """(item count, sha256 hex) of one workload at one seed."""
    items = workloads.generate(workload, seed,
                               ROOT / "src" / "frontal_kernel" / "corpus")
    sha = hashlib.sha256()
    for i, item in enumerate(items):
        path = workdir / f"{i:03d}.germ"
        path.write_text(item.text, encoding="utf-8")
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(["--format", "machine", "analyze", str(path)])
        except Exception as exc:  # a traceback is an outcome to compare too
            code = f"raised {type(exc).__name__}: {exc}"
        sha.update(f"{out.getvalue()}\nexit {code}\n".encode("utf-8"))
    return len(items), sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for workload in workloads.WORKLOADS:
                count, hexdigest = digest(workload, seed, Path(tmp))
                print(f"seed {seed}\t{workload}\t{count} items\t{hexdigest}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
