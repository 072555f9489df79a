"""Benchmark of frontal-kernel through its command-line entry point.

    python3 bench/run.py --workload corpus|frontal-shears|image-sweep \\
        --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--out FILE]

Run from the root of a source checkout: the library is imported from
`src/`.  One run generates the workload's germ files from the seed, then
calls `frontal_kernel.cli.main(["--format", "machine", "analyze", file])`
on each file, one pass after another in one process (a closed loop with
one caller), until the next pass would end after S seconds; at least one
pass runs, and workloads.PASSES fixes the count for some workloads.
Answers are checked after the timed passes against references that do not
come from the library.

Times are reported at a reference host speed.  The CPU speed of a small
shared host drifts by a third from minute to minute, which moves every
timing more than a regression would.  So every KERNEL_PERIOD seconds a
timer signal times a fixed exact-arithmetic kernel of the benchmark's own
(no library code), and each item's time, less the kernel's, is scaled by
(REFERENCE_KERNEL_S / the median kernel time measured nearest to it) **
SPEED_EXPONENT; set-up times likewise, by kernel runs around them.  A
change in the library moves these times as it moves raw ones; a change in
host speed moves the library and the kernel together, and mostly cancels.
The raw times are printed too.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json.  With `--trace 1` untraced passes
alternate with passes traced by `spans.py`, and the JSON object holds the
per-layer metrics, per traced pass.  `--workload all` runs
every workload in a child process, traced and untraced, prints a report
and optionally writes the results to a file for `compare.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS_DIR = SRC / "frontal_kernel" / "corpus"
SPANS_DIR = ROOT / ".bench-spans"
SETUP_SAMPLES = 7
# Median time of one speed kernel on an x86_64 Xeon at 2.1 GHz (2 vCPUs,
# Python 3.11) in its usual state: the speed that reported times are
# scaled to.
REFERENCE_KERNEL_S = 1.8e-3
# How far library times follow kernel times on that host: in two records of
# about 50 passes each of image-sweep and of corpus, whose pass times varied
# by up to 1.8x, the log of a pass's time followed the log of its median
# kernel time with slope 0.60-0.65 (correlation 0.84-0.95) on image-sweep
# and 0.59-0.62 (0.72-0.80) on corpus.  Kernels of big-integer arithmetic,
# Fraction elimination or sympy gcds did no better.  Scaling by the full
# kernel ratio would overcorrect: in the host's fast spells the kernel
# speeds up more than the library.
SPEED_EXPONENT = 0.65
# During untraced passes a timer signal runs the kernel every
# KERNEL_PERIOD seconds, inside the items, so that its samples are spread
# over a pass in proportion to time (about 5% of it).  The time the kernel
# takes is subtracted from the item's.  An item is scaled by the median of
# the samples taken during it, widened to its neighbours' until there are
# at least KERNEL_WINDOW.
KERNEL_PERIOD = 0.03
KERNEL_WINDOW = 15
SETUP_KERNEL_RUNS = 20

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _import_library():
    if not (SRC / "frontal_kernel" / "__init__.py").is_file():
        raise SystemExit(f"error: no frontal_kernel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import frontal_kernel
    import frontal_kernel.cli
    if Path(frontal_kernel.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported frontal_kernel from "
                         f"{frontal_kernel.__file__}, not from {SRC}")
    return frontal_kernel


def _write_inputs(workload: str, seed: int, workdir: Path):
    items = workloads.generate(workload, seed, CORPUS_DIR)
    paths = []
    for i, item in enumerate(items):
        path = workdir / f"{i:03d}-{item.name}.germ"
        path.write_text(item.text, encoding="utf-8")
        paths.append(str(path))
    return items, paths


def _setup_only(workload: str, seed: int) -> None:
    """What a user waits for before the first item: interpreter start,
    importing the library and generating the inputs."""
    _import_library()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        _write_inputs(workload, seed, Path(tmp))
        print("ready", flush=True)


def _setup_seconds(workload: str, seed: int):
    """Set-up times of SETUP_SAMPLES child processes: (raw, at reference
    speed).  Each is scaled by kernel runs right before and after it."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        speed = [kernel_seconds() for _ in range(SETUP_KERNEL_RUNS)]
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload, "--seed", str(seed), "--setup-only"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise SystemExit("error: set-up child failed")
        speed += [kernel_seconds() for _ in range(SETUP_KERNEL_RUNS)]
        raw.append(ready - start)
        scaled.append((ready - start) * speed_factor(speed))
    return raw, scaled


# ---------------------------------------------------------------------------
# Host speed


_KERNEL_BASE = workloads._poly((Fraction(5, 7), 0, 0), (Fraction(1, 2), 1, 0),
                               (Fraction(-2, 3), 0, 1))


def kernel_seconds() -> float:
    """Time of one fixed exact-arithmetic kernel: the seventh power of a
    bivariate polynomial with Fraction coefficients, by the benchmark's own
    dict arithmetic: the kind of work the library does.  The cyclic
    garbage collector is off while it runs: its collections would charge
    the kernel for the size of the library's heap."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    workloads._pow(_KERNEL_BASE, 7, 2)
    seconds = time.perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


class SpeedSampler:
    """Runs the kernel from a timer signal while armed (`with`), and keeps
    the samples and the time the signal handler took."""

    def __init__(self):
        self.samples, self.spent = [], 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += time.perf_counter() - start

    def take(self):
        """(samples, handler seconds) since the last take."""
        out = self.samples, self.spent
        self.samples, self.spent = [], 0.0
        return out

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, KERNEL_PERIOD, KERNEL_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def speed_factor(samples) -> float:
    """Factor from the host speed the kernel samples were measured at to
    the reference speed."""
    return (REFERENCE_KERNEL_S / statistics.median(samples)) ** SPEED_EXPONENT


def item_factors(speeds):
    """The speed factor of each item of each pass, from the kernel samples
    taken nearest to it in time.  `speeds[p][i]` holds the samples taken
    during item i of pass p."""
    flat = [during for pass_speeds in speeds for during in pass_speeds]
    factors = []
    for i, during in enumerate(flat):
        samples, lo, hi = list(during), i, i
        while len(samples) < KERNEL_WINDOW and (lo > 0 or hi < len(flat) - 1):
            if lo > 0:
                lo -= 1
                samples += flat[lo]
            if hi < len(flat) - 1:
                hi += 1
                samples += flat[hi]
        factors.append(speed_factor(samples))
    it = iter(factors)
    return [[next(it) for _ in pass_speeds] for pass_speeds in speeds]


# ---------------------------------------------------------------------------
# Timed passes


def _one_pass(cli, paths, tracer=None, pass_no=0):
    """([(seconds, exit code, stdout)] for each file, with (seconds, None,
    traceback) when the call raised; [kernel times measured during it] for
    each file).  Traced passes measure no kernel times."""
    results, speed = [], []
    sampler = SpeedSampler()
    with contextlib.nullcontext() if tracer is not None else sampler:
        for i, path in enumerate(paths):
            if tracer is not None:
                tracer.item = (pass_no, i)
            buf = io.StringIO()
            sampler.take()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(["--format", "machine", "analyze", path])
            except Exception:  # a traceback is a failed item, not a crash
                code = None
                buf = io.StringIO(traceback.format_exc())
            seconds = time.perf_counter() - start
            samples, spent = sampler.take()
            results.append((seconds - spent, code, buf.getvalue()))
            speed.append(samples)
    return results, speed


def _passes(cli, paths, budget, passes=(1, None), tracer=None):
    """Between passes[0] and passes[1] (None: no limit) passes, more while
    the next one would end within `budget` seconds.  With a tracer,
    untraced and traced passes alternate, in pairs, so that both see the
    same machine, and `passes` counts pairs.  Returns the results and the
    kernel times of each pass."""
    fewest, most = passes
    step = 1 if tracer is None else 2
    walls, runs, speeds = [], [], []
    start = time.perf_counter()
    while True:
        traced = len(runs) % step == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        results, speed = _one_pass(cli, paths, tracer if traced else None,
                                   len(runs))
        walls.append(time.perf_counter() - t0)
        runs.append(results)
        speeds.append(speed)
        if traced:
            tracer.uninstall()
        if len(runs) % step:
            continue
        if len(runs) == step * (most or 0) or len(runs) >= step * fewest and (
                time.perf_counter() - start
                + step * statistics.median(walls) > budget):
            return runs, speeds


# ---------------------------------------------------------------------------
# Answer checks, outside the timed region


def _fields(output: str) -> dict[str, str]:
    out = {}
    for line in output.splitlines():
        parts = line.split("\t")
        if len(parts) >= 2 and parts[0] != "report":
            out.setdefault(parts[0], parts[1])
    return out


def _sympy_eliminant(comps):
    """Generator of the image ideal of (x, y) -> comps, by sympy's lex
    Groebner basis of the graph ideal."""
    import sympy
    x, y, X, Y, Z = sympy.symbols("x y X Y Z")
    exprs = [sympy.sympify(c.replace("^", "**"), locals={"x": x, "y": y})
             for c in comps]
    basis = sympy.groebner([t - e for t, e in zip((X, Y, Z), exprs)],
                           x, y, X, Y, Z, order="lex")
    eliminant = [g for g in basis.exprs if not g.has(x) and not g.has(y)]
    if len(eliminant) != 1:
        raise ValueError(f"image ideal of {comps} is not principal")
    return sympy.Poly(eliminant[0], X, Y, Z)


def _same_up_to_scalar(printed: str, reference) -> bool:
    import sympy
    X, Y, Z = reference.gens
    try:
        got = sympy.Poly(sympy.sympify(printed.replace("^", "**"),
                                       locals={"X": X, "Y": Y, "Z": Z}),
                         X, Y, Z)
    except (sympy.SympifyError, sympy.PolynomialError):
        return False
    return got * reference.LC() == reference * got.LC() and not got.is_zero


class Checker:
    """Whether one output is the right answer for its item.  References
    are computed once per item and kept for the later passes."""

    def __init__(self):
        self.references = {}

    def ok(self, item, code, output) -> bool:
        kind = item.check[0]
        if kind == "golden":
            golden = CORPUS_DIR / f"{item.check[1]}.golden"
            return code == 0 and output == golden.read_text(encoding="utf-8")
        if code != 0:
            return False
        got = _fields(output)
        if kind == "frontal":
            return got.get("frontal") == ("true" if item.check[1] else "false")
        if kind == "plane_curve":
            mu = str(item.check[1])
            return got.get("mu") == mu and got.get("conductor.colength") == mu
        if kind == "surface":
            comps = item.check[1]
            if comps not in self.references:
                self.references[comps] = _sympy_eliminant(comps)
            return (got.get("mu") == "INFINITE" and "image.equation" in got
                    and _same_up_to_scalar(got["image.equation"],
                                           self.references[comps]))
        raise ValueError(f"unknown check {kind!r}")


def known_defect(item) -> bool:
    """A returning parametrisation, whose wrong answer is a recorded defect:
    image_equation eliminates over the whole source instead of at the germ,
    so mu and the conductor colength come out too large.  These items stay
    in the workload and lower ok_ratio until the defect is fixed."""
    return item.check[0] == "plane_curve" and item.check[2]


# ---------------------------------------------------------------------------
# Metrics


def _tail(samples_ms):
    """The sample with ten samples beyond it, and its percentile."""
    ordered = sorted(samples_ms)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _score(items, runs, checker):
    attempted = failed = ok = unexpected = 0
    for run in runs:
        for item, (_, code, output) in zip(items, run):
            attempted += 1
            if code != 0:
                failed += 1
                print(f"failed: {item.name}: exit code {code}\n{output}",
                      file=sys.stderr)
            if checker.ok(item, code, output):
                ok += 1
            elif not known_defect(item):
                unexpected += 1
                print(f"wrong answer: {item.name}", file=sys.stderr)
    return attempted, failed, ok, unexpected


def _bench(args) -> int:
    lib = _import_library()
    spec = _spec()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        items, paths = _write_inputs(args.workload, args.seed, Path(tmp))
        setup_raw, setup = _setup_seconds(args.workload, args.seed)
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer(lib)
            runs, speeds = _passes(lib.cli, paths, args.seconds, (1, None),
                                   tracer)
            runs, traced_runs = runs[0::2], runs[1::2]
            speeds = speeds[0::2]
        else:
            runs, speeds = _passes(lib.cli, paths, args.seconds,
                                   workloads.PASSES[args.workload])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"{args.workload}-seed{args.seed}.tsv")
    checker = Checker()
    all_runs = runs + (traced_runs if tracer is not None else [])
    attempted, failed, ok, unexpected = _score(items, all_runs, checker)

    # A pass's wall time is the sum of its item times, which leave out the
    # kernel runs.  item_p50_ms is the median over files of each file's
    # median time: on the corpus the median of all samples would fall
    # between two fixtures, on the slowest sample of one and the fastest
    # of the other.
    factors = item_factors(speeds)
    raw_walls = [sum(t for t, _, _ in run) for run in runs]
    pass_ms = [[t * f * 1000 for (t, _, _), f in zip(run, fs)]
               for run, fs in zip(runs, factors)]
    walls = [sum(ms) / 1000 for ms in pass_ms]
    item_ms = [t for ms in pass_ms for t in ms]
    file_ms = [statistics.median(times) for times in zip(*pass_ms)]
    tail_ms, tail_pct = _tail(item_ms)
    if tracer is None:
        values = {
            "wall_s": statistics.median(walls),
            "item_p50_ms": statistics.median(file_ms),
            "item_tail_ms": tail_ms,
            "ok_ratio": ok / attempted,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        catalogue = spec["end_to_end"]
    else:
        values = tracer.metrics(len(traced_runs))
        traced_walls = [sum(t for t, _, _ in run) for run in traced_runs]
        values["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(raw_walls))
        catalogue = spec["per_layer"]
    metrics = {}
    for m in catalogue:
        metrics[m["name"]] = {"value": values.pop(m["name"]), "unit": m["unit"]}
    if values:
        raise SystemExit(f"error: metrics missing from BENCHMARK.json: "
                         f"{sorted(values)}")

    samples = {"passes": len(runs), "items": len(item_ms),
               "files_per_pass": len(items), "setup_runs": len(setup),
               "tail_percentile": round(tail_pct, 1),
               "known_defects": sum(map(known_defect, items)) * len(all_runs),
               "unexpected_wrong": unexpected,
               "raw_wall_s": round(statistics.median(raw_walls), 6),
               "raw_setup_s": round(statistics.median(setup_raw), 6),
               "speed_factor": round(statistics.median(
                   f for fs in factors for f in fs), 4),
               "kernel_runs": sum(len(after) for pass_speeds in speeds
                                  for after in pass_speeds)}
    if tracer is not None:
        samples["traced_passes"] = len(traced_runs)
    for name, m in metrics.items():
        print(f"{args.workload}\t{name}\t{m['value']:.6g}\t{m['unit']}")
    print("# samples " + json.dumps(samples))
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# All workloads


def _child(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {workload} --trace {trace} failed")
    samples = next(json.loads(line[len("# samples "):]) for line in lines
                   if line.startswith("# samples "))
    return json.loads(lines[-1]), samples


def _all(args) -> int:
    spec = _spec()
    results = {}
    for workload in workloads.WORKLOADS:
        untraced, samples = _child(workload, args.seed, args.seconds, 0)
        traced, traced_samples = _child(workload, args.seed, args.seconds, 1)
        results[workload] = {"trace0": untraced, "trace1": traced,
                             "samples": samples,
                             "traced_samples": traced_samples}
        print(f"== {workload}: correct={untraced['correct']} "
              f"attempted={untraced['attempted']} "
              f"failed={untraced['failed']}  " + json.dumps(samples))
        for m in spec["end_to_end"]:
            v = untraced["metrics"][m["name"]]
            print(f"  {m['name']:<16} {v['value']:>12.6g} {v['unit']}")
        print(f"  -- per layer, traced ({traced_samples['traced_passes']} "
              f"passes; values per pass)")
        for m in spec["per_layer"]:
            v = traced["metrics"][m["name"]]
            print(f"  {m['name']:<52} {v['value']:>12.6g} {v['unit']}")
    if args.out:
        machine = (f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}")
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "machine": machine,
             "results": results}, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: result file")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        _setup_only(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return _all(args)
    return _bench(args)


if __name__ == "__main__":
    sys.exit(main())
