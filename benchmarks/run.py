"""Benchmark of the lieentropy CLI: three workloads, timed end to end and,
in a separate traced run, per layer.

    python3 benchmarks/run.py --workload lie-analyze --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports `lieentropy` from `src/`
without an install.  The loop is closed: one client, one process, no
threads, and BLAS pinned to one thread.  Set-up generates the workload's
documents from the seed, computes their reference answers and warms up; it
is repeated and its median reported.  The timed loop then runs whole passes
over the documents through `lieentropy.cli.main`, as many as fit in
`--seconds`; every answer is checked after the loop.  `--trace 1` splits
the time between an untraced loop and a loop with spans around each
layer's public functions, and prints the per-layer metrics instead of the
end-to-end ones.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
MIN_TAIL_BEYOND = 10
# Seconds one pass over a workload's documents took when the benchmark was
# defined (2-core KVM guest, Python 3.11.7).  A run makes as many whole
# passes as fit in --seconds at that speed, so that every run of a workload
# times the same ops, whatever the machine's momentary speed, and its
# percentiles rest on the same sample count.
PASS_SECONDS = {"lie-analyze": 6.5, "torus-entropy": 36.0, "estimate-falsify": 4.9}

E2E_UNITS = {
    "answers_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "answered_share": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer metrics that are shares or counts rather than seconds
LAYER_UNITS = {"mahler.certified_share": "fraction", "mahler.exact_zero_share": "fraction",
               "estimator.centers": "count", "trace.overhead_share": "fraction"}
# input sizes of each workload, for the scale.<workload>.<size>.op_s curves
SCALE_SIZES = {
    "lie-analyze": (2, 3, 4, 5, 7, 9, 10, 11, 13),
    "torus-entropy": (4, 8, 9, 11, 12, 16, 20),
    "estimate-falsify": (4096, 65536, 262144, 1048576),
}


class Library:
    """The freshly imported program modules one set-up works with."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "lieentropy" or n.startswith("lieentropy.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("lieentropy.cli")
        self.catalog = sys.modules["lieentropy.catalog"]
        self.groups = sys.modules["lieentropy.groups"]
        self.estimator = sys.modules["lieentropy.estimator"]


@dataclass
class Result:
    op: object
    seconds: float
    code: int | None          # None when cli.main raised
    stdout: str
    stderr: str
    pairs: list | None = None
    problems: tuple = ()

    @property
    def answered(self) -> bool:
        return self.code == 0 and not self.problems


def setup(workload, seed, workdir):
    """One complete set-up: fresh import, documents, references, warm-up."""
    from workloads import build
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    lib = Library()
    ops = build(workload, seed, lib, workdir)
    warm = min(ops, key=lambda op: op.size)
    run_op(lib, warm)
    return lib, ops


def run_op(lib, op, tracer=None, op_id=None) -> Result:
    out, err = io.StringIO(), io.StringIO()
    pairs = None

    def call():
        nonlocal pairs
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(op.argv)
            if op.pairs is not None:
                rows, seed = op.pairs
                dynamics = lib.estimator.GridDynamics.from_rows(rows)
                pairs = lib.estimator.li_yorke_search(dynamics, seed=seed)
        return code

    start = time.perf_counter()
    try:
        code = tracer.root(op_id, call) if tracer else call()
    except Exception as exc:  # a crash is a failed op, recorded with its message
        code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    return Result(op, seconds, code, out.getvalue(), err.getvalue(), pairs)


def timed_loop(lib, ops, passes, tracer=None):
    """`passes` whole passes over the ops.  Returns the results and the
    loop's wall time."""
    results = []
    start = time.perf_counter()
    for _ in range(passes):
        for op in ops:
            results.append(run_op(lib, op, tracer, len(results)))
    return results, time.perf_counter() - start


def check(results):
    """Answer checks, outside the timed loop.  Returns the descriptions of
    wrong answers (an answer that disagrees with its reference)."""
    wrong = []
    for r in results:
        if r.code != 0:
            continue
        try:
            problems = r.op.check(json.loads(r.stdout), r.pairs)
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc}"]
        r.problems = tuple(problems)
        if problems:
            wrong.append(f"{r.op.name}: " + "; ".join(problems))
    return wrong


def ranked(results):
    """Results by op time, with failed ops ranked slower than every success."""
    return sorted(results, key=lambda r: (not r.answered, r.seconds))


def tail(results):
    """Highest percentile with at least MIN_TAIL_BEYOND samples beyond it.
    Returns (percentile, value, sample count, whether that op failed)."""
    order = ranked(results)
    n = len(order)
    index = max(n - 1 - MIN_TAIL_BEYOND, 0)
    return 100.0 * (index + 1) / n, order[index].seconds, n, not order[index].answered


def end_to_end(results, loop_s, setup_s):
    answered = sum(r.answered for r in results)
    return {
        "answers_per_s": answered / loop_s,
        "op_p50_s": ranked(results)[(len(results) - 1) // 2].seconds,
        "op_tail_s": tail(results)[1],
        "answered_share": answered / len(results),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def scale(workload, results):
    out = {}
    for w, sizes in SCALE_SIZES.items():
        for size in sizes:
            times = [r.seconds for r in results if r.op.size == size]
            out[f"scale.{w}.{size}.op_s"] = (
                statistics.median(times) if w == workload and times else 0.0)
    return out


def failures_table(results):
    seen = Counter()
    for r in results:
        if r.answered:
            continue
        if r.code is None:
            what = f"raised {r.stderr.strip()}"
        elif r.code != 0:
            what = f"exit {r.code}: {r.stderr.strip()}"
        else:
            what = "wrong answer: " + "; ".join(r.problems)
        seen[(r.op.name, what)] += 1
    return [f"  failed  {name} x{count}  {what}" for (name, what), count in seen.items()]


def print_e2e(workload, seed, metrics, results, passes):
    pct, _, n, failed_there = tail(results)
    failed = sum(not r.answered for r in results)
    print(f"workload {workload}  seed {seed}  ops {n} in {passes} passes")
    for name, unit in E2E_UNITS.items():
        note = ""
        if name == "op_tail_s":
            note = f"  (p{pct:.1f} of {n} ops{', a failed op' if failed_there else ''})"
        print(f"  {name:<16} {metrics[name]:.6g} {unit}{note}")
    print(f"  {'failed_share':<16} {failed / n:.6g} fraction  ({failed} of {n} ops)")
    for line in failures_table(results):
        print(line)


def print_layers(values, totals, workload):
    from tracing import LAYERS
    print("per-layer metrics (median per op over the traced loop)")
    for name, value in values.items():
        if name.startswith("scale.") and not name.startswith(f"scale.{workload}."):
            continue
        print(f"  {name:<44} {value:.6g} {LAYER_UNITS.get(name, _unit(name))}")
    print("layer self time, summed over the traced ops")
    total = totals["op"]
    for layer in LAYERS:
        share = totals[layer] / total if total else 0.0
        print(f"  {layer:<12} {totals[layer]:10.4f} s  {100 * share:5.1f}%")
    summed = sum(totals[layer] for layer in totals if layer != "op")
    print(f"  {'sum':<12} {summed:10.4f} s  traced op time {total:.4f} s  "
          f"remainder {total - summed:.2e} s (bench.self_s is the benchmark's own code)")


def _unit(name):
    return "count" if name.endswith(".calls") else "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lie-analyze", "torus-entropy", "estimate-falsify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lieentropy" / "cli.py").is_file():
        print(f"error: no lieentropy sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        # numpy is imported once per process, before the set-ups it is
        # shared by; each set-up re-imports lieentropy itself
        import numpy  # noqa: F401
        repeats = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            lib, ops = setup(args.workload, args.seed, workdir)
            repeats.append(time.perf_counter() - start)
        setup_s = statistics.median(repeats)
        gc.collect()

        # a traced run splits its time between an untraced and a traced loop
        budget = args.seconds / 2 if args.trace else args.seconds
        passes = max(1, int(budget // PASS_SECONDS[args.workload]))
        results, loop_s = timed_loop(lib, ops, passes)
        wrong = check(results)
        if not args.trace:
            metrics = end_to_end(results, loop_s, setup_s)
            print_e2e(args.workload, args.seed, metrics, results, passes)
            units = E2E_UNITS
            attempted, failed = len(results), sum(not r.answered for r in results)
        else:
            from tracing import Tracer, layer_metrics
            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_s = timed_loop(lib, ops, passes, tracer)
            finally:
                tracer.uninstall()
            wrong += check(traced)
            values, totals = layer_metrics(tracer.spans)
            untraced_rate = sum(r.answered for r in results) / loop_s
            traced_rate = sum(r.answered for r in traced) / traced_s
            values["trace.overhead_share"] = (
                1.0 - traced_rate / untraced_rate if untraced_rate else 0.0)
            values.update(scale(args.workload, results))
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            tracer.write(out / f"spans-{args.workload}-seed{args.seed}.tsv")
            print_layers(values, totals, args.workload)
            metrics = values
            units = {name: LAYER_UNITS.get(name, _unit(name)) for name in values}
            both = results + traced
            attempted, failed = len(both), sum(not r.answered for r in both)
        for line in wrong:
            print(f"  WRONG {line}")
        print(json.dumps({
            "correct": not wrong,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
