"""Record benchmark runs of several source trees into one BENCH_<pr>.json.

Each tree is a checkout of the repository, for example a `git clone` of the
parent commit beside the working tree.  Three modes write into the same
file, each under its own keys and with the commits it ran, keeping what the
others wrote:

- `--mode runs` (the default): for every seed and workload the recorder runs
  each tree's own `benchmarks/run.py` as a subprocess, from the root of that
  tree, and reads the one JSON object the run prints on its last stdout
  line.  The order of the trees alternates from seed to seed, so that a
  drift in the machine's speed does not fall on one tree only.  It writes,
  per run, the tree, its commit, the workload, the seed, the run's wall time
  and its metrics (end to end under `--trace 0`, per layer under
  `--trace 1`) into `runs`, per workload, metric and tree the median and
  quartiles over the seeds into `summary`, and the trees into `trees`.
- `--mode ab`: a fresh-process A/B of exactly two trees, the first the
  baseline, over every workload.  Each sample is a new subprocess in one
  tree that sets the workload up once with that tree's `benchmarks/run.py`
  (`setup`, then `run_op` over the documents) at one seed, and reports the
  best of `AB_PASSES` whole passes; each tree runs `AB_PROCESSES` of them.
  Trees alternate from process to process, and so does the tree that goes
  first.  A process keeps one speed mode for its whole life, so each tree's
  processes are split into a fast and a slow mode at the largest gap in its
  own sorted best-pass times, when that gap exceeds `MODE_GAP` and leaves
  two processes or more on each side.  When both trees split, fast is
  compared with fast and slow with slow; otherwise all processes form one
  mode.  `ab` holds the trees, the samples and, per workload and mode, the
  second/first ratio of the median best pass, each tree's quartiles and
  process count, and the processes won (those faster than the other
  tree's median in the same mode).
- `--mode tier1`: the tier-1 suite, `python -m pytest -q --durations=10`,
  once in each tree; `tier1` holds per tree its commit, wall time, pass
  and fail counts and the ten slowest durations.

    python3 tools/bench_record.py --pr 25 --tree parent=../parent --tree change=. \\
        --seeds 1-10 --out BENCH_25.json
    python3 tools/bench_record.py --pr 25 --tree parent=../parent --tree change=. \\
        --mode ab --seeds 51
    python3 tools/bench_record.py --pr 25 --tree parent=../parent --tree change=. --mode tier1

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("lie-analyze", "torus-entropy", "estimate-falsify")
# fresh processes per tree and workload in an A/B, and whole passes per
# process, of which the best one counts
AB_PROCESSES = 22
AB_PASSES = 15
# the smallest ratio between neighbouring sorted best-pass times that splits
# one tree's A/B processes into a fast and a slow mode
MODE_GAP = 1.2

# One A/B sample, run from the root of a tree: set the workload up with the
# tree's own benchmarks/run.py and print the best of N whole passes.
_AB_CHILD = """
import json, math, os, shutil, sys, time
sys.path.insert(0, "benchmarks")
sys.dont_write_bytecode = True
import run
sys.path.insert(0, str(run.SRC))
workload, seed, passes = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
workdir = run.ROOT / ".bench_work" / f"ab-{workload}-{os.getpid()}"
try:
    lib, ops = run.setup(workload, seed, workdir)
    best = math.inf
    for _ in range(passes):
        start = time.perf_counter()
        results = [run.run_op(lib, op) for op in ops]
        best = min(best, time.perf_counter() - start)
    wrong = run.check(results)
finally:
    shutil.rmtree(workdir, ignore_errors=True)
print(json.dumps({"best_pass_s": best, "ops": len(ops), "correct": not wrong,
                  "failed": sum(not r.answered for r in results)}))
"""


def _git(tree: Path, *args) -> str | None:
    result = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else None


def _tree_info(tree: Path) -> dict:
    """The commit a tree is at, the git tree id of its `src/` (equal for two
    commits with the same sources), and whether it has uncommitted changes."""
    status = _git(tree, "status", "--porcelain", "--untracked-files=no")
    return {"commit": _git(tree, "rev-parse", "HEAD"),
            "src_tree": _git(tree, "rev-parse", "HEAD:src"),
            "dirty": bool(status) if status is not None else None}


def _seeds(text: str) -> list[int]:
    """'1-10' or '1,4,7' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    result = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {' '.join(argv[1:])} exited {result.returncode}: "
                           f"{result.stderr.strip()[-500:]}")
    record = json.loads(lines[-1])
    return {"seconds": wall,
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: m["value"] for name, m in record["metrics"].items()}}


def summarize(runs: list[dict]) -> dict:
    """workload -> metric -> tree -> median, quartiles and run count."""
    values: dict = {}
    for run in runs:
        for name, value in run["metrics"].items():
            values.setdefault(run["workload"], {}).setdefault(name, {}).setdefault(
                run["tree"], []).append(value)
    summary: dict = {}
    for workload, metrics in values.items():
        for name, trees in metrics.items():
            for tree, xs in trees.items():
                summary.setdefault(workload, {}).setdefault(name, {})[tree] = _quartiles(xs)
    return summary


def _quartiles(xs) -> dict:
    q1, q2, q3 = (statistics.quantiles(xs, n=4, method="inclusive")
                  if len(xs) > 1 else (xs[0],) * 3)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(xs)}


def run_ab_sample(tree: Path, workload: str, seed: int, passes: int) -> dict:
    argv = [sys.executable, "-c", _AB_CHILD, workload, str(seed), str(passes)]
    result = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: A/B sample of {workload} exited {result.returncode}: "
                           f"{result.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def speed_modes(times: list[float]) -> dict[str, list[float]]:
    """One tree's sorted times by speed mode: 'fast' up to the largest gap
    between neighbouring times and 'slow' beyond, when that gap is a ratio
    above MODE_GAP and leaves at least two processes on each side (one
    process is no mode); else the one mode 'all'."""
    xs = sorted(times)
    gaps = [(xs[i + 1] / xs[i], i + 1) for i in range(1, len(xs) - 2) if xs[i] > 0]
    ratio, cut = max(gaps, default=(1.0, 0))
    if ratio <= MODE_GAP:
        return {"all": xs}
    return {"fast": xs[:cut], "slow": xs[cut:]}


def ab_verdict(samples: list[dict], labels: tuple[str, str]) -> dict:
    """workload -> mode -> the second/first ratio of the median best pass,
    and per tree its quartiles, process count and processes won.  Each tree
    is split into speed modes by its own times, and fast is compared with
    fast and slow with slow; when only one tree splits, each tree is one
    mode 'all'."""
    verdict: dict = {}
    for workload in dict.fromkeys(s["workload"] for s in samples):
        times = {label: [s["best_pass_s"] for s in samples
                         if s["workload"] == workload and s["tree"] == label]
                 for label in labels}
        modes = {label: speed_modes(xs) for label, xs in times.items()}
        if modes[labels[0]].keys() != modes[labels[1]].keys():
            modes = {label: {"all": sorted(xs)} for label, xs in times.items()}
        for mode in modes[labels[0]]:
            inside = {label: modes[label][mode] for label in labels}
            trees = {label: _quartiles(xs) for label, xs in inside.items()}
            for label, other in (labels, labels[::-1]):
                trees[label]["won"] = sum(t < trees[other]["median"] for t in inside[label])
            ratio = trees[labels[1]]["median"] / trees[labels[0]]["median"]
            verdict.setdefault(workload, {})[mode] = {"ratio": ratio, "trees": trees}
    return verdict


def record_ab(trees, seed: int) -> dict:
    info = {label: _tree_info(tree) for label, tree in trees}
    samples = []
    for workload in WORKLOADS:
        for index in range(AB_PROCESSES):
            order = trees if index % 2 == 0 else trees[::-1]
            for position, (label, tree) in enumerate(order):
                sample = run_ab_sample(tree, workload, seed, AB_PASSES)
                samples.append({"tree": label, "workload": workload, "process": index,
                                "position": position, **sample})
                print(f"ab {workload} process {index} {label}: best pass "
                      f"{sample['best_pass_s'] * 1e3:.2f} ms", file=sys.stderr)
    labels = (trees[0][0], trees[1][0])
    return {"trees": info, "seed": seed, "passes": AB_PASSES, "processes": AB_PROCESSES,
            "mode_gap": MODE_GAP, "ratio": f"{labels[1]}/{labels[0]}", "verdict": ab_verdict(samples, labels),
            "samples": samples}


def parse_pytest(stdout: str) -> dict:
    """Pass and fail counts and the --durations lines of a `pytest -q` run."""
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error)", stdout)}
    durations = [[float(t), when, test] for t, when, test in
                 re.findall(r"^(\d+\.\d+)s (call|setup|teardown) +(\S+)$", stdout, re.M)]
    return {"passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0),
            "durations": durations}


def record_tier1(trees) -> dict:
    out = {}
    for label, tree in trees:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(tree / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        argv = [sys.executable, "-m", "pytest", "-q", "--durations=10", "-p", "no:cacheprovider"]
        info = _tree_info(tree)
        start = time.perf_counter()
        result = subprocess.run(argv, cwd=tree, capture_output=True, text=True, env=env)
        out[label] = {**info, "wall_s": time.perf_counter() - start,
                      "exit": result.returncode, **parse_pytest(result.stdout)}
        print(f"tier1 {label}: {out[label]['wall_s']:.1f} s, {out[label]['passed']} passed, "
              f"{out[label]['failed']} failed", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="the number in BENCH_<pr>.json")
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=PATH",
                        help="a labelled checkout to run; give one per tree, in order")
    parser.add_argument("--mode", choices=("runs", "ab", "tier1"), default="runs")
    parser.add_argument("--seeds", help="e.g. 1-10 or 1,3,5 (default 1-10; "
                                        "--mode ab takes one seed, default 1)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="run length passed to benchmarks/run.py (default 40)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="output file (default BENCH_<pr>.json)")
    args = parser.parse_args(argv)

    trees = []
    for spec in args.tree:
        label, sep, path = spec.partition("=")
        if not sep or not label or not path:
            parser.error(f"--tree expects LABEL=PATH, got {spec!r}")
        tree = Path(path).resolve()
        if not (tree / "benchmarks" / "run.py").is_file():
            parser.error(f"no benchmarks/run.py under {path}")
        trees.append((label, tree))
    if len({label for label, _ in trees}) != len(trees):
        parser.error("tree labels must differ")
    seeds = _seeds(args.seeds or ("1" if args.mode == "ab" else "1-10"))
    out = Path(args.out or f"BENCH_{args.pr}.json")
    record = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else {}
    record.update({
        "pr": args.pr,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
    })
    if args.mode == "ab":
        if len(trees) != 2 or len(seeds) != 1:
            parser.error("--mode ab compares two trees at one seed")
        record["ab"] = record_ab(trees, seeds[0])
    elif args.mode == "tier1":
        record["tier1"] = record_tier1(trees)
    else:
        record["trees"] = {label: _tree_info(tree) for label, tree in trees}
        runs = []
        for index, seed in enumerate(seeds):
            order = trees if index % 2 == 0 else trees[::-1]
            for workload in WORKLOADS:
                for position, (label, tree) in enumerate(order):
                    run = run_once(tree, workload, seed, args.seconds, args.trace)
                    runs.append({"tree": label, "commit": record["trees"][label]["commit"],
                                 "workload": workload, "seed": seed, "position": position,
                                 **run})
                    print(f"{workload} seed {seed} {label}: {run['seconds']:.1f} s, "
                          f"failed {run['failed']}/{run['attempted']}", file=sys.stderr)
        record["command"] = ["benchmarks/run.py", "--seconds", args.seconds,
                             "--trace", args.trace]
        record["runs"] = runs
        record["summary"] = summarize(runs)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
