"""Record benchmark runs of several source trees into one BENCH_<pr>.json.

Each tree is a checkout of the repository, for example a `git clone` of the
parent commit beside the working tree.  Four modes write into the same
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
  tree that sets the workload up with that tree's `benchmarks/run.py` at
  one seed, as `run.py` does: numpy imported once, then `run.SETUP_REPEATS`
  calls to `run.setup`, whose median is the sample's set-up seconds.  It
  then reports the best of `AB_PASSES` whole passes of `run_op` over the
  documents; each tree runs `AB_PROCESSES` of them.
  Trees alternate from process to process, and so does the tree that goes
  first.  A process keeps one speed mode for its whole life, so each tree's
  processes are split into a fast and a slow mode at the largest gap in its
  own sorted best-pass times, when that gap exceeds `MODE_GAP` and leaves
  two processes or more on each side.  When both trees split, fast is
  compared with fast and slow with slow; otherwise all processes form one
  mode.  Set-up seconds are split and compared the same way, by their own
  times.  `ab` holds the trees, the samples and, under `verdict`, for the
  best pass (`best_pass`) and the set-up (`setup`), per workload and mode,
  the second/first ratio of the medians, each tree's quartiles and process
  count, and the processes won (those faster than the other tree's median
  in the same mode).
- `--mode tier1`: the tier-1 suite, `python -m pytest -q --durations=10`,
  once in each tree; `tier1` holds per tree its commit, wall time, pass
  and fail counts and the ten slowest durations.
- `--mode cold`: cold-process wall times of the commands in
  `COLD_COMMANDS` (importing `lieentropy.cli`, CLI runs on catalog
  entries, and `python -c pass` as the interpreter's floor), each a fresh
  subprocess with the tree's `src` alone on `PYTHONPATH`.  One unmeasured
  run of each command warms the tree's bytecode cache; then `COLD_REPEATS`
  rounds run every command in every tree, the order of the trees
  alternating from round to round.  `cold` holds per command and tree the
  commit, the median and quartiles of the wall time, and the median less
  the floor's median; and per command the second/first ratio of those
  differences.

    python3 tools/bench_record.py --pr 25 --tree parent=../parent --tree change=. \\
        --seeds 1-10 --out BENCH_25.json
    python3 tools/bench_record.py --pr 25 --tree parent=../parent --tree change=. \\
        --mode ab --seeds 51
    python3 tools/bench_record.py --pr 25 --tree parent=../parent --tree change=. --mode tier1
    python3 tools/bench_record.py --pr 25 --tree parent=../parent --tree change=. --mode cold

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
# the smallest ratio between neighbouring sorted times (best pass or set-up)
# that splits one tree's A/B processes into a fast and a slow mode
MODE_GAP = 1.2
# rounds of cold-process runs per tree, and the commands, as arguments to
# the interpreter; "floor" starts the interpreter and nothing else
COLD_REPEATS = 15
COLD_COMMANDS = {
    "floor": ["-c", "pass"],
    "import": ["-c", "import lieentropy.cli"],
    "validate": ["-m", "lieentropy.cli", "validate", "--catalog", "euclidean-e2"],
    "entropy": ["-m", "lieentropy.cli", "entropy", "--catalog", "euclidean-e2"],
    "analyze": ["-m", "lieentropy.cli", "analyze", "--catalog", "euclidean-e2"],
    "entropy-cat-map": ["-m", "lieentropy.cli", "entropy", "--catalog", "cat-map"],
    "estimate-cat-map": ["-m", "lieentropy.cli", "estimate", "--catalog", "cat-map"],
}

# One A/B sample, run from the root of a tree: set the workload up with the
# tree's own benchmarks/run.py as run.py does, and print the median set-up
# and the best of N whole passes.
_AB_CHILD = """
import json, math, os, shutil, statistics, sys, time
sys.path.insert(0, "benchmarks")
sys.dont_write_bytecode = True
import run
sys.path.insert(0, str(run.SRC))
import numpy
workload, seed, passes = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
workdir = run.ROOT / ".bench_work" / f"ab-{workload}-{os.getpid()}"
try:
    setups = []
    for _ in range(run.SETUP_REPEATS):
        start = time.perf_counter()
        lib, ops = run.setup(workload, seed, workdir)
        setups.append(time.perf_counter() - start)
    best = math.inf
    for _ in range(passes):
        start = time.perf_counter()
        results = [run.run_op(lib, op) for op in ops]
        best = min(best, time.perf_counter() - start)
    wrong = run.check(results)
finally:
    shutil.rmtree(workdir, ignore_errors=True)
print(json.dumps({"best_pass_s": best, "setup_s": statistics.median(setups),
                  "ops": len(ops), "correct": not wrong,
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


def ab_verdict(samples: list[dict], labels: tuple[str, str], key: str = "best_pass_s") -> dict:
    """workload -> mode -> the second/first ratio of the median of the
    samples' `key` seconds, and per tree its quartiles, process count and
    processes won.  Each tree is split into speed modes by its own times,
    and fast is compared with fast and slow with slow; when only one tree
    splits, each tree is one mode 'all'."""
    verdict: dict = {}
    for workload in dict.fromkeys(s["workload"] for s in samples):
        times = {label: [s[key] for s in samples
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
                      f"{sample['best_pass_s'] * 1e3:.2f} ms, set-up "
                      f"{sample['setup_s'] * 1e3:.2f} ms", file=sys.stderr)
    labels = (trees[0][0], trees[1][0])
    verdict = {name: ab_verdict(samples, labels, f"{name}_s") for name in ("best_pass", "setup")}
    return {"trees": info, "seed": seed, "passes": AB_PASSES, "processes": AB_PROCESSES,
            "mode_gap": MODE_GAP, "ratio": f"{labels[1]}/{labels[0]}", "verdict": verdict,
            "samples": samples}


def run_cold(tree: Path, argv: list[str]) -> float:
    """Wall seconds of one fresh interpreter running argv in the tree, with
    its `src` alone on PYTHONPATH and bytecode written and read."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    start = time.perf_counter()
    result = subprocess.run([sys.executable, *argv], cwd=tree, env=env, capture_output=True)
    seconds = time.perf_counter() - start
    if result.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(argv)} exited {result.returncode}: "
                           f"{result.stderr.decode(errors='replace').strip()[-500:]}")
    return seconds


def record_cold(trees) -> dict:
    info = {label: _tree_info(tree) for label, tree in trees}
    for _, tree in trees:  # warm each tree's bytecode cache, unmeasured
        for argv in COLD_COMMANDS.values():
            run_cold(tree, argv)
    samples = []
    for index in range(COLD_REPEATS):
        order = trees if index % 2 == 0 else trees[::-1]
        for command, argv in COLD_COMMANDS.items():
            for position, (label, tree) in enumerate(order):
                samples.append({"tree": label, "command": command, "round": index,
                                "position": position, "seconds": run_cold(tree, argv)})
    labels = (trees[0][0], trees[1][0])
    summary: dict = {}
    for command in COLD_COMMANDS:
        for label in labels:
            xs = [s["seconds"] for s in samples if s["command"] == command and s["tree"] == label]
            summary.setdefault(command, {})[label] = {"commit": info[label]["commit"],
                                                      **_quartiles(xs)}
    floor = {label: summary["floor"][label]["median"] for label in labels}
    for command, by_tree in summary.items():
        for label, entry in by_tree.items():
            entry["over_floor"] = entry["median"] - floor[label]
            print(f"cold {command} {label}: median {entry['median'] * 1e3:.1f} ms, "
                  f"{entry['over_floor'] * 1e3:.1f} ms over the floor", file=sys.stderr)
    # a difference at or below the floor's noise has no meaningful ratio
    ratios = {command: (by_tree[labels[1]]["over_floor"] / by_tree[labels[0]]["over_floor"]
                        if by_tree[labels[0]]["over_floor"] > 0 else None)
              for command, by_tree in summary.items() if command != "floor"}
    return {"trees": info, "repeats": COLD_REPEATS, "commands": COLD_COMMANDS,
            "ratio": f"{labels[1]}/{labels[0]} of the medians over the floor",
            "over_floor_ratio": ratios, "summary": summary, "samples": samples}


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
    parser.add_argument("--mode", choices=("runs", "ab", "tier1", "cold"), default="runs")
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
    if args.mode in ("ab", "cold") and len(trees) != 2:
        parser.error(f"--mode {args.mode} compares two trees")
    if args.mode == "ab":
        if len(seeds) != 1:
            parser.error("--mode ab takes one seed")
        record["ab"] = record_ab(trees, seeds[0])
    elif args.mode == "tier1":
        record["tier1"] = record_tier1(trees)
    elif args.mode == "cold":
        record["cold"] = record_cold(trees)
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
