"""Record benchmark runs of several source trees into one BENCH_<pr>.json.

Each tree is a checkout of the repository, for example a `git clone` of the
parent commit beside the working tree.  For every seed and workload the
recorder runs each tree's own `benchmarks/run.py` as a subprocess, from the
root of that tree, and reads the one JSON object the run prints on its last
stdout line.  The order of the trees alternates from seed to seed, so that a
drift in the machine's speed does not fall on one tree only.

    python3 tools/bench_record.py --pr 25 --tree parent=../parent --tree change=. \\
        --seeds 1-10 --out BENCH_25.json

The output holds, per run, the tree, its commit, the workload, the seed, the
run's wall time and its metrics (end to end under `--trace 0`, per layer
under `--trace 1`), and per workload, metric and tree the median and
quartiles over the seeds.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("lie-analyze", "torus-entropy", "estimate-falsify")


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
                q1, q2, q3 = (statistics.quantiles(xs, n=4, method="inclusive")
                              if len(xs) > 1 else (xs[0],) * 3)
                summary.setdefault(workload, {}).setdefault(name, {})[tree] = {
                    "median": q2, "q1": q1, "q3": q3, "n": len(xs)}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="the number in BENCH_<pr>.json")
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=PATH",
                        help="a labelled checkout to run; give one per tree, in order")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5 (default 1-10)")
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
    info = {label: _tree_info(tree) for label, tree in trees}
    runs = []
    for index, seed in enumerate(_seeds(args.seeds)):
        order = trees if index % 2 == 0 else trees[::-1]
        for workload in WORKLOADS:
            for position, (label, tree) in enumerate(order):
                run = run_once(tree, workload, seed, args.seconds, args.trace)
                runs.append({"tree": label, "commit": info[label]["commit"],
                             "workload": workload, "seed": seed, "position": position,
                             **run})
                print(f"{workload} seed {seed} {label}: {run['seconds']:.1f} s, "
                      f"failed {run['failed']}/{run['attempted']}", file=sys.stderr)
    record = {
        "pr": args.pr,
        "command": ["benchmarks/run.py", "--seconds", args.seconds, "--trace", args.trace],
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "trees": info,
        "runs": runs,
        "summary": summarize(runs),
    }
    out = Path(args.out or f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
