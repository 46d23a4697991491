"""Record benchmark runs of several source trees into one BENCH_<pr>.json.

Each tree is a checkout of the repository, for example a `git clone` of the
parent commit beside the working tree.  Every sample is a fresh interpreter
started at the root of one tree.  Samples run round by round, and in a
round item by item, each item once in every tree; the tree that goes first
alternates from round to round, so that a drift in the machine's speed does
not fall on one tree only.  Four modes write into the same file, each under
its own keys and with the commits it ran, keeping what the others wrote:

- `--mode runs` (the default): per seed (the rounds) and workload, each
  tree's own `benchmarks/run.py`, whose last stdout line is one JSON object.
  Run length and workloads are `run_seconds` and `workloads` of this
  checkout's `BENCHMARK.json`.  `runs` holds per run the tree, its commit,
  the workload, the seed, the wall time and the metrics (end to end under
  `--trace 0`, per layer under `--trace 1`); `summary` per workload, metric
  and tree the median and quartiles over the seeds; `trees` the trees.
- `--mode ab`: a fresh-process A/B of exactly two trees, the first the
  baseline, workload by workload.  Each sample sets the workload up at one
  seed with its tree's `benchmarks/run.py`, as `run.py` does (numpy imported
  once, then `run.SETUP_REPEATS` calls to `run.setup`, whose median is the
  sample's set-up seconds), and reports the best of `AB_PASSES` whole passes
  of `run_op` over the documents; each tree runs `AB_PROCESSES` of them (the
  rounds).  A process keeps one speed mode for its whole life, so each
  tree's processes are split into a fast and a slow mode at the largest gap
  in its own sorted best-pass times, when that gap exceeds `MODE_GAP` and
  leaves two processes or more on each side.  When both trees split, fast
  is compared with fast and slow with slow; else all processes form one
  mode.  Set-up seconds are split and compared the same way, by their own
  times.  `ab` holds the trees, the samples and, under `verdict`, for the
  best pass (`best_pass`) and the set-up (`setup`), per workload and mode,
  the second/first ratio of the medians, each tree's quartiles, process
  count and processes won (those faster than the other tree's median in
  the same mode).
- `--mode tier1`: the tier-1 suite as CI runs it, `python -m pytest -q
  --continue-on-collection-errors --durations=10`, once in each tree;
  `tier1` holds per tree its commit, wall time, exit status, pass and fail
  counts and the ten slowest durations.
- `--mode cold`: the commands in `COLD_COMMANDS` (importing `lieentropy.cli`,
  CLI runs on catalog entries, and `python -c pass` as the interpreter's
  floor), with the tree's `src` alone on `PYTHONPATH`.  One unmeasured run
  of each warms the tree's bytecode cache; then `COLD_REPEATS` rounds run
  every command in every tree.  `cold` holds per command and tree the
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
import tempfile
import time
from pathlib import Path

_BENCHMARK = json.loads(Path(__file__).resolve().parents[1].joinpath("BENCHMARK.json").read_text())
RUN_SECONDS = float(_BENCHMARK["run_seconds"])
WORKLOADS = tuple(workload["name"] for workload in _BENCHMARK["workloads"])
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


def _git(tree: Path, *args, env=None) -> str | None:
    done = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True, env=env)
    return done.stdout.strip() if done.returncode == 0 else None


def _tree_info(tree: Path) -> dict:
    """The commit a tree is at, the git tree id of the `src/` that runs, by
    a temporary index (equal for two trees with the same sources, committed
    or not), and whether it has uncommitted changes to tracked files."""
    status = _git(tree, "status", "--porcelain", "--untracked-files=no")
    with tempfile.TemporaryDirectory() as scratch:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(scratch, "index"))
        _git(tree, "add", "-A", "src", env=env)  # on failure the index lacks src/
        src_tree = _git(tree, "write-tree", "--prefix=src/", env=env)
    return {"commit": _git(tree, "rev-parse", "HEAD"), "src_tree": src_tree,
            "dirty": bool(status) if status is not None else None}


def _seeds(text: str) -> list[int]:
    """'1-10' or '1,4,7' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_child(tree: Path, argv: list[str], env=None, check: bool = True):
    """(wall seconds, finished process) of a fresh interpreter running argv at
    the tree's root; with `check`, a failing exit raises with stderr's tail."""
    start = time.perf_counter()
    result = subprocess.run([sys.executable, *argv], cwd=tree, env=env, capture_output=True,
                            text=True, errors="replace")
    seconds = time.perf_counter() - start
    if check and result.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(argv)} exited {result.returncode}: "
                           f"{result.stderr.strip()[-500:]}")
    return seconds, result


def sampler(trees, rounds, items, argv, env=None, check: bool = True):
    """(round, item, position, label, *run_child(tree, argv(round, item),
    env(tree))) per round, item and tree, in that nesting; the tree that
    goes first alternates from round to round."""
    for index, round_ in enumerate(rounds):
        order = trees if index % 2 == 0 else trees[::-1]
        for item in items:
            for position, (label, tree) in enumerate(order):
                yield (round_, item, position, label,
                       *run_child(tree, argv(round_, item), env and env(tree), check))


def by_tree(triples) -> dict:
    """group -> tree -> values from (group, tree, value) triples, in order."""
    grouped: dict = {}
    for group, tree, value in triples:
        grouped.setdefault(group, {}).setdefault(tree, []).append(value)
    return grouped


def summarize(runs: list[dict]) -> dict:
    """workload -> metric -> tree -> median, quartiles and run count."""
    summary: dict = {}
    for (workload, name), by_label in by_tree(((run["workload"], name), run["tree"], value)
                                              for run in runs
                                              for name, value in run["metrics"].items()).items():
        summary.setdefault(workload, {})[name] = {k: _quartiles(xs) for k, xs in by_label.items()}
    return summary


def _quartiles(xs) -> dict:
    q1, q2, q3 = (statistics.quantiles(xs, n=4, method="inclusive")
                  if len(xs) > 1 else (xs[0],) * 3)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(xs)}


def record_runs(trees, info, seeds: list[int], trace: int) -> dict:
    runs = []
    for seed, workload, position, label, seconds, process in sampler(
            trees, seeds, WORKLOADS, lambda seed, workload: [
                "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(RUN_SECONDS), "--trace", str(trace)]):
        out = json.loads(process.stdout.splitlines()[-1])
        runs.append({"tree": label, "commit": info[label]["commit"], "workload": workload,
                     "seed": seed, "position": position, "seconds": seconds,
                     **{key: out[key] for key in ("correct", "attempted", "failed")},
                     "metrics": {name: m["value"] for name, m in out["metrics"].items()}})
        print(f"{workload} seed {seed} {label}: {seconds:.1f} s, "
              f"failed {out['failed']}/{out['attempted']}", file=sys.stderr)
    return {"trees": info, "command": ["benchmarks/run.py", "--seconds", RUN_SECONDS, "--trace",
                                       trace], "runs": runs, "summary": summarize(runs)}


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
    for workload, times in by_tree((s["workload"], s["tree"], s[key]) for s in samples).items():
        modes = {label: speed_modes(times[label]) for label in labels}
        if modes[labels[0]].keys() != modes[labels[1]].keys():
            modes = {label: {"all": sorted(times[label])} for label in labels}
        for mode in modes[labels[0]]:
            inside = {label: modes[label][mode] for label in labels}
            trees = {label: _quartiles(xs) for label, xs in inside.items()}
            for label, other in (labels, labels[::-1]):
                trees[label]["won"] = sum(t < trees[other]["median"] for t in inside[label])
            ratio = trees[labels[1]]["median"] / trees[labels[0]]["median"]
            verdict.setdefault(workload, {})[mode] = {"ratio": ratio, "trees": trees}
    return verdict


def record_ab(trees, info, seed: int) -> dict:
    samples = []
    for workload in WORKLOADS:
        for index, _, position, label, _, process in sampler(
                trees, range(AB_PROCESSES), [workload],
                lambda _, workload: ["-c", _AB_CHILD, workload, str(seed), str(AB_PASSES)]):
            sample = json.loads(process.stdout.splitlines()[-1])
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


def record_cold(trees, info) -> dict:
    argv = lambda _, name: COLD_COMMANDS[name]
    # the tree's src alone on PYTHONPATH, and bytecode written and read (an
    # empty PYTHONDONTWRITEBYTECODE is unset)
    env = lambda tree: dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="")
    list(sampler(trees, [None], COLD_COMMANDS, argv, env))  # warm the bytecode caches
    samples = [{"tree": label, "command": name, "round": index, "position": position,
                "seconds": seconds}
               for index, name, position, label, seconds, _ in sampler(
                   trees, range(COLD_REPEATS), COLD_COMMANDS, argv, env)]
    labels = (trees[0][0], trees[1][0])
    summary = {command: {label: {"commit": info[label]["commit"], **_quartiles(xs)}
                         for label, xs in by_label.items()}
               for command, by_label in by_tree(
                   (s["command"], s["tree"], s["seconds"]) for s in samples).items()}
    floor = {label: summary["floor"][label]["median"] for label in labels}
    for command, by_label in summary.items():
        for label, entry in by_label.items():
            entry["over_floor"] = entry["median"] - floor[label]
            print(f"cold {command} {label}: median {entry['median'] * 1e3:.1f} ms, "
                  f"{entry['over_floor'] * 1e3:.1f} ms over the floor", file=sys.stderr)
    # a difference at or below the floor's noise has no meaningful ratio
    ratios = {command: (by_label[labels[1]]["over_floor"] / by_label[labels[0]]["over_floor"]
                        if by_label[labels[0]]["over_floor"] > 0 else None)
              for command, by_label in summary.items() if command != "floor"}
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


def record_tier1(trees, info) -> dict:
    argv = lambda *_: ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10"]
    env = lambda tree: dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tree / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = {}
    for _, _, _, label, seconds, process in sampler(trees, [0], [None], argv, env, check=False):
        out[label] = {**info[label], "wall_s": seconds, "exit": process.returncode,
                      **parse_pytest(process.stdout)}
        print(f"tier1 {label}: {seconds:.1f} s, {out[label]['passed']} passed, "
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
    record.update(pr=args.pr, host={"python": platform.python_version(),
                                    "machine": platform.machine(), "cpus": os.cpu_count()})
    if args.mode in ("ab", "cold") and len(trees) != 2:
        parser.error(f"--mode {args.mode} compares two trees")
    if args.mode == "ab" and len(seeds) != 1:
        parser.error("--mode ab takes one seed")
    info = {label: _tree_info(tree) for label, tree in trees}
    if args.mode == "ab":
        record["ab"] = record_ab(trees, info, seeds[0])
    elif args.mode == "tier1":
        record["tier1"] = record_tier1(trees, info)
    elif args.mode == "cold":
        record["cold"] = record_cold(trees, info)
    else:
        record.update(record_runs(trees, info, seeds, args.trace))
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
