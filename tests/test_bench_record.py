import importlib.util
import json
import shutil
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def test_seeds_reads_ranges_and_single_seeds():
    assert bench_record._seeds("1-3,7") == [1, 2, 3, 7]
    assert bench_record._seeds("4") == [4]
    assert bench_record._seeds("1-10") == list(range(1, 11))


def test_summarize_takes_inclusive_quartiles_per_workload_metric_and_tree():
    def run(tree, workload, **metrics):
        return {"tree": tree, "workload": workload, "metrics": metrics}

    runs = [run("before", "torus", rate=x, p50=10 * x) for x in (5, 1, 4, 2, 3)]
    runs += [run("after", "torus", rate=x, p50=10 * x) for x in (6, 8)]
    runs += [run("after", "lie", rate=7)]
    summary = bench_record.summarize(runs)
    assert summary["torus"]["rate"]["before"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert summary["torus"]["rate"]["after"] == {"median": 7.0, "q1": 6.5, "q3": 7.5, "n": 2}
    assert summary["torus"]["p50"]["before"]["median"] == 30.0
    # one run: its value is the median and both quartiles
    assert summary["lie"] == {"rate": {"after": {"median": 7, "q1": 7, "q3": 7, "n": 1}}}
    assert bench_record.summarize([]) == {}


def test_speed_modes_split_at_the_largest_gap_above_twenty_percent():
    assert bench_record.speed_modes([1.0, 1.1, 1.15, 1.05]) == {"all": [1.0, 1.05, 1.1, 1.15]}
    # 1.1 -> 1.6 is the largest gap, and it leaves two processes on each side
    assert bench_record.speed_modes([1.6, 1.0, 1.7, 1.1, 1.65]) == {
        "fast": [1.0, 1.1], "slow": [1.6, 1.65, 1.7]}
    # a lone outlier is no mode
    assert bench_record.speed_modes([1.0, 1.05, 1.1, 3.0]) == {"all": [1.0, 1.05, 1.1, 3.0]}


def _samples(tree, times):
    return [{"tree": tree, "workload": "lie", "best_pass_s": t} for t in times]


def test_ab_verdict_compares_fast_with_fast_and_slow_with_slow():
    samples = _samples("parent", (1.0, 1.1, 2.0, 2.2)) + _samples("change", (0.9, 0.95, 1.9, 2.0))
    verdict = bench_record.ab_verdict(samples, ("parent", "change"))["lie"]
    assert set(verdict) == {"fast", "slow"}
    fast, slow = verdict["fast"], verdict["slow"]
    assert fast["trees"]["parent"]["n"] == fast["trees"]["change"]["n"] == 2
    assert fast["ratio"] == 0.925 / 1.05 and slow["ratio"] == 1.95 / 2.1
    assert fast["trees"]["change"]["won"] == 2 and fast["trees"]["parent"]["won"] == 0
    # when only one tree splits, each tree is one mode
    samples = _samples("parent", (1.0, 1.1, 2.0, 2.2)) + _samples("change", (0.9, 0.95, 1.0, 2.1))
    (mode,) = bench_record.ab_verdict(samples, ("parent", "change"))["lie"].items()
    assert mode[0] == "all" and mode[1]["ratio"] == 0.975 / 1.55


def test_ab_verdict_reads_a_uniform_gain_across_the_mode_gap():
    # every change process is 1.5x faster, more than MODE_GAP apart from the
    # parent's, and neither tree has two modes of its own
    parent = [1.5, 1.52, 1.48, 1.55, 1.51, 1.49]
    samples = _samples("parent", parent) + _samples("change", [t / 1.5 for t in parent])
    (mode,) = bench_record.ab_verdict(samples, ("parent", "change"))["lie"].items()
    assert mode[0] == "all"
    assert abs(mode[1]["ratio"] - 2 / 3) < 1e-12
    assert mode[1]["trees"]["change"]["won"] == 6 and mode[1]["trees"]["parent"]["won"] == 0


def test_ab_verdict_reads_set_up_seconds_by_their_own_modes():
    # set-up seconds get their own speed modes, ratio and processes won, by
    # the same routine as the best pass
    samples = [{"tree": tree, "workload": "lie", "best_pass_s": 1.0, "setup_s": t}
               for tree, times in (("parent", (0.05, 0.052, 0.09, 0.095)),
                                   ("change", (0.04, 0.041, 0.072, 0.08)))
               for t in times]
    verdict = bench_record.ab_verdict(samples, ("parent", "change"), "setup_s")["lie"]
    assert set(verdict) == {"fast", "slow"}
    assert abs(verdict["fast"]["ratio"] - 0.0405 / 0.051) < 1e-12
    assert verdict["fast"]["trees"]["change"]["won"] == 2
    assert verdict["slow"]["trees"]["parent"]["won"] == 0
    (mode,) = bench_record.ab_verdict(samples, ("parent", "change"))["lie"].items()
    assert mode[0] == "all" and mode[1]["ratio"] == 1.0


def test_parse_pytest_reads_counts_and_durations():
    text = ("..F\n===== slowest 10 durations =====\n"
            "1.50s call     tests/test_a.py::test_x[1-2]\n0.20s setup    tests/test_b.py::test_y\n"
            "===== 2 passed, 1 failed in 3.10s =====\n")
    assert bench_record.parse_pytest(text) == {
        "passed": 2, "failed": 1,
        "durations": [[1.5, "call", "tests/test_a.py::test_x[1-2]"],
                      [0.2, "setup", "tests/test_b.py::test_y"]]}


def _two_copies(tmp_path):
    """Copies a and b of this checkout's src and benchmarks, with no caches."""
    root = _PATH.parents[1]
    ignore = shutil.ignore_patterns("__pycache__", ".bench_work", ".bench_out")
    for name in ("a", "b"):
        for part in ("src", "benchmarks"):
            shutil.copytree(root / part, tmp_path / name / part, ignore=ignore)


def test_ab_mode_records_a_ratio_for_two_copies_of_one_tree(tmp_path, monkeypatch):
    _two_copies(tmp_path)
    out = tmp_path / "BENCH_t.json"
    out.write_text(json.dumps({"runs": ["kept"]}))
    monkeypatch.setattr(bench_record, "WORKLOADS", ("estimate-falsify",))
    monkeypatch.setattr(bench_record, "AB_PROCESSES", 1)
    monkeypatch.setattr(bench_record, "AB_PASSES", 1)
    assert bench_record.main(["--pr", "t", "--tree", f"parent={tmp_path / 'a'}",
                              "--tree", f"change={tmp_path / 'b'}", "--mode", "ab",
                              "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["runs"] == ["kept"]
    ab = record["ab"]
    assert set(ab["trees"]) == {"parent", "change"}
    assert [s["tree"] for s in ab["samples"]] == ["parent", "change"]
    assert all(s["correct"] and s["failed"] == 0 and s["setup_s"] > 0 for s in ab["samples"])
    assert set(ab["verdict"]) == {"best_pass", "setup"}
    for verdict in ab["verdict"].values():
        (mode,) = verdict["estimate-falsify"].values()
        assert mode["trees"]["parent"]["n"] == mode["trees"]["change"]["n"] == 1
        assert mode["ratio"] > 0


def test_cold_mode_records_commands_over_the_floor_for_two_copies_of_one_tree(
        tmp_path, monkeypatch):
    _two_copies(tmp_path)
    commands = {name: bench_record.COLD_COMMANDS[name]
                for name in ("floor", "import", "entropy-cat-map")}
    monkeypatch.setattr(bench_record, "COLD_COMMANDS", commands)
    monkeypatch.setattr(bench_record, "COLD_REPEATS", 2)
    out = tmp_path / "BENCH_t.json"
    assert bench_record.main(["--pr", "t", "--tree", f"parent={tmp_path / 'a'}",
                              "--tree", f"change={tmp_path / 'b'}", "--mode", "cold",
                              "--out", str(out)]) == 0
    cold = json.loads(out.read_text())["cold"]
    # the unmeasured warm-up run wrote each tree's bytecode cache
    assert (tmp_path / "b" / "src" / "lieentropy" / "__pycache__").is_dir()
    assert [(s["round"], s["tree"]) for s in cold["samples"] if s["command"] == "import"] == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent")]
    assert set(cold["summary"]) == set(commands)
    for command, by_tree in cold["summary"].items():
        for label, entry in by_tree.items():
            assert entry["n"] == 2 and entry["q1"] <= entry["median"] <= entry["q3"]
            floor = cold["summary"]["floor"][label]["median"]
            assert entry["over_floor"] == entry["median"] - floor
    assert set(cold["over_floor_ratio"]) == {"import", "entropy-cat-map"}
    assert cold["summary"]["entropy-cat-map"]["parent"]["over_floor"] > 0
