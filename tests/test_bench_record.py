import importlib.util
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
