"""Pinned CLI reports: `validate`, `entropy`, `analyze` and `estimate` (as
JSON and as CSV) on every catalog entry and on a few inline documents must
print exactly the recorded report and exit with the recorded code.

The fixture `data/golden_reports.json` holds the inline documents and, per
run, the exit code, the stderr text and the stdout report: parsed JSON, or
the text itself for CSV.  Reports are compared exactly, key order included,
except floats, which must agree to a relative 1e-12 so that a different libm
cannot fail the test.

Regenerate the fixture (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import contextlib
import io
import json
import math
import random
import tempfile
from pathlib import Path

import pytest

from lieentropy import cli
from lieentropy.catalog import builtin_catalog

FIXTURE = Path(__file__).parent / "data" / "golden_reports.json"
# (command, --format or None): estimate prints JSON or CSV
COMMANDS = (("validate", None), ("entropy", None), ("analyze", None),
            ("estimate", "json"), ("estimate", "csv"))
FLOAT_RTOL = 1e-12


def _inline_documents() -> dict:
    def q(rows):
        return [[str(x) for x in row] for row in rows]

    def diagonal(entries):
        return [[x if i == j else 0 for j, x in enumerate(entries)] for i in range(len(entries))]

    rng = random.Random("golden-torus-8")
    torus = [[rng.randint(-3, 3) for _ in range(8)] for _ in range(8)]
    sl2 = [[o, o + 1, o + 1, "2"] for o in (0, 3)] + [[o, o + 2, o + 2, "-2"] for o in (0, 3)]
    sl2 += [[o + 1, o + 2, o, "1"] for o in (0, 3)]
    # the first sl2 copy goes to the second as it is, the second to the first
    # through the Chevalley involution (H, E, F) -> (-H, F, E); W -> -3 W
    swap = [[0] * 7 for _ in range(7)]
    swap[3][0] = swap[4][1] = swap[5][2] = 1
    swap[0][3], swap[2][4], swap[1][5] = -1, 1, 1
    swap[6][6] = -3
    return {
        "heisenberg-5": {
            "name": "heisenberg-5",
            "algebra": {"dim": 5, "basis": ["a1", "a2", "b1", "b2", "c"],
                        "brackets": [[0, 2, 4, "1"], [1, 3, 4, "1"]]},
            "lattice": [["0", "0", "0", "0", "1"]],
            "endomorphism": q(diagonal([2, -3, 3, -2, 6])),
        },
        "sl2x2-circle": {
            "name": "sl2x2-circle",
            "algebra": {"dim": 7, "basis": ["H1", "E1", "F1", "H2", "E2", "F2", "W"],
                        "brackets": sl2},
            "lattice": [["0"] * 6 + ["1"]],
            "endomorphism": q(swap),
        },
        "e2-shift-1-3": {
            "name": "e2-shift-1-3",
            "algebra": {"dim": 3, "basis": ["H", "X", "Y"],
                        "brackets": [[0, 1, 2, "1"], [0, 2, 1, "-1"]]},
            "lattice": [["1", "0", "0"]],
            "endomorphism": [["1", "0", "0"], ["1", "1", "-1"], ["3", "1", "1"]],
        },
        "e2-rational": {
            "name": "e2-rational",
            "algebra": {"dim": 3, "basis": ["H", "X", "Y"],
                        "brackets": [[0, 1, 2, "1"], [0, 2, 1, "-1"]]},
            "lattice": [["1", "0", "0"]],
            "endomorphism": [["-1", "0", "0"], ["-2/3", "1/2", "-3/4"], ["1/3", "-3/4", "-1/2"]],
        },
        "random-torus-8": {
            "name": "random-torus-8",
            "algebra": {"dim": 8, "brackets": []},
            "lattice": q(diagonal([1] * 8)),
            "endomorphism": q(torus),
        },
        "not-antisymmetric": {
            "name": "not-antisymmetric",
            "algebra": {"dim": 2, "brackets": [[0, 1, 1, "1"], [1, 0, 1, "1"]]},
            "lattice": [],
            "endomorphism": [["1", "0"], ["0", "1"]],
        },
    }


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _source_args(case, documents, workdir: Path) -> list[str]:
    if "catalog" in case:
        return ["--catalog", case["catalog"]]
    path = workdir / f"{case['document']}.json"
    path.write_text(json.dumps(documents[case["document"]]), encoding="utf-8")
    return ["--input", str(path)]


def _outcome(case, documents, workdir: Path) -> dict:
    fmt = case.get("format")
    argv = [case["command"], *_source_args(case, documents, workdir)]
    code, out, err = _run(argv + (["--format", fmt] if fmt else []))
    stdout = out if fmt == "csv" else json.loads(out) if out else None
    return {"exit": code, "stderr": err, "stdout": stdout}


def _assert_same(got, want, where="stdout"):
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, float):
        assert math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=0.0), \
            f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            _assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_same(a, b, f"{where}[{i}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _load():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def _case_id(case):
    command = "-".join(filter(None, (case["command"], case.get("format"))))
    return f"{command}-{case.get('catalog') or case['document']}"


_GOLDEN = _load() if FIXTURE.exists() else {"documents": {}, "cases": []}


@pytest.mark.parametrize("case", _GOLDEN["cases"], ids=_case_id)
def test_golden_report(case, tmp_path):
    got = _outcome(case, _GOLDEN["documents"], tmp_path)
    assert got["exit"] == case["exit"]
    assert got["stderr"] == case["stderr"]
    _assert_same(got["stdout"], case["stdout"])


def test_golden_cases_cover_the_catalog_and_the_inline_documents():
    sources = {case.get("catalog") or case["document"] for case in _GOLDEN["cases"]}
    expected = {entry.name for entry in builtin_catalog()} | set(_GOLDEN["documents"])
    assert sources == expected
    assert len(_GOLDEN["cases"]) == len(COMMANDS) * len(expected)


def _regenerate():
    documents = _inline_documents()
    sources = [{"catalog": entry.name} for entry in builtin_catalog()]
    sources += [{"document": name} for name in documents]
    cases = []
    with tempfile.TemporaryDirectory() as workdir:
        for source in sources:
            for command, fmt in COMMANDS:
                case = {"command": command, **({"format": fmt} if fmt else {}), **source}
                case.update(_outcome(case, documents, Path(workdir)))
                cases.append(case)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({"documents": documents, "cases": cases}, indent=1) + "\n",
                       encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
