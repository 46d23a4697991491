import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time

import pytest

from lieentropy import cli
from lieentropy.catalog import builtin_catalog, get_entry
from lieentropy.errors import DimensionError, DomainError, InputError
from lieentropy.formats import build_group, parse_input, report_to_dict
from lieentropy.groups import analyze, validate_endomorphism
from lieentropy.mahler import log_mahler


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "lieentropy.cli", *args],
        capture_output=True, text=True, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )


# --- parsing ------------------------------------------------------------------

def test_parse_catalog_document():
    entry = get_entry("cstar-squaring")
    document = parse_input(json.dumps(entry.document))
    assert document.dim == 2
    assert len(document.lattice) == 1


def test_parse_rejects_zero_denominator():
    doc = {"algebra": {"dim": 1, "brackets": [[0, 0, 0, "1/0"]]},
           "lattice": [], "endomorphism": [["1"]]}
    with pytest.raises(InputError, match="denominator zero"):
        parse_input(json.dumps(doc))


def test_parse_rejects_non_square_endomorphism():
    doc = {"algebra": {"dim": 2, "brackets": []},
           "lattice": [], "endomorphism": [["1", "0"]]}
    with pytest.raises(InputError, match="2x2"):
        parse_input(json.dumps(doc))


def test_parse_rejects_unknown_fields_and_bad_json(tmp_path):
    doc = {"algebra": {"dim": 1, "brackets": []}, "lattice": [],
           "endomorphism": [["1"]], "extra": True}
    with pytest.raises(InputError, match="unknown fields"):
        parse_input(json.dumps(doc))
    with pytest.raises(InputError, match="line 1"):
        parse_input("{not json")
    # options carries only tol; there is no mode option
    doc = {"algebra": {"dim": 1, "brackets": []}, "lattice": [],
           "endomorphism": [["1"]], "options": {"mode": "entropy"}}
    with pytest.raises(InputError, match=r"unknown fields \['mode'\]"):
        parse_input(json.dumps(doc))
    path = tmp_path / "mode.json"
    path.write_text(json.dumps(doc))
    result = run_cli("entropy", "--input", str(path))
    assert result.returncode == 1
    assert "unknown fields ['mode']" in result.stderr


def test_parse_omitted_basis_costs_nothing_before_the_shape_check():
    # the default names are left to LieAlgebra.from_brackets, so a huge dim
    # with a 1x1 endomorphism is rejected at once, with no dim-sized list
    import tracemalloc

    text = '{"algebra":{"dim":1000000,"brackets":[]},"lattice":[],"endomorphism":[[1]]}'
    tracemalloc.start()
    try:
        with pytest.raises(InputError) as info:
            parse_input(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.location == "endomorphism"
    assert peak < 2**20
    # omitted, the basis is named e0, e1, ...; an explicit null is still refused
    doc = {"algebra": {"dim": 2, "brackets": []}, "lattice": [],
           "endomorphism": [["1", "0"], ["0", "1"]]}
    group, _ = build_group(parse_input(json.dumps(doc)))
    assert group.algebra.basis_names == ("e0", "e1")
    doc["algebra"]["basis"] = None
    with pytest.raises(InputError, match="basis must be a list of 2 names"):
        parse_input(json.dumps(doc))


def test_parse_error_positions_name_fields():
    doc = {"algebra": {"dim": 2, "brackets": [[0, 5, 0, "1"]]},
           "lattice": [], "endomorphism": [["1", "0"], ["0", "1"]]}
    with pytest.raises(InputError, match=r"algebra.brackets\[0\]"):
        parse_input(json.dumps(doc))


def test_parse_rejects_float_rationals():
    doc = {"algebra": {"dim": 1, "brackets": []}, "lattice": [],
           "endomorphism": [[1.5]]}
    with pytest.raises(InputError):
        parse_input(json.dumps(doc))


# --- report round trip ------------------------------------------------------------

def test_report_round_trip():
    entry = get_entry("heisenberg-central-circle")
    document = parse_input(json.dumps(entry.document))
    group, derivative = build_group(document)
    endo = validate_endomorphism(group, derivative)
    first = report_to_dict(analyze(endo, 1e-9), document)
    embedded = parse_input(json.dumps(first["input"]))
    group2, derivative2 = build_group(embedded)
    endo2 = validate_endomorphism(group2, derivative2)
    second = report_to_dict(analyze(endo2, 1e-9), embedded)
    assert first == second


# --- subcommands ------------------------------------------------------------------

def test_cli_validate_and_entropy(tmp_path):
    entry = get_entry("torus2-squaring")
    path = tmp_path / "torus2.json"
    path.write_text(json.dumps(entry.document))
    result = run_cli("validate", "--input", str(path))
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["presentation_valid"] and payload["endomorphism_valid"]

    result = run_cli("entropy", "--input", str(path))
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert abs(report["entropy"]["value"] - 1.3862943611198906) <= 1e-9
    assert report["entropy"]["certificate"] == [4, -4, 1]
    assert report["input"] == entry.document


def test_cli_analyze_catalog_entry():
    result = run_cli("analyze", "--catalog", "euclidean-e2")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["entropy"]["value"] == 0.0
    assert report["entropy"]["exact_zero"] is True
    assert report["li_yorke"]["verdict"] == "some_power_li_yorke_free"
    tags = [link["result"] for link in report["li_yorke"]["chain"]]
    assert "trivial-central-torus-excludes-li-yorke-pairs" in tags
    assert report["toral_order"]["order"] == 1


def test_cli_invalid_presentation_exit_code():
    doc = {"algebra": {"dim": 3, "basis": ["X", "Y", "Z"],
                       "brackets": [[0, 1, 2, "1"]]},
           "lattice": [["1", "0", "0"]],
           "endomorphism": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    result = run_cli("validate", "--input", "/dev/stdin")
    assert result.returncode == 1  # no stdin content: read error counts as input error

    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(doc, fh)
        path = fh.name
    try:
        result = run_cli("validate", "--input", path)
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert not payload["presentation_valid"]
        result = run_cli("entropy", "--input", path)
        assert result.returncode == 1
    finally:
        os.unlink(path)


def test_cli_validate_circle_generator_scales(tmp_path):
    # E2 with lattice generator c*H: valid iff c is a nonzero integer, and the
    # spectrum certificate costs no more for c = 10^12 than for c = 1
    for scale, code, issues in (
            ("1000000000000", 0, []),
            ("1/2", 1, ["lattice generator 0: minimal polynomial has a factor "
                        "other than t^2 + m^2"])):
        doc = {"algebra": {"dim": 3, "basis": ["H", "X", "Y"],
                           "brackets": [[0, 1, 2, "1"], [0, 2, 1, "-1"]]},
               "lattice": [[scale, "0", "0"]],
               "endomorphism": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
        path = tmp_path / "e2.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            assert cli.main(["validate", "--input", str(path)]) == code
        assert time.perf_counter() - start < 1.0
        assert json.loads(out.getvalue())["presentation_issues"] == issues


def test_cli_pipeline_abort_exit_code(tmp_path):
    # solvable algebra whose nilradical post-verification fails: the
    # toral-order stage aborts with exit code 2
    doc = {"algebra": {"dim": 3, "basis": ["H", "X", "Y"],
                       "brackets": [[0, 1, 1, "1"], [0, 1, 2, "1"],
                                    [0, 2, 1, "-1"], [0, 2, 2, "1"]]},
           "lattice": [],
           "endomorphism": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    path = tmp_path / "trap.json"
    path.write_text(json.dumps(doc))
    result = run_cli("analyze", "--input", str(path))
    assert result.returncode == 2
    assert "abort" in result.stderr


def test_cli_root_certifier_overflow_exit_code(tmp_path):
    # companion matrix of t^5 + 10^300 t^2 + 1: three roots of modulus ~10^100,
    # so z^5 leaves the float range; the entropy is 300 log 10 all the same
    coeffs = [1, 0, 10**300, 0, 0]
    companion = [["1" if j == i - 1 else "0" for j in range(4)] + [str(-coeffs[i])]
                 for i in range(5)]
    doc = {"algebra": {"dim": 5, "brackets": []},
           "lattice": [["1" if j == i else "0" for j in range(5)] for i in range(5)],
           "endomorphism": companion}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    result = run_cli("entropy", "--input", str(path))
    assert result.returncode == 0, result.stderr
    entropy = json.loads(result.stdout)["entropy"]
    assert entropy["expanding_count"] == 3 and entropy["error_bound"] <= 1e-9
    assert abs(entropy["value"] - 300 * math.log(10)) <= entropy["error_bound"] + 1e-12


def _numeric_documents():
    """Documents whose log-Mahler sums once aborted, with their entropy,
    expanding count and eigenvalue-sum bound."""
    # Mignotte's t^16 - 2(10t - 1)^2 as a companion torus: the whole group is
    # the central torus; its two roots near 1/10 are sqrt(2) 10^-9 apart
    mignotte = [-2, 40, -200] + [0] * 13 + [1]
    companion = [["1" if j == i - 1 else "0" for j in range(15)] + [str(-mignotte[i])]
                 for i in range(16)]
    torus = {"algebra": {"dim": 16, "brackets": []},
             "lattice": [["1" if j == i else "0" for j in range(16)] for i in range(16)],
             "endomorphism": companion}
    # the sum over its 14 roots outside the circle, by mpmath at 60 digits
    mignotte_value = 5.298317366548035927
    # R^11 with d = diag(2, ..., 12) and no lattice: the central torus is
    # trivial, and the eigenvalue-sum bound is log 12!
    line = {"algebra": {"dim": 11, "brackets": []}, "lattice": [],
            "endomorphism": [[str(i + 2 if i == j else 0) for j in range(11)]
                             for i in range(11)]}
    # R^2 with d = diag(1/(10^400 - 1), 3): the integer char poly
    # ((10^400 - 1) t - 1)(t - 3) has a lead beyond the float range; the
    # bound is log 3
    tiny = {"algebra": {"dim": 2, "brackets": []}, "lattice": [],
            "endomorphism": [[f"1/{10**400 - 1}", "0"], ["0", "3"]]}
    return {"torus_entropy": (torus, mignotte_value, 14, mignotte_value),
            "eigenvalue_sum_bound": (line, 0.0, 0, math.log(math.factorial(12))),
            "tiny": (tiny, 0.0, 0, math.log(3))}


def test_cli_numeric_inputs_are_answered(tmp_path, capsys):
    for name, (doc, value, count, bound) in _numeric_documents().items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        for command in ("entropy", "analyze"):
            assert cli.main([command, "--input", str(path)]) == 0, (name, command)
            report = json.loads(capsys.readouterr().out)
            entropy, upper = report["entropy"], report["bowen_upper_bound"]
            assert abs(entropy["value"] - value) <= entropy["error_bound"] + 1e-12, name
            assert entropy["expanding_count"] == count, name
            assert abs(upper["value"] - bound) <= upper["error_bound"] + 1e-12, name


def test_cli_answers_numbers_past_the_default_digit_limit(tmp_path, capsys, request):
    # Python refuses int <-> str conversions past 4300 digits by default;
    # main lifts the limit, so these valid documents are answered: entries
    # whose product prints a 5001-digit certificate, a 5001-digit string
    # entry, and a 5001-digit JSON number literal
    big, bigger = "1" + "0" * 2500, "1" + "0" * 5000  # 10^2500 and 10^5000
    square = {"algebra": {"dim": 2, "brackets": []}, "lattice": [[1, 0], [0, 1]],
              "endomorphism": [[big, "0"], ["0", big]]}
    long_entry = dict(square, endomorphism=[[bigger, "0"], ["0", "1"]])
    texts = [json.dumps(square), json.dumps(long_entry),
             json.dumps(long_entry).replace(f'"{bigger}"', bigger)]
    assert f'[{bigger}, ' in texts[2]
    default = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if default is not None:  # the caller's own limit, which main must give back
        request.addfinalizer(lambda: sys.set_int_max_str_digits(default))
        sys.set_int_max_str_digits(4321)
    for index, text in enumerate(texts):
        path = tmp_path / f"long-{index}.json"
        path.write_text(text)
        for command in ("validate", "entropy"):
            assert cli.main([command, "--input", str(path)]) == 0, (index, command)
            captured = capsys.readouterr()
            assert captured.err == ""
            # the limit is lifted for the call only
            if default is not None:
                assert sys.get_int_max_str_digits() == 4321
        # the certificate has 5001 digits: read ints as strings, not past the limit
        entropy = json.loads(captured.out, parse_int=str)["entropy"]
        assert abs(entropy["value"] - 5000 * math.log(10)) <= entropy["error_bound"] + 1e-9


def test_cli_numeric_aborts_name_their_stage(tmp_path, capsys, monkeypatch):
    # a log-Mahler sum that cannot be certified aborts with exit 2 and names
    # the stage that asked for it: the torus entropy where the whole group is
    # the torus, and otherwise the eigenvalue-sum bound
    import lieentropy.groups
    import lieentropy.torus

    def refuse(p, tol):
        if len(p) > 1:
            raise ArithmeticError("injected")
        return log_mahler(p, tol)

    monkeypatch.setattr(lieentropy.groups, "log_mahler", refuse)
    monkeypatch.setattr(lieentropy.torus, "log_mahler", refuse)
    documents = _numeric_documents()
    for key, stage in (("torus_entropy", "torus_entropy"),
                       ("eigenvalue_sum_bound", "eigenvalue_sum_bound"),
                       ("tiny", "eigenvalue_sum_bound")):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(documents[key][0]))
        for command in ("entropy", "analyze"):
            assert cli.main([command, "--input", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"pipeline abort: stage '{stage}': injected\n"


@pytest.mark.parametrize("error", [DomainError, DimensionError])
def test_cli_internal_value_errors_are_pipeline_aborts(error, monkeypatch, capsys):
    # the parser checks shapes, indices and tol, so a DomainError or
    # DimensionError raised inside a stage is the program's failure, not
    # the input's: exit 2
    import lieentropy.groups

    def refuse(p, tol):
        raise error("injected")

    # a parameter error stays exit 1, as do input and validation errors
    assert cli.main(["estimate", "--catalog", "cat-map", "--n-max", "1"]) == 1
    assert capsys.readouterr().err == "invalid input: n_max must be at least 2\n"
    monkeypatch.setattr(lieentropy.groups, "log_mahler", refuse)
    for command in ("entropy", "analyze", "estimate"):
        assert cli.main([command, "--catalog", "cat-map"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "pipeline abort: injected\n")


@pytest.mark.parametrize("n", [20, 30, 40])
def test_cli_entropy_of_large_random_tori(tmp_path, n):
    # every torus of dimension 19 or more aborted while the root iteration
    # started on the Cauchy circle; the reference is numpy's eigenvalue sum
    np = pytest.importorskip("numpy")
    rng = random.Random(f"large-torus-{n}")
    matrix = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    doc = {"algebra": {"dim": n, "brackets": []},
           "lattice": [["1" if j == i else "0" for j in range(n)] for i in range(n)],
           "endomorphism": [[str(x) for x in row] for row in matrix]}
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["entropy", "--input", str(path)]) == 0
    eigenvalues = np.linalg.eigvals(np.array(matrix, dtype=float))
    reference = float(sum(math.log(abs(z)) for z in eigenvalues if abs(z) > 1))
    assert abs(json.loads(out.getvalue())["entropy"]["value"] - reference) <= 1e-6


def test_cli_estimate_csv(tmp_path):
    out = tmp_path / "est.csv"
    result = run_cli("estimate", "--catalog", "cstar-squaring",
                     "--n-max", "6", "--epsilon", "0.02",
                     "--resolution", "4096", "--format", "csv",
                     "--output", str(out))
    assert result.returncode == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,spanning_count,separated_count"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "1" and int(first[1]) >= int(first[2])


def test_cli_stdout_bytes_equal_the_output_file(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for fmt in ("json", "csv"):
        args = [sys.executable, "-m", "lieentropy.cli", "estimate", "--catalog", "cat-map",
                "--n-max", "3", "--format", fmt]
        out = tmp_path / f"est.{fmt}"
        stdout = subprocess.run(args, capture_output=True, env=env, check=True).stdout
        subprocess.run([*args, "--output", str(out)], capture_output=True, env=env, check=True)
        assert stdout == out.read_bytes(), fmt
        assert stdout.endswith(b"\n") and not stdout.endswith(b"\n\n"), fmt


def test_cli_estimate_auto_resolution_long_horizon(tmp_path):
    # exp(h * (n_max - 1)) overflows a float for log 10 * 399; the target
    # passes the cap in the log domain, so the cap is used
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({"algebra": {"dim": 1, "brackets": []},
                                "lattice": [["1"]], "endomorphism": [["10"]]}))
    result = run_cli("estimate", "--input", str(path), "--n-max", "400")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["resolution"] == 4194304


def test_cli_estimate_checks_epsilon_before_choosing_a_resolution(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({"algebra": {"dim": 1, "brackets": []},
                                "lattice": [["1"]], "endomorphism": [["10"]]}))
    for extra in (["--epsilon", "0"], ["--epsilon", "-0.1", "--n-max", "400"]):
        result = run_cli("estimate", "--input", str(path), *extra)
        assert result.returncode == 1, extra
        assert result.stderr == "invalid input: epsilon must lie in (0, 1/2)\n", extra


def test_cli_estimate_reduces_the_matrix_mod_the_grid(tmp_path, capsys):
    # x -> 2^40 x vanishes mod the 2^22-point grid: every point maps to 0, so
    # the counts saturate and the slope reads 0 beside the exact 40 log 2
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({"algebra": {"dim": 1, "brackets": []},
                                "lattice": [["1"]], "endomorphism": [[str(2**40)]]}))
    assert cli.main(["estimate", "--input", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact_entropy"] == 40 * math.log(2)
    assert payload["resolution"] == 1 << 22 and payload["slope"] == 0.0


def test_cli_estimate_refuses_a_resolution_too_fine_for_int64(tmp_path, capsys):
    # 2^39 - 1 is its own least residue mod 2^40, and it times the
    # 4.4 * 10^7-cell box at epsilon 1e-5 passes 2^62; a resolution of 2^62
    # is refused whatever the matrix
    for factor, resolution, epsilon in ((2**39 - 1, 2**40, "1e-5"), (2, 2**62, "1e-15")):
        path = tmp_path / "circle.json"
        path.write_text(json.dumps({"algebra": {"dim": 1, "brackets": []},
                                    "lattice": [["1"]], "endomorphism": [[str(factor)]]}))
        assert cli.main(["estimate", "--input", str(path), "--resolution", str(resolution),
                         "--epsilon", epsilon]) == 1
        assert capsys.readouterr().err == (f"invalid input: resolution {resolution} is too "
                                           f"fine for exact int64 grid arithmetic\n")


def test_cli_estimate_json():
    result = run_cli("estimate", "--catalog", "cstar-squaring",
                     "--n-max", "6", "--epsilon", "0.02", "--resolution", "4096")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["matrix"] == [[2]]
    assert len(payload["n_values"]) == 6
    assert "slope" in payload and "exact_entropy" in payload


def test_cli_estimate_auto_resolution():
    result = run_cli("estimate", "--catalog", "cstar-squaring",
                     "--n-max", "6", "--epsilon", "0.05")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["resolution"] > 4 / 0.05


def test_cli_commands_read_the_document_tolerance(tmp_path):
    # no root certification reaches 1e-300, so every command that computes
    # the entropy aborts once it reads the document's tolerance
    document = dict(get_entry("cat-map").document, options={"tol": 1e-300})
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(document))
    for command in ("entropy", "analyze", "estimate"):
        result = run_cli(command, "--input", str(path))
        assert result.returncode == 2, command
        assert "pipeline abort" in result.stderr


def test_cli_rejects_non_finite_tolerances(tmp_path):
    for value in ("nan", "inf"):
        result = run_cli("entropy", "--catalog", "cat-map", "--tol", value)
        assert result.returncode == 1, value
        assert result.stdout == "" and "--tol" in result.stderr
    result = run_cli("catalog", "--run-all", "--tol", "nan")
    assert result.returncode == 1
    assert "passed" not in result.stdout
    for value in (float("nan"), float("inf")):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(dict(get_entry("cat-map").document, options={"tol": value})))
        result = run_cli("entropy", "--input", str(path))
        assert result.returncode == 1, value
        assert "options.tol" in result.stderr


def test_cli_estimate_trivial_torus_rejected():
    # valid documents with nothing to estimate abort at the estimate stage
    for name in ("plane-doubling", "euclidean-e2", "euclidean-e2-flip"):
        result = run_cli("estimate", "--catalog", name)
        assert result.returncode == 2, name
        assert result.stdout == ""
        assert result.stderr == ("pipeline abort: stage 'estimate': "
                                 "the central torus is trivial; nothing to estimate\n"), name


def test_cli_estimate_refuses_tori_above_dimension_three(tmp_path):
    # a valid 4-torus: the grid estimator's dimension rule aborts the stage
    document = {"name": "T4", "algebra": {"dim": 4, "brackets": []},
                "lattice": [[str(int(i == j)) for j in range(4)] for i in range(4)],
                "endomorphism": [[str(2 * int(i == j)) for j in range(4)] for i in range(4)]}
    path = tmp_path / "t4.json"
    path.write_text(json.dumps(document))
    result = run_cli("estimate", "--input", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == ("pipeline abort: stage 'estimate': "
                             "grid estimation is limited to tori of dimension <= 3\n")


def test_the_exact_path_never_imports_numpy():
    # numpy is the estimator's alone: validate, entropy, analyze and the
    # catalog run leave it unloaded in a fresh interpreter, and estimate
    # loads it when it needs it
    code = """
import contextlib, io, sys
from lieentropy import cli
from lieentropy.catalog import builtin_catalog
with contextlib.redirect_stdout(io.StringIO()):
    for entry in builtin_catalog():
        for command in ("validate", "entropy", "analyze"):
            assert cli.main([command, "--catalog", entry.name]) == 0, (command, entry.name)
    assert cli.main(["catalog", "--run-all"]) == 0
assert "numpy" not in sys.modules
from lieentropy import GridDynamics
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli.main(["estimate", "--catalog", "cat-map"]) == 0
assert "numpy" in sys.modules and '"slope"' in out.getvalue()
"""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert result.returncode == 0, result.stderr


def test_cli_catalog_list_and_run_all():
    result = run_cli("catalog")
    assert result.returncode == 0
    names = [row["name"] for row in json.loads(result.stdout)]
    assert set(e.name for e in builtin_catalog()) == set(names)

    result = run_cli("catalog", "--run-all")
    assert result.returncode == 0
    assert f"{len(names)}/{len(names)} catalog entries passed" in result.stdout


def test_cli_usage_errors_exit_one():
    assert run_cli("entropy").returncode == 1
    assert run_cli("no-such-command").returncode == 1
    assert run_cli("analyze", "--catalog", "does-not-exist").returncode == 1


def test_cli_parser_is_built_once_and_keeps_no_arguments(monkeypatch, capsys):
    seen = []
    def record(args):
        seen.append(vars(args))
        return cli.EXIT_OK

    for name in ("_cmd_validate", "_cmd_estimate", "_cmd_catalog"):
        monkeypatch.setattr(cli, name, record)
    monkeypatch.setattr(cli, "_cmd_report", lambda stage, args: record(args))
    source = {"input": None, "catalog": "cat-map", "tol": cli.DEFAULT_TOL}
    estimate = {"n_max": 10, "epsilon": 0.05, "resolution": None, "format": "json",
                "output": None}
    calls = [
        (["entropy", "--catalog", "cat-map", "--tol", "0.5"],
         dict(source, command="entropy", tol=0.5)),
        (["validate", "--input", "doc.json"],
         dict(source, command="validate", input="doc.json", catalog=None)),
        (["estimate", "--catalog", "cat-map", "--n-max", "3", "--format", "csv"],
         dict(source, **dict(estimate, n_max=3, format="csv"), command="estimate")),
        (["catalog", "--run-all", "--tol", "0.25"],
         {"command": "catalog", "run_all": True, "tol": 0.25}),
        (["estimate", "--catalog", "cat-map"], dict(source, **estimate, command="estimate")),
        (["entropy", "--catalog", "cat-map"], dict(source, command="entropy")),
        (["catalog"], {"command": "catalog", "run_all": False, "tol": cli.DEFAULT_TOL}),
    ]
    for argv, expected in calls:
        assert cli.main(argv) == cli.EXIT_OK, argv
        assert seen.pop() == expected, argv
    assert cli._build_parser() is cli._build_parser()
    capsys.readouterr()
    assert cli.main(["entropy", "--catalog", "cat-map", "--tol", "nan"]) == cli.EXIT_INVALID
    assert "--tol" in capsys.readouterr().err and not seen


def _respelled(value, spelling):
    """An integral rational string of the document as the string "p", the
    string "2p/2" or the JSON integer p; other entries stay as they are."""
    if not isinstance(value, str) or "/" in value:
        return value
    return {"p": value, "2p/2": f"{2 * int(value)}/2", "int": int(value)}[spelling]


def _respell(document, spelling):
    algebra = document["algebra"]
    return dict(
        document,
        algebra=dict(algebra, brackets=[[*entry[:3], _respelled(entry[3], spelling)]
                                        for entry in algebra["brackets"]]),
        lattice=[[_respelled(x, spelling) for x in row] for row in document["lattice"]],
        endomorphism=[[_respelled(x, spelling) for x in row]
                      for row in document["endomorphism"]])


def test_integral_entries_in_any_spelling_give_identical_output(tmp_path, capsys):
    # reports echo their input document, so that one field is set aside; the
    # rest of the output, stderr and the exit code are compared byte for byte
    for name in ("euclidean-e2", "heisenberg-central-circle", "sl2-radical-demo", "cat-map"):
        outputs = set()
        for spelling in ("p", "2p/2", "int"):
            document = _respell(get_entry(name).document, spelling)
            path = tmp_path / f"{name}-{spelling.replace('/', '-over-')}.json"
            path.write_text(json.dumps(document))
            parsed = parse_input(path.read_text())
            group, derivative = build_group(parsed)
            endo = validate_endomorphism(group, derivative)
            entries = [c for *_, c in parsed.brackets + group.algebra.constants]
            entries += [x for row in parsed.lattice + parsed.endomorphism for x in row]
            entries += [x for row in group.lattice_logs + endo.d_phi for x in row]
            assert all(type(x) is int for x in entries), (name, spelling)
            runs = []
            for command in ("validate", "entropy", "analyze", "estimate"):
                code = cli.main([command, "--input", str(path), "--n-max", "4"]
                                if command == "estimate" else [command, "--input", str(path)])
                out, err = capsys.readouterr()
                if command in ("entropy", "analyze"):
                    report = json.loads(out)
                    assert report.pop("input") == document
                    out = json.dumps(report, indent=2) + "\n"
                runs.append((command, code, out, err))
            outputs.add(tuple(runs))
        assert len(outputs) == 1, name
