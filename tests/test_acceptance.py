"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from lieentropy.catalog import builtin_catalog, get_entry, run_all
from lieentropy.estimator import (
    GridDynamics,
    bundle_inequality_check,
    spanning_entropy_estimate,
)
from lieentropy.exactlinalg import det, identity_matrix, lattice_intersect_subspace, mat_mul, solve
from lieentropy.formats import build_group
from lieentropy.groups import (
    TRIVIAL_CENTRAL_TORUS_NO_LI_YORKE,
    PresentedGroup,
    analyze,
    check_toral_induced_finite_order,
    li_yorke_report,
    quotient_by_torus,
    topological_entropy,
    toral_lattice,
    validate_endomorphism,
)
from lieentropy.liealgebra import LieAlgebra, centralizer_in, nilradical, solvable_radical
from lieentropy.torus import (
    LI_YORKE_ALL_POWERS,
    SOME_POWER_LI_YORKE_FREE,
    TorusEndo,
    entropy,
    entropy_is_positive,
)

TOL = 1e-9
LOG2 = math.log(2.0)


def _passed(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


def _entry_report(name, tol=TOL):
    entry = get_entry(name)
    group, derivative = build_group(entry.input_document())
    endo = validate_endomorphism(group, derivative)
    return analyze(endo, tol)


def _e2_group():
    algebra = LieAlgebra.from_brackets(3, [(0, 1, 2, 1), (0, 2, 1, -1)], ["H", "X", "Y"])
    return PresentedGroup.build(algebra, [(1, 0, 0)], "E2")


def _e2_endo(group, h_sign, a, b, w=(0, 0)):
    a, b = Fraction(a), Fraction(b)
    plane = [[a, -b], [b, a]] if h_sign == 1 else [[a, b], [b, -a]]
    d = [
        [Fraction(h_sign), 0, 0],
        [Fraction(w[0]), plane[0][0], plane[0][1]],
        [Fraction(w[1]), plane[1][0], plane[1][1]],
    ]
    return validate_endomorphism(group, d)


def _random_e2_family(count, seed):
    rng = random.Random(seed)
    group = _e2_group()
    for index in range(count):
        h_sign = 1 if index < count // 2 else -1
        while True:
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            if a != 0 or b != 0:
                break
        w = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
             Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        yield group, _e2_endo(group, h_sign, a, b, w), h_sign


def test_criterion_1_torus_squaring_entropy():
    start = time.perf_counter()
    report = _entry_report("torus2-squaring")
    elapsed = time.perf_counter() - start
    assert abs(report.entropy.value - 2 * LOG2) <= TOL
    assert elapsed < 1.0
    _passed(1, f"2-torus squaring entropy {report.entropy.value:.9f} = 2 log 2 "
               f"within 1e-9 in {elapsed:.3f}s")


def test_criterion_2_plane_doubling_exact_zero():
    report = _entry_report("plane-doubling")
    assert report.entropy.exact_zero is True
    assert report.entropy.value == 0.0
    assert report.entropy.error_bound == 0.0
    _passed(2, "plane doubling decided exactly zero on the symbolic branch")


def test_criterion_3_cstar_strict_upper_bound():
    report = _entry_report("cstar-squaring")
    assert abs(report.entropy.value - LOG2) <= TOL
    assert abs(report.bowen_upper_bound.value - 2 * LOG2) <= TOL
    assert report.entropy.value < report.bowen_upper_bound.value
    _passed(3, f"circle-factor squaring: entropy {report.entropy.value:.9f} strictly "
               f"below eigenvalue-sum bound {report.bowen_upper_bound.value:.9f}, "
               "both reported")


def test_criterion_4_e2_family_zero_entropy():
    for group, endo, _ in _random_e2_family(20, seed=104):
        report = analyze(endo, TOL)
        assert report.entropy.exact_zero and report.entropy.value == 0.0
        assert report.li_yorke is not None
        assert report.li_yorke.verdict == SOME_POWER_LI_YORKE_FREE
        assert TRIVIAL_CENTRAL_TORUS_NO_LI_YORKE in report.li_yorke.citations
    _passed(4, "20 randomized plane-isometry endomorphisms (both sign classes): "
               "entropy exactly 0, verdict cites the trivial-central-torus result")


def test_criterion_5_toral_finite_order():
    for group, endo, h_sign in _random_e2_family(20, seed=105):
        check = check_toral_induced_finite_order(endo)
        assert check.order in (1, 2)
        assert check.order == (1 if h_sign == 1 else 2)
    _passed(5, "induced toral map has finite order (1 or 2) on every randomized "
               "plane-isometry input; no infinite order seen")


def test_criterion_6_kronecker_li_yorke_dichotomy():
    rng = random.Random(106)
    checked = 0
    while checked < 50:
        n = rng.randint(2, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        endo = TorusEndo.from_rows(rows)
        if det(endo.matrix) == 0:
            continue
        positive = entropy_is_positive(endo)
        torus = PresentedGroup.build(LieAlgebra.abelian(n), identity_matrix(n), "T")
        group_endo = validate_endomorphism(torus, rows)
        chain = li_yorke_report(group_endo, topological_entropy(group_endo, TOL))
        value = entropy(endo, TOL).value
        assert positive == (chain.verdict == LI_YORKE_ALL_POWERS)
        assert positive == (value > 1e-6)
        checked += 1
    _passed(6, "entropy > 0 iff Li-Yorke verdict for all powers, on 50 random "
               "integer matrices of dimension 2-4, decided exactly")


def test_criterion_7_property_suite():
    rng = random.Random(107)
    # power law
    for _ in range(50):
        n = rng.randint(1, 4)
        endo = TorusEndo.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        k = rng.randint(1, 5)
        assert abs(entropy(endo.power(k), TOL).value - k * entropy(endo, TOL).value) <= 2e-9
    # block additivity
    for _ in range(50):
        n1, n2 = rng.randint(1, 2), rng.randint(1, 2)
        a = [[rng.randint(-3, 3) for _ in range(n1)] for _ in range(n1)]
        b = [[rng.randint(-3, 3) for _ in range(n2)] for _ in range(n2)]
        block = [row + [0] * n2 for row in a] + [[0] * n1 + row for row in b]
        total = entropy(TorusEndo.from_rows(block), TOL).value
        assert abs(total - entropy(TorusEndo.from_rows(a), TOL).value
                   - entropy(TorusEndo.from_rows(b), TOL).value) <= 2e-9
    # unimodular conjugation invariance (identical certificates)
    for _ in range(50):
        n = rng.randint(2, 3)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(4):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            for col in range(n):
                p[i][col] += c * p[j][col]
        columns = [solve(p, e) for e in identity_matrix(n)]
        p_inv = [[int(col[i]) for col in columns] for i in range(n)]
        conj = [[int(x) for x in row] for row in mat_mul(mat_mul(p, m), p_inv)]
        e1, e2 = TorusEndo.from_rows(m), TorusEndo.from_rows(conj)
        assert e1.char_poly() == e2.char_poly()
        assert entropy(e1, TOL).value == entropy(e2, TOL).value
    # toral coincidence and quotient triviality on every catalog group
    for entry in builtin_catalog():
        group, _ = build_group(entry.input_document())
        lam = toral_lattice(group).lattice
        rad = solvable_radical(group.algebra).space
        nil = nilradical(group.algebra).space
        lam_r = lattice_intersect_subspace(group.lattice,
                                           centralizer_in(group.algebra, rad))
        lam_n = lattice_intersect_subspace(group.lattice,
                                           centralizer_in(group.algebra, nil))
        assert lam.basis == lam_r.basis == lam_n.basis
        assert toral_lattice(quotient_by_torus(group)).lattice.is_empty()
    _passed(7, "power law, block additivity, unimodular conjugation invariance "
               "(50 instances each, within 2e-9); toral coincidence and torus-quotient "
               "triviality hold on every catalog group")


def test_criterion_8_estimator_cross_check():
    start = time.perf_counter()
    doubling = spanning_entropy_estimate(GridDynamics.from_rows([[2]]),
                                         n_max=14, epsilon=0.01, resolution=1 << 22)
    doubling_time = time.perf_counter() - start
    assert doubling_time < 60.0
    assert abs(doubling.slope - LOG2) / LOG2 <= 0.15

    cat = spanning_entropy_estimate(GridDynamics.from_rows([[2, 1], [1, 1]]),
                                    n_max=10, epsilon=0.05, resolution=1531)
    cat_target = math.log((3 + math.sqrt(5)) / 2)
    assert abs(cat.slope - cat_target) / cat_target <= 0.15

    for rows, resolution in ([[0, -1], [1, 0]], 512), ([[-1]], 4096):
        finite = spanning_entropy_estimate(GridDynamics.from_rows(rows),
                                           n_max=8, epsilon=0.05, resolution=resolution)
        assert abs(finite.slope) <= 0.02

    # remaining catalog torus actions of dimension <= 2
    squaring = spanning_entropy_estimate(GridDynamics.from_rows([[2, 0], [0, 2]]),
                                         n_max=5, epsilon=0.1, resolution=2560)
    assert abs(squaring.slope - 2 * LOG2) / (2 * LOG2) <= 0.15
    tripling = spanning_entropy_estimate(GridDynamics.from_rows([[3]]),
                                         n_max=9, epsilon=0.01, resolution=1 << 20)
    assert abs(tripling.slope - math.log(3)) / math.log(3) <= 0.15
    shear = spanning_entropy_estimate(GridDynamics.from_rows([[1, 1], [0, 1]]),
                                      n_max=40, epsilon=0.05, resolution=1024)
    assert abs(shear.slope) <= 0.05
    _passed(8, f"estimator brackets the exact values: doubling slope "
               f"{doubling.slope:.4f} (~log 2, {doubling_time:.1f}s), cat-map slope "
               f"{cat.slope:.4f} (~0.9624), finite-order slopes 0, torus-squaring/"
               "tripling/shear all inside their brackets")


def test_criterion_9_bundle_inequality():
    report = bundle_inequality_check(
        GridDynamics.from_rows([[2, 0], [0, 3]]),
        GridDynamics.from_rows([[2]]),
        TorusEndo.from_rows([[3]]),
        n_max=5, epsilon=0.1, resolution=1024)
    assert report.passes
    assert abs(report.total_slope - report.bound) <= report.slack
    _passed(9, f"bundle inequality on diag(2,3): total {report.total_slope:.4f} vs "
               f"bound {report.bound:.4f} within slack {report.slack:.4f} "
               "(equality case)")


def test_criterion_10_catalog_run_all():
    results = run_all(TOL)
    assert all(r.ok for r in results), [r.failures for r in results if not r.ok]
    proc = subprocess.run([sys.executable, "-m", "lieentropy.cli", "catalog", "--run-all"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    _passed(10, f"catalog --run-all: {len(results)}/{len(results)} entries match "
                "their expected records, exit code 0")
