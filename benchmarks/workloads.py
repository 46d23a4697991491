"""The benchmark's three workloads: generated documents, reference answers
and the answer checks.

Each workload is a list of `Op`s.  An op is one document through
`lieentropy.cli.main`, plus, on `estimate-falsify`, one
`estimator.li_yorke_search` on the same matrix.  Documents are generated
from the workload seed and written as JSON files, so the program sees only
generated documents.  Every reference answer is made here, independently of
the code under test: closed forms for the Lie families, the catalog's
expected records, constructed values for the cyclotomic-rich tori, numpy
eigenvalues for the random tori, mpmath roots for the Mignotte polynomial,
and a transcription of the pair search as it stood when the benchmark was
defined.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

TOL = 1e-9          # the CLI's default tolerance; catalog records use it too
RANDOM_TOL = 1e-6   # float eigenvalues of non-normal integer matrices


@dataclass
class Op:
    name: str
    size: int                     # algebra dim, torus dim or grid cells
    argv: list[str]               # arguments to lieentropy.cli.main
    check: Callable[[dict, list | None], list[str]] = field(repr=False)
    pairs: tuple | None = None    # (matrix rows, search seed) for li_yorke_search


def _q(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _document(name, dim, brackets, lattice, endo, basis=None) -> dict:
    return {
        "name": name,
        "algebra": {"dim": dim, "basis": basis or [f"e{i + 1}" for i in range(dim)],
                    "brackets": [[i, j, k, _q(c)] for i, j, k, c in brackets]},
        "lattice": [[_q(x) for x in row] for row in lattice],
        "endomorphism": [[_q(x) for x in row] for row in endo],
    }


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _diagonal(entries):
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# record comparison, the way catalog.run_entry compares, on the CLI's JSON

def compare_record(report: dict, expected: dict, tol: float = TOL) -> list[str]:
    failures = []
    entropy = report["entropy"]
    if abs(entropy["value"] - expected["entropy"]) > tol:
        failures.append(f"entropy {entropy['value']!r} != expected {expected['entropy']!r}")
    if entropy["exact_zero"] != expected["entropy_exact_zero"]:
        failures.append("exact-zero flag mismatch")
    chain = report.get("li_yorke")
    if chain is None or chain["verdict"] != expected["li_yorke"]:
        failures.append("li-yorke verdict mismatch")
    have = set(report["citations"])
    if chain is not None:
        have |= {link["result"] for link in chain["chain"]}
    for tag in expected.get("citations", []):
        if tag not in have:
            failures.append(f"missing citation {tag}")
    torus_dim = len(report["stages"]["central_torus"]["lattice"]["basis"])
    if torus_dim != expected["torus_dim"]:
        failures.append(f"torus dimension {torus_dim} != {expected['torus_dim']}")
    if "toral_order" in expected:
        order = report.get("toral_order", {}).get("order")
        if order != expected["toral_order"]:
            failures.append("induced toral order mismatch")
    if "bowen_upper" in expected:
        if abs(report["bowen_upper_bound"]["value"] - expected["bowen_upper"]) > tol:
            failures.append("eigenvalue-sum upper bound mismatch")
    return failures


def _record_check(expected):
    return lambda report, _pairs: compare_record(report, expected)


# ---------------------------------------------------------------------------
# lie-analyze

def _positive_record(groups, entropy, bowen):
    return {
        "entropy": entropy, "entropy_exact_zero": False,
        "li_yorke": "li_yorke_all_powers",
        "citations": [groups.ENTROPY_ON_CENTRAL_TORUS, groups.POSITIVE_TORUS_ENTROPY_LI_YORKE],
        "torus_dim": 1, "bowen_upper": bowen,
    }


def heisenberg(k: int, rng: random.Random, groups):
    """h(2k+1) with [a_i, b_i] = c, the central circle of c as lattice, and
    the diagonal endomorphism a_i -> x_i a_i, b_i -> (g/x_i) b_i, c -> g c,
    each x_i one of +-1, +-g.  Entropy log|g|; the eigenvalue sum is
    (k+1) log|g|, so the certificates stay small whatever the seed."""
    dim = 2 * k + 1
    gamma = rng.choice([2, 3, 4, 5]) * rng.choice([1, -1])
    xs = [rng.choice([1, gamma]) * rng.choice([1, -1]) for _ in range(k)]
    diagonal = xs + [Fraction(gamma, x) for x in xs] + [gamma]
    basis = [f"a{i + 1}" for i in range(k)] + [f"b{i + 1}" for i in range(k)] + ["c"]
    doc = _document(f"heisenberg-{dim}", dim, [(i, k + i, 2 * k, 1) for i in range(k)],
                    [[0] * (dim - 1) + [1]], _diagonal(diagonal), basis)
    log_g = math.log(abs(gamma))
    return doc, _positive_record(groups, log_g, (k + 1) * log_g)


def sl2_sum(k: int, rng: random.Random, groups):
    """sl2^k + a central circle W.  The derivative permutes the sl2 copies,
    applies the Chevalley involution (H, E, F) -> (-H, F, E) to some, and
    sends W to m W.  Entropy log|m|, carried by the circle."""
    dim = 3 * k + 1
    brackets = []
    for j in range(k):
        o = 3 * j
        brackets += [(o, o + 1, o + 1, 2), (o, o + 2, o + 2, -2), (o + 1, o + 2, o, 1)]
    perm = list(range(k))
    rng.shuffle(perm)
    m = rng.choice([2, 3, 4, 5]) * rng.choice([1, -1])
    endo = [[0] * dim for _ in range(dim)]
    for j in range(k):
        src, dst = 3 * j, 3 * perm[j]
        if rng.random() < 0.5:
            images = ((dst, 1), (dst + 1, 1), (dst + 2, 1))
        else:
            images = ((dst, -1), (dst + 2, 1), (dst + 1, 1))
        for offset, (row, coeff) in enumerate(images):
            endo[row][src + offset] = coeff
    endo[dim - 1][dim - 1] = m
    basis = [f"{n}{j + 1}" for j in range(k) for n in ("H", "E", "F")] + ["W"]
    doc = _document(f"sl2x{k}-circle", dim, brackets, [[0] * (dim - 1) + [1]], endo, basis)
    return doc, _positive_record(groups, math.log(abs(m)), math.log(abs(m)))


def e2_family(index: int, rng: random.Random, groups):
    """Plane-isometry endomorphisms as in acceptance criteria 4 and 5:
    entropy exactly 0, induced toral order 1 (direct) or 2 (reflected)."""
    h_sign = 1 if index % 2 == 0 else -1
    while True:
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        b = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        if a or b:
            break
    w = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
         Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    plane = [[a, -b], [b, a]] if h_sign == 1 else [[a, b], [b, -a]]
    endo = [[h_sign, 0, 0], [w[0], *plane[0]], [w[1], *plane[1]]]
    doc = _document(f"e2-{index}", 3, [(0, 1, 2, 1), (0, 2, 1, -1)], [[1, 0, 0]], endo,
                    ["H", "X", "Y"])
    expected = {
        "entropy": 0.0, "entropy_exact_zero": True,
        "li_yorke": "some_power_li_yorke_free",
        "citations": [groups.TRIVIAL_CENTRAL_TORUS_NO_LI_YORKE],
        "torus_dim": 0, "toral_order": 1 if h_sign == 1 else 2,
        # both plane eigenvalues have modulus sqrt(a^2 + b^2)
        "bowen_upper": max(0.0, math.log(float(a * a + b * b))),
    }
    return doc, expected


# Heisenberg dims 3..11 and sl2^k + circle dims 4, 7, 10, 13: h(13) alone
# would take as long as the rest of a pass, and fewer passes mean a less
# steady median.  The median op falls among the E2 documents, so there are
# a dozen of them, and it does not hinge on one seeded member.
HEISENBERG_K = (1, 2, 3, 4, 5)
SL2_K = (1, 2, 3, 4)
E2_COUNT = 12


def lie_analyze(seed: int, lib):
    rng = random.Random(f"lie-analyze/{seed}")
    # Heisenberg cheapest first, sl2 dearest first, so that once interleaved
    # the dear documents of the two families fall apart in a pass.
    families = [
        [heisenberg(k, rng, lib.groups) for k in HEISENBERG_K],
        [sl2_sum(k, rng, lib.groups) for k in reversed(SL2_K)],
        [e2_family(index, rng, lib.groups) for index in range(E2_COUNT)],
        [(entry.document, dict(entry.expected)) for entry in lib.catalog.builtin_catalog()],
    ]
    return [[(doc, doc["algebra"]["dim"], _record_check(expected), ["analyze"], None)
             for doc, expected in family] for family in families]


# ---------------------------------------------------------------------------
# torus-entropy

RANDOM_DIMS = (20, 16, 8, 4)    # dearest first, away from the n = 12 sample
# Eighteen matrices at n = 12, the typical op: the median and the tail
# percentile of this workload both fall among them, so both are medians of
# many ops spread over the run rather than one document's time.
CLUSTER_DIM, CLUSTER_COUNT = 12, 18
# Cyclotomic-rich tori: (dimension, degrees of the cyclotomic blocks, with a
# hyperbolic block).  Without one the entropy is an exact zero.  The odd
# dimensions keep each of these documents between two random ones in cost.
CYCLOTOMIC_SHAPES = ((9, (4, 2, 2, 1), False), (11, (6, 2, 1), True))
# the indices m of the cyclotomic polynomials Phi_m of each degree
CYCLOTOMIC_INDICES = {1: (1, 2), 2: (3, 4, 6), 4: (5, 8, 10, 12), 6: (7, 9, 14, 18)}
# t^16 - 2 (10 t - 1)^2, ascending coefficients
MIGNOTTE = [-2, 40, -200] + [0] * 13 + [1]


def _abelian(name, matrix) -> dict:
    n = len(matrix)
    return _document(name, n, [], _identity(n), matrix)


def _companion(ascending) -> list[list[int]]:
    n = len(ascending) - 1
    mat = [[0] * n for _ in range(n)]
    for i in range(1, n):
        mat[i][i - 1] = 1
    for i in range(n):
        mat[i][n - 1] = -ascending[i]
    return mat


def _block_sum(blocks) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(b)] = row
        at += len(b)
    return out


def _unimodular_conjugate(mat, rng, steps):
    """E M E^-1 for `steps` random elementary E = I + c e_i e_j^T."""
    mat = [row[:] for row in mat]
    n = len(mat)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([1, -1])
        mat[i] = [x + c * y for x, y in zip(mat[i], mat[j])]   # E M
        for row in mat:                                        # (E M) E^-1
            row[j] -= c * row[i]
    return mat


def cyclotomic(m: int) -> list[int]:
    """Phi_m, ascending integer coefficients: t^m - 1 over the Phi_d, d | m."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _exact_div(poly, cyclotomic(d))
    return poly


def _exact_div(p, q):
    """p / q for integer polynomials with monic q dividing p."""
    p = p[:]
    out = [0] * (len(p) - len(q) + 1)
    for k in range(len(out) - 1, -1, -1):
        out[k] = p[k + len(q) - 1]
        for i, c in enumerate(q):
            p[k + i] -= out[k] * c
    if any(p):
        raise ArithmeticError("inexact cyclotomic division")
    return out


def cyclotomic_rich(degrees, hyperbolic, rng):
    """Block sum of companions of cyclotomic polynomials of the given
    degrees, plus one block t^2 - k t + 1 (entropy log of its larger root)
    when `hyperbolic`, conjugated by a random unimodular matrix."""
    blocks = [_companion(cyclotomic(rng.choice(CYCLOTOMIC_INDICES[d]))) for d in degrees]
    value = 0.0
    if hyperbolic:
        k = rng.choice([3, 4, 5, 6])
        blocks.append(_companion([1, -k, 1]))
        value = math.log((k + math.sqrt(k * k - 4)) / 2)
    rng.shuffle(blocks)
    mat = _block_sum(blocks)
    return _unimodular_conjugate(mat, rng, len(mat)), value


def _entropy_check(value, exact_zero, tol):
    def check(report, _pairs):
        got = report["entropy"]
        failures = []
        if abs(got["value"] - value) > tol:
            failures.append(f"entropy {got['value']!r} != reference {value!r}")
        if exact_zero is not None and got["exact_zero"] != exact_zero:
            failures.append("exact-zero flag mismatch")
        if got["exact_zero"] and got["value"] != 0.0:
            failures.append("exact zero with a nonzero value")
        return failures
    return check


def _eigen_entropy(matrix) -> float:
    import numpy as np
    eig = np.linalg.eigvals(np.array(matrix, dtype=float))
    return float(sum(math.log(abs(z)) for z in eig if abs(z) > 1.0))


def mignotte_entropy() -> float:
    import mpmath
    with mpmath.workdps(60):
        roots = mpmath.polyroots(MIGNOTTE[::-1], maxsteps=200, extraprec=200)
        return float(sum(mpmath.log(abs(z)) for z in roots if abs(z) > 1))


def torus_entropy(seed: int, lib):
    rng = random.Random(f"torus-entropy/{seed}")

    def random_torus(n, index):
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        return (_abelian(f"random-{n}-{index}", mat),
                _entropy_check(_eigen_entropy(mat), None, RANDOM_TOL))

    cluster = [random_torus(CLUSTER_DIM, i) for i in range(CLUSTER_COUNT)]
    randoms = [random_torus(n, 0) for n in RANDOM_DIMS]
    cyclotomic_tori = []
    for dim, degrees, hyperbolic in CYCLOTOMIC_SHAPES:
        mat, value = cyclotomic_rich(degrees, hyperbolic, rng)
        kind = "hyperbolic" if hyperbolic else "zero"
        cyclotomic_tori.append((_abelian(f"cyclotomic-{kind}-{dim}", mat),
                                _entropy_check(value, not hyperbolic, 2 * TOL)))
    mignotte = [(_abelian("mignotte-16", _companion(MIGNOTTE)),
                 _entropy_check(mignotte_entropy(), False, 2 * TOL))]
    return [[(doc, doc["algebra"]["dim"], check, ["entropy"], None) for doc, check in family]
            for family in (cluster, randoms, cyclotomic_tori, mignotte)]


# ---------------------------------------------------------------------------
# estimate-falsify

L2, L3 = math.log(2.0), math.log(3.0)
GOLDEN = math.log((3.0 + math.sqrt(5.0)) / 2.0)

# name, matrix, exact entropy, slope band as in the estimator tests
# ("rel": |slope - h| / h <= band, "abs": |slope| <= band), n_max, epsilon,
# resolution.  The grid parameters are the smallest at which every slope
# stays inside its band with room to spare.
ESTIMATE_CASES = (
    ("doubling", [[2]], L2, ("rel", 0.15), 10, 0.05, 1 << 16),
    ("tripling", [[3]], L3, ("rel", 0.15), 7, 0.05, 1 << 16),
    ("cat-map", [[2, 1], [1, 1]], GOLDEN, ("rel", 0.15), 6, 0.05, 512),
    ("torus2-squaring", [[2, 0], [0, 2]], 2 * L2, ("rel", 0.15), 4, 0.1, 1024),
    ("shear", [[1, 1], [0, 1]], 0.0, ("abs", 0.05), 40, 0.1, 256),
    ("rotation", [[0, -1], [1, 0]], 0.0, ("abs", 0.02), 8, 0.05, 512),
    ("flip", [[-1]], 0.0, ("abs", 0.02), 8, 0.05, 4096),
)


def li_yorke_reference(rows, seed, horizon=64, pair_budget=64, denominator=4096,
                       eps_low=1e-4, eps_high=0.25):
    """The pair search as defined when the benchmark was written: candidates
    must stay identical to these, pair for pair."""
    rng = random.Random(seed)
    q, dim = denominator, len(rows)
    out = []
    for _ in range(pair_budget):
        a = tuple(rng.randrange(q) for _ in range(dim))
        b = tuple(rng.randrange(q) for _ in range(dim))
        if a == b:
            continue
        delta = [(x - y) % q for x, y in zip(a, b)]
        lo, hi = 1.0, 0.0
        for _ in range(horizon):
            dist = max(min(x, q - x) for x in delta) / q
            lo, hi = min(lo, dist), max(hi, dist)
            delta = [sum(rows[i][j] * delta[j] for j in range(dim)) % q for i in range(dim)]
        if lo < eps_low and hi > eps_high:
            out.append((tuple(Fraction(x, q) for x in a), tuple(Fraction(x, q) for x in b),
                        lo, hi))
    return out


def _estimate_check(h, band, reference_pairs):
    kind, width = band

    def check(report, pairs):
        failures = []
        slope = report["slope"]
        off = abs(slope - h) / h if kind == "rel" else abs(slope)
        if off > width:
            failures.append(f"slope {slope:.4f} outside the {kind} band {width} around {h:.4f}")
        if abs(report["exact_entropy"] - h) > TOL:
            failures.append(f"exact entropy {report['exact_entropy']!r} != {h!r}")
        up, low = report["spanning_counts"], report["separated_counts"]
        if any(lo > u for lo, u in zip(low, up)) or up != sorted(up) or low != sorted(low):
            failures.append("spanning/separated count invariants fail")
        got = [(c.a, c.b, c.liminf_estimate, c.limsup_estimate) for c in pairs or []]
        if got != reference_pairs:
            failures.append(f"li_yorke_search gave {len(got)} candidates, "
                            f"reference {len(reference_pairs)}, or they differ")
        return failures
    return check


def estimate_falsify(seed: int, lib):
    items = []  # one family: the cases are fixed, only the pair search is seeded
    for name, rows, h, band, n_max, eps, resolution in ESTIMATE_CASES:
        doc = _abelian(name, rows)
        argv = ["estimate", "--n-max", str(n_max), "--epsilon", str(eps),
                "--resolution", str(resolution), "--format", "json"]
        check = _estimate_check(h, band, li_yorke_reference(rows, seed))
        items.append((doc, resolution ** len(rows), check, argv, (rows, seed)))
    return [items]


# ---------------------------------------------------------------------------

WORKLOADS = {
    "lie-analyze": lie_analyze,
    "torus-entropy": torus_entropy,
    "estimate-falsify": estimate_falsify,
}


def interleave(families):
    """Spread each family evenly over a pass: item i of a family of n sits
    at (i + 1/2) / n.  Documents of one kind are then timed at different
    moments of the run, not back to back, so a drift in the machine's speed
    does not fall on all of them at once."""
    placed = [((i + 0.5) / len(family), k, i)
              for k, family in enumerate(families) for i in range(len(family))]
    return [families[k][i] for _, k, i in sorted(placed)]


def build(workload: str, seed: int, lib, workdir) -> list[Op]:
    """Generate the workload's documents into `workdir` and return its ops
    in pass order."""
    ops = []
    items = interleave(WORKLOADS[workload](seed, lib))
    for index, (doc, size, check, argv, pairs) in enumerate(items):
        path = workdir / f"{index:02d}-{doc['name']}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        ops.append(Op(doc["name"], size, [argv[0], "--input", str(path), *argv[1:]],
                      check, pairs))
    return ops
