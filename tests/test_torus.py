import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lieentropy.errors import DimensionError, DomainError, ValidationError
from lieentropy.exactlinalg import (
    Lattice,
    det,
    identity_matrix,
    mat_mul,
    min_poly,
    solve,
)
from lieentropy.mahler import cyclotomic, cyclotomic_factors, poly_degree, poly_gcd, poly_mul
from lieentropy.torus import (
    TorusEndo,
    entropy,
    entropy_is_positive,
    finite_order,
    restrict_matrix_to_lattice,
)

TOL = 1e-9


def T(rows):
    return TorusEndo.from_rows(rows)


def companion_matrix(coeffs):
    """Companion matrix of a monic integer polynomial (ascending coeffs)."""
    assert coeffs[-1] == 1
    n = len(coeffs) - 1
    return [[int(i == j + 1) for j in range(n - 1)] + [-coeffs[i]] for i in range(n)]


def rand_matrix(rng, n, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


# --- construction ------------------------------------------------------------

def test_from_rows_reads_integral_entries_by_one_rule():
    # exactlinalg.exact, then operator.index: any spelling of an integer is
    # stored as an int; every other entry is one DomainError
    endo = T([[2.0, Fraction(4, 2)], ["6/3", np.int64(-1)]])
    assert endo.matrix == ((2, 2), (2, -1))
    assert all(type(x) is int for row in endo.matrix for x in row)
    for bad in (2.5, Fraction(5, 2), "1/3", "two", float("nan"), float("inf"), None):
        with pytest.raises(DomainError, match="torus endomorphism matrix must be integral"):
            T([[bad]])
    for ragged in ([[1, 2]], [[1, 0], [0]], [[1], [2]]):
        with pytest.raises(DimensionError, match="torus endomorphism matrix must be square"):
            T(ragged)


def test_matrix_invariants_read_the_stored_rows():
    cat = T([[2, 1], [1, 1]])
    assert det(cat.matrix) == 1
    assert cat.char_poly() == [1, -3, 1]
    assert all(type(c) is int for c in cat.char_poly())
    assert cat.power(3).matrix == ((13, 8), (8, 5))
    assert cat.power(0).matrix == ((1, 0), (0, 1))
    empty = T([])
    assert (empty.dim, empty.matrix, det(empty.matrix), empty.char_poly()) == (0, (), 1, [1])
    assert finite_order(empty) == 1 and finite_order(T([[0, -1], [1, 0]])) == 4


# --- entropy -----------------------------------------------------------------

def test_entropy_examples():
    assert abs(entropy(T([[2, 0], [0, 2]])).value - 2 * math.log(2)) <= TOL
    shear = entropy(T([[1, 1], [0, 1]]))
    assert shear.value == 0.0 and shear.exact_zero
    cat = entropy(T([[2, 1], [1, 1]]))
    assert abs(cat.value - math.log((3 + math.sqrt(5)) / 2)) <= TOL


def test_entropy_accepts_non_surjective():
    ev = entropy(T([[0, 0], [0, 2]]))
    assert abs(ev.value - math.log(2)) <= TOL


def test_entropy_power_law():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 4)
        e = T(rand_matrix(rng, n))
        k = rng.randint(1, 5)
        assert abs(entropy(e.power(k)).value - k * entropy(e).value) <= 2 * TOL


def test_entropy_block_additivity():
    rng = random.Random(17)
    for _ in range(25):
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        a, b = rand_matrix(rng, n1), rand_matrix(rng, n2)
        block = [row + [0] * n2 for row in a] + [[0] * n1 + row for row in b]
        assert abs(entropy(T(block)).value
                   - entropy(T(a)).value - entropy(T(b)).value) <= 2 * TOL


def test_entropy_conjugation_invariance_exact():
    rng = random.Random(19)
    for _ in range(25):
        n = rng.randint(2, 3)
        m = rand_matrix(rng, n)
        # random unimodular: product of elementary shears and swaps
        p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(4):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            for col in range(n):
                p[i][col] += c * p[j][col]
        p_inv = _int_inverse(p)
        conj = mat_mul(mat_mul(p, m), p_inv)
        e1, e2 = T(m), T([[int(x) for x in row] for row in conj])
        assert e1.char_poly() == e2.char_poly()
        assert entropy(e1).value == entropy(e2).value


def _int_inverse(p):
    """Inverse of a unimodular matrix, one `solve` per column."""
    n = len(p)
    columns = [solve(p, e) for e in identity_matrix(n)]
    return [[int(col[i]) for col in columns] for i in range(n)]


# --- finite order ----------------------------------------------------------

def test_finite_order_examples():
    assert finite_order(T([[0, -1], [1, 0]])) == 4
    assert finite_order(T([[-1, 0], [0, -1]])) == 2
    assert finite_order(T([[1, 1], [0, 1]])) is None
    assert finite_order(T([[1]])) == 1
    assert finite_order(T([[2]])) is None
    assert finite_order(T([])) == 1
    rotation3 = [[0, -1], [1, -1]]  # Phi_3
    assert finite_order(T(_block_sum(rotation3, rotation3))) == 3
    # a Jordan block of Phi_4: char Phi_4^2, cyclotomic, but of infinite order
    assert finite_order(T([[0, -1, 1, 0], [1, 0, 0, 1], [0, 0, 0, -1], [0, 0, 1, 0]])) is None


def test_finite_order_is_least_power():
    rng = random.Random(23)
    samples = [
        T([[0, -1], [1, 0]]),
        T([[0, -1], [1, -1]]),              # order 3
        T(companion_matrix(list(cyclotomic(6)))),
        T(companion_matrix(list(cyclotomic(12)))),
    ]
    for e in samples:
        k = finite_order(e)
        assert k is not None
        ident = [[1 if i == j else 0 for j in range(e.dim)] for i in range(e.dim)]
        assert [list(r) for r in e.power(k).matrix] == ident
        for j in range(1, k):
            assert [list(r) for r in e.power(j).matrix] != ident
    del rng


def _finite_order_reference_rule(matrix):
    """Finite order by a separate squarefreeness test: gcd(mp, mp') constant,
    then a constant cofactor after the cyclotomic factors."""
    mp = min_poly(matrix)
    deriv = [i * c for i, c in enumerate(mp)][1:]
    if poly_degree(poly_gcd(mp, deriv)) > 0:
        return False
    return poly_degree(cyclotomic_factors(mp)[1]) < 1


def _block_sum(a, b):
    n, m = len(a), len(b)
    return [list(r) + [0] * m for r in a] + [[0] * n + list(r) for r in b]


def test_finite_order_matches_the_squarefree_reference_rule():
    rng = random.Random(41)
    one = [-1, 1]
    polys = [
        poly_mul(one, one),                                          # (t - 1)^2
        poly_mul(list(cyclotomic(3)), list(cyclotomic(3))),          # Phi_3^2
        poly_mul(list(cyclotomic(4)), list(cyclotomic(4))),          # Phi_4^2
        poly_mul([0, 1], list(cyclotomic(6))),                       # t Phi_6
        poly_mul([0, 1], list(cyclotomic(1))),                       # t Phi_1
        [-1, -1, 1],                                                 # t^2 - t - 1
        poly_mul(list(cyclotomic(3)), list(cyclotomic(4))),          # Phi_3 Phi_4
        list(cyclotomic(12)),
    ]
    matrices = [companion_matrix(p) for p in polys]
    rotation = companion_matrix(list(cyclotomic(3)))
    matrices += [
        _block_sum(rotation, rotation),                   # char Phi_3^2, min Phi_3
        _block_sum(rotation, companion_matrix([-1, 1])),  # Phi_3 Phi_1
        _block_sum(companion_matrix(polys[0]), [[1]]),    # min (t - 1)^2
        [[0]],
    ]
    unimodular = [[1, 1, 0, 0], [0, 1, 0, 0], [1, 1, 1, 0], [0, 2, 1, 1]]
    for m in list(matrices):
        if len(m) == 4:
            matrices.append(mat_mul(mat_mul(unimodular, m), _int_inverse(unimodular)))
    matrices += [rand_matrix(rng, n, -1, 1) for n in (1, 2, 3) for _ in range(40)]
    seen = set()
    for m in matrices:
        expected = _finite_order_reference_rule(m)
        assert (finite_order(T(m)) is not None) == expected, m
        seen.add(expected)
    assert seen == {True, False}


# --- Li-Yorke dichotomy ---------------------------------------------------------

def test_entropy_positivity_examples():
    assert entropy_is_positive(T([[2]]))
    assert not entropy_is_positive(T([[0, -1], [1, 0]]))
    assert not entropy_is_positive(T([[1, 1], [0, 1]]))


def test_kronecker_dichotomy_on_cyclotomic_products():
    # unimodular with all eigenvalues roots of unity: entropy exactly zero
    rng = random.Random(29)
    indices = [1, 2, 3, 4, 6, 5, 8, 12]
    for _ in range(20):
        poly = [1]
        while True:
            m = rng.choice(indices)
            candidate = poly_mul(poly, list(cyclotomic(m)))
            if len(candidate) - 1 > 6:
                break
            poly = candidate
            if len(poly) - 1 >= 2 and rng.random() < 0.5:
                break
        if len(poly) - 1 < 1:
            continue
        e = T(companion_matrix(poly))
        assert abs(det(e.matrix)) == 1
        ev = entropy(e)
        assert ev.exact_zero and ev.value == 0.0
        assert not entropy_is_positive(e)


def test_positivity_matches_numeric_value():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 4)
        e = T(rand_matrix(rng, n))
        positive = entropy_is_positive(e)
        value = entropy(e).value
        assert positive == (value > 1e-6)


# --- restriction ------------------------------------------------------------

def test_restrict_examples():
    sub = Lattice.from_generators(2, [(1, 0)])
    assert restrict_matrix_to_lattice([[2, 0], [0, 3]], sub).matrix == ((2,),)
    cat = [[2, 1], [1, 1]]
    full = Lattice.from_generators(2, [(1, 0), (0, 1)])
    assert restrict_matrix_to_lattice(cat, full).matrix == T(cat).matrix
    diagonal = Lattice.from_generators(2, [(1, 1)])
    assert restrict_matrix_to_lattice([[2, 0], [0, 2]], diagonal).matrix == ((2,),)


def test_restrict_rejects_non_invariant():
    with pytest.raises(ValidationError):
        restrict_matrix_to_lattice([[2, 1], [1, 1]], Lattice.from_generators(2, [(1, 0)]))


def test_restrict_empty_lattice():
    e = restrict_matrix_to_lattice([[2]], Lattice.from_generators(1, []))
    assert e.dim == 0
    assert entropy(e).exact_zero
