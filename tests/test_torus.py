import math
import random

import pytest

from lieentropy.errors import ValidationError
from lieentropy.exactlinalg import Lattice, companion_matrix, identity_matrix, mat_mul, solve
from lieentropy.mahler import cyclotomic, poly_mul
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


def rand_matrix(rng, n, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


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
        assert abs(e.determinant) == 1
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
