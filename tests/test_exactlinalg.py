import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from lieentropy.errors import DimensionError
from lieentropy.exactlinalg import (
    Lattice,
    Subspace,
    _int_left_kernel,
    char_poly,
    det,
    exact,
    identity_matrix,
    integral,
    kernel_basis,
    lattice_intersect_subspace,
    mat_mul,
    mat_pow,
    mat_vec,
    min_poly,
    rank,
    rref,
    solve,
    transpose,
)


def F(x):
    return Fraction(x)


# --- characteristic polynomial -------------------------------------------

def test_char_poly_examples():
    # det(tI - M) expanded by hand for each case
    assert char_poly([[2, 0], [0, 2]]) == [4, -4, 1]          # (t-2)^2
    assert char_poly([[2, 1], [1, 1]]) == [1, -3, 1]          # t^2 - 3t + 1
    assert char_poly([[0, -1], [1, 0]]) == [1, 0, 1]          # t^2 + 1
    assert char_poly([]) == [1]


def test_char_poly_monic_and_rational():
    p = char_poly([[F("1/2"), 0], [0, F("1/3")]])
    assert p[-1] == 1
    assert p == [Fraction(1, 6), Fraction(-5, 6), Fraction(1)]


def test_char_poly_rejects_non_square():
    with pytest.raises(DimensionError):
        char_poly([[1, 2, 3], [4, 5, 6]])


def test_min_poly_examples():
    assert min_poly([[1, 1], [0, 1]]) == [1, -2, 1]           # (t-1)^2
    assert min_poly([[2, 0], [0, 2]]) == [-2, 1]              # t - 2
    # adjoint of the rotation generator of the plane-isometry algebra:
    # cube it by hand and check m^3 = -m, so t(t^2+1) annihilates
    ad_h = [[0, 0, 0], [0, 0, -1], [0, 1, 0]]
    assert min_poly(ad_h) == [0, 1, 0, 1]
    cube = mat_pow(ad_h, 3)
    assert cube == [[-x for x in row] for row in ad_h]


def _eval_poly_at_matrix(coeffs, m):
    n = len(m)
    acc = [[Fraction(0)] * n for _ in range(n)]
    power = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for c in coeffs:
        acc = [[acc[i][j] + c * power[i][j] for j in range(n)] for i in range(n)]
        power = mat_mul(power, m)
    return acc


def test_min_poly_divides_char_poly_and_annihilates():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        mp = [Fraction(c) for c in min_poly(m)]
        cp = [Fraction(c) for c in char_poly(m)]
        from lieentropy.mahler import poly_divmod

        _, rem = poly_divmod(cp, mp)
        assert rem == []
        assert all(x == 0 for row in _eval_poly_at_matrix(mp, m) for x in row)


# --- hermite normal form ---------------------------------------------------

def test_hnf_examples():
    assert Lattice.from_generators(2, [(2, 0), (0, 2), (1, 1)]).basis == (
        (F(1), F(1)), (F(0), F(2)))
    assert Lattice.from_generators(2, [(1, 0)]).basis == ((F(1), F(0)),)
    assert Lattice.from_generators(3, []).basis == ()


def test_hnf_canonical_under_generating_set_changes():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(1, 4)
        gens = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        base = Lattice.from_generators(n, gens)
        # same module, different presentation: shuffled, padded with sums
        shuffled = [list(g) for g in gens]
        rng.shuffle(shuffled)
        if len(shuffled) >= 2:
            shuffled.append([a + b for a, b in zip(shuffled[0], shuffled[1])])
        shuffled.append([0] * n)
        assert Lattice.from_generators(n, shuffled).basis == base.basis


def test_hnf_pivots_normalized():
    basis = Lattice.from_generators(2, [(4, 7), (0, 3)]).basis
    # pivots positive, entry above the second pivot reduced into [0, pivot)
    assert basis == ((F(4), F(1)), (F(0), F(3)))


def test_lattice_membership():
    lat = Lattice.from_generators(2, [(2, 0), (0, 2)])
    assert lat.contains((4, -2))
    assert not lat.contains((1, 0))
    assert lat.integer_coordinates((4, -2)) == (2, -1)


def test_rational_lattice_canonicalization():
    lat = Lattice.from_generators(2, [(F("1/2"), 0), (0, 1), (F("1/2"), 1)])
    assert lat.basis == ((F("1/2"), F(0)), (F(0), F(1)))


# --- lattice/subspace intersection -----------------------------------------

def test_intersect_examples():
    z2 = Lattice.standard(2)
    diag = Subspace.from_vectors(2, [(1, 1)])
    assert lattice_intersect_subspace(z2, diag).basis == ((F(1), F(1)),)
    axis = Lattice.from_generators(2, [(1, 0)])
    other = Subspace.from_vectors(2, [(0, 1)])
    assert lattice_intersect_subspace(axis, other).basis == ()
    assert lattice_intersect_subspace(z2, Subspace.full(2)).basis == z2.basis


def test_intersect_dimension_mismatch():
    with pytest.raises(DimensionError):
        lattice_intersect_subspace(Lattice.standard(2), Subspace.full(3))


def test_intersect_saturated_brute_force():
    # every lattice point of l inside span(v) lies in the returned module,
    # checked over the coefficient box |c| <= 5; the catalog groups supply
    # the (lattice, center) pairs the pipeline actually intersects
    from lieentropy.catalog import builtin_catalog
    from lieentropy.formats import build_group
    from lieentropy.liealgebra import center

    cases = [
        (Lattice.standard(2), Subspace.from_vectors(2, [(1, 1)])),
        (Lattice.standard(3), Subspace.from_vectors(3, [(1, 1, 0), (0, 0, 1)])),
        (Lattice.from_generators(2, [(2, 0), (0, 3)]), Subspace.from_vectors(2, [(1, 1)])),
        (Lattice.from_generators(3, [(F("1/2"), 0, 0), (0, 1, 0), (0, 0, 1)]),
         Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])),
    ]
    for entry in builtin_catalog():
        group, _ = build_group(entry.input_document())
        if group.lattice.rank:
            cases.append((group.lattice, center(group.algebra).space))
    for lat, space in cases:
        result = lattice_intersect_subspace(lat, space)
        for coeffs in itertools.product(range(-5, 6), repeat=lat.rank):
            point = [
                sum((Fraction(c) * lat.basis[i][j] for i, c in enumerate(coeffs)),
                    Fraction(0))
                for j in range(lat.ambient_dim)
            ]
            if space.contains(point):
                assert result.contains(point)
            else:
                assert not result.contains(point)


def test_where_cuts_out_the_points_a_map_kills():
    # images of the basis rows under x -> x_1 - x_2 (one coordinate each)
    plane = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 1)])
    assert plane.where([(F(1),), (F(-1),)]) == Subspace.from_vectors(3, [(1, 1, 1)])
    lattice = Lattice.from_generators(2, [(2, 0), (0, 3)])
    assert lattice.where([(Fraction(1, 2),), (Fraction(1, 3),)]).basis == ((F(4), F(-9)),)
    # a map into the zero space kills everything; an empty container stays empty
    assert plane.where([(), ()]) == plane
    assert lattice.where([(), ()]) == lattice
    assert Subspace.from_vectors(3, []).where([]) == Subspace.from_vectors(3, [])
    assert Lattice.from_generators(3, []).where([]).is_empty()


# --- subspaces --------------------------------------------------------------

def test_subspace_canonical_equality():
    a = Subspace.from_vectors(3, [(1, 1, 0), (0, 2, 2)])
    b = Subspace.from_vectors(3, [(2, 2, 0), (1, 2, 1), (1, 0, -1)])
    assert a == b


def test_subspace_intersection_and_sum():
    xy = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
    yz = Subspace.from_vectors(3, [(0, 1, 0), (0, 0, 1)])
    assert xy.intersect(yz) == Subspace.from_vectors(3, [(0, 1, 0)])
    assert xy.sum(yz) == Subspace.full(3)


def test_chain_stops_at_the_first_fixed_point():
    def images(m):
        def step(s):
            calls.append(s)
            return Subspace.from_vectors(s.ambient_dim, [mat_vec(m, v) for v in s.basis])
        return step

    shift = [[int(j == i + 1) for j in range(4)] for i in range(4)]  # nilpotent
    calls = []
    chain = Subspace.full(4).chain(images(shift))
    assert [s.dim for s in chain] == [4, 3, 2, 1, 0]
    assert chain[-1] == Subspace.from_vectors(4, [])
    assert calls == chain  # each term is stepped once; the last one is fixed
    # a Jordan block at 0 beside an invertible block: the fixed point is nonzero
    jordan = [[0, 1, 0], [0, 0, 0], [0, 0, 5]]
    calls = []
    chain = Subspace.full(3).chain(images(jordan))
    assert [s.dim for s in chain] == [3, 2, 1]
    assert chain[-1] == Subspace.from_vectors(3, [(0, 0, 1)])
    calls = []
    assert Subspace.full(2).chain(images(identity_matrix(2))) == [Subspace.full(2)]


def test_solve_and_kernel():
    assert solve([[2, 0], [0, 4]], (6, 8)) == (F(3), F(2))
    assert solve([[1, 1], [1, 1]], (1, 2)) is None
    kern = kernel_basis([[1, 1, 0]])
    assert len(kern) == 2
    assert rank([[1, 1, 0]] + [list(v) for v in kern]) == 3


def test_det_and_rref():
    assert det([[2, 1], [1, 1]]) == 1
    assert det([[1, 2], [2, 4]]) == 0
    red, pivots = rref([[0, 2], [1, 1]])
    assert pivots == [0, 1]
    assert red == [[F(1), F(0)], [F(0), F(1)]]


def test_companion_matrix_has_right_char_poly():
    poly = [2, -3, 0, 1]  # t^3 - 3t + 2
    comp = [[0, 0, -2], [1, 0, 3], [0, 1, 0]]
    assert char_poly(comp) == poly


# --- fraction-free kernels against the Fraction references ---------------

def _rref_reference(rows):
    """Gauss-Jordan over Fraction, row by row."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    pivots, r = [], 0
    for c in range(len(mat[0])):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _det_reference(m):
    """Gaussian elimination over Fraction."""
    mat = [[Fraction(x) for x in row] for row in m]
    n, sign, result = len(mat), 1, Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            mat[c], mat[pivot_row] = mat[pivot_row], mat[c]
            sign = -sign
        result *= mat[c][c]
        for i in range(c + 1, n):
            f = mat[i][c] / mat[c][c]
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return sign * result


def _char_poly_reference(m):
    """Faddeev-LeVerrier over Fraction; ints when every coefficient is integral."""
    mat = [[Fraction(x) for x in row] for row in m]
    n = len(mat)
    coeffs = [Fraction(1)]  # descending
    mk = [row[:] for row in mat]
    for k in range(1, n + 1):
        ck = -sum((mk[i][i] for i in range(n)), Fraction(0)) / k
        coeffs.append(ck)
        shifted = [[mk[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)]
        mk = mat_mul(mat, shifted)
    ascending = coeffs[::-1]
    if all(c.denominator == 1 for c in ascending):
        return [int(c) for c in ascending]
    return ascending


def _integer_coordinates_reference(lattice, v):
    """One rational solution of B^T c = v, kept when integral and when it
    reproduces v."""
    if not lattice.basis:
        return tuple() if all(x == 0 for x in v) else None
    columns = transpose(list(lattice.basis))
    coords = solve(columns, v)
    if coords is None or any(c.denominator != 1 for c in coords):
        return None
    if any(x != y for x, y in zip(mat_vec(columns, coords), v)):
        return None
    return tuple(int(c) for c in coords)


def _intersect_reference(a, b):
    """x = sum u_i a_i = sum w_j b_j from the stacked kernel of [A; -B]."""
    if not a.basis or not b.basis:
        return Subspace.from_vectors(a.ambient_dim, [])
    stacked = [list(row) for row in a.basis] + [[-x for x in row] for row in b.basis]
    columns = transpose(list(a.basis))
    vectors = [mat_vec(columns, combo[:a.dim]) for combo in kernel_basis(transpose(stacked))]
    return Subspace.from_vectors(a.ambient_dim, vectors)


def _lattice_intersect_subspace_reference(lattice, subspace):
    """The integer left kernel of the residues mod the subspace, recombined
    over the lattice basis by hand."""
    if lattice.is_empty():
        return lattice
    residues = [subspace.reduce(g) for g in lattice.basis]
    scale = lcm(*[x.denominator for row in residues for x in row] or [1])
    int_rows = [[int(x * scale) for x in row] for row in residues]
    columns = transpose(list(lattice.basis))
    vectors = [mat_vec(columns, combo) for combo in _int_left_kernel(int_rows)]
    return Lattice.from_generators(lattice.ambient_dim, vectors)


def _oracle_matrices():
    """Seeded rational matrices of every shape 0-8 x 0-8: sparse, with a zero
    row, with a repeated (scaled) row, and of lower rank (a product through
    a narrower inner dimension)."""
    rng = random.Random(2024)

    def entry():
        if rng.random() < 0.35:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 7)))

    for r in range(9):
        for c in range(9):
            for kind in range(4):
                m = [[entry() for _ in range(c)] for _ in range(r)]
                if kind == 1 and r:
                    m[rng.randrange(r)] = [Fraction(0)] * c
                elif kind == 2 and r > 1:
                    m[rng.randrange(1, r)] = [Fraction(rng.randint(-3, 3), 2) * x for x in m[0]]
                elif kind == 3 and r and c:
                    k = rng.randint(0, min(r, c) - 1)
                    left = [[entry() for _ in range(k)] for _ in range(r)]
                    right = [[entry() for _ in range(c)] for _ in range(k)]
                    m = [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
                          for j in range(c)] for i in range(r)]
                yield m


def _typed(value):
    """The value with the type of every entry and container attached."""
    if isinstance(value, (list, tuple)):
        return type(value), [_typed(x) for x in value]
    return type(value), value


def test_fraction_free_kernels_match_fraction_references():
    rng = random.Random(2025)
    for m in _oracle_matrices():
        red, pivots = rref(m)
        assert (red, pivots) == _rref_reference(m), m
        # the number rule: an int when integral, a Fraction otherwise
        assert all(type(x) is (int if x.denominator == 1 else Fraction) for row in red for x in row)
        square = len(m) == (len(m[0]) if m else 0)
        if square:
            value = det(m)
            assert type(value) is Fraction and value == _det_reference(m), m
            poly, reference = char_poly(m), _char_poly_reference(m)
            assert poly == reference, m
            assert [type(c) for c in poly] == [type(c) for c in reference], m
        # the same integral matrix with int entries and with Fraction entries
        # gives equal results of equal types
        scale = lcm(*(x.denominator for row in m for x in row))
        ints = [[int(x * scale) for x in row] for row in m]
        fractions = [[Fraction(x) for x in row] for row in ints]
        ncols = len(m[0]) if m else 0
        kernels = [
            rref,
            kernel_basis,
            lambda a: solve(a, [sum(row) for row in a]),
            lambda a: Subspace.from_vectors(ncols, a).basis,
            lambda a: Lattice.from_generators(ncols, a).basis,
        ]
        if square:
            kernels += [det, char_poly, min_poly]
        for kernel in kernels:
            assert _typed(kernel(ints)) == _typed(kernel(fractions)), (kernel, m)
        # lattice coordinates of a lattice point, of a point of the span off
        # the lattice (a half-integer combination) and of a random point
        lattice = Lattice.from_generators(ncols, m)
        columns = transpose(list(lattice.basis))
        coeffs = [rng.randint(-3, 3) for _ in lattice.basis]
        inside = mat_vec(columns, coeffs) if columns else (Fraction(0),) * ncols
        assert lattice.integer_coordinates(inside) == tuple(coeffs), m
        vectors = [inside, [rng.randint(-3, 3) for _ in range(ncols)]]
        if lattice.basis:
            half = mat_vec(columns, [c + Fraction(rng.choice((-1, 1)), 2) for c in coeffs])
            assert lattice.integer_coordinates(half) is None, m
            vectors.append(half)
        for v in vectors:
            assert lattice.integer_coordinates(v) == _integer_coordinates_reference(lattice, v), m
        # intersection with a random subspace sharing a row with this one
        space = Subspace.from_vectors(ncols, m)
        other = [[rng.randint(-2, 2) for _ in range(ncols)] for _ in range(rng.randint(0, ncols))]
        other = Subspace.from_vectors(ncols, other + m[:1])
        assert space.intersect(other) == _intersect_reference(space, other), m
        assert other.intersect(space) == _intersect_reference(other, space), m
        for sub in (space, other, Subspace.full(ncols), Subspace.from_vectors(ncols, [])):
            assert lattice_intersect_subspace(lattice, sub) == \
                _lattice_intersect_subspace_reference(lattice, sub), m


def test_integral_matches_the_denominator_formulas_it_replaced():
    # over the whole matrix, the formulas that char_poly, the echelon rows,
    # lattice generators and lattice kernels used; row by row, those of the
    # rref and det rows, a vector's coordinates and primitive polynomials;
    # entries by the number rule give the same integers
    for m in _oracle_matrices():
        scale = lcm(*(x.denominator for row in m for x in row))
        w, d = integral(m)
        assert (w, d) == ([[x.numerator * (scale // x.denominator) for x in row] for row in m],
                          scale), m
        assert w == [[int(x * scale) for x in row] for row in m], m
        assert all(type(x) is int for row in w for x in row), m
        assert integral([[exact(x) for x in row] for row in m]) == (w, d), m
        for row in m:
            s = lcm(*(x.denominator for x in row))
            assert integral([row]) == ([[x.numerator * (s // x.denominator) for x in row]], s)
            assert integral([row])[0] == [[int(x * s) for x in row]], row


def _bareiss_reference(rows, ncols):
    """Bareiss elimination rebuilding every other row at every pivot, the
    elimination without pending row scales."""
    pivots, prev, sign, r = [], 1, 1, 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            sign = -sign
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            if i != r:
                a = row[c]
                rows[i] = [(p * x - a * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots, prev, sign


def _bareiss_matrices():
    """Seeded 1-9 x 1-12 matrices, integer and rational, sparse and dense:
    rank-deficient ones, ones with zero rows, and [I | A] and [A | I]."""
    rng = random.Random(18)
    for _ in range(600):
        r, c = rng.randint(1, 9), rng.randint(1, 12)
        zeros, denominators = rng.choice((0.0, 0.5, 0.85)), rng.choice(((1,), (1, 2, 3, 7)))
        kind = rng.randrange(5)

        def entry():
            if rng.random() < zeros:
                return 0
            return exact(rng.randint(-9, 9), rng.choice(denominators))

        m = [[entry() for _ in range(c)] for _ in range(r)]
        if kind == 1:
            k = rng.randint(0, min(r, c) - 1)
            left = [[entry() for _ in range(k)] for _ in range(r)]
            right = [[entry() for _ in range(c)] for _ in range(k)]
            m = mat_mul(left, right) if k else [[0] * c for _ in range(r)]
        elif kind == 2:
            for i in rng.sample(range(r), rng.randint(1, r)):
                m[i] = [0] * c
        elif kind in (3, 4):
            block = [row[:max(c - r, 1)] for row in m]
            m = [[*e, *b] if kind == 3 else [*b, *e] for e, b in zip(identity_matrix(r), block)]
            rng.shuffle(m)
        yield m


def test_bareiss_pending_scales_match_the_full_rebuild(monkeypatch):
    import lieentropy.exactlinalg as exactlinalg

    for m in _bareiss_matrices():
        ncols = len(m[0])
        rows, _ = exactlinalg.integral(m)
        expected = [row[:] for row in rows]
        assert exactlinalg._bareiss(rows, ncols) == _bareiss_reference(expected, ncols), m
        assert rows == expected, m
        square = len(m) == ncols
        got = _typed((rref(m), rank(m), det(m) if square else None))
        with monkeypatch.context() as patch:
            patch.setattr(exactlinalg, "_bareiss", _bareiss_reference)
            assert got == _typed((rref(m), rank(m), det(m) if square else None)), m


def _eliminate_reference(container, v):
    """Coefficients and residue by Fraction elimination along the pivots,
    top row first, dividing by each pivot entry."""
    v = [Fraction(x) for x in v]
    coeffs = []
    for row, p in zip(container.basis, container.pivots):
        f = v[p] / row[p]
        v[p:] = [x - f * y for x, y in zip(v[p:], row[p:])]
        coeffs.append(f)
    return coeffs, tuple(v)


def test_integer_elimination_matches_fraction_elimination():
    rng = random.Random(2026)
    for m in _oracle_matrices():
        ncols = len(m[0]) if m else 0
        space, lattice = Subspace.from_vectors(ncols, m), Lattice.from_generators(ncols, m)
        for container in (space, lattice):
            columns = transpose(list(container.basis))
            # points of the container, of its span and of the whole space
            combos = [[rng.randint(-3, 3) for _ in container.basis],
                      [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in container.basis]]
            vectors = [mat_vec(columns, c) if columns else (0,) * ncols for c in combos]
            vectors += [[Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 9)))
                         for _ in range(ncols)] for _ in range(2)]
            for v in vectors:
                coeffs, residue = _eliminate_reference(container, v)
                scale = lcm(*(Fraction(x).denominator for x in v))
                as_ints = [int(x * scale) for x in v]
                as_fractions = [Fraction(x) for x in as_ints]
                if container is space:
                    assert space.reduce(v) == residue, (m, v)
                    assert space.contains(v) is not any(residue), (m, v)
                    # the residue's types follow its values only
                    assert _typed(space.reduce(as_ints)) == _typed(space.reduce(as_fractions))
                    assert all(type(x) is (int if x.denominator == 1 else Fraction)
                               for x in space.reduce(v))
                else:
                    inside = not any(residue) and all(c.denominator == 1 for c in coeffs)
                    assert lattice.integer_coordinates(v) == \
                        (tuple(int(c) for c in coeffs) if inside else None), (m, v)
                    int_coeffs, int_residue = _eliminate_reference(lattice, as_ints)
                    expected = (None if any(int_residue) or
                                any(c.denominator != 1 for c in int_coeffs)
                                else tuple(int(c) for c in int_coeffs))
                    for w in (as_ints, as_fractions):
                        got = lattice.integer_coordinates(w)
                        assert got == expected, (m, w)
                        assert got is None or all(type(c) is int for c in got)
        with pytest.raises(DimensionError):
            space.reduce((0,) * (ncols + 1))
        with pytest.raises(DimensionError):
            lattice.integer_coordinates((0,) * (ncols + 1))


class _Untouchable:
    """A zero entry that raises when it enters a product."""

    def __bool__(self):
        return False

    def __mul__(self, other):
        raise AssertionError("a zero entry was multiplied")

    __rmul__ = __mul__


def test_products_skip_zero_entries():
    zero = _Untouchable()
    assert mat_vec([[F(1), F(2)], [F(3), F(4)]], [zero, F(5)]) == (F(10), F(20))
    assert mat_mul([[zero, F(1)], [F(2), zero]], [[F(2), F(3)], [F(4), F(5)]]) == \
        [[F(4), F(5)], [F(4), F(6)]]
    # a sum with no nonzero term is the int 0
    assert [type(x) for x in mat_vec([[F(1)], [F(2)]], [0])] == [int, int]
    assert type(mat_mul([[0, F(0)]], [[F(1)], [F(1)]])[0][0]) is int


def test_entries_follow_the_number_rule():
    # an int when integral, a Fraction otherwise, whatever the spelling
    for x, d in (("2", 1), ("4/2", 1), (2, 1), (F(2), 1), (6, 3), (Fraction(4, 3), 1), (-8, 4)):
        assert type(exact(x, d)) is (int if F(x) / d == int(F(x) / d) else Fraction), (x, d)
        assert exact(x, d) == F(x) / d, (x, d)
    for x in ("2", "4/2", 2, F(2)):
        assert _typed(exact(x)) == (int, 2)
    assert _typed(exact("1/2")) == _typed(exact(1, 2)) == _typed(exact(F(3), 6)) == \
        (Fraction, F("1/2"))
    assert _typed(identity_matrix(2)) == (list, [(list, [(int, 1), (int, 0)]),
                                                 (list, [(int, 0), (int, 1)])])
    assert all(type(x) is int for row in Subspace.full(3).basis for x in row)
    assert _typed(kernel_basis([[F(2), F(4)]])) == (list, [(tuple, [(int, -2), (int, 1)])])
    assert _typed(solve([[F(2), 0], [0, F(4)]], [4, 2])) == (tuple, [(int, 2), (Fraction, F("1/2"))])
    lattice = Lattice.from_generators(2, [[F(4), F("1/2")], [2, 0]])
    assert _typed(lattice.basis) == (tuple, [(tuple, [(int, 2), (int, 0)]),
                                             (tuple, [(int, 0), (Fraction, F("1/2"))])])


def test_char_poly_integer_matrices_match_reference():
    rng = random.Random(11)
    for n in (1, 2, 5, 9, 12):
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        poly = char_poly(m)
        assert poly == _char_poly_reference(m)
        assert all(type(c) is int for c in poly)


def test_mat_pow_squares_only_while_bits_remain(monkeypatch):
    import lieentropy.exactlinalg as exactlinalg

    m = [[1, 1], [1, 0]]
    calls = []
    original = exactlinalg.mat_mul

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(exactlinalg, "mat_mul", counted)
    expected = identity_matrix(2)
    for k in range(10):
        calls.clear()
        assert exactlinalg.mat_pow(m, k) == expected
        assert len(calls) == (k.bit_length() - 1 + bin(k).count("1") if k else 0), k
        expected = original(expected, m)


def test_min_poly_starts_the_krylov_sequence_at_m(monkeypatch):
    import lieentropy.exactlinalg as exactlinalg

    calls = []
    original = exactlinalg.mat_mul

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(exactlinalg, "mat_mul", counted)
    assert exactlinalg.min_poly([[0] * 12 for _ in range(12)]) == [0, 1]
    assert len(calls) == 0
    assert exactlinalg.min_poly([[1, 1], [0, 1]]) == [1, -2, 1]
    assert len(calls) == 1
