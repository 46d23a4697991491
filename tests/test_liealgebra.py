import itertools
import random
from fractions import Fraction

import pytest

import lieentropy.exactlinalg
import lieentropy.liealgebra
from lieentropy.catalog import builtin_catalog
from lieentropy.errors import DomainError, InvariantViolationError
from lieentropy.exactlinalg import (
    Subspace,
    identity_matrix,
    kernel_basis,
    mat_mul,
    mat_vec,
    rref,
    solve,
    transpose,
)
from lieentropy.formats import build_group
from lieentropy.liealgebra import (
    Ideal,
    LieAlgebra,
    bracket_span,
    center,
    centralizer_in,
    derived_series,
    is_ad_nilpotent,
    is_ideal,
    is_solvable,
    is_subalgebra,
    killing_form,
    nilradical,
    quotient_algebra,
    solvable_radical,
    validate_algebra,
)


def F(x):
    return Fraction(x)


def e2():
    return LieAlgebra.from_brackets(3, [(0, 1, 2, 1), (0, 2, 1, -1)], ["H", "X", "Y"])


def heisenberg():
    return LieAlgebra.from_brackets(3, [(0, 1, 2, 1)], ["X", "Y", "Z"])


def sl2():
    return LieAlgebra.from_brackets(3, [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)],
                                    ["H", "E", "F"])


def sl2_plus_line():
    return LieAlgebra.from_brackets(4, [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)],
                                    ["H", "E", "F", "W"])


def affine_line():
    return LieAlgebra.from_brackets(2, [(0, 1, 1, 1)], ["H", "X"])


def weight_trap():
    # [H,X] = X+Y, [H,Y] = -X+Y: ad(H) has eigenvalues 1 +- i
    return LieAlgebra.from_brackets(
        3, [(0, 1, 1, 1), (0, 1, 2, 1), (0, 2, 1, -1), (0, 2, 2, 1)], ["H", "X", "Y"])


def heisenberg_k(k):
    """h(2k+1): [X_i, Y_i] = Z on the basis X_1..X_k, Y_1..Y_k, Z."""
    return LieAlgebra.from_brackets(2 * k + 1, [(i, k + i, 2 * k, 1) for i in range(k)])


def sl2_power(k):
    """sl2^k, the copies on consecutive basis triples."""
    return LieAlgebra.from_brackets(3 * k, [(3 * c + i, 3 * c + j, 3 * c + l, v)
                                            for c in range(k)
                                            for i, j, l, v in sl2().constants])


def so3():
    return LieAlgebra.from_brackets(3, [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1)],
                                    ["X", "Y", "Z"])


def direct_sum(a, b):
    """a + b, with b's basis after a's."""
    shifted = [(i + a.dim, j + a.dim, k + a.dim, c) for i, j, k, c in b.constants]
    return LieAlgebra.from_brackets(a.dim + b.dim, list(a.constants) + shifted)


def line_on(matrix):
    """R x Q^m: [H, X_j] = sum_i matrix[i][j] X_i, on the basis H, X_1..X_m."""
    m = len(matrix)
    return LieAlgebra.from_brackets(m + 1, [(0, 1 + j, 1 + i, matrix[i][j])
                                            for i in range(m) for j in range(m) if matrix[i][j]])


CATALOG = [e2, heisenberg, sl2, sl2_plus_line, affine_line, lambda: LieAlgebra.abelian(2)]


def nilradical_families():
    """The algebras the nilradical is checked on: the fixtures above, the
    catalog's algebras, the families of the `lie-analyze` benchmark (h(2k+1),
    sl2^k + circle, E2), and 300 seeded R x Q^m (m <= 4, entries in
    {0, +-1, 2, 1/2}), about 30% of them summed with sl2, so(3) or h(3)."""
    algebras = [make() for make in CATALOG]
    algebras += [build_group(entry.input_document())[0].algebra for entry in builtin_catalog()]
    algebras += [heisenberg_k(k) for k in range(1, 6)]
    algebras += [direct_sum(sl2_power(k), LieAlgebra.abelian(1)) for k in range(1, 5)]
    algebras.append(e2())
    rng = random.Random(43)
    entries = (0, 0, 1, -1, 2, Fraction(1, 2))
    for _ in range(300):
        m = rng.randint(1, 4)
        a = line_on([[rng.choice(entries) for _ in range(m)] for _ in range(m)])
        if rng.random() < 0.3:
            a = direct_sum(a, rng.choice((sl2, so3, heisenberg))())
        algebras.append(a)
    return algebras


def _nilradical_via_radical(algebra):
    """The nilradical by the route that builds the solvable radical first:
    r by Cartan's criterion, cut by ker kappa, then the ideal check, Engel's
    series and r' <= n <= r, each raising as the pipeline does."""
    form = killing_form(algebra)
    rad = solvable_radical(algebra).space
    space = rad.where([mat_vec(form, v) for v in rad.basis])
    Ideal(algebra, space, "nilradical")
    if lieentropy.liealgebra._engel_series(algebra, space)[-1].dim:
        raise InvariantViolationError(
            "nilradical", "computed nilradical contains a non-ad-nilpotent element")
    derived = bracket_span(algebra, rad, rad)
    if not all(map(space.contains, derived.basis)) or not all(map(rad.contains, space.basis)):
        raise InvariantViolationError("nilradical", "chain r' <= n <= r fails")
    return space


def _outcome(compute, algebra):
    """("basis", the basis computed), or ("abort", the abort's type, stage
    and message)."""
    try:
        return "basis", compute(algebra).basis
    except InvariantViolationError as exc:
        return "abort", type(exc), exc.stage, str(exc)


def _is_ad_nilpotent_reference(algebra, x):
    """ad(x)^dim = 0, by dense matrix powers."""
    ad = algebra.adjoint_matrix(x)
    power = identity_matrix(algebra.dim)
    for _ in range(algebra.dim):
        power = mat_mul(power, ad)
    return not any(map(any, power))


# --- validation -----------------------------------------------------------

def test_validate_examples():
    assert validate_algebra(LieAlgebra.abelian(2)).valid
    assert validate_algebra(heisenberg()).valid
    tampered = LieAlgebra.from_brackets(3, [(0, 1, 2, 1), (1, 0, 2, 1)], ["X", "Y", "Z"])
    report = validate_algebra(tampered)
    assert not report.valid
    assert report.violations[0][0] == "antisymmetry"
    assert report.violations[0][1] == ("X", "Y")


def test_validate_catches_jacobi():
    bad = LieAlgebra.from_brackets(3, [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 0, 1)])
    report = validate_algebra(bad)
    assert not report.valid
    assert any(kind == "jacobi" for kind, _, _ in report.violations)


# --- adjoint and killing ----------------------------------------------------

def test_adjoint_examples():
    a = e2()
    assert a.adjoint_matrix((1, 0, 0)) == [
        [F(0), F(0), F(0)], [F(0), F(0), F(-1)], [F(0), F(1), F(0)]]
    assert LieAlgebra.abelian(3).adjoint_matrix((1, 2, 3)) == [[F(0)] * 3] * 3
    h = heisenberg()
    ad_x = h.adjoint_matrix((1, 0, 0))
    assert ad_x[2][1] == 1 and sum(1 for row in ad_x for v in row if v != 0) == 1
    assert all(v == 0 for row in mat_mul(ad_x, ad_x) for v in row)


def test_integral_constants_give_int_brackets_and_adjoints():
    # the number rule: "4/2", 2 and Fraction(2) are all the int 2, and
    # brackets, adjoints and unit vectors of int data are ints
    a = LieAlgebra.from_brackets(3, [(0, 1, 1, "4/2"), (0, 2, 2, F(-2)), (1, 2, 0, 1)])
    assert a.constants == sl2().constants
    assert all(type(c) is int for *_, c in a.constants)
    units = [a.basis_vector(i) for i in range(3)]
    entries = [x for e in units for x in e]
    entries += [x for e in units for y in units for x in a.bracket(e, y)]
    entries += [x for e in units for row in a.adjoint_matrix(e) for x in row]
    assert all(type(x) is int for x in entries)
    halves = [c for *_, c in LieAlgebra.from_brackets(2, [(0, 1, 1, "1/2")]).constants]
    assert halves == [F("1/2"), F("-1/2")] and all(type(c) is Fraction for c in halves)


def test_killing_form_examples():
    assert killing_form(LieAlgebra.abelian(2)) == [[F(0)] * 2] * 2
    k = killing_form(e2())
    assert k[0][0] == -2
    assert all(k[1][j] == 0 and k[2][j] == 0 for j in range(3))
    k = killing_form(sl2())
    assert k[0][0] == 8 and k[1][2] == 4 and k[1][1] == 0


def test_killing_symmetric_invariant():
    # kappa([x,y],z) = kappa(x,[y,z]) on all basis triples, exactly
    for make in CATALOG:
        a = make()
        k = killing_form(a)
        basis = identity_matrix(a.dim)

        def kappa(u, v):
            return sum(
                u[i] * v[j] * k[i][j] for i in range(a.dim) for j in range(a.dim))

        for x, y, z in itertools.product(basis, repeat=3):
            assert kappa(a.bracket(x, y), z) == kappa(x, a.bracket(y, z))
        assert all(k[i][j] == k[j][i] for i in range(a.dim) for j in range(a.dim))


# --- center and centralizer ---------------------------------------------------

def test_center_examples():
    assert center(heisenberg()).space == Subspace.from_vectors(3, [(0, 0, 1)])
    assert center(LieAlgebra.abelian(2)).space.dim == 2
    assert center(e2()).space.dim == 0


def test_centralizer_examples():
    h = heisenberg()
    assert centralizer_in(h, Subspace.full(3)) == Subspace.from_vectors(3, [(0, 0, 1)])
    a = e2()
    plane = Subspace.from_vectors(3, [(0, 1, 0), (0, 0, 1)])
    assert centralizer_in(a, plane) == plane
    trivial = Subspace.from_vectors(3, [])
    assert centralizer_in(a, trivial) == trivial


def test_centralizer_requires_subalgebra():
    # span{E, F} in sl2 is not closed: [E, F] = H
    with pytest.raises(DomainError):
        centralizer_in(sl2(), Subspace.from_vectors(3, [(0, 1, 0), (0, 0, 1)]))


def test_centralizer_computes_each_bracket_once(monkeypatch):
    a = sl2_plus_line()
    full = Subspace.full(a.dim)
    calls = []
    original = LieAlgebra.bracket

    def counted(self, x, y):
        calls.append((x, y))
        return original(self, x, y)

    monkeypatch.setattr(LieAlgebra, "bracket", counted)
    assert centralizer_in(a, full) == Subspace.from_vectors(4, [(0, 0, 0, 1)])
    # dim(sub)^2 brackets for the closure check and as many for the conditions
    assert len(calls) <= 2 * full.dim ** 2


def test_subalgebra_check_reads_the_constants(monkeypatch):
    a = sl2_plus_line()
    calls = []
    original = LieAlgebra.bracket

    def counted(self, x, y):
        calls.append((x, y))
        return original(self, x, y)

    monkeypatch.setattr(LieAlgebra, "bracket", counted)
    assert is_subalgebra(a, Subspace.full(a.dim))  # closed by definition
    borel = Subspace.from_vectors(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)])
    assert is_subalgebra(a, borel)
    assert not is_subalgebra(a, Subspace.from_vectors(4, [(0, 1, 0, 0), (0, 0, 1, 0)]))
    assert calls == []  # brackets are summed from the nonzero constants


def test_center_equals_centralizer_of_whole():
    for make in CATALOG:
        a = make()
        assert center(a).space == centralizer_in(a, Subspace.full(a.dim))


# --- series ---------------------------------------------------------------

def test_series_examples():
    h = heisenberg()
    assert [s.dim for s in derived_series(h)] == [3, 1, 0]
    assert is_solvable(h)
    assert [s.dim for s in derived_series(sl2())] == [3]
    assert not is_solvable(sl2())
    ab = LieAlgebra.abelian(3)
    assert [s.dim for s in derived_series(ab)] == [3, 0]
    # from a subalgebra: the Borel of sl2 is solvable, sl2 + line's radical too
    borel = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
    assert [s.dim for s in derived_series(sl2(), borel)] == [2, 1, 0]
    line = Subspace.from_vectors(4, [(0, 0, 0, 1)])
    assert [s.dim for s in derived_series(sl2_plus_line(), line)] == [1, 0]
    assert [s.dim for s in derived_series(sl2(), Subspace.from_vectors(3, []))] == [0]


# --- radicals ----------------------------------------------------------------

def test_solvable_radical_examples():
    assert solvable_radical(sl2()).space.dim == 0
    assert solvable_radical(e2()).space.dim == 3
    assert solvable_radical(sl2_plus_line()).space == Subspace.from_vectors(
        4, [(0, 0, 0, 1)])


def test_radical_post_check_rejects_a_non_solvable_result(monkeypatch):
    # a zero form makes every x orthogonal to [g,g]: all of sl2, not solvable
    monkeypatch.setattr(lieentropy.liealgebra, "killing_form",
                        lambda algebra: [[F(0)] * algebra.dim for _ in range(algebra.dim)])
    with pytest.raises(InvariantViolationError, match="not solvable"):
        solvable_radical(sl2())


def test_nilradical_examples():
    assert nilradical(e2()).space == Subspace.from_vectors(3, [(0, 1, 0), (0, 0, 1)])
    assert nilradical(heisenberg()).space.dim == 3
    assert nilradical(affine_line()).space == Subspace.from_vectors(2, [(0, 1)])


def test_nilradical_computes_killing_form_once(monkeypatch):
    calls = []
    original = lieentropy.liealgebra.killing_form

    def counted(algebra):
        calls.append(algebra)
        return original(algebra)

    monkeypatch.setattr(lieentropy.liealgebra, "killing_form", counted)
    # the nilradical is the kernel of the algebra's own Killing form, and no
    # quotient's form is computed, solvable or not
    for make in CATALOG:
        calls.clear()
        nilradical(make())
        assert len(calls) == 1


def test_nilradical_matches_the_route_through_the_radical():
    outcomes = [(_outcome(lambda a: nilradical(a).space, a), _outcome(_nilradical_via_radical, a))
                for a in nilradical_families()]
    for new, old in outcomes:
        assert new == old
    # both routes answer most and abort on some, at stage nilradical
    aborts = [new for new, _ in outcomes if new[0] == "abort"]
    assert 0 < len(aborts) < len(outcomes) / 10
    assert {stage for _, _, stage, _ in aborts} == {"nilradical"}


def test_radical_chain_and_ideal_property():
    # r' <= n <= r and z(g) <= n, wherever the nilradical is certified
    checked = 0
    for a in nilradical_families():
        rad = solvable_radical(a)
        try:
            nil = nilradical(a)
        except InvariantViolationError:
            continue
        assert is_ideal(a, rad.space)
        assert is_ideal(a, nil.space)
        derived_of_r = bracket_span(a, rad.space, rad.space)
        assert all(map(nil.space.contains, derived_of_r.basis))
        assert all(map(rad.space.contains, nil.space.basis))
        assert all(map(nil.space.contains, center(a).space.basis))
        checked += 1
    assert checked > 300


def test_quotient_by_radical_is_semisimple():
    for make in CATALOG:
        a = make()
        quotient, _ = quotient_algebra(a, solvable_radical(a))
        if quotient.dim:
            from lieentropy.exactlinalg import rank

            assert rank(killing_form(quotient)) == quotient.dim


def test_nilradical_maximality_brute_force():
    # no ideal spanned by n plus one extra radical basis vector is
    # entirely ad-nilpotent (desk-scale maximality check)
    for make in CATALOG:
        a = make()
        rad = solvable_radical(a)
        nil = nilradical(a)
        if nil.space.dim == rad.space.dim:
            continue
        for extra in rad.space.basis:
            if nil.space.contains(extra):
                continue
            bigger = nil.space.sum(Subspace.from_vectors(a.dim, [extra]))
            if not is_ideal(a, bigger):
                continue
            assert not all(_is_ad_nilpotent_reference(a, v) for v in bigger.basis)


def test_nilradical_post_verification_rejects_weight_trap():
    # kappa vanishes identically on the trap although ad(H) has eigenvalues
    # 1 +- i, so the kappa-orthogonal overshoots the true nilradical and
    # Engel's series stalls at span{X, Y}
    trap = weight_trap()
    assert validate_algebra(trap).valid
    assert is_solvable(trap)
    assert [s.dim for s in lieentropy.liealgebra._engel_series(trap, Subspace.full(3))] == [3, 2]
    with pytest.raises(InvariantViolationError, match="non-ad-nilpotent"):
        nilradical(trap)


def test_is_ad_nilpotent_matches_the_matrix_power_reference():
    rng = random.Random(19)
    algebras = [make() for make in CATALOG]
    algebras += [heisenberg_k(k) for k in (1, 2, 4)] + [sl2_power(k) for k in (1, 2, 3)]
    algebras.append(weight_trap())
    outcomes = set()
    for a in algebras:
        vectors = [a.basis_vector(i) for i in range(a.dim)] + [(0,) * a.dim]
        vectors += [tuple(F(rng.randint(-2, 2)) / rng.randint(1, 3) for _ in range(a.dim))
                    for _ in range(6)]
        # sparse combinations also hit nilpotent non-basis elements of sl2 and the trap
        vectors += [tuple(rng.choice((0, 0, 1, -1)) for _ in range(a.dim)) for _ in range(6)]
        for v in vectors:
            expected = _is_ad_nilpotent_reference(a, v)
            assert is_ad_nilpotent(a, v) == expected, (a.basis_names, v)
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_nilradical_makes_no_matrix_products(monkeypatch):
    # Engel's series is bracket spans only: no adjoint matrix is multiplied
    calls = []
    original = lieentropy.exactlinalg.mat_mul
    for module in (lieentropy.exactlinalg, lieentropy.liealgebra):
        for alias, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, alias, lambda *args: calls.append(1) or original(*args))
    for k in (8, 32):
        assert nilradical(heisenberg_k(k)).space.dim == 2 * k + 1
    assert nilradical(sl2_power(3)).space.dim == 0
    assert calls == []


# --- quotients ---------------------------------------------------------------

def test_quotient_examples():
    a = e2()
    quotient, projection = quotient_algebra(a, nilradical(a))
    assert quotient.dim == 1
    assert quotient.constants == ()
    assert projection == [[F(1), F(0), F(0)]]

    h = heisenberg()
    quotient, _ = quotient_algebra(h, center(h))
    assert quotient.dim == 2
    assert quotient.constants == ()

    same, proj = quotient_algebra(a, Subspace.from_vectors(3, []))
    assert same.constants == a.constants
    assert proj == identity_matrix(3)


def test_quotient_rejects_non_ideal():
    with pytest.raises(DomainError):
        quotient_algebra(sl2(), Subspace.from_vectors(3, [(0, 1, 0)]))


def _quotient_reference(algebra, space):
    """g/space through the change of basis whose columns are the ideal basis
    and the non-pivot unit vectors: the projection is the complement block
    of its inverse (one `solve` per column), applied to every dense bracket
    of two complement basis vectors."""
    n = algebra.dim
    _, pivots = rref(list(space.basis))
    complement = [c for c in range(n) if c not in pivots]
    cols = [list(v) for v in space.basis] + [list(algebra.basis_vector(c)) for c in complement]
    change = [list(row) for row in zip(*cols)]
    inverse = [solve(change, algebra.basis_vector(j)) for j in range(n)]  # columns
    projection = [[inverse[j][space.dim + r] for j in range(n)] for r in range(len(complement))]
    brackets = []
    for a, ca in enumerate(complement):
        for b, cb in enumerate(complement):
            image = algebra.bracket(algebra.basis_vector(ca), algebra.basis_vector(cb))
            for r, row in enumerate(projection):
                c = sum((x * y for x, y in zip(row, image)), Fraction(0))
                if c != 0:
                    brackets.append((a, b, r, c))
    names = tuple(algebra.basis_names[c] for c in complement)
    return LieAlgebra.from_brackets(len(complement), brackets, names), projection


def _unimodular(rng, n, steps=8):
    """A random integer matrix of determinant 1, by row additions."""
    m = identity_matrix(n)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        t = rng.choice((-2, -1, 1, 2))
        m[i] = [x + t * y for x, y in zip(m[i], m[j])]
    return m


def _conjugated(algebra, change):
    """The same algebra in the basis given by the columns of `change`."""
    n = algebra.dim
    columns = transpose(change)
    brackets = []
    for i in range(n):
        for j in range(i + 1, n):
            coords = solve(change, algebra.bracket(columns[i], columns[j]))
            brackets += [(i, j, k, c) for k, c in enumerate(coords) if c]
    return LieAlgebra.from_brackets(n, brackets)


def _semidirect(rng, k, offset=0):
    """Brackets of R x_T R^k on e_offset, ..., e_(offset+k): [H, X_j] = T X_j
    for an upper triangular integer T with nonzero (real) eigenvalues, so
    the algebra is solvable, not nilpotent, and its nilradical is R^k."""
    triples = []
    for j in range(k):
        for i in range(j + 1):
            value = rng.choice((-2, -1, 1, 2, 3)) if i == j else rng.randint(-2, 2)
            if value:
                triples.append((offset, offset + 1 + j, offset + 1 + i, value))
    return triples


def random_algebras():
    """Seeded valid algebras: nilpotent staircases, solvable non-nilpotent
    semidirect products R x R^k, and non-solvable sl2 + R^m and
    sl2 + (R x R^k), the last three in a random unimodular basis."""
    rng = random.Random(5)
    algebras = []
    for _ in range(10):
        # staircases: brackets only raise the index, so nilpotent
        dim = rng.randint(2, 4)
        triples = []
        for i in range(dim):
            for j in range(i + 1, dim):
                k = rng.randint(j, dim - 1) if j < dim - 1 else dim - 1
                if k > j and rng.random() < 0.7:
                    triples.append((i, j, k, rng.randint(-2, 2)))
        algebras.append(LieAlgebra.from_brackets(dim, triples))
    sl2_triples = list(sl2().constants)
    for _ in range(6):
        k = rng.randint(1, 3)
        algebras.append(LieAlgebra.from_brackets(k + 1, _semidirect(rng, k)))
        m = rng.randint(1, 2)
        algebras.append(LieAlgebra.from_brackets(3 + m, sl2_triples))
        k = rng.randint(1, 2)
        algebras.append(LieAlgebra.from_brackets(4 + k, sl2_triples + _semidirect(rng, k, 3)))
    return [_conjugated(a, _unimodular(rng, a.dim)) for a in algebras]


def test_random_brackets_obey_ideal_property():
    quotient_dims = []
    for a in random_algebras():
        assert validate_algebra(a).valid
        rad = solvable_radical(a)
        nil = nilradical(a)
        assert is_ideal(a, rad.space) and is_ideal(a, nil.space)
        for ideal in (rad, nil, center(a)):
            quotient = quotient_algebra(a, ideal)
            assert quotient == _quotient_reference(a, ideal.space)
            quotient_dims.append(quotient[0].dim)
    # the quotients are mostly nonzero, so the projection is exercised
    assert sum(d > 0 for d in quotient_dims) > len(quotient_dims) / 2


def _intersect_reference(a, b):
    """Combinations of the basis of a whose residue mod b vanishes, from the
    kernel of the residues, recombined by hand."""
    residues = [b.reduce(v) for v in a.basis]
    columns = transpose(list(a.basis))
    vectors = [mat_vec(columns, combo) for combo in kernel_basis(transpose(residues))]
    return Subspace.from_vectors(a.ambient_dim, vectors)


def _radical_reference(algebra):
    """r = {x : kappa(x, [g,g]) = 0} as the kernel of the stacked conditions."""
    n = algebra.dim
    form = killing_form(algebra)
    derived = bracket_span(algebra, Subspace.full(n), Subspace.full(n))
    conditions = [mat_vec(form, d) for d in derived.basis]
    return Subspace.from_vectors(n, kernel_basis(conditions) if conditions else identity_matrix(n))


def _nilradical_reference(algebra):
    """r intersected with the kernel of the Killing form."""
    kernel = Subspace.from_vectors(algebra.dim, kernel_basis(killing_form(algebra)))
    return _intersect_reference(_radical_reference(algebra), kernel)


def _centralizer_reference(algebra, sub):
    """{x in sub : [x, y] = 0 for y in sub}, one condition row per (y, k)."""
    if sub.dim == 0:
        return sub
    conditions = []
    for y in sub.basis:
        images = [algebra.bracket(b, y) for b in sub.basis]
        conditions += [[image[k] for image in images] for k in range(algebra.dim)]
    columns = transpose(list(sub.basis))
    vectors = [mat_vec(columns, combo) for combo in kernel_basis(conditions)]
    return Subspace.from_vectors(algebra.dim, vectors)


def test_radicals_and_centralizers_match_kernel_references():
    algebras = [make() for make in CATALOG] + random_algebras()
    for a in algebras:
        rad = solvable_radical(a).space
        nil = nilradical(a).space
        assert rad == _radical_reference(a)
        assert nil == _nilradical_reference(a)
        for sub in (Subspace.full(a.dim), rad, nil, Subspace.from_vectors(a.dim, [])):
            assert centralizer_in(a, sub) == _centralizer_reference(a, sub)


def _is_ideal_dense_reference(algebra, space):
    """Every [e_i, v] formed and tested, zero brackets included."""
    basis = identity_matrix(algebra.dim)
    return all(space.contains(algebra.bracket(e, v)) for e in basis for v in space.basis)


def _centralizer_dense_reference(algebra, sub):
    """The images [b, y] for every pair of basis rows, zeros included,
    concatenated per b and cut out of sub."""
    return sub.where([tuple(x for y in sub.basis for x in algebra.bracket(b, y))
                      for b in sub.basis])


def test_sparse_ideal_and_centralizer_match_dense_references():
    rng = random.Random(17)
    kinds = {True: 0, False: 0}
    for a in [make() for make in CATALOG] + random_algebras():
        n = a.dim
        full, zero = Subspace.full(n), Subspace.from_vectors(n, [])
        rad, nil = solvable_radical(a).space, nilradical(a).space
        derived = bracket_span(a, full, full)
        spaces = [full, zero, rad, nil, center(a).space, derived]
        # lines (always subalgebras), their sums with a radical, random spans
        for _ in range(6):
            line = Subspace.from_vectors(n, [[rng.randint(-2, 2) for _ in range(n)]])
            spaces += [line, line.sum(nil), line.sum(derived)]
            spaces.append(Subspace.from_vectors(
                n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(2, n))]))
        for space in spaces:
            ideal = is_ideal(a, space)
            assert ideal is _is_ideal_dense_reference(a, space), (a.constants, space)
            kinds[ideal] += 1
            if is_subalgebra(a, space):
                assert centralizer_in(a, space) == _centralizer_dense_reference(a, space)
            else:
                with pytest.raises(DomainError):
                    centralizer_in(a, space)
    assert min(kinds.values()) >= 50, kinds


# --- sparse constants against the dense table -------------------------------

def dense_table(dim, brackets):
    """table[i][j][k] = coefficient of e_k in [e_i, e_j], by the rule of
    from_brackets: repeated triples add up, and the antisymmetric mirror is
    filled in unless given explicitly."""
    explicit = {}
    for i, j, k, value in brackets:
        explicit[(i, j, k)] = explicit.get((i, j, k), F(0)) + F(value)
    table = [[[F(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j, k), value in explicit.items():
        table[i][j][k] = value
        if (j, i, k) not in explicit:
            table[j][i][k] = -value
    return table


def dense_bracket(table, x, y):
    n = len(table)
    return tuple(sum((x[i] * y[j] * table[i][j][k] for i in range(n) for j in range(n)), F(0))
                 for k in range(n))


def dense_adjoint(table, x):
    n = len(table)
    return [[sum((x[i] * table[i][j][k] for i in range(n)), F(0)) for j in range(n)]
            for k in range(n)]


def dense_violations(table, names):
    """Every antisymmetry pair, then every Jacobi triple, in index order."""
    n = len(table)
    out = []
    for i in range(n):
        for j in range(i, n):
            if any(a != -b for a, b in zip(table[i][j], table[j][i])):
                out.append(("antisymmetry", (names[i], names[j]),
                            f"[{names[i]},{names[j]}] != -[{names[j]},{names[i]}]"))
    for i, j, k in itertools.combinations(range(n), 3):
        # coordinate l of [[e_a,e_b],e_c], summed over the cyclic orders
        cyclic = ((i, j, k), (j, k, i), (k, i, j))
        total = [sum((table[a][b][m] * table[m][c][l] for a, b, c in cyclic for m in range(n)),
                     F(0)) for l in range(n)]
        if any(total):
            out.append(("jacobi", (names[i], names[j], names[k]), "Jacobi identity fails"))
    return tuple(out)


def oracle_cases():
    # the fixtures (as their own constants), seeded random sparse tables,
    # and tampered ones: explicit mirrors, an explicit zero facing a nonzero
    # mirror, duplicates that cancel, diagonal entries
    cases = [(a.dim, a.constants) for a in (make() for make in CATALOG)]
    cases += [
        (3, [(0, 1, 2, 1), (1, 0, 2, -1)]),
        (3, [(0, 1, 2, 1), (1, 0, 2, 1), (1, 2, 0, 1), (2, 0, 0, 1)]),
        (3, [(0, 1, 2, 0), (1, 0, 2, 1)]),
        (3, [(0, 1, 2, 1), (0, 1, 2, -1)]),
        (3, [(0, 1, 2, 1), (0, 1, 2, -1), (1, 0, 2, 3), (0, 0, 1, 2)]),
        (4, [(0, 1, 2, 1), (2, 3, 0, "1/2"), (3, 2, 0, "1/2"), (1, 1, 3, -1)]),
        # sl2 + R in the basis H + W, E, F, H - W: the center is spanned by
        # e0 - e3, and [E, F] projects onto e3 from both of its coordinates
        (4, [(0, 1, 1, 2), (0, 2, 2, -2), (1, 3, 1, -2), (2, 3, 2, 2),
             (1, 2, 0, "1/2"), (1, 2, 3, "1/2")]),
    ]
    rng = random.Random(7)
    for _ in range(30):
        dim = rng.randint(2, 6)
        triples = [(rng.randrange(dim), rng.randrange(dim), rng.randrange(dim),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                   for _ in range(rng.randint(0, 2 * dim))]
        if rng.random() < 0.5:  # keep an antisymmetric, mirror-filled table
            triples = [t for t in triples if t[0] < t[1]]
        cases.append((dim, triples))
    return cases


def test_sparse_constants_match_dense_table():
    rng = random.Random(3)
    for dim, triples in oracle_cases():
        a = LieAlgebra.from_brackets(dim, triples)
        table = dense_table(dim, triples)
        assert a.constants == tuple(
            (i, j, k, table[i][j][k]) for i, j, k in itertools.product(range(dim), repeat=3)
            if table[i][j][k] != 0)
        for _ in range(4):
            x = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim))
            y = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim))
            assert a.bracket(x, y) == dense_bracket(table, x, y)
            assert a.adjoint_matrix(x) == dense_adjoint(table, x)
        ads = [dense_adjoint(table, e) for e in identity_matrix(dim)]
        assert killing_form(a) == [
            [sum((row[k] for k, row in enumerate(mat_mul(ads[i], ads[j]))), F(0))
             for j in range(dim)] for i in range(dim)]
        # x is central when ad(x) = sum_i x_i ad(e_i) vanishes entry by entry
        stacked = [[ads[i][k][j] for i in range(dim)] for k in range(dim) for j in range(dim)]
        reference = Subspace.from_vectors(dim, kernel_basis(stacked))
        assert centralizer_in(a, Subspace.full(dim)) == reference
        assert validate_algebra(a).violations == dense_violations(table, a.basis_names)
        if all(table[i][j][k] == -table[j][i][k]
               for i, j, k in itertools.product(range(dim), repeat=3)):
            assert center(a).space == reference
        if validate_algebra(a).valid:
            derived = bracket_span(a, Subspace.full(dim), Subspace.full(dim))
            for ideal in (reference, derived):
                assert quotient_algebra(a, ideal) == _quotient_reference(a, ideal)
