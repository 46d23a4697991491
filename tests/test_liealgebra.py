import itertools
import random
from fractions import Fraction

import pytest

import lieentropy.liealgebra
from lieentropy.errors import DomainError, InvariantViolationError
from lieentropy.exactlinalg import Subspace, identity_matrix, mat_mul
from lieentropy.liealgebra import (
    LieAlgebra,
    bracket_span,
    center,
    centralizer_in,
    derived_series,
    is_ad_nilpotent,
    is_ideal,
    is_solvable,
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


CATALOG = [e2, heisenberg, sl2, sl2_plus_line, affine_line, lambda: LieAlgebra.abelian(2)]


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


# --- radicals ----------------------------------------------------------------

def test_solvable_radical_examples():
    assert solvable_radical(sl2()).space.dim == 0
    assert solvable_radical(e2()).space.dim == 3
    assert solvable_radical(sl2_plus_line()).space == Subspace.from_vectors(
        4, [(0, 0, 0, 1)])


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
    # solvable algebras: the quotient by the radical is zero, so its Killing
    # form is never needed and the algebra's own is the only one computed
    for make in (e2, heisenberg, affine_line):
        calls.clear()
        nilradical(make())
        assert len(calls) == 1


def test_radical_chain_and_ideal_property():
    for make in CATALOG:
        a = make()
        rad = solvable_radical(a)
        nil = nilradical(a)
        assert is_ideal(a, rad.space)
        assert is_ideal(a, nil.space)
        derived_of_r = bracket_span(a, rad.space, rad.space)
        assert derived_of_r.is_subspace_of(nil.space)
        assert nil.space.is_subspace_of(rad.space)


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
            assert not all(is_ad_nilpotent(a, v) for v in bigger.basis)


def test_nilradical_post_verification_rejects_weight_trap():
    # [H,X] = X+Y, [H,Y] = -X+Y: kappa vanishes identically although ad(H)
    # has eigenvalues 1 +- i, so the kappa-orthogonal overshoots the true
    # nilradical and the post-check must refuse to return it
    trap = LieAlgebra.from_brackets(
        3, [(0, 1, 1, 1), (0, 1, 2, 1), (0, 2, 1, -1), (0, 2, 2, 1)], ["H", "X", "Y"])
    assert validate_algebra(trap).valid
    assert is_solvable(trap)
    with pytest.raises(InvariantViolationError):
        nilradical(trap)


# --- quotients ---------------------------------------------------------------

def test_quotient_examples():
    a = e2()
    quotient, projection = quotient_algebra(a, nilradical(a))
    assert quotient.dim == 1
    assert all(x == 0 for x in quotient.table[0][0])
    assert projection == [[F(1), F(0), F(0)]]

    h = heisenberg()
    quotient, _ = quotient_algebra(h, center(h))
    assert quotient.dim == 2
    assert all(x == 0 for i in range(2) for j in range(2) for x in quotient.table[i][j])

    same, proj = quotient_algebra(a, Subspace.from_vectors(3, []))
    assert same.table == a.table
    assert proj == identity_matrix(3)


def test_quotient_rejects_non_ideal():
    with pytest.raises(DomainError):
        quotient_algebra(sl2(), Subspace.from_vectors(3, [(0, 1, 0)]))


def test_random_brackets_obey_ideal_property():
    rng = random.Random(5)
    for _ in range(10):
        # random solvable-ish staircase algebras stay valid and their
        # radical towers keep the ideal property
        dim = rng.randint(2, 4)
        triples = []
        for i in range(dim):
            for j in range(i + 1, dim):
                k = rng.randint(j, dim - 1) if j < dim - 1 else dim - 1
                if k > j and rng.random() < 0.7:
                    triples.append((i, j, k, rng.randint(-2, 2)))
        a = LieAlgebra.from_brackets(dim, triples)
        if not validate_algebra(a).valid:
            continue
        rad = solvable_radical(a)
        nil = nilradical(a)
        assert is_ideal(a, rad.space) and is_ideal(a, nil.space)
