import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import lieentropy.exactlinalg as exactlinalg
import lieentropy.groups
from lieentropy.catalog import builtin_catalog, get_entry
from lieentropy.errors import (
    InvariantViolationError,
    ValidationError,
)
from lieentropy.exactlinalg import Subspace, identity_matrix, mat_mul, mat_vec, solve, transpose
from lieentropy.formats import build_group
from lieentropy.liealgebra import LieAlgebra, centralizer_in, nilradical, solvable_radical
from lieentropy.mahler import poly_mul
from lieentropy.groups import (
    ENTROPY_ON_CENTRAL_TORUS,
    POSITIVE_TORUS_ENTROPY_LI_YORKE,
    QUOTIENT_TORUS_TRIVIAL,
    TRIVIAL_CENTRAL_TORUS_NO_LI_YORKE,
    ZERO_ENTROPY_TORUS_SOME_POWER_FREE,
    PresentedGroup,
    _compact_spectrum_certificate,
    _conjugate_correction,
    analyze,
    check_toral_induced_finite_order,
    eventual_image,
    li_yorke_report,
    quotient_by_torus,
    topological_entropy,
    toral_lattice,
    validate_endomorphism,
    validate_presentation,
)
from lieentropy.torus import (
    LI_YORKE_ALL_POWERS,
    SOME_POWER_LI_YORKE_FREE,
    restrict_matrix_to_lattice,
)

TOL = 1e-9


def F(x):
    return Fraction(x)


def abelian_group(dim, logs, name="A"):
    return PresentedGroup.build(LieAlgebra.abelian(dim), logs, name)


def e2_algebra():
    return LieAlgebra.from_brackets(3, [(0, 1, 2, 1), (0, 2, 1, -1)], ["H", "X", "Y"])


def e2_group():
    return PresentedGroup.build(e2_algebra(), [(1, 0, 0)], "E2")


def e2_endo(group, h_sign, a, b, w=(0, 0)):
    a, b = Fraction(a), Fraction(b)
    plane = [[a, -b], [b, a]] if h_sign == 1 else [[a, b], [b, -a]]
    d = [
        [Fraction(h_sign), 0, 0],
        [Fraction(w[0]), plane[0][0], plane[0][1]],
        [Fraction(w[1]), plane[1][0], plane[1][1]],
    ]
    return validate_endomorphism(group, d)


def heisenberg_group(logs):
    return PresentedGroup.build(
        LieAlgebra.from_brackets(3, [(0, 1, 2, 1)], ["X", "Y", "Z"]), logs, "Heis")


# --- presentation validation -------------------------------------------------

def test_validate_presentation_examples():
    assert validate_presentation(e2_group()).valid
    report = validate_presentation(heisenberg_group([(1, 0, 0)]))
    assert not report.valid
    assert "not semisimple" in report.issues[0]
    assert validate_presentation(abelian_group(2, [(0, 1)])).valid


def test_validate_presentation_non_commuting():
    sl2 = LieAlgebra.from_brackets(3, [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)])
    report = validate_presentation(PresentedGroup.build(sl2, [(1, 0, 0), (0, 1, 0)]))
    assert not report.valid
    assert any("commute" in issue for issue in report.issues)


def test_validate_presentation_dependent_generators(monkeypatch):
    # independence is the rank of the lattice, read off its HNF: no rref rank
    def forbidden(*args):
        raise AssertionError("independence should be read off the lattice")

    monkeypatch.setattr(exactlinalg, "rank", forbidden)
    monkeypatch.setattr(lieentropy.groups, "rank", forbidden, raising=False)
    report = validate_presentation(abelian_group(2, [(1, 0), (2, 0)]))
    assert not report.valid
    assert report.issues == ("lattice generators are linearly dependent",)
    assert validate_presentation(abelian_group(2, [(1, 0), (2, 1)])).valid
    for entry in builtin_catalog():
        validate_presentation(build_group(entry.input_document())[0])


def test_validate_presentation_reports_algebra_violations():
    tampered = LieAlgebra.from_brackets(3, [(0, 1, 2, 1), (1, 0, 2, 1)], ["X", "Y", "Z"])
    report = validate_presentation(PresentedGroup.build(tampered, []))
    assert not report.valid
    assert any(issue.startswith("algebra:") for issue in report.issues)


def test_validate_presentation_spectrum_not_integral():
    # ad(H) on the affine line has eigenvalue 1, not purely imaginary
    affine = LieAlgebra.from_brackets(2, [(0, 1, 1, 1)], ["H", "X"])
    report = validate_presentation(PresentedGroup.build(affine, [(1, 0)]))
    assert not report.valid


def test_compact_spectrum_certificate_peels_distinct_squares():
    # t^e * prod (t^2 + m^2) over distinct m >= 1 is accepted for e <= 1, up
    # to m ~ 10^12; a repeated factor, a non-square root, a non-real root or
    # a changed constant term is rejected with the one reason
    other = "minimal polynomial has a factor other than t^2 + m^2"

    def in_t(nu):  # nu(s) -> nu(t^2), ascending
        p = []
        for c in nu:
            p += [c, 0]
        return p[:-1]

    rng = random.Random(149)
    for _ in range(100):
        ms = rng.sample(range(2, rng.choice([30, 10**12])), rng.randint(1, 4))
        nu = [1]
        for m in ms:
            nu = poly_mul(nu, [m * m, 1])
        assert _compact_spectrum_certificate(in_t(nu)) is None
        assert _compact_spectrum_certificate([0] + in_t(nu)) is None
        for bad in (poly_mul(nu, [ms[0] ** 2, 1]), poly_mul(nu, [3, 1]),
                    poly_mul(nu, [1, 1, 1]), [nu[0] + 1] + nu[1:], [nu[0] - 1] + nu[1:]):
            assert _compact_spectrum_certificate(in_t(bad)) == other, (ms, bad)


# --- endomorphism validation ---------------------------------------------------

def test_validate_endomorphism_examples():
    cstar = abelian_group(2, [(0, 1)], "Cstar")
    endo = validate_endomorphism(cstar, [[2, 0], [0, 2]])
    assert restrict_matrix_to_lattice(endo.d_phi, cstar.lattice).matrix == ((2,),)
    assert endo.surjective_on_identity_component

    with pytest.raises(ValidationError) as caught:
        validate_endomorphism(cstar, [[2, 0], [0, F("1/2")]])
    assert str(caught.value) == (
        "lattice not preserved: image of generator 0 is not a lattice point and admits "
        "no certified conjugation back into the lattice")

    e2 = e2_group()
    ident = validate_endomorphism(e2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert restrict_matrix_to_lattice(ident.d_phi, e2.lattice).matrix == ((1,),)


def test_validate_endomorphism_bracket_compat():
    with pytest.raises(ValidationError, match="bracket compatibility"):
        validate_endomorphism(e2_group(), [[2, 0, 0], [0, 1, 0], [0, 0, 1]])


def _first_bracket_failure(algebra, d):
    """Reference check: d[e_i, e_j] against [d e_i, d e_j] with d applied to
    every basis vector; the first failing pair in (i, j) order, or None."""
    n = algebra.dim
    basis = [algebra.basis_vector(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = mat_vec(d, algebra.bracket(basis[i], basis[j]))
            if lhs != algebra.bracket(mat_vec(d, basis[i]), mat_vec(d, basis[j])):
                names = algebra.basis_names
                return f"at ({names[i]}, {names[j]})"
    return None


def test_bracket_check_reports_the_reference_first_failing_pair():
    rng = random.Random(31)
    algebras = [
        e2_algebra(),
        LieAlgebra.from_brackets(3, [(0, 1, 2, 1)], ["X", "Y", "Z"]),
        LieAlgebra.from_brackets(4, [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)]),
        # inconsistent on purpose: the mirror of (0, 1) is given explicitly
        LieAlgebra.from_brackets(3, [(0, 1, 2, 1), (1, 0, 2, 1), (1, 2, 0, F("1/2"))]),
        LieAlgebra.abelian(5),
    ]
    checked = Counter()
    for algebra in algebras:
        n = algebra.dim
        candidates = [[[F(0)] * n for _ in range(n)],
                      [[F(int(i == j)) for j in range(n)] for i in range(n)]]
        for _ in range(40):
            candidates.append([[Fraction(rng.choice((-1, 0, 0, 1, 2)), rng.choice((1, 2)))
                                for _ in range(n)] for _ in range(n)])
        group = PresentedGroup.build(algebra, [])
        for d in candidates:
            expected = _first_bracket_failure(algebra, d)
            try:
                validate_endomorphism(group, d)
                found = None
            except ValidationError as exc:
                assert str(exc).startswith("not a Lie algebra endomorphism: bracket "
                                           "compatibility fails ")
                found = str(exc)[str(exc).index("at ("):]
            assert found == expected, (algebra.constants, d)
            checked[found is None] += 1
    assert checked[True] >= 10 and checked[False] >= 10


def test_bracket_check_applies_no_matrix_to_the_basis(monkeypatch):
    # the first n = 12 torus of the seed-1 torus-entropy benchmark workload
    rng = random.Random("torus-entropy/1")
    matrix = [[rng.randint(-3, 3) for _ in range(12)] for _ in range(12)]
    group = abelian_group(12, [[int(i == j) for j in range(12)] for i in range(12)])
    calls = []
    original = lieentropy.groups.mat_vec

    def counted(m, v):
        calls.append(1)
        return original(m, v)

    def forbidden(*args):
        raise AssertionError("membership in the lattice should eliminate nothing anew")

    monkeypatch.setattr(lieentropy.groups, "mat_vec", counted)
    monkeypatch.setattr(exactlinalg, "rref", forbidden)
    endo = validate_endomorphism(group, matrix)
    assert len(calls) <= 12  # one per lattice generator
    monkeypatch.undo()
    action = restrict_matrix_to_lattice(endo.d_phi, group.lattice)
    assert action.matrix == tuple(tuple(row) for row in matrix)


def test_torus_entropy_forms_no_zero_bracket(monkeypatch, tmp_path, capsys):
    # the first n = 12 torus of the seed-1 torus-entropy benchmark workload,
    # through the CLI: the center's ideal check tests nothing, the zero
    # adjoints' minimal polynomials solve nothing, the surjective derivative's
    # eventual image eliminates nothing and takes the lattice uncut, and the
    # one cut, the center, has all images zero
    import lieentropy.exactlinalg as exactlinalg
    import lieentropy.liealgebra as liealgebra
    from lieentropy import cli

    rng = random.Random("torus-entropy/1")
    matrix = [[rng.randint(-3, 3) for _ in range(12)] for _ in range(12)]
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({
        "algebra": {"dim": 12, "brackets": []},
        "lattice": [[str(int(i == j)) for j in range(12)] for i in range(12)],
        "endomorphism": [[str(x) for x in row] for row in matrix]}))
    calls, inside = Counter(), []  # (name, innermost counted caller or None)

    def counted(name, fn):
        def wrapper(*args):
            calls[name, inside[-1] if inside else None] += 1
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return wrapper

    def nested(name):
        return sum(n for (callee, caller), n in calls.items() if callee == name and caller)

    monkeypatch.setattr(liealgebra, "is_ideal", counted("is_ideal", liealgebra.is_ideal))
    monkeypatch.setattr(exactlinalg, "min_poly", counted("min_poly", exactlinalg.min_poly))
    monkeypatch.setattr(lieentropy.groups, "min_poly", exactlinalg.min_poly)
    monkeypatch.setattr(exactlinalg, "solve", counted("solve", exactlinalg.solve))
    monkeypatch.setattr(exactlinalg, "rref", counted("rref", exactlinalg.rref))
    monkeypatch.setattr(lieentropy.groups, "eventual_image",
                        counted("eventual_image", lieentropy.groups.eventual_image))
    monkeypatch.setattr(lieentropy.groups, "lattice_intersect_subspace",
                        counted("lattice_intersect_subspace",
                                exactlinalg.lattice_intersect_subspace))
    monkeypatch.setattr(Subspace, "contains", counted("contains", Subspace.contains))
    monkeypatch.setattr(Subspace, "reduce", counted("reduce", Subspace.reduce))
    cuts = []
    where = exactlinalg._Echelon.where

    def recorded(self, images):
        result = where(self, images)
        cuts.append((any(map(any, images)), result is self))
        return result

    monkeypatch.setattr(exactlinalg._Echelon, "where", recorded)
    assert cli.main(["entropy", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["entropy"]["exact_positive"]
    assert calls["is_ideal", None] == 1 and calls["min_poly", None] == 12
    assert nested("contains") == 0 and nested("solve") == 0
    assert calls["eventual_image", None] == 1 and calls["rref", "eventual_image"] == 0
    assert calls["lattice_intersect_subspace", None] == 1
    assert calls["reduce", "lattice_intersect_subspace"] == 0
    # the center, by zero images
    assert cuts == [(False, True)]


def test_lattice_invariance_matches_solve_reference():
    # abelian R^n with r independent integer logs W_i: d maps W_i to
    # sum_j A[j][i] W_j (A integral, or with one half entry, or with an
    # image pushed off span(W)) and the unit vectors completing W anywhere;
    # acceptance and the first failing generator match one `solve` each
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 4)
        r = rng.randint(1, n)
        while True:
            logs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
            complement = [[int(i == j) for j in range(n)] for i in Subspace.from_vectors(
                n, logs).complement]
            if len(complement) == n - r:
                break
        action = [[F(rng.randint(-3, 3)) for _ in range(r)] for _ in range(r)]
        kind = rng.randrange(3)
        if kind == 1:
            action[rng.randrange(r)][rng.randrange(r)] += F("1/2")
        columns = [mat_vec(transpose(logs), col) for col in transpose(action)]
        if kind == 2 and n > r:
            columns[rng.randrange(r)] = [x + y for x, y in zip(columns[0], complement[0])]
        columns += [[rng.randint(-3, 3) for _ in range(n)] for _ in complement]
        basis = transpose(logs + complement)  # columns W_1..W_r, then the units
        inverse = transpose([solve(basis, e) for e in identity_matrix(n)])
        d = mat_mul(transpose(columns), inverse)
        failing = next((i for i, w in enumerate(logs)
                        if (coords := solve(transpose(logs), mat_vec(d, w))) is None
                        or any(c.denominator != 1 for c in coords)), None)
        group = abelian_group(n, logs)
        if failing is None:
            validate_endomorphism(group, d)
        else:
            with pytest.raises(ValidationError) as caught:
                validate_endomorphism(group, d)
            assert str(caught.value) == (
                f"lattice not preserved: image of generator {failing} is not a lattice "
                "point and admits no certified conjugation back into the lattice")


def _tagged_coordinate_rule(group, d):
    """Reference invariance decision by lattice coordinates: the index of the
    first generator whose image has no integer coordinates in the W_i, on
    the nose or after a certified conjugation through the nilradical, or
    None.  Coordinates come from eliminating tagged rows (W_i, e_i)."""
    n, logs = group.dim, group.lattice_logs
    units = identity_matrix(len(logs))
    tagged = Subspace.from_vectors(n + len(logs), [(*w, *e) for w, e in zip(logs, units)])
    for i, w in enumerate(logs):
        image = mat_vec(d, w)
        residue = tagged.reduce((*image, *(0,) * len(logs)))
        coords = None if any(residue[:n]) else [-c for c in residue[n:]]
        if coords is None:
            coords = _coordinates_up_to_conjugation(group, image)
        if coords is None or any(F(c).denominator != 1 for c in coords):
            return i
    return None


def _coordinates_up_to_conjugation(group, image):
    nil = nilradical(group.algebra).space
    n, logs = group.dim, group.lattice_logs
    if Subspace.from_vectors(n, logs).intersect(nil).dim:
        return None
    # image = v + r, v = sum a_i W_i, r in the nilradical: rows (W_i, W_i,
    # e_i) and (r_j, 0, 0) leave (0, -v, -a)
    zeros = (0,) * (n + len(logs))
    rows = [(*w, *w, *e) for w, e in zip(logs, identity_matrix(len(logs)))]
    rows += [(*r, *zeros) for r in nil.basis]
    residue = Subspace.from_vectors(2 * n + len(logs), rows).reduce((*image, *zeros))
    if any(residue[:n]):
        return None
    v = tuple(-x for x in residue[n:2 * n])
    if _conjugate_correction(group.algebra, nil, v, tuple(image)) is None:
        return None
    return [-c for c in residue[2 * n:]]


def _heisenberg_algebra(k):
    brackets = [(i, k + i, 2 * k, 1) for i in range(k)]
    return LieAlgebra.from_brackets(2 * k + 1, brackets)


def test_lattice_membership_matches_the_tagged_coordinate_rule():
    # seeded presentations whose generators need not be in HNF: E2 with
    # lattice kH and d(H) = cH + shift, c = +-1 over a rotation or
    # reflection of the plane, or c rational with the plane killed (then
    # v = cH, and only membership of v decides); abelian R^n with integer
    # generators and half-integer d; h(2k+1) with a rational central
    # generator and d scaling X and Y
    rng = random.Random(2931)
    half = [Fraction(x, 2) for x in range(-6, 7)]
    cases = []
    for _ in range(60):
        k = rng.choice([1, 2, 3, -1, -2])
        group = PresentedGroup.build(e2_algebra(), [(k, 0, 0)], "E2")
        shift = [rng.choice(half), rng.choice(half)]
        if rng.random() < 0.5:
            sign, a, b = rng.choice([1, -1]), rng.choice(half), rng.choice(half)
            plane = [[a, -b], [b, a]] if sign == 1 else [[a, b], [b, -a]]
        else:
            sign, plane = rng.choice(half + [Fraction(1, 3), Fraction(-2, 3)]), [[0, 0], [0, 0]]
        d = [[sign, 0, 0], [shift[0], *plane[0]], [shift[1], *plane[1]]]
        cases.append((group, d))
    for _ in range(60):
        n = rng.randint(1, 4)
        logs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
        if Subspace.from_vectors(n, logs).dim < len(logs):
            continue
        d = [[rng.choice(half[4:9] + [0, 0, 1, 1, -1]) for _ in range(n)] for _ in range(n)]
        cases.append((abelian_group(n, logs), d))
    for _ in range(30):
        k = rng.randint(1, 3)
        group = PresentedGroup.build(
            _heisenberg_algebra(k), [(0,) * 2 * k + (rng.choice([1, 2, Fraction(1, 2), -3]),)])
        a, b = rng.choice(half[7:]), rng.choice(half[7:] + [3, 4])
        d = [[0] * (2 * k + 1) for _ in range(2 * k + 1)]
        for i in range(k):
            d[i][i], d[k + i][k + i] = a, b
            d[2 * k][i] = rng.choice(half)
        d[2 * k][2 * k] = a * b
        cases.append((group, d))
    decided = Counter()
    for group, d in cases:
        assert validate_presentation(group).valid
        expected = _tagged_coordinate_rule(group, d)
        try:
            validate_endomorphism(group, d)
            found = None
        except ValidationError as exc:
            found = int(str(exc).split("generator ")[1].split()[0])
        assert found == expected, (group.algebra.constants, group.lattice_logs, d)
        first_image = mat_vec(d, group.lattice_logs[0])
        decided[found is None, group.lattice.contains(first_image)] += 1
    # accepted on the nose and through a conjugation; rejected both when
    # the image leaves every lattice point and when its conjugation lands
    # off the lattice
    assert decided[True, True] >= 20 and decided[True, False] >= 10
    assert decided[False, False] >= 40


def test_lattice_is_formed_once_per_presentation(monkeypatch):
    # over validation and analysis of every catalog entry, Gamma's HNF is
    # formed once, and every cut reads that one lattice
    formed = Counter()
    from_generators = exactlinalg.Lattice.from_generators

    def counted(ambient_dim, generators):
        formed[ambient_dim, tuple(map(tuple, generators))] += 1
        return from_generators(ambient_dim, generators)

    monkeypatch.setattr(exactlinalg.Lattice, "from_generators", staticmethod(counted))
    for entry in builtin_catalog():
        group, derivative = build_group(entry.input_document())
        formed.clear()
        assert validate_presentation(group).valid
        endo = validate_endomorphism(group, derivative)
        analyze(endo, TOL)
        assert formed[group.dim, group.lattice_logs] == 1, entry.name


def test_endomorphism_respects_brackets_for_valid_family():
    group = e2_group()
    endo = e2_endo(group, -1, F("2/3"), F("1/5"), w=(F("1/2"), 3))
    assert endo.surjective_on_identity_component
    # d(H) = -H + X/2 + 3Y is no lattice point: a certified conjugation
    # carries it back to -H
    assert not group.lattice.contains(mat_vec(endo.d_phi, group.lattice_logs[0]))


# --- eventual image ------------------------------------------------------------

def test_eventual_image_examples():
    plane = abelian_group(2, [])
    endo = validate_endomorphism(plane, [[2, 0], [0, 0]])
    assert eventual_image(endo) == Subspace.from_vectors(2, [(1, 0)])
    inv = validate_endomorphism(plane, [[2, 1], [1, 1]])
    assert eventual_image(inv) == Subspace.full(2)
    nil = validate_endomorphism(plane, [[0, 1], [0, 0]])
    assert eventual_image(nil).dim == 0
    # J_3(0) + (2): the image shrinks for three steps before it stabilizes
    space = abelian_group(4, [])
    jordan = validate_endomorphism(
        space, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 2]])
    assert eventual_image(jordan) == Subspace.from_vectors(4, [(0, 0, 0, 1)])


def test_eventual_image_stabilizes():
    group = abelian_group(3, [])
    endo = validate_endomorphism(group, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    image = eventual_image(endo)
    assert image.dim == 0


def _iterated_image(group, endo):
    """d^k(g) for k = 0, 1, ... until d keeps the dimension."""
    d, image = endo.d_phi, Subspace.full(group.algebra.dim)
    while True:
        mapped = Subspace.from_vectors(image.ambient_dim, [mat_vec(d, v) for v in image.basis])
        if mapped.dim == image.dim:
            return image
        image = mapped


def test_surjective_eventual_image_is_the_iterated_image():
    from lieentropy.catalog import builtin_catalog

    cases = []
    for entry in builtin_catalog():
        group, derivative = build_group(entry.input_document())
        cases.append((group, validate_endomorphism(group, derivative)))
    rng = random.Random(18)
    for n in (1, 2, 3, 5, 8):
        group = abelian_group(n, [])
        for _ in range(6):
            d = [[F(rng.randint(-2, 2)) / rng.choice((1, 2)) for _ in range(n)] for _ in range(n)]
            cases.append((group, validate_endomorphism(group, d)))
    heis = heisenberg_group([])
    for a, b, c, e in ((2, 1, 1, 3), (1, 0, 0, 1), (0, 1, -1, 0), (1, 1, 1, 1)):
        # (X, Y) -> (aX + cY, bX + eY) forces Z -> (ae - bc) Z
        d = [[F(a), F(b), 0], [F(c), F(e), 0], [0, 0, F(a * e - b * c)]]
        cases.append((heis, validate_endomorphism(heis, d)))
    surjective = 0
    for group, endo in cases:
        assert eventual_image(endo) == _iterated_image(group, endo)
        surjective += endo.surjective_on_identity_component
    assert 10 <= surjective < len(cases)


def _heisenberg_plus_shift(k):
    """h(2k+1) + R^k, the central circle of c as lattice, and d = 2 on the
    a_i, 3 on the b_i, 6 on c and the shift r_i -> r_(i+1) on R^k: the
    eventual image is h(2k+1), a proper subalgebra."""
    dim = 3 * k + 1
    algebra = LieAlgebra.from_brackets(dim, [(i, k + i, 2 * k, 1) for i in range(k)])
    group = PresentedGroup.build(algebra, [[int(j == 2 * k) for j in range(dim)]], "h+R")
    d = [[0] * dim for _ in range(dim)]
    for i, x in enumerate([2] * k + [3] * k + [6]):
        d[i][i] = x
    for i in range(2 * k + 1, dim - 1):
        d[i + 1][i] = 1
    return group, d


def test_eventual_image_is_the_iterated_image_off_surjectivity():
    # d = P (N + B) P^-1 with N a sum of nilpotent Jordan blocks J_0(b), B
    # invertible and P unimodular.  The root 0 of char(d) has multiplicity
    # sum(b), more than the index max(b) when N has several blocks
    rng = random.Random(29)
    cases = []
    for blocks in ((1,), (2,), (3,), (2, 1), (1, 1), (3, 2, 1), (4,)):
        for m in (0, 1, 2, 3):
            nil = sum(blocks)
            n = nil + m
            while True:
                b = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
                if not m or exactlinalg.det(b):
                    break
            core = [[0] * n for _ in range(n)]
            start = 0
            for size in blocks:
                for i in range(start, start + size - 1):
                    core[i][i + 1] = 1
                start += size
            for i in range(m):
                core[nil + i][nil:] = b[i]
            p, p_inv = identity_matrix(n), identity_matrix(n)
            for _ in range(2 * n if n > 1 else 0):
                i, j = rng.sample(range(n), 2)
                c = rng.choice([1, -1, 2])
                e, e_inv = identity_matrix(n), identity_matrix(n)
                e[i][j], e_inv[i][j] = c, -c
                p, p_inv = mat_mul(p, e), mat_mul(e_inv, p_inv)
            cases.append((abelian_group(n, []), mat_mul(mat_mul(p, core), p_inv), m))
    for k in range(1, 7):
        group, d = _heisenberg_plus_shift(k)
        cases.append((group, d, 2 * k + 1))
    for group, d, image_dim in cases:
        endo = validate_endomorphism(group, d)
        assert not endo.surjective_on_identity_component
        image = eventual_image(endo)
        assert image == _iterated_image(group, endo)
        assert image.dim == image_dim


def test_each_derivative_has_one_characteristic_polynomial(monkeypatch, capsys):
    # over validation and analysis char(d) is formed once, and the torus
    # action's only when the torus is proper; det is never taken, and
    # validation alone forms no characteristic polynomial
    import lieentropy.torus
    from lieentropy import cli
    from lieentropy.catalog import builtin_catalog

    polys, dets = [], []
    original_char_poly, original_det = exactlinalg.char_poly, exactlinalg.det

    def counted(log, fn):
        def wrapper(m):
            log.append([[F(x) for x in row] for row in m])
            return fn(m)
        return wrapper

    for module in (exactlinalg, lieentropy.torus, lieentropy.groups):
        monkeypatch.setattr(module, "char_poly", counted(polys, original_char_poly))
    monkeypatch.setattr(exactlinalg, "det", counted(dets, original_det))
    assert not hasattr(lieentropy.groups, "det") and not hasattr(lieentropy.torus, "det")
    cases = [build_group(entry.input_document()) for entry in builtin_catalog()]
    cases.append(_heisenberg_plus_shift(2))
    proper = 0
    for group, derivative in cases:
        polys.clear()
        endo = validate_endomorphism(group, derivative)
        report = analyze(endo, TOL)
        d = [[F(x) for x in row] for row in endo.d_phi]
        action = [[F(x) for x in row] for row in report.torus.action.matrix]
        assert polys.count(d) == 1, group.name
        whole = report.torus.dim == group.dim
        if action:  # a 0x0 induced toral map of the toral-order check also counts as []
            assert polys.count(action) == (action == d if whole else 1), group.name
            proper += not whole
    assert dets == [] and proper >= 3
    polys.clear()
    for entry in builtin_catalog():
        assert cli.main(["validate", "--catalog", entry.name]) == 0
    capsys.readouterr()
    assert polys == [] and dets == []


# --- toral lattice ----------------------------------------------------------

def test_toral_lattice_examples():
    assert toral_lattice(abelian_group(2, [(0, 1)])).lattice.basis == ((F(0), F(1)),)
    assert toral_lattice(abelian_group(2, [])).lattice.is_empty()
    assert toral_lattice(e2_group()).lattice.is_empty()
    heis = heisenberg_group([(0, 0, 1)])
    assert toral_lattice(heis).lattice.basis == ((F(0), F(0), F(1)),)


def test_toral_coincidence_with_radical_and_nilradical():
    # the torus lattice computed against the center agrees with the one
    # computed against the center of the radical and of the nilradical
    from lieentropy.exactlinalg import lattice_intersect_subspace

    groups = [
        abelian_group(2, [(1, 0), (0, 1)]),
        abelian_group(2, [(0, 1)]),
        e2_group(),
        heisenberg_group([(0, 0, 1)]),
        PresentedGroup.build(
            LieAlgebra.from_brackets(4, [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)],
                                     ["H", "E", "F", "W"]),
            [(0, 0, 0, 1)], "SL2xT"),
    ]
    for group in groups:
        lam = toral_lattice(group).lattice
        rad = solvable_radical(group.algebra).space
        nil = nilradical(group.algebra).space
        lam_r = lattice_intersect_subspace(
            group.lattice, centralizer_in(group.algebra, rad))
        lam_n = lattice_intersect_subspace(
            group.lattice, centralizer_in(group.algebra, nil))
        assert lam.basis == lam_r.basis == lam_n.basis


# --- the entropy pipeline -----------------------------------------------------

def test_pipeline_torus_squaring():
    group = abelian_group(2, [(1, 0), (0, 1)], "T2")
    endo = validate_endomorphism(group, [[2, 0], [0, 2]])
    report = topological_entropy(endo, TOL)
    assert abs(report.entropy.value - 2 * math.log(2)) <= TOL
    assert report.torus.action.dim == 2
    assert report.torus.action.matrix == ((2, 0), (0, 2))


def test_pipeline_plane_doubling_exact_zero():
    group = abelian_group(2, [], "R2")
    endo = validate_endomorphism(group, [[2, 0], [0, 2]])
    report = topological_entropy(endo, TOL)
    assert report.entropy.exact_zero and report.entropy.value == 0.0
    assert abs(report.bowen_upper_bound.value - 2 * math.log(2)) <= TOL


def test_pipeline_cstar_squaring():
    group = abelian_group(2, [(0, 1)], "Cstar")
    endo = validate_endomorphism(group, [[2, 0], [0, 2]])
    report = topological_entropy(endo, TOL)
    assert abs(report.entropy.value - math.log(2)) <= TOL
    assert abs(report.bowen_upper_bound.value - 2 * math.log(2)) <= TOL
    assert report.entropy.value < report.bowen_upper_bound.value


def test_pipeline_e2_zero_entropy():
    group = e2_group()
    endo = e2_endo(group, 1, 2, 1)
    report = topological_entropy(endo, TOL)
    assert report.entropy.exact_zero and report.entropy.value == 0.0
    assert report.torus.dim == 0


def test_pipeline_heisenberg_central_circle():
    group = heisenberg_group([(0, 0, 1)])
    endo = validate_endomorphism(group, [[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    report = topological_entropy(endo, TOL)
    assert abs(report.entropy.value - math.log(2)) <= TOL
    assert report.torus.action.matrix == ((2,),)


def test_pipeline_non_surjective_eventual_image():
    # diag(2, 0) on the full 2-torus: the eventual image is the first
    # coordinate circle and the entropy is log 2, not log 2 + (dead factor)
    group = abelian_group(2, [(1, 0), (0, 1)], "T2")
    endo = validate_endomorphism(group, [[2, 0], [0, 0]])
    assert not endo.surjective_on_identity_component
    report = topological_entropy(endo, TOL)
    assert report.eventual_image == Subspace.from_vectors(2, [(1, 0)])
    assert report.torus.action.matrix == ((2,),)
    assert abs(report.entropy.value - math.log(2)) <= TOL
    full = analyze(endo, TOL)
    assert full.li_yorke is None  # dichotomy hypotheses need surjectivity


def test_main_reduction_contract():
    # the reported entropy is bit-for-bit the entropy of the torus action
    from lieentropy.torus import entropy as torus_entropy

    group = abelian_group(2, [(1, 0), (0, 1)], "T2")
    endo = validate_endomorphism(group, [[2, 1], [1, 1]])
    report = topological_entropy(endo, TOL)
    again = torus_entropy(report.torus.action, TOL)
    assert report.entropy == again


def test_group_level_power_law():
    group = abelian_group(2, [(1, 0), (0, 1)], "T2")
    endo = validate_endomorphism(group, [[2, 1], [1, 1]])
    base = topological_entropy(endo, TOL).entropy.value
    for k in range(1, 5):
        powered = endo.power(k)
        value = topological_entropy(powered, TOL).entropy.value
        assert abs(value - k * base) <= 2 * TOL


def test_group_level_power_law_across_catalog():
    from lieentropy.catalog import builtin_catalog
    from lieentropy.formats import build_group

    for entry in builtin_catalog():
        group, derivative = build_group(entry.input_document())
        endo = validate_endomorphism(group, derivative)
        base = topological_entropy(endo, TOL).entropy.value
        for k in (2, 4):
            value = topological_entropy(endo.power(k), TOL).entropy.value
            assert abs(value - k * base) <= 2 * TOL, entry.name


def test_dimension_zero_group_is_legal():
    trivial = PresentedGroup.build(LieAlgebra.abelian(0), [], "pt")
    assert validate_presentation(trivial).valid
    endo = validate_endomorphism(trivial, [])
    report = analyze(endo, TOL)
    assert report.entropy.exact_zero and report.entropy.value == 0.0
    assert report.torus.dim == 0
    assert report.li_yorke is not None
    assert report.li_yorke.verdict == SOME_POWER_LI_YORKE_FREE


def test_direct_product_additivity():
    # product of the circle-squaring group with 2-torus tripling:
    # entropies add, witnessing equality in the bundle inequality
    product = LieAlgebra.abelian(4)
    logs = [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    group = PresentedGroup.build(product, logs, "CstarxT2")
    d = [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]]
    endo = validate_endomorphism(group, d)
    report = topological_entropy(endo, TOL)
    assert abs(report.entropy.value - (math.log(2) + 2 * math.log(3))) <= 2 * TOL


# --- induced toral order ------------------------------------------------------

def test_toral_order_examples():
    group = e2_group()
    assert check_toral_induced_finite_order(e2_endo(group, 1, 1, 1)).order == 1
    assert check_toral_induced_finite_order(e2_endo(group, -1, 1, 0)).order == 2
    with pytest.raises(ValidationError, match="nilradical is not simply-connected"):
        check_toral_induced_finite_order(
            validate_endomorphism(heisenberg_group([(0, 0, 1)]),
                                  [[1, 0, 0], [0, 2, 0], [0, 0, 2]]))


def test_toral_order_requires_solvable():
    sl2 = LieAlgebra.from_brackets(3, [(0, 1, 1, 2), (0, 2, 2, -2), (1, 2, 0, 1)])
    group = PresentedGroup.build(sl2, [])
    endo = validate_endomorphism(group, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValidationError, match="not solvable"):
        check_toral_induced_finite_order(endo)


def test_toral_order_requires_surjective():
    group = e2_group()
    endo = validate_endomorphism(group, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValidationError, match="not surjective"):
        check_toral_induced_finite_order(endo)


def test_toral_order_randomized_family_never_infinite():
    rng = random.Random(37)
    group = e2_group()
    for _ in range(25):
        h_sign = rng.choice([1, -1])
        while True:
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            if a != 0 or b != 0:
                break
        w = (Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
             Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        endo = e2_endo(group, h_sign, a, b, w)
        check = check_toral_induced_finite_order(endo)
        assert check.order == (1 if h_sign == 1 else 2)


# --- quotient by the torus ------------------------------------------------------

def test_quotient_by_torus_examples():
    cstar = abelian_group(2, [(0, 1)], "Cstar")
    quotient = quotient_by_torus(cstar)
    assert quotient.algebra.dim == 1 and quotient.lattice_logs == ()

    e2 = e2_group()
    assert quotient_by_torus(e2) == e2

    t2 = abelian_group(2, [(1, 0), (0, 1)], "T2")
    assert quotient_by_torus(t2).algebra.dim == 0


def test_quotient_by_torus_randomized_triviality():
    rng = random.Random(41)
    for _ in range(20):
        dim = rng.randint(1, 4)
        count = rng.randint(0, dim)
        logs = []
        seen = set()
        while len(logs) < count:
            v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim))
            if any(v) and v not in seen:
                logs.append(v)
                seen.add(v)
        group = abelian_group(dim, logs)
        if not validate_presentation(group).valid:
            continue
        assert toral_lattice(quotient_by_torus(group)).lattice.is_empty()
    for logs in ([(0, 0, 1)],):
        group = heisenberg_group(logs)
        assert toral_lattice(quotient_by_torus(group)).lattice.is_empty()
    assert toral_lattice(quotient_by_torus(e2_group())).lattice.is_empty()


# --- Li-Yorke chains -------------------------------------------------------------

def test_li_yorke_report_examples():
    t2 = abelian_group(2, [(1, 0), (0, 1)], "T2")
    squaring = validate_endomorphism(t2, [[2, 0], [0, 2]])
    chain = li_yorke_report(squaring, topological_entropy(squaring, TOL))
    assert chain.verdict == LI_YORKE_ALL_POWERS
    assert POSITIVE_TORUS_ENTROPY_LI_YORKE in chain.citations

    e2 = e2_group()
    rotation = e2_endo(e2, 1, 3, 4)
    chain = li_yorke_report(rotation, topological_entropy(rotation, TOL))
    assert chain.verdict == SOME_POWER_LI_YORKE_FREE
    assert chain.citations == (TRIVIAL_CENTRAL_TORUS_NO_LI_YORKE,)

    shear = validate_endomorphism(t2, [[1, 1], [0, 1]])
    chain = li_yorke_report(shear, topological_entropy(shear, TOL))
    assert chain.verdict == SOME_POWER_LI_YORKE_FREE
    assert ZERO_ENTROPY_TORUS_SOME_POWER_FREE in chain.citations
    assert QUOTIENT_TORUS_TRIVIAL in chain.citations


def test_li_yorke_report_requires_surjectivity():
    t2 = abelian_group(2, [(1, 0), (0, 1)], "T2")
    degenerate = validate_endomorphism(t2, [[0, 0], [0, 0]])
    with pytest.raises(ValidationError, match="surjective"):
        li_yorke_report(degenerate, topological_entropy(degenerate, TOL))


def test_analyze_combines_everything():
    group = e2_group()
    endo = e2_endo(group, -1, 1, 2)
    report = analyze(endo, TOL)
    assert report.li_yorke is not None
    assert report.toral_order is not None and report.toral_order.order == 2
    assert ENTROPY_ON_CENTRAL_TORUS in report.citations
    assert TRIVIAL_CENTRAL_TORUS_NO_LI_YORKE in report.citations


def test_analyze_aborts_on_unverifiable_nilradical():
    # kappa vanishes identically on this solvable algebra although the
    # rotation-with-growth generator is not ad-nilpotent; the nilradical
    # post-verification must abort the toral-order stage
    trap = LieAlgebra.from_brackets(
        3, [(0, 1, 1, 1), (0, 1, 2, 1), (0, 2, 1, -1), (0, 2, 2, 1)], ["H", "X", "Y"])
    group = PresentedGroup.build(trap, [], "Trap")
    endo = validate_endomorphism(group, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(InvariantViolationError):
        analyze(endo, TOL)


def test_analyze_skips_toral_check_when_central_torus_is_nontrivial():
    # the same trap plus a central circle W doubled by the endomorphism: the
    # toral-order check does not apply, so the nilradical it would abort on
    # is never computed and the entropy sits on the circle
    trap_w = LieAlgebra.from_brackets(
        4, [(0, 1, 1, 1), (0, 1, 2, 1), (0, 2, 1, -1), (0, 2, 2, 1)], ["H", "X", "Y", "W"])
    group = PresentedGroup.build(trap_w, [(0, 0, 0, 1)], "TrapW")
    assert validate_presentation(group).valid
    endo = validate_endomorphism(
        group, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    report = analyze(endo, TOL)
    assert abs(report.entropy.value - math.log(2)) <= TOL
    assert report.li_yorke.verdict == LI_YORKE_ALL_POWERS
    assert report.toral_order is None


def test_analyze_computes_the_center_once(monkeypatch):
    import lieentropy.liealgebra

    calls = []
    original = lieentropy.liealgebra.centralizer_in

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (lieentropy.liealgebra, lieentropy.groups):
        monkeypatch.setattr(module, "centralizer_in", counted)
    # the eventual image is the whole algebra, whose center serves both the
    # central torus of the image and the toral lattice of the group
    group = heisenberg_group([(0, 0, 1)])
    endo = validate_endomorphism(group, [[1, 0, 0], [0, 2, 0], [0, 0, 2]])
    report = analyze(endo, TOL)
    assert report.eventual_image.dim == group.dim
    assert report.center_of_image == Subspace.from_vectors(3, [(0, 0, 1)])
    assert len(calls) == 1


def test_analyze_runs_each_stage_once(monkeypatch):
    import lieentropy.liealgebra as liealgebra

    calls = Counter()
    for module, name in ((lieentropy.groups, "eventual_image"), (lieentropy.groups, "nilradical"),
                         (lieentropy.groups, "log_mahler"), (lieentropy.groups, "char_poly"),
                         (liealgebra, "is_ideal"), (liealgebra, "solvable_radical")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    # counted over validation and analysis.  nilradical: calls for the
    # conjugation certificate and the toral-order check; log_mahler and
    # char_poly: calls for the eigenvalue-sum bound, which on a whole torus
    # is the entropy itself; is_ideal: one per ideal built (the center, and
    # the nilradical), none again for a quotient by one; center_cut: Gamma
    # cut by the center, for the torus of a surjective d and for the
    # toral-order precondition alike
    expected = {
        "heisenberg-central-circle": {"nilradical": 0, "log_mahler": 1, "char_poly": 1,
                                      "is_ideal": 1, "center_cut": 1},
        "cstar-squaring": {"nilradical": 0, "log_mahler": 1, "char_poly": 1,
                           "is_ideal": 1, "center_cut": 1},
        "torus2-squaring": {"nilradical": 0, "log_mahler": 1, "char_poly": 1,
                            "is_ideal": 1, "center_cut": 1},
        "euclidean-e2": {"nilradical": 1, "log_mahler": 1, "char_poly": 1,
                         "is_ideal": 2, "center_cut": 1},
        "e2-shifted": {"nilradical": 1, "log_mahler": 1, "char_poly": 1,
                       "is_ideal": 2, "center_cut": 1},
    }
    cases = {name: build_group(get_entry(name).input_document())
             for name in expected if name != "e2-shifted"}
    # d(H) = H + X + 3Y leaves the lattice span, so validation certifies a
    # conjugation through the nilradical, which the toral-order check reuses
    cases["e2-shifted"] = (e2_group(), [[1, 0, 0], [1, 2, -1], [3, 1, 2]])
    centers = {case: liealgebra.center(group.algebra).space for case, (group, _) in cases.items()}
    cut = lieentropy.groups.lattice_intersect_subspace

    def counted_cut(lattice, subspace):
        calls["center_cut"] += subspace == centers[case]
        return cut(lattice, subspace)

    monkeypatch.setattr(lieentropy.groups, "lattice_intersect_subspace", counted_cut)
    for case, counts in expected.items():
        group, derivative = cases[case]
        calls.clear()
        endo = validate_endomorphism(group, derivative)
        report = analyze(endo, TOL)
        assert report.li_yorke is not None
        assert calls["eventual_image"] == 1, case
        for name, count in counts.items():
            assert calls[name] == count, (case, name)
        assert calls["solvable_radical"] == 0, case
    assert report.toral_order is not None  # e2-shifted ran both consumers
    # the nilradical is ker kappa, so no stage builds the solvable radical,
    # on these cases or on any catalog entry
    calls.clear()
    for entry in builtin_catalog():
        analyze(validate_endomorphism(*build_group(entry.input_document())), TOL)
    assert calls["solvable_radical"] == 0


def test_value_records_refuse_assignment_and_replace_keeps_the_rest():
    # the value records are NamedTuples: each refuses attribute assignment,
    # and _replace on an analyze report changes only the fields it names
    from lieentropy.catalog import run_entry
    from lieentropy.estimator import (
        GridDynamics,
        bundle_inequality_check,
        li_yorke_search,
        spanning_entropy_estimate,
    )
    from lieentropy.liealgebra import validate_algebra

    entry = get_entry("euclidean-e2")
    document = entry.input_document()
    group, derivative = build_group(document)
    report = analyze(validate_endomorphism(group, derivative), TOL)
    doubling, tripling = GridDynamics.from_rows([[2]]), GridDynamics.from_rows([[3]])
    product = GridDynamics.from_rows([[2, 0], [0, 3]])
    records = {
        "CatalogEntry": entry,
        "CatalogResult": run_entry(entry),
        "InputDocument": document,
        "LieAlgebra": group.algebra,
        "AlgebraValidation": validate_algebra(group.algebra),
        "PresentationReport": validate_presentation(group),
        "AnalysisReport": report,
        "LiYorkeChain": report.li_yorke,
        "ToralOrderCheck": report.toral_order,
        "TorusEndo": doubling,
        "SpanningEstimate": spanning_entropy_estimate(doubling, 3, 0.1, 64),
        "BundleInequalityReport": bundle_inequality_check(
            product, doubling, tripling, n_max=3, epsilon=0.1, resolution=64),
        "PairCandidate": li_yorke_search(doubling, pair_budget=4)[0],
    }
    for name, record in records.items():
        assert type(record).__name__ == name and isinstance(record, tuple)
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        assert record == type(record)(*record)
    replaced = report._replace(li_yorke=None, citations=())
    assert replaced.li_yorke is None and replaced.citations == ()
    assert all(getattr(replaced, field) is getattr(report, field)
               for field in report._fields if field not in ("li_yorke", "citations"))
    assert report.li_yorke is not None and report.citations
