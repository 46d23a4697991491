"""Structure-constant Lie algebras over exact rationals.

An algebra is a bracket table: table[i][j] is the coordinate vector of
[e_i, e_j].  All constructions here (center, radicals, series, quotients)
reduce to exact rational linear algebra, and the two radical computations
are post-verified against the structural facts the rest of the pipeline
relies on, erring out rather than returning an unverified answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError, DomainError, InvariantViolationError
from .exactlinalg import (
    Subspace,
    identity_matrix,
    kernel_basis,
    mat_mul,
    rank,
    rref,
    to_fraction_matrix,
    to_fraction_vector,
    transpose,
    zero_vector,
)

Vec = tuple[Fraction, ...]


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    basis_names: tuple[str, ...]
    table: tuple[tuple[Vec, ...], ...]  # table[i][j] = [e_i, e_j]

    @staticmethod
    def from_brackets(dim: int, brackets, basis_names=None) -> "LieAlgebra":
        """Build from sparse triples (i, j, k, value) meaning [e_i,e_j] has
        coefficient `value` on e_k.

        The mirror entry (j, i, k) defaults to the antisymmetric completion
        unless the triples set it explicitly, so deliberately inconsistent
        tables are representable and caught by validate().
        """
        if basis_names is None:
            basis_names = tuple(f"e{i}" for i in range(dim))
        basis_names = tuple(str(s) for s in basis_names)
        if len(basis_names) != dim:
            raise DimensionError("basis name count differs from dimension")
        explicit: dict[tuple[int, int, int], Fraction] = {}
        for (i, j, k, value) in brackets:
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise DimensionError(f"bracket index ({i},{j},{k}) out of range")
            explicit[(i, j, k)] = explicit.get((i, j, k), Fraction(0)) + Fraction(value)
        table = [[list(zero_vector(dim)) for _ in range(dim)] for _ in range(dim)]
        for (i, j, k), value in explicit.items():
            table[i][j][k] = value
            if (j, i, k) not in explicit:
                table[j][i][k] = -value
        return LieAlgebra(
            dim,
            basis_names,
            tuple(tuple(tuple(v) for v in row) for row in table),
        )

    @staticmethod
    def abelian(dim: int, basis_names=None) -> "LieAlgebra":
        return LieAlgebra.from_brackets(dim, [], basis_names)

    def bracket(self, x, y) -> Vec:
        x = to_fraction_vector(x)
        y = to_fraction_vector(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionError("bracket arguments have wrong length")
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                for k, c in enumerate(self.table[i][j]):
                    if c != 0:
                        out[k] += xi * yj * c
        return tuple(out)

    def adjoint_matrix(self, x) -> list[list[Fraction]]:
        """Matrix of y -> [x, y] in the defining basis."""
        x = to_fraction_vector(x)
        if len(x) != self.dim:
            raise DimensionError("adjoint argument has wrong length")
        cols = [self.bracket(x, e) for e in identity_matrix(self.dim)]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def basis_vector(self, i: int) -> Vec:
        return tuple(Fraction(1) if j == i else Fraction(0) for j in range(self.dim))


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class AlgebraValidation:
    valid: bool
    violations: tuple[tuple[str, tuple, str], ...]  # (kind, witness, detail)

    def describe(self) -> str:
        if self.valid:
            return "valid Lie algebra"
        return "; ".join(f"{kind} at {witness}: {detail}" for kind, witness, detail in self.violations)


def validate_algebra(algebra: LieAlgebra) -> AlgebraValidation:
    """Exact antisymmetry and Jacobi check; reports every violating triple."""
    violations = []
    n = algebra.dim
    for i in range(n):
        for j in range(i, n):
            forward = algebra.table[i][j]
            backward = algebra.table[j][i]
            if any(a != -b for a, b in zip(forward, backward)):
                violations.append((
                    "antisymmetry",
                    (algebra.basis_names[i], algebra.basis_names[j]),
                    f"[{algebra.basis_names[i]},{algebra.basis_names[j]}] != "
                    f"-[{algebra.basis_names[j]},{algebra.basis_names[i]}]",
                ))
    basis = identity_matrix(n)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = [Fraction(0)] * n
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    term = algebra.bracket(algebra.bracket(basis[a], basis[b]), basis[c])
                    total = [t + s for t, s in zip(total, term)]
                if any(t != 0 for t in total):
                    names = (algebra.basis_names[i], algebra.basis_names[j], algebra.basis_names[k])
                    violations.append(("jacobi", names, "Jacobi identity fails"))
    return AlgebraValidation(not violations, tuple(violations))


@dataclass(frozen=True)
class Ideal:
    parent: LieAlgebra
    space: Subspace
    kind: str

    def __post_init__(self):
        if not is_ideal(self.parent, self.space):
            raise InvariantViolationError("ideal", f"{self.kind} subspace is not an ideal")


def is_subalgebra(algebra: LieAlgebra, space: Subspace) -> bool:
    return all(
        space.contains(algebra.bracket(u, v))
        for u in space.basis
        for v in space.basis
    )


def is_ideal(algebra: LieAlgebra, space: Subspace) -> bool:
    basis = identity_matrix(algebra.dim)
    return all(
        space.contains(algebra.bracket(e, v))
        for e in basis
        for v in space.basis
    )


# ---------------------------------------------------------------------------
# classical constructions

def killing_form(algebra: LieAlgebra) -> list[list[Fraction]]:
    """kappa(e_i, e_j) = trace(ad e_i . ad e_j), exact and symmetric."""
    ads = [algebra.adjoint_matrix(e) for e in identity_matrix(algebra.dim)]
    n = algebra.dim
    form = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            prod = mat_mul(ads[i], ads[j])
            tr = sum((prod[k][k] for k in range(n)), Fraction(0))
            form[i][j] = tr
            form[j][i] = tr
    return form


def center(algebra: LieAlgebra) -> Ideal:
    """Solution space of ad(x) = 0."""
    n = algebra.dim
    conditions = []
    for j in range(n):
        for k in range(n):
            conditions.append([algebra.table[i][j][k] for i in range(n)])
    space = Subspace.from_vectors(n, kernel_basis(conditions))
    return Ideal(algebra, space, "center")


def centralizer_in(algebra: LieAlgebra, sub: Subspace) -> Subspace:
    """Center of the subalgebra `sub`: {x in sub : [x, sub] = 0}."""
    if sub.ambient_dim != algebra.dim:
        raise DimensionError("subspace has wrong ambient dimension")
    if not is_subalgebra(algebra, sub):
        raise DomainError("subspace is not closed under the bracket")
    if sub.dim == 0:
        return sub
    conditions = []
    for y in sub.basis:
        for k in range(algebra.dim):
            conditions.append([algebra.bracket(b, y)[k] for b in sub.basis])
    vectors = []
    for combo in kernel_basis(conditions):
        x = [sum((combo[i] * sub.basis[i][j] for i in range(sub.dim)), Fraction(0))
             for j in range(algebra.dim)]
        vectors.append(x)
    return Subspace.from_vectors(algebra.dim, vectors)


def bracket_span(algebra: LieAlgebra, left: Subspace, right: Subspace) -> Subspace:
    vectors = [algebra.bracket(u, v) for u in left.basis for v in right.basis]
    return Subspace.from_vectors(algebra.dim, vectors)


def derived_series(algebra: LieAlgebra) -> list[Subspace]:
    """g >= [g,g] >= [[g,g],[g,g]] >= ... until stabilization."""
    current = Subspace.full(algebra.dim)
    chain = [current]
    while True:
        nxt = bracket_span(algebra, current, current)
        if nxt.dim == current.dim:
            break
        chain.append(nxt)
        current = nxt
    return chain


def is_solvable(algebra: LieAlgebra) -> bool:
    return derived_series(algebra)[-1].dim == 0


def _series_terminates_at_zero(algebra: LieAlgebra, space: Subspace) -> bool:
    current = space
    while True:
        nxt = bracket_span(algebra, current, current)
        if nxt.dim == 0:
            return True
        if nxt.dim == current.dim:
            return False
        current = nxt


def is_ad_nilpotent(algebra: LieAlgebra, x) -> bool:
    ad = algebra.adjoint_matrix(x)
    power = ad
    for _ in range(algebra.dim - 1):
        power = mat_mul(power, ad)
    return all(v == 0 for row in power for v in row)


def solvable_radical(algebra: LieAlgebra) -> Ideal:
    """Largest solvable ideal, via Cartan's criterion:
    r = {x : kappa(x, [g,g]) = 0}.

    Post-verified: the result is solvable and the quotient Killing form is
    nondegenerate (semisimple quotient).
    """
    return _solvable_radical(algebra, killing_form(algebra))


def _solvable_radical(algebra: LieAlgebra, form) -> Ideal:
    """solvable_radical given the Killing form of the algebra."""
    n = algebra.dim
    derived = bracket_span(algebra, Subspace.full(n), Subspace.full(n))
    conditions = []
    for d in derived.basis:
        conditions.append([
            sum((form[i][j] * d[j] for j in range(n)), Fraction(0)) for i in range(n)
        ])
    space = Subspace.from_vectors(n, kernel_basis(conditions) if conditions else identity_matrix(n))
    radical = Ideal(algebra, space, "radical")
    if not _series_terminates_at_zero(algebra, space) and space.dim > 0:
        raise InvariantViolationError("solvable_radical", "computed radical is not solvable")
    quotient, _ = quotient_algebra(algebra, radical)
    if quotient.dim:
        qform = killing_form(quotient)
        if rank(qform) != quotient.dim:
            raise InvariantViolationError(
                "solvable_radical", "quotient by the radical has degenerate Killing form")
    return radical


def nilradical(algebra: LieAlgebra) -> Ideal:
    """Largest nilpotency ideal of the adjoint representation:
    n = r intersect {x : kappa(x, g) = 0}.

    Post-verified: an ideal, every basis element ad-nilpotent, and
    r' <= n <= r.  Inputs where the kappa-orthogonal overshoots the true
    nilradical fail the ad-nilpotency check and raise.
    """
    form = killing_form(algebra)
    radical = _solvable_radical(algebra, form)
    kernel = Subspace.from_vectors(algebra.dim, kernel_basis(form))
    space = radical.space.intersect(kernel)
    ideal = Ideal(algebra, space, "nilradical")
    for v in space.basis:
        if not is_ad_nilpotent(algebra, v):
            raise InvariantViolationError(
                "nilradical", "computed nilradical contains a non-ad-nilpotent element")
    derived_of_radical = bracket_span(algebra, radical.space, radical.space)
    if not derived_of_radical.is_subspace_of(space) or not space.is_subspace_of(radical.space):
        raise InvariantViolationError("nilradical", "chain r' <= n <= r fails")
    return ideal


def quotient_algebra(algebra: LieAlgebra, ideal: Ideal | Subspace):
    """Structure constants of g/ideal on the lexicographically first echelon
    complement; returns (quotient, projection matrix).

    The projection matrix sends x to its complement coordinates mod the
    ideal; the Jacobi identity of the quotient is re-validated.
    """
    space = ideal.space if isinstance(ideal, Ideal) else ideal
    if not is_ideal(algebra, space):
        raise DomainError("quotient by a subspace that is not an ideal")
    n = algebra.dim
    pivots = [next(i for i, x in enumerate(row) if x != 0) for row in space.basis]
    complement = [c for c in range(n) if c not in pivots]
    k = len(complement)
    # change of basis: columns are ideal basis then complement unit vectors
    cols = [list(v) for v in space.basis] + [
        [Fraction(1) if r == c else Fraction(0) for r in range(n)] for c in complement
    ]
    basis_matrix = transpose(cols)
    inverse = _invert(basis_matrix)
    projection = inverse[space.dim:]
    names = tuple(algebra.basis_names[c] for c in complement)
    brackets = []
    for a in range(k):
        for b in range(k):
            ea = algebra.basis_vector(complement[a])
            eb = algebra.basis_vector(complement[b])
            image = algebra.bracket(ea, eb)
            coords = [
                sum((projection[r][j] * image[j] for j in range(n)), Fraction(0))
                for r in range(k)
            ]
            for r, c in enumerate(coords):
                if c != 0:
                    brackets.append((a, b, r, c))
    quotient = LieAlgebra.from_brackets(k, brackets, names)
    report = validate_algebra(quotient)
    if not report.valid:
        raise InvariantViolationError("quotient_algebra", report.describe())
    return quotient, projection


def _invert(matrix):
    n = len(matrix)
    aug = [list(row) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(to_fraction_matrix(matrix))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise DomainError("matrix is singular")
    return [row[n:] for row in red]
