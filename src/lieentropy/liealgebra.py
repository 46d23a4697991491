"""Structure-constant Lie algebras over exact rationals.

An algebra is kept as the input's sparse structure constants: the sorted
nonzero (i, j, k, c) meaning [e_i, e_j] has coefficient c on e_k, c by the
number rule of `exactlinalg`.  Brackets, adjoints, the ideal and validity
checks, centralizers and the Killing form read them directly, so their cost
follows the number of nonzero constants: a zero bracket is never formed.  All
constructions here reduce to exact rational linear algebra: the center and
both radicals are one `Subspace.where` each, and every series (derived, or
Engel's g > [N, g] > [N, [N, g]] > ...) one `Subspace.chain` of bracket spans.
The radicals are post-verified against the structural facts the rest of the
pipeline relies on, erring out rather than returning an unverified answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionError, DomainError, InvariantViolationError
from .exactlinalg import Subspace, exact, identity_matrix, mat_vec, rank, transpose

Vec = tuple[Fraction, ...]


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    basis_names: tuple[str, ...]
    # sorted nonzero (i, j, k, c): [e_i, e_j] has coefficient c on e_k
    constants: tuple[tuple[int, int, int, Fraction], ...]

    @staticmethod
    def from_brackets(dim: int, brackets, basis_names=None) -> "LieAlgebra":
        """Build from sparse triples (i, j, k, value) meaning [e_i,e_j] has
        coefficient `value` on e_k; repeated triples add up.

        The mirror entry (j, i, k) defaults to the antisymmetric completion
        unless the triples set it explicitly, so deliberately inconsistent
        tables are representable and caught by validate_algebra().
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
            explicit[(i, j, k)] = explicit.get((i, j, k), 0) + Fraction(value)
        entries = {(j, i, k): -value for (i, j, k), value in explicit.items()}
        entries.update(explicit)
        constants = tuple(sorted((*key, exact(c)) for key, c in entries.items() if c != 0))
        return LieAlgebra(dim, basis_names, constants)

    @staticmethod
    def abelian(dim: int, basis_names=None) -> "LieAlgebra":
        return LieAlgebra.from_brackets(dim, [], basis_names)

    def bracket(self, x, y) -> Vec:
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionError("bracket arguments have wrong length")
        out = [0] * self.dim
        for i, j, k, c in self.constants:
            if x[i] and y[j]:
                out[k] += x[i] * y[j] * c
        return tuple(out)

    def adjoint_matrix(self, x) -> list[list[Fraction]]:
        """Matrix of y -> [x, y] in the defining basis."""
        if len(x) != self.dim:
            raise DimensionError("adjoint argument has wrong length")
        ad = [[0] * self.dim for _ in range(self.dim)]
        for i, j, k, c in self.constants:
            ad[k][j] += x[i] * c
        return ad

    def basis_vector(self, i: int) -> Vec:
        return tuple(int(j == i) for j in range(self.dim))


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class AlgebraValidation:
    violations: tuple[tuple[str, tuple, str], ...]  # (kind, witness, detail)

    @property
    def valid(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.valid:
            return "valid Lie algebra"
        return "; ".join(f"{kind} at {witness}: {detail}" for kind, witness, detail in self.violations)


def validate_algebra(algebra: LieAlgebra) -> AlgebraValidation:
    """Exact antisymmetry and Jacobi check; reports every violating pair,
    then every violating triple, in index order."""
    names = algebra.basis_names
    value = {(i, j, k): c for i, j, k, c in algebra.constants}
    skew = sorted({(min(i, j), max(i, j)) for (i, j, k), c in value.items()
                   if value.get((j, i, k), 0) != -c})
    violations = [
        ("antisymmetry", (names[i], names[j]),
         f"[{names[i]},{names[j]}] != -[{names[j]},{names[i]}]")
        for i, j in skew
    ]
    by_first: dict[int, list] = {}
    for i, j, k, c in algebra.constants:
        by_first.setdefault(i, []).append((j, k, c))
    # coordinates of [[e_a,e_b],e_c] + [[e_b,e_c],e_a] + [[e_c,e_a],e_b],
    # keyed by the sorted triple and the coordinate
    jacobi: dict[tuple[int, int, int, int], Fraction] = {}
    for a, b, m, c1 in algebra.constants:
        for c, l, c2 in by_first.get(m, ()):
            if (a < b) + (b < c) + (c < a) == 2:  # an even permutation of distinct indices
                key = (*sorted((a, b, c)), l)
                jacobi[key] = jacobi.get(key, 0) + c1 * c2
    failing = sorted({key[:3] for key, total in jacobi.items() if total != 0})
    violations += [("jacobi", tuple(names[t] for t in triple), "Jacobi identity fails")
                   for triple in failing]
    return AlgebraValidation(tuple(violations))


@dataclass(frozen=True)
class Ideal:
    parent: LieAlgebra
    space: Subspace
    kind: str

    def __post_init__(self):
        if not is_ideal(self.parent, self.space):
            raise InvariantViolationError("ideal", f"{self.kind} subspace is not an ideal")


def is_subalgebra(algebra: LieAlgebra, space: Subspace) -> bool:
    """[u, v] in the space for basis rows u, v; only nonzero ones are tested.
    The whole algebra is closed by definition."""
    if space.dim == algebra.dim:
        return True
    return all(map(space.contains, nonzero_brackets(algebra, space.basis, space.basis).values()))


def nonzero_brackets(algebra: LieAlgebra, xs, ys) -> dict[tuple[int, int], list]:
    """The nonzero [xs[a], ys[b]], keyed (a, b), summed from the constants
    (i, j, k, c) over the a with xs[a][i] != 0 and the b with ys[b][j] != 0."""
    n, out = algebra.dim, {}
    left, right = ([[(a, v[i]) for a, v in enumerate(vs) if v[i]] for i in range(n)]
                   for vs in (xs, ys))
    for i, j, k, c in algebra.constants:
        for a, x in left[i]:
            for b, y in right[j]:
                out.setdefault((a, b), [0] * n)[k] += x * y * c
    return {key: v for key, v in out.items() if any(v)}


def is_ideal(algebra: LieAlgebra, space: Subspace) -> bool:
    """[e_i, v] in the space for every basis row v; only nonzero ones are tested."""
    units = identity_matrix(algebra.dim)
    return all(map(space.contains, nonzero_brackets(algebra, units, space.basis).values()))


# ---------------------------------------------------------------------------
# classical constructions

def killing_form(algebra: LieAlgebra) -> list[list[Fraction]]:
    """kappa(e_i, e_j) = trace(ad e_i . ad e_j) = sum of c_il^k c_jk^l over
    the nonzero constants; exact and symmetric."""
    n = algebra.dim
    by_tail: dict[tuple[int, int], list] = {}
    for j, k, l, c in algebra.constants:
        by_tail.setdefault((k, l), []).append((j, c))
    form = [[0] * n for _ in range(n)]
    for i, l, k, c in algebra.constants:
        for j, d in by_tail.get((k, l), ()):
            form[i][j] += c * d
    return form


def center(algebra: LieAlgebra) -> Ideal:
    """The centralizer of the whole algebra."""
    return Ideal(algebra, centralizer_in(algebra, Subspace.full(algebra.dim)), "center")


def centralizer_in(algebra: LieAlgebra, sub: Subspace) -> Subspace:
    """Center of the subalgebra `sub`: {x in sub : [x, sub] = 0}, the points
    of `sub` where x -> ([x, y] for y in the basis of sub) vanishes."""
    if sub.ambient_dim != algebra.dim:
        raise DimensionError("subspace has wrong ambient dimension")
    if not is_subalgebra(algebra, sub):
        raise DomainError("subspace is not closed under the bracket")
    n = algebra.dim
    images = [[0] * (n * sub.dim) for _ in sub.basis]
    for (a, b), v in nonzero_brackets(algebra, sub.basis, sub.basis).items():
        images[a][b * n:(b + 1) * n] = v
    return sub.where(images)


def bracket_span(algebra: LieAlgebra, left: Subspace, right: Subspace) -> Subspace:
    vectors = nonzero_brackets(algebra, left.basis, right.basis).values()
    return Subspace.from_vectors(algebra.dim, vectors)


def derived_series(algebra: LieAlgebra, start: Subspace | None = None) -> list[Subspace]:
    """s >= [s,s] >= [[s,s],[s,s]] >= ... until stabilization, from the
    subalgebra `start` (default the whole algebra): the chain of
    s -> [s, s]; s is solvable iff the last term is zero."""
    start = Subspace.full(algebra.dim) if start is None else start
    return start.chain(lambda s: bracket_span(algebra, s, s))


def _engel_series(algebra: LieAlgebra, space: Subspace) -> list[Subspace]:
    """Engel's series g >= [N, g] >= [N, [N, g]] >= ... of N = `space`, falling
    for any N; for a subalgebra or a line N it reaches 0 iff every element of
    N is ad-nilpotent (Engel's theorem)."""
    return Subspace.full(algebra.dim).chain(lambda v: bracket_span(algebra, space, v))


def is_solvable(algebra: LieAlgebra) -> bool:
    return derived_series(algebra)[-1].dim == 0


def is_ad_nilpotent(algebra: LieAlgebra, x) -> bool:
    """ad x is nilpotent: Engel's series of the line through x, the image
    chain g > [x, g] > [x, [x, g]] > ..., reaches 0."""
    return _engel_series(algebra, Subspace.from_vectors(algebra.dim, [x]))[-1].dim == 0


def solvable_radical(algebra: LieAlgebra) -> Ideal:
    """Largest solvable ideal, via Cartan's criterion:
    r = {x : kappa(x, [g,g]) = 0}.  No pipeline stage calls it.

    Post-verified: the result is solvable and the quotient Killing form is
    nondegenerate (semisimple quotient).
    """
    form = killing_form(algebra)
    full = Subspace.full(algebra.dim)
    derived = bracket_span(algebra, full, full)
    space = full.where([mat_vec(derived.basis, row) for row in form])
    radical = Ideal(algebra, space, "radical")
    if derived_series(algebra, space)[-1].dim:
        raise InvariantViolationError("solvable_radical", "computed radical is not solvable")
    quotient, _ = quotient_algebra(algebra, radical)
    if quotient.dim:
        qform = killing_form(quotient)
        if rank(qform) != quotient.dim:
            raise InvariantViolationError(
                "solvable_radical", "quotient by the radical has degenerate Killing form")
    return radical


def nilradical(algebra: LieAlgebra) -> Ideal:
    """Largest nilpotent ideal, as the kernel of the Killing form
    n = {x : kappa(x, g) = 0}.  ker kappa is an ideal (kappa is invariant)
    and holds every nilpotent ideal N: for x in N, ad x . ad y maps g into
    N and each term of N's lower central series into the next, so it is
    nilpotent and kappa(x, y) = 0.  Once Engel's series of ker kappa
    reaches 0, ker kappa is a nilpotent ideal, hence the largest one.

    Post-verified: an ideal, every element ad-nilpotent.  Where ker kappa
    overshoots (the weights 1 +- i of R x R^2) the series stalls and raises.
    """
    space = Subspace.full(algebra.dim).where(killing_form(algebra))
    ideal = Ideal(algebra, space, "nilradical")
    if _engel_series(algebra, space)[-1].dim:
        raise InvariantViolationError(
            "nilradical", "computed nilradical contains a non-ad-nilpotent element")
    return ideal


def quotient_algebra(algebra: LieAlgebra, ideal: Ideal | Subspace):
    """Structure constants of g/ideal on the lexicographically first echelon
    complement; returns (quotient, projection matrix).

    The projection sends x to the complement entries of its residue mod the
    ideal; the quotient constants are the projected constants of complement
    pairs.  The Jacobi identity of the quotient is re-validated.  An `Ideal`
    was checked when it was built; a bare subspace is checked here.
    """
    if not isinstance(ideal, Ideal) and not is_ideal(algebra, ideal):
        raise DomainError("quotient by a subspace that is not an ideal")
    space = ideal.space if isinstance(ideal, Ideal) else ideal
    complement = space.complement
    position = {c: a for a, c in enumerate(complement)}
    columns = [[space.reduce(algebra.basis_vector(k))[c] for c in complement]
               for k in range(algebra.dim)]
    totals: dict[tuple[int, int, int], Fraction] = {}
    for i, j, k, c in algebra.constants:
        if i in position and j in position:
            for r, p in enumerate(columns[k]):
                if p:
                    key = (position[i], position[j], r)
                    totals[key] = totals.get(key, 0) + c * p
    brackets = [(*key, c) for key, c in totals.items() if c]
    names = tuple(algebra.basis_names[c] for c in complement)
    quotient = LieAlgebra.from_brackets(len(complement), brackets, names)
    report = validate_algebra(quotient)
    if not report.valid:
        raise InvariantViolationError("quotient_algebra", report.describe())
    return quotient, transpose(columns)
