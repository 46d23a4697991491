"""Exact rational and integer linear algebra.

Everything in this module is computed over arbitrary-precision rationals
(`fractions.Fraction`) or integers; no floating point ever enters.  Matrices
are lists of row lists, vectors are sequences of Fractions or ints.  The two
canonical containers are:

* `Subspace` - a rational subspace stored in reduced row echelon form, so
  two subspaces are equal iff their stored entries are equal.
* `Lattice`  - a finitely generated subgroup of Q^n stored in row-style
  Hermite normal form (scaled HNF when generators are non-integral), again
  canonical entry-for-entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DimensionError, DomainError

Vec = tuple[Fraction, ...]
Mat = list[list[Fraction]]


# ---------------------------------------------------------------------------
# vectors and matrices

def to_fraction_vector(entries) -> Vec:
    return tuple(Fraction(x) for x in entries)


def to_fraction_matrix(rows) -> Mat:
    mat = [[Fraction(x) for x in row] for row in rows]
    if mat and any(len(row) != len(mat[0]) for row in mat):
        raise DimensionError("ragged matrix rows")
    return mat


def zero_vector(n) -> Vec:
    return tuple([Fraction(0)] * n)


def identity_matrix(n) -> Mat:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_vec(m: Mat, v) -> Vec:
    if m and len(v) != len(m[0]):
        raise DimensionError(f"matrix is {len(m)}x{len(m[0])}, vector has length {len(v)}")
    return tuple(sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a and b and len(a[0]) != len(b):
        raise DimensionError("inner dimensions differ")
    cols = len(b[0]) if b else 0
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(cols)]
        for i in range(len(a))
    ]


def mat_pow(m: Mat, k: int) -> Mat:
    if len(m) != (len(m[0]) if m else 0):
        raise DimensionError("matrix power needs a square matrix")
    if k < 0:
        raise DomainError("negative matrix power")
    result = identity_matrix(len(m))
    base = [row[:] for row in m]
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def transpose(m: Mat) -> Mat:
    return [list(col) for col in zip(*m)] if m else []


def rref(rows) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    mat = to_fraction_matrix(rows)
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
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
    return [row for row in mat[:r]], pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def kernel_basis(m) -> list[Vec]:
    """Basis of {x : m x = 0} over Q, from the reduced echelon form of m."""
    mat = to_fraction_matrix(m)
    if not mat:
        return []
    ncols = len(mat[0])
    red, pivots = rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    return basis


def solve(m, rhs) -> Vec | None:
    """One solution of m x = rhs over Q, or None when inconsistent.

    When the kernel is nontrivial an arbitrary representative is returned;
    callers needing uniqueness should check rank first.
    """
    mat = to_fraction_matrix(m)
    b = to_fraction_vector(rhs)
    if len(mat) != len(b):
        raise DimensionError("right-hand side length mismatch")
    ncols = len(mat[0]) if mat else 0
    aug = [list(row) + [b[i]] for i, row in enumerate(mat)]
    red, pivots = rref(aug)
    for row in red:
        if all(x == 0 for x in row[:ncols]) and row[ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        if p == ncols:
            return None
        x[p] = red[r][ncols]
    return tuple(x)


def det(m) -> Fraction:
    mat = to_fraction_matrix(m)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise DimensionError("determinant needs a square matrix")
    sign = Fraction(1)
    result = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            mat[c], mat[pivot_row] = mat[pivot_row], mat[c]
            sign = -sign
        result *= mat[c][c]
        inv = 1 / mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] * inv
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return sign * result


# ---------------------------------------------------------------------------
# polynomial invariants of matrices

def char_poly(m) -> list:
    """Monic characteristic polynomial det(tI - m), ascending coefficients.

    Computed by the Faddeev-LeVerrier recurrence, which stays in exact
    rational arithmetic.  Integer output coefficients are returned as ints.
    """
    mat = to_fraction_matrix(m)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise DimensionError("characteristic polynomial needs a square matrix")
    if n == 0:
        return [1]
    coeffs = [Fraction(1)]  # descending: t^n, t^{n-1}, ...
    mk = [row[:] for row in mat]
    for k in range(1, n + 1):
        ck = -sum((mk[i][i] for i in range(n)), Fraction(0)) / k
        coeffs.append(ck)
        if k < n:
            shifted = [
                [mk[i][j] + (ck if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
            mk = mat_mul(mat, shifted)
    ascending = list(reversed(coeffs))
    if all(c.denominator == 1 for c in ascending):
        return [int(c) for c in ascending]
    return ascending


def min_poly(m) -> list:
    """Monic minimal polynomial, ascending coefficients (ints when integral).

    Found as the first linear dependence among I, m, m^2, ... (Krylov on the
    flattened powers), so it divides char_poly(m) by construction.
    """
    mat = to_fraction_matrix(m)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise DimensionError("minimal polynomial needs a square matrix")
    if n == 0:
        return [1]
    power = identity_matrix(n)
    flats: list[list[Fraction]] = []
    for d in range(n + 1):
        flat = [x for row in power for x in row]
        flats.append(flat)
        combo = solve(transpose(flats[:-1]), flat) if d > 0 else None
        if combo is not None:
            ascending = [-c for c in combo] + [Fraction(1)]
            if all(c.denominator == 1 for c in ascending):
                return [int(c) for c in ascending]
            return ascending
        power = mat_mul(power, mat)
    raise AssertionError("Cayley-Hamilton violated; unreachable")


def companion_matrix(coeffs) -> list[list[int]]:
    """Companion matrix of a monic integer polynomial (ascending coeffs)."""
    coeffs = [int(c) for c in coeffs]
    if not coeffs or abs(coeffs[-1]) != 1:
        raise DomainError("companion matrix needs a monic polynomial")
    if coeffs[-1] == -1:
        coeffs = [-c for c in coeffs]
    n = len(coeffs) - 1
    mat = [[0] * n for _ in range(n)]
    for i in range(1, n):
        mat[i][i - 1] = 1
    for i in range(n):
        mat[i][n - 1] = -coeffs[i]
    return mat


# ---------------------------------------------------------------------------
# subspaces of Q^n

@dataclass(frozen=True)
class Subspace:
    """Rational subspace in reduced row echelon form (canonical)."""

    ambient_dim: int
    basis: tuple[Vec, ...]

    @staticmethod
    def from_vectors(ambient_dim: int, vectors) -> "Subspace":
        vectors = [to_fraction_vector(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionError("subspace vector has wrong length")
        red, _ = rref(vectors)
        return Subspace(ambient_dim, tuple(tuple(row) for row in red))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace.from_vectors(ambient_dim, identity_matrix(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v) -> bool:
        v = to_fraction_vector(v)
        if len(v) != self.ambient_dim:
            raise DimensionError("vector has wrong length")
        residue = self.reduce(v)
        return all(x == 0 for x in residue)

    def reduce(self, v) -> Vec:
        """Residue of v after eliminating the pivot coordinates of the basis."""
        v = list(to_fraction_vector(v))
        for row in self.basis:
            p = next(i for i, x in enumerate(row) if x != 0)
            if v[p] != 0:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        return tuple(v)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("ambient dimensions differ")
        if not self.basis or not other.basis:
            return Subspace.from_vectors(self.ambient_dim, [])
        # x = sum u_i a_i = sum w_j b_j; solve the stacked kernel, keep the u part.
        stacked = [list(row) for row in self.basis]
        stacked += [[-x for x in row] for row in other.basis]
        vectors = []
        for combo in kernel_basis(transpose(stacked)):
            u = combo[: self.dim]
            x = [sum((u[i] * self.basis[i][j] for i in range(self.dim)), Fraction(0))
                 for j in range(self.ambient_dim)]
            vectors.append(x)
        return Subspace.from_vectors(self.ambient_dim, vectors)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("ambient dimensions differ")
        return Subspace.from_vectors(self.ambient_dim, list(self.basis) + list(other.basis))

    def is_subspace_of(self, other: "Subspace") -> bool:
        return all(other.contains(v) for v in self.basis)


# ---------------------------------------------------------------------------
# lattices (finitely generated subgroups of Q^n)

def _hnf_int_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of the integer row span.

    Pivots positive and strictly to the right as rows descend; entries above
    each pivot reduced into [0, pivot).  The output is the unique canonical
    basis of the generated Z-module.
    """
    mat = [list(map(int, r)) for r in rows if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        while True:
            nonzero = [i for i in range(r, len(mat)) if mat[i][c] != 0]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: abs(mat[i][c]))
            mat[r], mat[i0] = mat[i0], mat[r]
            if mat[r][c] < 0:
                mat[r] = [-x for x in mat[r]]
            done = True
            for i in range(r + 1, len(mat)):
                if mat[i][c] != 0:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
                    if mat[i][c] != 0:
                        done = False
            if done:
                break
        if any(mat[i][c] != 0 for i in range(r, len(mat))):
            for i in range(r):
                q = mat[i][c] // mat[r][c]
                if q:
                    mat[i] = [x - q * y for x, y in zip(mat[i], mat[r])]
            r += 1
            if r == len(mat):
                break
    return [row for row in mat[:r] if any(row)]


def _int_left_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Basis of {c in Z^m : sum_i c_i rows[i] = 0} via the [rows | I] trick."""
    m = len(rows)
    if m == 0:
        return []
    ncols = len(rows[0])
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(m)] for i in range(m)]
    reduced = _hnf_int_rows(aug)
    return [row[ncols:] for row in reduced if all(x == 0 for x in row[:ncols])]


@dataclass(frozen=True)
class Lattice:
    """Discrete subgroup of Q^n with a canonical (scaled HNF) basis."""

    ambient_dim: int
    basis: tuple[Vec, ...]

    @staticmethod
    def from_generators(ambient_dim: int, generators) -> "Lattice":
        gens = [to_fraction_vector(g) for g in generators]
        for g in gens:
            if len(g) != ambient_dim:
                raise DimensionError("lattice generator has wrong length")
        gens = [g for g in gens if any(x != 0 for x in g)]
        if not gens:
            return Lattice(ambient_dim, tuple())
        scale = lcm(*[x.denominator for g in gens for x in g])
        int_rows = [[int(x * scale) for x in g] for g in gens]
        hnf = _hnf_int_rows(int_rows)
        basis = tuple(tuple(Fraction(x, scale) for x in row) for row in hnf)
        return Lattice(ambient_dim, basis)

    @staticmethod
    def standard(n: int) -> "Lattice":
        return Lattice.from_generators(n, identity_matrix(n))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def is_empty(self) -> bool:
        return not self.basis

    def span(self) -> Subspace:
        return Subspace.from_vectors(self.ambient_dim, list(self.basis))

    def integer_coordinates(self, v) -> tuple[int, ...] | None:
        """Coordinates of v in the basis when v lies in the lattice."""
        v = to_fraction_vector(v)
        if len(v) != self.ambient_dim:
            raise DimensionError("vector has wrong length")
        if not self.basis:
            return tuple() if all(x == 0 for x in v) else None
        coords = solve(transpose(list(self.basis)), v)
        if coords is None or any(c.denominator != 1 for c in coords):
            return None
        residual = [
            v[j] - sum((coords[i] * self.basis[i][j] for i in range(self.rank)), Fraction(0))
            for j in range(self.ambient_dim)
        ]
        if any(x != 0 for x in residual):
            return None
        return tuple(int(c) for c in coords)

    def contains(self, v) -> bool:
        return self.integer_coordinates(v) is not None


def lattice_intersect_subspace(lattice: Lattice, subspace: Subspace) -> Lattice:
    """Sublattice of points of `lattice` lying in `subspace`.

    The membership conditions are linear in the integer coordinates of a
    lattice point, so the result is the image of an integer kernel and is
    automatically saturated inside the subspace.
    """
    if lattice.ambient_dim != subspace.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    if lattice.is_empty():
        return lattice
    n = lattice.ambient_dim
    residues = [subspace.reduce(g) for g in lattice.basis]
    # condition matrix rows: one per generator, columns per ambient coordinate
    scale = lcm(*[x.denominator for row in residues for x in row] or [1])
    int_rows = [[int(x * scale) for x in row] for row in residues]
    kernel = _int_left_kernel(int_rows)
    vectors = []
    for combo in kernel:
        v = [sum((combo[i] * lattice.basis[i][j] for i in range(lattice.rank)), Fraction(0))
             for j in range(n)]
        vectors.append(v)
    return Lattice.from_generators(n, vectors)
