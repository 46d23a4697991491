"""Exact rational and integer linear algebra.

Everything in this module is computed over arbitrary-precision rationals
(`fractions.Fraction`) or integers; no floating point ever enters.  Matrices
are sequences of row sequences, vectors are sequences.  The number rule: an
entry is an `int` when integral and a `Fraction` otherwise, made so by `exact`
where outside data enters the program and kept by what is built here (identity
and `rref` rows, residues, lattice bases); an int entry gives the same result,
of the same type, as the equal Fraction.
Products of matrices and vectors, row combinations included
(`mat_vec(transpose(rows), c)`), go through `mat_vec` and `mat_mul`, which
multiply only the nonzero entries of the vector and of the left matrix and
start every sum from the int 0.  One route leads from Q to Z: `integral`
takes rational rows to integer rows over the lcm of their denominators, and
every integer kernel enters through it once: `rref`, `det` and `char_poly`,
the `Subspace` and `Lattice` rows, lattice generators and kernels, and the
polynomials of `mahler`.  The elimination kernels then run fraction-free:
Bareiss elimination (Math. Comp. 22 (1968)), with pending row scales, and
Berkowitz's division-free recurrence (IPL 18 (1984)), so no gcd is taken
until the rational result is formed.  The two canonical containers are:

* `Subspace` - a rational subspace stored in reduced row echelon form, so
  two subspaces are equal iff their stored entries are equal.
* `Lattice`  - a finitely generated subgroup of Q^n stored in row-style
  Hermite normal form (scaled HNF when generators are non-integral), again
  canonical entry-for-entry.

The echelon rule: both keep their pivots and integer rows, found once, and
eliminate a vector along them over Z, top row first; the coefficients are
its coordinates and a zero residue is membership, so no question about a
vector solves a new system.
The kernel rule: every subset cut out of a container by linear conditions
(an intersection, a centralizer, a radical) is `where(images)`, the points
sum c_i basis_i with sum c_i images_i = 0, from the left kernel over Q for
a `Subspace` and over Z for a `Lattice`.
The chain rule: every space iterated to stability under a bracket step (a
derived series, Engel's series) is the last term of `Subspace.chain(step)`,
whose terms fall in dimension until the first fixed point of `step`; the
images of one matrix m stop at im m^a (Fitting, `groups.eventual_image`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from .errors import DimensionError, DomainError

Vec = tuple[Fraction, ...]
Mat = list[list[Fraction]]


# ---------------------------------------------------------------------------
# vectors and matrices

def exact(x, d=1):
    """x/d by the number rule, for x an int, a Fraction or a rational string."""
    q = x // d if isinstance(x, int) and not x % d else Fraction(x) / d
    return q.numerator if q.denominator == 1 else q


def integral(rows) -> tuple[list[list[int]], int]:
    """(w, d) with rows = w/d: d the lcm of every denominator and w integral.
    The one place where rational entries are taken to integers."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def identity_matrix(n) -> Mat:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_vec(m: Mat, v) -> Vec:
    if m and len(v) != len(m[0]):
        raise DimensionError(f"matrix is {len(m)}x{len(m[0])}, vector has length {len(v)}")
    terms = [(j, x) for j, x in enumerate(v) if x]
    return tuple(sum((row[j] * x for j, x in terms), 0) for row in m)


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a and b and len(a[0]) != len(b):
        raise DimensionError("inner dimensions differ")
    cols = range(len(b[0]) if b else 0)
    rows = [[(b[k], x) for k, x in enumerate(row) if x] for row in a]
    return [[sum((r[j] * x for r, x in terms), 0) for j in cols] for terms in rows]


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
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return result


def transpose(m: Mat) -> Mat:
    return [list(col) for col in zip(*m)] if m else []


def _bareiss(rows: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    With pivot p in row r and previous pivot prev, every other row becomes
    (p*row - a*row_r) // prev, an exact division (Bareiss): the entries stay
    integer minors of the input.  A row with a = 0 is left as stored, with
    the pivot `at` at which it was exact (p for the pivot row itself): the
    quotients telescope to row*prev/at, applied when it is next rebuilt and
    at the end.  Returns the pivot columns, the last pivot and the sign of
    the row swaps.  The pivot rows come first, each with the last pivot on
    its own pivot column and zeros on the others; for a square matrix of
    full rank the last pivot is the determinant up to that sign.
    """
    pivots: list[int] = []
    prev, sign, r = 1, 1, 0
    at = [1] * len(rows)
    def at_prev(row, s):  # a row stored at pivot s, brought to pivot prev
        return row if s == prev else [x * prev // s for x in row]
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            at[r], at[pivot_row] = at[pivot_row], at[r]
            sign = -sign
        top = rows[r] = at_prev(rows[r], at[r])
        p = top[c]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                row = at_prev(row, at[i])
                a = row[c]
                rows[i] = [(p * x - a * y) // prev for x, y in zip(row, top)]
                at[i] = p
        at[r] = prev = p
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    rows[:] = [at_prev(row, s) for row, s in zip(rows, at)]
    return pivots, prev, sign


def rref(rows) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices).

    The nonzero rows are scaled to integers (`integral`) and eliminated
    fraction-free (`_bareiss`); dividing the pivot rows by the last pivot
    gives the RREF, which is unique.
    """
    if not rows:
        return [], []
    if any(len(row) != len(rows[0]) for row in rows):
        raise DimensionError("ragged matrix rows")
    ints, _ = integral([row for row in rows if any(row)])
    pivots, last, _ = _bareiss(ints, len(rows[0]))
    return [[exact(x, last) for x in row] for row in ints[:len(pivots)]], pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def kernel_basis(m) -> list[Vec]:
    """Basis of {x : m x = 0} over Q, from the reduced echelon form of m."""
    if not m:
        return []
    ncols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    return basis


def solve(m, rhs) -> Vec | None:
    """One solution of m x = rhs over Q, or None when inconsistent.

    When the kernel is nontrivial an arbitrary representative is returned;
    callers needing uniqueness should check rank first.
    """
    if len(m) != len(rhs):
        raise DimensionError("right-hand side length mismatch")
    ncols = len(m[0]) if m else 0
    aug = [[*row, b] for row, b in zip(m, rhs)]
    red, pivots = rref(aug)
    x = [0] * ncols
    for r, p in enumerate(pivots):
        if p == ncols:  # the row 0 = 1: inconsistent
            return None
        x[p] = red[r][ncols]
    return tuple(x)


def det(m) -> Fraction:
    """Determinant by Bareiss elimination over Z.

    m = B/s with B integral (`integral`); the last pivot is det(B) up to the
    sign of the row swaps, and det(m) = det(B) / s^n.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionError("determinant needs a square matrix")
    ints, s = integral(m)
    pivots, last, sign = _bareiss(ints, n)
    return Fraction(sign * last, s**n) if len(pivots) == n else Fraction(0)


# ---------------------------------------------------------------------------
# polynomial invariants of matrices

def char_poly(m) -> list:
    """Monic characteristic polynomial det(tI - m), ascending coefficients.

    Denominators are cleared once, m = B/s with B integral (`integral`).
    Berkowitz's division-free recurrence gives det(tI - B) over Z: with B_k
    the leading k x k block, B_{k+1} = [[B_k, col], [row, a]], the
    coefficients of det(tI - B_{k+1}) are those of det(tI - B_k) convolved
    with the column 1, -a, -row.col, -row.B_k.col, ..., -row.B_k^(k-1).col.
    The coefficient of t^k for m is then c_k(B) / s^(n-k).  Integer output
    coefficients are returned as ints.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionError("characteristic polynomial needs a square matrix")
    b, s = integral(m)
    poly = [1]  # descending coefficients of det(tI - B_k)
    for k in range(n):
        block = [row[:k] for row in b[:k]]
        row = b[k][:k]
        col = [b[i][k] for i in range(k)]
        toeplitz = [1, -b[k][k]]
        for _ in range(k):
            toeplitz.append(-sum(map(mul, row, col)))
            col = [sum(map(mul, r, col)) for r in block]
        poly = [sum(toeplitz[i - j] * poly[j] for j in range(min(i, k) + 1))
                for i in range(k + 2)]
    ascending = poly[::-1]
    if s == 1:
        return ascending
    ascending = [Fraction(c, s ** (n - k)) for k, c in enumerate(ascending)]
    if all(c.denominator == 1 for c in ascending):
        return [int(c) for c in ascending]
    return ascending


def min_poly(m) -> list:
    """Monic minimal polynomial, ascending coefficients (ints when integral).

    Found as the first linear dependence among I, m, m^2, ... (Krylov on the
    flattened powers), so it divides char_poly(m) by construction.  The
    sequence starts at m itself and stops at the first zero power m^k, whose
    minimal polynomial is t^k; a zero matrix returns t before any identity.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise DimensionError("minimal polynomial needs a square matrix")
    if n == 0:
        return [1]
    if not any(map(any, m)):
        return [0, 1]
    power = identity_matrix(n)
    flats: list[list[Fraction]] = []
    for d in range(n + 1):
        flat = [x for row in power for x in row]
        if d and not any(flat):
            return [0] * d + [1]
        flats.append(flat)
        combo = solve(transpose(flats[:-1]), flat) if d > 0 else None
        if combo is not None:  # by the number rule, ints where integral
            return [-c for c in combo] + [1]
        power = m if d == 0 else mat_mul(power, m)
    raise AssertionError("Cayley-Hamilton violated; unreachable")


# ---------------------------------------------------------------------------
# echelon containers

class _Echelon:
    """Pivots (first nonzero columns, increasing down the rows) and integer
    rows, shared by `Subspace` and `Lattice`; every elimination runs over Z."""

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(i for i, x in enumerate(row) if x != 0) for row in self.basis)

    @cached_property
    def _int_rows(self) -> tuple[list[list[tuple[int, int]]], int]:
        """(rows, d): the nonzero (column, entry) pairs of each d * basis_i."""
        rows, d = integral(self.basis)
        return [[(j, x) for j, x in enumerate(row) if x] for row in rows], d

    def _integral(self, v) -> tuple[list[int], int]:
        """(w, e) with v = w/e and w integral."""
        if len(v) != self.ambient_dim:
            raise DimensionError("vector has wrong length")
        (w,), e = integral([v])
        return w, e

    def where(self, images):
        """The points sum c_i basis_i where a linear map vanishes, given the
        images of the basis rows: their left kernel (over Q for a `Subspace`,
        over Z for a `Lattice`) recombined, in canonical form; the container
        itself when every image is zero."""
        if not any(map(any, images)):
            return self
        columns = transpose(list(self.basis))
        return self._canonical(self.ambient_dim,
                               [mat_vec(columns, c) for c in self._left_kernel(images)])


@dataclass(frozen=True)
class Subspace(_Echelon):
    """Rational subspace in canonical RREF, eliminating along its pivots."""

    ambient_dim: int
    basis: tuple[Vec, ...]

    @staticmethod
    def from_vectors(ambient_dim: int, vectors) -> "Subspace":
        vectors = list(vectors)
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionError("subspace vector has wrong length")
        red, _ = rref(vectors)
        return Subspace(ambient_dim, tuple(tuple(row) for row in red))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, tuple(tuple(row) for row in identity_matrix(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def complement(self) -> tuple[int, ...]:
        """The non-pivot columns; their unit vectors span a complement."""
        pivots = set(self.pivots)
        return tuple(c for c in range(self.ambient_dim) if c not in pivots)

    def contains(self, v) -> bool:
        return not any(self.reduce(v))

    def reduce(self, v) -> Vec:
        """Residue v - sum v[p_i] basis_i over Z (an RREF row is 1 on its own
        pivot p_i, 0 on the others), by the number rule."""
        (rows, d), (w, e) = self._int_rows, self._integral(v)
        acc = [x * d for x in w]
        for terms, p in zip(rows, self.pivots):
            if w[p]:
                for j, x in terms:
                    acc[j] -= w[p] * x
        return tuple(exact(x, d * e) for x in acc)

    _canonical = from_vectors

    @staticmethod
    def _left_kernel(images) -> list[Vec]:
        # a zero condition row keeps the width when the images are empty
        return kernel_basis(transpose(images) or [[0] * len(images)])

    def intersect(self, other: "Subspace") -> "Subspace":
        """Points of this space whose residue mod `other` vanishes."""
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("ambient dimensions differ")
        return self.where([other.reduce(v) for v in self.basis])

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError("ambient dimensions differ")
        return Subspace.from_vectors(self.ambient_dim, list(self.basis) + list(other.basis))

    def chain(self, step) -> list["Subspace"]:
        """[V, step(V), step(step(V)), ...] while the dimension falls; `step`
        maps a space into itself, so the last term is its first fixed point."""
        terms = [self]
        while (nxt := step(terms[-1])).dim < terms[-1].dim:
            terms.append(nxt)
        return terms


# ---------------------------------------------------------------------------
# lattices (finitely generated subgroups of Q^n)

def _hnf_int_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of the integer row span.

    Pivots positive and strictly to the right as rows descend; entries above
    each pivot reduced into [0, pivot).  The output is the unique canonical
    basis of the generated Z-module.
    """
    mat = [list(r) for r in rows if any(r)]
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
class Lattice(_Echelon):
    """Discrete subgroup of Q^n in canonical scaled HNF, eliminating along its pivots."""

    ambient_dim: int
    basis: tuple[Vec, ...]

    @staticmethod
    def from_generators(ambient_dim: int, generators) -> "Lattice":
        gens = list(generators)
        for g in gens:
            if len(g) != ambient_dim:
                raise DimensionError("lattice generator has wrong length")
        int_rows, scale = integral(gens)
        hnf = _hnf_int_rows(int_rows)
        basis = tuple(tuple(exact(x, scale) for x in row) for row in hnf)
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
        """Coordinates of v in the basis when v lies in the lattice: e*d*v
        eliminated over Z by the rows e*d*basis_i, None at the first inexact
        quotient or a nonzero residue."""
        (rows, d), (w, e) = self._int_rows, self._integral(v)
        acc, coords = [x * d for x in w], []
        for terms, p in zip(rows, self.pivots):
            c, r = divmod(acc[p], e * terms[0][1])
            if r:
                return None
            for j, x in terms:
                acc[j] -= c * e * x
            coords.append(c)
        return None if any(acc) else tuple(coords)

    def contains(self, v) -> bool:
        return self.integer_coordinates(v) is not None

    _canonical = from_generators

    @staticmethod
    def _left_kernel(images) -> list[list[int]]:
        return _int_left_kernel(integral(images)[0])


def lattice_intersect_subspace(lattice: Lattice, subspace: Subspace) -> Lattice:
    """Sublattice of points of `lattice` lying in `subspace`: those whose
    residue mod the subspace vanishes, the image of an integer kernel and so
    saturated inside the subspace (the lattice itself when that is full)."""
    if lattice.ambient_dim != subspace.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    if subspace.dim == subspace.ambient_dim:
        return lattice
    return lattice.where([subspace.reduce(g) for g in lattice.basis])
