"""Exact dynamics of torus endomorphisms given by integer matrices.

A torus endomorphism is the action of an integer matrix on R^n/Z^n through
its lattice of periods; `TorusEndo`, its one type, is what the exact pipeline
certifies and the estimator runs, with each entry read as
`operator.index(exactlinalg.exact(x))`.  Entropy is the log-Mahler sum of
the characteristic polynomial; finite order and positivity of the entropy
are decided symbolically through cyclotomic factors, never by float
comparison.  The Li-Yorke verdict built on positivity is
`groups.li_yorke_report`'s.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .errors import DimensionError, DomainError, ValidationError
from .exactlinalg import (
    Lattice,
    char_poly,
    exact,
    identity_matrix,
    mat_pow,
    mat_vec,
)
from .mahler import (
    DEFAULT_TOL,
    EntropyValue,
    cyclotomic_factors,
    log_mahler,
    noncyclotomic_part,
    poly_degree,
)


class TorusEndo(NamedTuple):
    """Integer matrix acting on the lattice Z^n of a torus R^n/Z^n."""

    matrix: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows) -> "TorusEndo":
        try:  # index() takes the ints and refuses the Fractions exact() leaves
            matrix = tuple(tuple(operator.index(exact(x)) for x in r) for r in rows)
        except (TypeError, ValueError, ArithmeticError):
            raise DomainError("torus endomorphism matrix must be integral") from None
        if any(len(r) != len(matrix) for r in matrix):
            raise DimensionError("torus endomorphism matrix must be square")
        return TorusEndo(matrix)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def power(self, k: int) -> "TorusEndo":
        return TorusEndo.from_rows(mat_pow(self.matrix, k))

    def char_poly(self) -> list[int]:
        return char_poly(self.matrix)


def entropy(endo: TorusEndo, tol: float = DEFAULT_TOL) -> EntropyValue:
    """Entropy as the log-Mahler sum over the expanding eigenvalues."""
    return log_mahler(endo.char_poly(), tol)


def entropy_is_positive(endo: TorusEndo) -> bool:
    """Exact positivity: after removing powers of t and cyclotomic factors
    from the (monic) characteristic polynomial, any nonconstant remainder
    carries a root off the unit circle (Kronecker), hence positive entropy.
    """
    return poly_degree(noncyclotomic_part(endo.char_poly())) >= 1


def finite_order(endo: TorusEndo) -> int | None:
    """Least k with matrix^k = I, or None when no power is the identity.

    A matrix of finite order has only roots of unity as eigenvalues, so its
    characteristic polynomial is a product of cyclotomics, and each index m
    is the order of one of them: every k with matrix^k = I is a multiple of
    their lcm L.  So the order is L when matrix^L = I and does not exist
    otherwise.
    """
    indices, rest = cyclotomic_factors(endo.char_poly())
    if poly_degree(rest) >= 1:
        return None
    order = math.lcm(*[m for m, _ in indices])
    return order if mat_pow(endo.matrix, order) == identity_matrix(endo.dim) else None


LI_YORKE_ALL_POWERS = "li_yorke_all_powers"
SOME_POWER_LI_YORKE_FREE = "some_power_li_yorke_free"


def restrict_matrix_to_lattice(matrix, sub: Lattice) -> TorusEndo:
    """Action matrix in the basis of a rational lattice the rational matrix
    preserves.

    The image of each basis vector must be an integer combination of the
    basis, otherwise the lattice is not invariant and the restriction is
    undefined.
    """
    columns = []
    for g in sub.basis:
        coords = sub.integer_coordinates(mat_vec(matrix, g))
        if coords is None:
            raise ValidationError("sublattice not invariant under the endomorphism")
        columns.append(coords)
    return TorusEndo(tuple(zip(*columns)))
