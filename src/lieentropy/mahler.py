"""Integer polynomials, cyclotomic detection, and the logarithmic Mahler sum.

The quantity of interest is sum(log|z|) over the roots z of an integer
polynomial with |z| > 1, computed over Z: rationals enter only through
`exactlinalg.integral`, and a quotient coefficient is `exactlinalg.exact`,
so exact divisions of integer lists stay integer.  Roots of unity and zero
roots contribute nothing, and both are detected symbolically before any
floating point enters: powers of t are stripped exactly, and each Phi_m
with phi(m) <= deg p, listed by one sieve of phi, is divided out only when
the integer Phi_m(2^64) divides p(2^64).  Yun's squarefree split runs on
the primitive form, skipped when Euclid over F_(2^61 - 1) certifies p
coprime to p'.  Only the strictly
expanding/contracting moduli of the remaining factor are bounded
numerically, by a Durand-Kerner iteration started on the root circle and
certified with Weierstrass-correction disks, whose numerators are exact: a
float approximation z is the dyadic point (x + iy)/2^e, so p(z) is
evaluated by integer Horner scaled by 2^(e*deg p).

Polynomials are dense ascending coefficient lists; the zero polynomial is [].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .exactlinalg import exact, integral

DEFAULT_TOL = 1e-9

_MAX_NEWTON_SWEEPS = 512
_PRIME = 2**61 - 1  # the modulus of the coprimality certificate


# ---------------------------------------------------------------------------
# dense polynomial arithmetic

def poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_degree(p) -> int:
    return len(poly_trim(p)) - 1


def poly_mul(p, q):
    p, q = poly_trim(p), poly_trim(q)
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def poly_eval(p, x):
    acc = 0
    for a in reversed(poly_trim(p)):
        acc = acc * x + a
    return acc


def poly_derivative(p):
    return poly_trim([i * a for i, a in enumerate(p)][1:])


def poly_divmod(p, q):
    """Quotient and remainder over Q (exact).  A monic divisor needs no
    division, and otherwise each quotient coefficient is `exact`, so an exact
    division of integer lists gives integer lists whatever the divisor's lead."""
    p, q = poly_trim(p), poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [0] * max(len(p) - len(q) + 1, 0)
    while len(p) >= len(q):
        shift = len(p) - len(q)
        factor = p[-1] if q[-1] == 1 else exact(p[-1], q[-1])
        quot[shift] = factor
        for i, b in enumerate(q):
            p[shift + i] -= factor * b
        p = poly_trim(p)
    return poly_trim(quot), p


def poly_gcd(p, q):
    """Primitive integer gcd with a positive lead: a primitive remainder
    sequence over Z (integer pseudo-remainders, content cleared)."""
    a, b = poly_primitive_int(p), poly_primitive_int(q)
    while b:
        r = a
        while len(r) >= len(b):
            shift, top = len(r) - len(b), r[-1]
            r = [x * b[-1] for x in r]
            for i, y in enumerate(b):
                r[shift + i] -= top * y
            r = poly_trim(r)
        a, b = b, poly_primitive_int(r)
    return a


def poly_primitive_int(p):
    """Integer polynomial with the same roots: denominators cleared
    (`integral`), content removed, lead positive."""
    (ints,), _ = integral([poly_trim(p)])
    content = math.gcd(*ints) if ints and ints[-1] > 0 else -math.gcd(*ints)
    return [a // content for a in ints]


def _coprime_mod_prime(p, q) -> bool:
    """True only if integer polynomials p and q are coprime over Q: lead(p)
    is nonzero mod l = 2^61 - 1 and Euclid over F_l ends at a constant.  A
    common factor over Z of positive degree is primitive with lead dividing
    lead(p), so it keeps its degree mod l; False only means undecided."""
    a, b = [x % _PRIME for x in p], poly_trim([x % _PRIME for x in q])
    if not a[-1]:
        return False
    while b:
        inverse = pow(b[-1], -1, _PRIME)
        while len(a) >= len(b):
            top, shift = a[-1] * inverse % _PRIME, len(a) - len(b)
            a = poly_trim(a[:shift] + [(x - top * y) % _PRIME for x, y in zip(a[shift:], b)])
        a, b = b, a
    return len(a) == 1


def squarefree_decomposition(p):
    """Yun decomposition [(q_1, 1), (q_2, 2), ...] with p ~ prod q_i^i.

    Factors are primitive integer polynomials, pairwise coprime and
    squarefree; constant factors are dropped.  A p that a modular
    certificate shows coprime to p' is squarefree, [(primitive p, 1)].
    Otherwise Yun's algorithm (SYMSAC '76) runs on the primitive form: each
    gcd is primitive, so every quotient is exact over Z (Gauss's lemma).
    """
    p = poly_primitive_int(p)
    if len(p) < 2:
        return []
    d = poly_derivative(p)
    if _coprime_mod_prime(p, d):
        return [(p, 1)]
    a = poly_gcd(p, d)
    b, _ = poly_divmod(p, a)
    c, _ = poly_divmod(d, a)
    out = []
    k = 1
    while len(b) > 1:
        step = [-x for x in poly_derivative(b)]  # step = c - b', deg c < deg b
        step[:len(c)] = [x + y for x, y in zip(c, step)]
        g = poly_gcd(b, step)
        if len(g) > 1:
            out.append((g, k))
        b, _ = poly_divmod(b, g)
        c, _ = poly_divmod(step, g)
        k += 1
    return out


# ---------------------------------------------------------------------------
# cyclotomic detection

@lru_cache(maxsize=None)
def _cyclotomic_candidates(deg: int) -> tuple[tuple[int, int], ...]:
    """The (m, phi(m)) with phi(m) <= deg, in increasing m, by one sieve of
    phi over m < 2^(L-1), L least with 2^(L-1) > deg*L.  The i-th prime is
    at least i + 1, so phi(m) >= m prod_(i<=k) i/(i+1) = m/(k+1) for the
    k primes of m, and 2^k <= m puts k + 1 at most the bit length b of m:
    phi(m) >= 2^(b-1)/b, which rises with b and exceeds deg once b >= L.
    """
    bound = 1
    while bound <= deg * bound.bit_length():  # bound = 2^(L-1), L = its bit length
        bound *= 2
    phi = list(range(bound))
    for p in range(2, bound):
        if phi[p] == p:  # no smaller prime divides p
            phi[p::p] = [x - x // p for x in phi[p::p]]
    return tuple((m, phi[m]) for m in range(1, bound) if phi[m] <= deg)


def _spread(p, k: int):
    """p(t^k)."""
    out = [0] * (k * (len(p) - 1) + 1)
    out[::k] = p
    return out


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> tuple[int, ...]:
    """m-th cyclotomic polynomial, ascending integer coefficients: Phi_r for
    r the product of the primes of m, one prime at a time, then at t^(m/r)."""
    if m < 1:
        raise DomainError("cyclotomic index must be positive")
    poly, radical = [-1, 1], 1  # Phi_1
    for p in range(2, m + 1):
        if m % p == 0 and math.gcd(radical, p) == 1:  # a prime of m
            poly, _ = poly_divmod(_spread(poly, p), poly)  # Phi_rp(t) = Phi_r(t^p) / Phi_r(t)
            radical *= p
    return tuple(_spread(poly, m // radical))


_GATE_X = 2**64  # the point at which the division gate evaluates


@lru_cache(maxsize=None)
def _cyclotomic_at_gate(m: int) -> int:
    """Phi_m(X), X = 2^64, from X^m - 1 = prod of Phi_d(X) over all d | m."""
    below = math.prod(_cyclotomic_at_gate(d) for d in range(1, m) if m % d == 0)
    return (_GATE_X**m - 1) // below


def cyclotomic_factors(p) -> tuple[list[tuple[int, int]], list]:
    """All cyclotomic divisors of p with multiplicity, plus the cofactor.

    Returns ([(index, multiplicity), ...], rest) with
    p = prod Phi_index^multiplicity * rest exactly.  Candidate indices m are
    those with phi(m) <= deg(p), listed by one sieve of phi per degree.  By
    Gauss's lemma Phi_m | p forces Phi_m(X) | q(X), q the primitive integer
    form of the rest and X = 2^64, so Phi_m is built and divided only then;
    the gate Phi_m(X) is an integer found from X^m - 1 without Phi_m.  q(X) is
    divided along (a 0 lets every candidate through), and division decides.
    """
    rest = poly_trim(p)  # trimmed throughout, so deg(rest) = len(rest) - 1
    if not rest:
        raise DomainError("cyclotomic factors of the zero polynomial")
    value = poly_eval(poly_primitive_int(rest), _GATE_X)
    found = []
    for m, phi in _cyclotomic_candidates(len(rest) - 1):
        mult = 0
        while phi < len(rest) and value % _cyclotomic_at_gate(m) == 0:
            quot, rem = poly_divmod(rest, cyclotomic(m))
            if rem:
                break
            rest, value = quot, value // _cyclotomic_at_gate(m)
            mult += 1
        if mult:
            found.append((m, mult))
    return found, rest


def cyclotomic_part(p) -> tuple[list, list]:
    """Split p = cyclo * rest with cyclo the full cyclotomic content."""
    found, rest = cyclotomic_factors(p)
    cyclo = [1]
    for m, mult in found:
        for _ in range(mult):
            cyclo = poly_mul(cyclo, list(cyclotomic(m)))
    return cyclo, rest


def noncyclotomic_part(p):
    """p with its powers of t and its cyclotomic factors divided out exactly.

    Both kinds of factor contribute nothing to the log-Mahler sum.  For a
    monic p a remainder of positive degree has a root off the unit circle
    (Kronecker), so this one reduction decides positivity exactly.
    """
    work = poly_trim(p)
    while work and work[0] == 0:
        work = work[1:]
    return cyclotomic_factors(work)[1]


# ---------------------------------------------------------------------------
# certified root moduli

_SQUARE_LIMIT = 10**600  # |p(z)|^2 at or above this counts as infinite


def _exact_abs_upper(coeffs, z: complex) -> float:
    """Upper bound on |p(z)| with p evaluated exactly.

    The float z is exactly (x + iy)/D with integers x, y and D a power of
    two, so integer Horner gives D^n p(z), n = deg p, and |p(z)|^2 is the
    exact rational (re^2 + im^2)/D^(2n), scaled by 4^-k (k of either sign)
    into the float range before the root is taken.  The slack is rounding,
    covered by one part in 1e12 and one subnormal step: a nonzero p(z) never
    gets the bound 0.
    """
    x, dx = z.real.as_integer_ratio()
    y, dy = z.imag.as_integer_ratio()
    denom = max(dx, dy)  # both are powers of two
    x, y = x * (denom // dx), y * (denom // dy)
    re, im, scale = 0, 0, 1
    for a in reversed(coeffs):
        re, im = re * x - im * y + a * scale, re * y + im * x
        scale *= denom
    sq = re * re + im * im
    if sq == 0:
        return 0.0
    den = (scale // denom) ** 2
    if sq >= _SQUARE_LIMIT * den:
        return float("inf")
    k = (sq.bit_length() - den.bit_length()) // 2 - 510  # 2^1019 <= sq / (den 4^k) < 2^1022
    ratio = sq / (den << 2 * k) if k >= 0 else (sq << -2 * k) / den
    return math.ldexp(math.sqrt(ratio), k) * (1.0 + 1e-12) + 5e-324


def _weierstrass_radii(coeffs, zs: list[complex]) -> list[float]:
    """Certified per-root inclusion radii for approximations zs.

    For monic p of degree n and pairwise distinct z_k, every root lies in the
    union of disks D(z_k, n*|W_k|) with W_k = p(z_k)/prod_{j!=k}(z_k - z_j);
    when the disks are pairwise disjoint each contains exactly one root.
    The numerator is evaluated exactly, the denominator deflated for float
    rounding, and the radius inflated to keep the bound honest; a
    denominator outside the float range (0 or inf) gives an infinite radius.
    """
    n = len(zs)
    try:
        lead = float(abs(coeffs[-1]))
    except OverflowError:  # beyond the float range
        lead = float("inf")
    radii = []
    for k, z in enumerate(zs):
        num = _exact_abs_upper(coeffs, z)
        den = math.prod((abs(z - w) for j, w in enumerate(zs) if j != k), start=lead)
        if not 0.0 < den < float("inf") or math.isinf(num):  # nan too, from inf * 0
            radii.append(float("inf"))
        else:
            radii.append(n * num / (den * (1.0 - 1e-10)) * (1.0 + 1e-9))
    return radii


_WIDEN = 2.0**-50  # relative endpoint widening covering float rounding


def _certified_moduli(coeffs) -> list[tuple[float, float]]:
    """Intervals [lo, hi] bounding root moduli of a squarefree integer poly.

    The iteration starts on the circle of radius max_k |a_(n-k)/a_n|^(1/k),
    between half the largest root modulus (Fujiwara, Tohoku Math. J. 10
    (1916)) and n times it.  The sweep is deterministic, so iterates back
    at an earlier state only repeat its cycle: each state of it is tested
    once, then the iteration gives up.  Endpoints are widened by a relative
    2^-50 so that the rounding of the interval arithmetic itself stays
    inside the reported bounds.
    """
    n = poly_degree(coeffs)
    if n == 0:
        return []
    if n == 1:
        m = abs(coeffs[0]) / abs(coeffs[1])  # int division rounds correctly
        return [(m * (1.0 - _WIDEN), m * (1.0 + _WIDEN))]
    monic = [a / coeffs[-1] for a in coeffs]
    radius = max(abs(a) ** (1.0 / k) for k, a in enumerate(reversed(monic[:-1]), 1))
    zs = [radius * cmath.exp(2j * math.pi * k / n + 0.4j) for k in range(n)]
    tested: dict[tuple, bool] = {}  # every state reached, in order: tested yet?

    def certify(state):
        tested[state] = True
        radii = _weierstrass_radii(coeffs, state)
        disjoint = all(abs(state[i] - state[j]) > radii[i] + radii[j]
                       for i in range(n) for j in range(i + 1, n))
        if disjoint and all(math.isfinite(r) for r in radii):
            return [(max((abs(z) - r) * (1.0 - _WIDEN), 0.0), (abs(z) + r) * (1.0 + _WIDEN))
                    for z, r in zip(state, radii)]
        return None

    for sweep in range(_MAX_NEWTON_SWEEPS):
        # one Durand-Kerner sweep
        moved = 0.0
        for k in range(n):
            z = zs[k]
            den = 1.0 + 0.0j
            for j in range(n):
                if j != k:
                    den *= z - zs[j]
            if den == 0:
                zs[k] = z + (1e-6 + 1e-6j) * (k + 1)
                moved = float("inf")
                continue
            w = poly_eval(monic, z) / den
            zs[k] = z - w
            moved = max(moved, abs(w))
        if not all(map(cmath.isfinite, zs)):
            break  # the double-precision iteration overflowed
        state = tuple(zs)
        if state in tested:
            for earlier in list(tested)[list(tested).index(state):]:
                if not tested[earlier] and (found := certify(earlier)):
                    return found
            break
        tested[state] = False
        if moved > 1e-13 and sweep < _MAX_NEWTON_SWEEPS - 1:
            continue
        if found := certify(state):
            return found
    raise ArithmeticError("root certification failed to converge")


# ---------------------------------------------------------------------------
# the entropy certificate value

@dataclass(frozen=True)
class EntropyValue:
    """Entropy as a float paired with its exact polynomial certificate.

    `exact_zero` marks values decided symbolically (zero roots, roots of
    unity, or an empty polynomial remainder); such values are exactly 0.0
    with no error.  `exact_positive` records the symbolic positivity
    decision for monic certificates (None when the certificate is not monic
    and positivity was not decided symbolically).
    """

    value: float
    certificate: tuple
    expanding_count: int
    error_bound: float
    exact_zero: bool
    exact_positive: bool | None

    def __post_init__(self):
        if self.value < 0:
            raise DomainError("entropy value must be nonnegative")


def log_mahler(p, tol: float = DEFAULT_TOL) -> EntropyValue:
    """sum(log|z|) over roots z of p with |z| > 1, within absolute error tol.

    Zero roots and cyclotomic factors are removed exactly first; when nothing
    is left the value is exactly zero.  For a monic remainder positivity is
    also exact: a monic integer polynomial with nonzero constant term and all
    roots on the unit circle is a product of cyclotomics (Kronecker), so a
    nontrivial remainder forces an expanding root.
    """
    p = poly_trim(p)
    if not p:
        raise DomainError("log-Mahler sum of the zero polynomial")
    (ints,), d = integral([[exact(a) for a in p]])
    if d != 1:
        raise DomainError("log-Mahler sum needs integer coefficients")
    if not 0 < tol < math.inf:
        raise DomainError("tolerance must be finite and positive")
    certificate = tuple(ints)

    rest = noncyclotomic_part(certificate)
    if poly_degree(rest) < 1:
        return EntropyValue(0.0, certificate, 0, 0.0, True, False)

    monic = abs(rest[-1]) == 1
    value = 0.0
    error = 0.0
    expanding = 0
    factors = squarefree_decomposition(rest)
    for q, mult in factors:
        for lo, hi in _certified_moduli(q):
            c_lo = math.log(lo) if lo > 1.0 else 0.0
            c_hi = math.log(hi) if hi > 1.0 else 0.0
            # math.log is within an ulp: widen [c_lo, c_hi] by an ulp of its
            # larger end on both sides, which keeps the midpoint
            slack = math.ulp(c_hi) if hi > 1.0 else 0.0
            value += mult * (c_lo + c_hi) / 2.0
            error += mult * ((c_hi - c_lo) / 2.0 + slack)
            if lo > 1.0:
                expanding += mult
    if error > tol:
        raise ArithmeticError(
            f"certified error {error:.3e} exceeds the requested tolerance {tol:.3e}"
        )
    return EntropyValue(max(value, 0.0), certificate, expanding, error, False,
                        True if monic else None)
