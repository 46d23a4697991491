"""Integer polynomials, cyclotomic detection, and the logarithmic Mahler sum.

The quantity of interest is sum(log|z|) over the roots z of an integer
polynomial with |z| > 1, computed over Z: rationals enter only through
`exactlinalg.integral`, and a quotient coefficient is `exactlinalg.exact`,
so exact divisions of integer lists stay integer.  Roots of unity and zero
roots contribute nothing, and both are detected symbolically: powers of t
are stripped exactly, and each Phi_m with phi(m) <= deg p, listed by one
sieve of phi, is divided out only when the integer Phi_m(2^64) divides
p(2^64).  The rest is bracketed without roots, by Graeffe's root squaring
on integer balls (Cerlienco, Mignotte & Piras, "Computing the measure of a
polynomial", J. Symbolic Comput. 4 (1987)): coefficient bounds on the
iterates bracket its Mahler measure, and Pellet's test on them counts the
roots outside the unit circle.  Roots on the circle, those of gcd(p, p
reversed) (`poly_gcd`, which holds the coprimality certificate), are
counted by Sturm's theorem over Z.  Floats enter only at the final logs, so
no coefficient size, degree or root cluster leaves the float range; a
bracket that stays too wide up to a fixed precision is an ArithmeticError.

Polynomials are dense ascending coefficient lists; the zero polynomial is [].
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .exactlinalg import exact, integral

DEFAULT_TOL = 1e-9

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


def _pseudo_remainder(a, b):
    """|lead b|^k a mod b for integer lists, k the number of steps: the
    remainder over Q times a positive integer, computed over Z."""
    b = b if b[-1] > 0 else [-y for y in b]
    while len(a) >= len(b):
        top, pad = a[-1], [0] * (len(a) - len(b))
        a = poly_trim([x * b[-1] - top * y for x, y in zip(a, pad + b)])
    return a


def poly_gcd(p, q):
    """Primitive integer gcd, lead positive: [1] where the modular certificate
    shows p and q coprime, else a primitive remainder sequence over Z.  The
    certificate reads integer lists as given, since a common factor over Z
    divides them with or without their content, and rational ones cleared."""
    a, b = poly_trim(p), poly_trim(q)
    if not all(isinstance(x, int) for x in a + b):
        a, b = poly_primitive_int(a), poly_primitive_int(b)
    if a and _coprime_mod_prime(a, b):
        return [1]
    a, b = poly_primitive_int(a), poly_primitive_int(b)
    while b:
        a, b = b, poly_primitive_int(_pseudo_remainder(a, b))
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
    squarefree; constant factors are dropped.  A p coprime to p' is
    squarefree, [(primitive p, 1)].  Otherwise Yun's algorithm (SYMSAC '76)
    runs on the primitive form: each gcd is primitive, so every quotient is
    exact over Z (Gauss's lemma).
    """
    p = poly_primitive_int(p)
    if len(p) < 2:
        return []
    d = poly_derivative(p)
    a = poly_gcd(p, d)
    if len(a) == 1:
        return [(p, 1)]
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
    rest = cyclotomic_factors(p)[1]
    return poly_divmod(p, rest)[0], rest


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
# the log-Mahler sum by root squaring

_MAX_BITS = 2**12  # the precision of the Graeffe iterates at which to give up
_LN2 = math.log(2.0)


def _circle_count(h):
    """Roots of h on the unit circle, with multiplicity, for h self-reciprocal
    with h(+-1) != 0, so of even degree 2m.  Then h(z) = z^m q(z + 1/z), as
    z^i + z^-i = D_i(z + 1/z) with D_0 = 2, D_1 = w and D_(i+1) = w D_i -
    D_(i-1).  A root w of q in (-2, 2) of multiplicity mu gives the two roots
    of z^2 - wz + 1, both on the circle with multiplicity mu, and Sturm's
    theorem counts the distinct roots of each squarefree part of q there, on
    integer pseudo-remainders: positive multiples of the chain over Q.
    """
    m = (len(h) - 1) // 2
    q, low, high = [h[m]] + [0] * m, [2], [0, 1]
    for c in h[m + 1:]:
        q[:len(high)] = [x + c * y for x, y in zip(q, high)]
        low, high = high, [a - b for a, b in itertools.zip_longest([0] + high, low, fillvalue=0)]
    count = 0
    for part, mult in squarefree_decomposition(q):
        chain = [part, poly_derivative(part)]
        while len(chain[-1]) > 1:
            r = _pseudo_remainder(chain[-2], chain[-1])
            content = math.gcd(*r)
            chain.append([-x // content for x in r])
        changes = []
        for w in (-2, 2):
            signs = [v > 0 for v in (poly_eval(s, w) for s in chain) if v]
            changes.append(sum(a != b for a, b in zip(signs, signs[1:])))
        count += 2 * mult * (changes[0] - changes[1])
    return count


def _circle_split(f):
    """[(factor, its roots outside the unit circle or None)], the factors
    multiplying to f, which has f(0) != 0 and f(+-1) != 0.  Every root of f
    on the circle is one of h = gcd(f, f*), f* being f reversed, and the
    other roots of h pair off as z, 1/z, one of each pair outside.  So f
    stays whole unless h has a root on the circle; then it splits into h,
    whose count is known, and f/h, which has no root on the circle."""
    h = poly_gcd(f, f[::-1])
    circle = _circle_count(h) if len(h) > 1 else 0
    if not circle:
        return [(f, None)]
    rest, _ = poly_divmod(f, h)
    return [(h, (len(h) - 1 - circle) // 2)] + ([(rest, None)] if len(rest) > 1 else [])


def _graeffe_step(mids, rad, p):
    """The next Graeffe iterate of the ball polynomial g = (mids +- rad) 2^e:
    g'(x^2) = (-1)^n g(x) g(-x), whose roots are the squares of g's.  Each
    coefficient sums at most n + 1 products, so its radius is at most
    2 rad |mids|_1 + (n + 1) rad^2; then all are cut to p bits, rounding
    outward.  Returns (mids, rad, shift), the new exponent being 2e + shift.
    """
    n = len(mids) - 1
    alt = [-x if i % 2 else x for i, x in enumerate(mids)]  # g(-x)
    sign = -1 if n % 2 else 1
    out = [sign * (alt[i] * mids[i] + 2 * sum(map(operator.mul, alt[:i][::-1], mids[i + 1:])))
           for i in range(n + 1)]
    rad = 2 * rad * sum(map(abs, mids)) + (n + 1) * rad * rad
    shift = max(max(map(abs, out)).bit_length() - p, 0)
    if shift:  # floor moves each midpoint by less than 1, the new unit
        out, rad = [x >> shift for x in out], (rad >> shift) + 2
    return out, rad, shift


def _expanding_sum(f, budget, count):
    """(value, error, count): the sum of log|z| over the roots z of f with
    |z| > 1 within error <= budget, and how many they are, counted by the
    caller or here.  M(f) = |lead| prod max(1, |z|) is Mahler's measure, and
    the k-th Graeffe iterate g of f has M(g) = M(f)^(2^k), bracketed by
    max_i |g_i|/C(n, i) <= M(g) <= |g|_2 (Mahler; Landau).  Once Pellet's
    test |g_j| > S = sum_(i != j) |g_i| holds, g has exactly j roots inside
    the circle and none on it (Rouche), and |g_j| - S <= M(g) (Jensen's
    formula, as |g| >= |g_j| - S on the circle).  The iterates are integer
    balls at p bits, p doubling from 64 whenever fewer than p/2 bits of the
    largest coefficient stay significant.  Floats enter only at the logs.
    """
    n = len(f) - 1
    log_binom = [math.log(math.comb(n, i)) for i in range(n + 1)]
    log_lead = math.log(abs(f[-1]))
    p = 64
    while count != 0 and p <= _MAX_BITS:
        mids, rad, e = list(f), 0, 0
        for k in range(p):
            mags = [abs(x) for x in mids]
            top = max(mags)
            if rad and top.bit_length() - rad.bit_length() < p // 2:
                break
            j, others = mags.index(top), sum(mags) - top + n * rad
            pellet = top - rad > others
            if pellet:
                count = n - j
            if count == 0:
                break
            if count is not None:
                if budget < 2.0**-48 * (log_lead + 1.0):
                    raise ArithmeticError(f"tolerance {budget:.3e} is below the rounding of the logs")
                lower = max(math.log(a - rad) - b for a, b in zip(mags, log_binom) if a > rad)
                if pellet:
                    lower = max(lower, math.log(top - rad - others))
                upper = math.log(sum((a + rad) ** 2 for a in mags)) / 2
                unit = e / (1 << k) * _LN2  # log(2^e) / 2^k
                lo, hi = math.ldexp(lower, -k) + unit, math.ldexp(upper, -k) + unit
                # 16 units in the last place of every term, for the logs and sums
                slack = 2.0**-48 * (math.ldexp(abs(lower) + abs(upper) + n, -k)
                                    + abs(unit) + log_lead + 1.0)
                if (hi - lo) / 2 + slack <= budget:
                    return (lo + hi) / 2 - log_lead, (hi - lo) / 2 + slack, count
            mids, rad, shift = _graeffe_step(mids, rad, p)
            e = 2 * e + shift
        p *= 2
    if count != 0:
        raise ArithmeticError(f"Graeffe bracket wider than {budget:.3e} at {_MAX_BITS} bits")
    return 0.0, 0.0, 0


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
    value, error, expanding = 0.0, 0.0, 0
    parts = _circle_split(rest)
    for part, count in parts:  # each to tol/8, so that sums of a few values stay within tol
        v, err, count = _expanding_sum(part, tol / 8 / len(parts), count)
        value, error, expanding = value + v, error + err, expanding + count
    return EntropyValue(max(value, 0.0), certificate, expanding, error, False,
                        True if monic else None)
