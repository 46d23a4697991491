import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from lieentropy.errors import DomainError
from lieentropy.exactlinalg import char_poly
from lieentropy.mahler import (
    _coprime_mod_prime,
    _cyclotomic_at_gate,
    _cyclotomic_candidates,
    _circle_count,
    _graeffe_step,
    cyclotomic,
    cyclotomic_factors,
    cyclotomic_part,
    log_mahler,
    poly_degree,
    poly_derivative,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_primitive_int,
    poly_trim,
    squarefree_decomposition,
)

TOL = 1e-9


# --- cyclotomic machinery ----------------------------------------------------

def test_cyclotomic_polynomials():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(3) == (1, 1, 1)
    assert cyclotomic(4) == (1, 0, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)
    for m in [*range(1, 40), 48, 60, 64, 81, 105, 128, 165, 180, 195, 210]:
        assert cyclotomic(m) == _cyclotomic_reference(m), m
    with pytest.raises(DomainError):
        cyclotomic(0)


def _phi_at_most(m, bound):
    """phi(m) as a count of the k <= m coprime to m, or None once the count
    passes bound."""
    count = 0
    for k in range(1, m + 1):
        count += math.gcd(k, m) == 1
        if count > bound:
            return None
    return count


@functools.lru_cache(maxsize=None)
def _cyclotomic_reference(m):
    """Phi_m as t^m - 1 divided by every Phi_d, d a proper divisor of m."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly, rem = poly_divmod(poly, list(_cyclotomic_reference(d)))
            assert not rem
    return tuple(poly)


def _candidates_reference(deg):
    """The (m, phi(m)) with phi(m) <= deg from a sieve of phi up to
    2*deg^2 + 1, a bound that phi(m) >= sqrt(m/2) justifies."""
    bound = 2 * deg * deg + 1
    phi = list(range(bound + 1))
    for p in range(2, bound + 1):
        if phi[p] == p:
            phi[p::p] = [x - x // p for x in phi[p::p]]
    return tuple((m, phi[m]) for m in range(1, bound + 1) if phi[m] <= deg)


def test_cyclotomic_candidates_match_a_gcd_count():
    # every m <= 4*40^2 + 4 with phi(m) <= 40, by counting gcds; each degree's
    # candidates are exactly those with phi(m) <= deg, so none lies beyond
    # the sieve's bound; up to degree 60 they are those of the sieve to
    # 2*deg^2 + 1
    counted = [(m, phi) for m in range(1, 4 * 40 * 40 + 5)
               if (phi := _phi_at_most(m, 40)) is not None]
    assert counted[:12] == [(1, 1), (2, 1), (3, 2), (4, 2), (5, 4), (6, 2), (7, 6),
                            (8, 4), (9, 6), (10, 4), (11, 10), (12, 4)]
    for deg in range(41):
        assert _cyclotomic_candidates(deg) == tuple((m, phi) for m, phi in counted
                                                    if phi <= deg), deg
    for deg in range(61):
        assert _cyclotomic_candidates(deg) == _candidates_reference(deg), deg


def test_gate_value_is_phi_m_at_2_64():
    for m in range(1, 301):
        assert _cyclotomic_at_gate(m) == poly_eval(list(cyclotomic(m)), 2**64), m


def test_cyclotomic_is_built_only_where_its_gate_divides(monkeypatch):
    # with the caches cleared, Phi_m is built for exactly the candidates m
    # whose gate value Phi_m(2^64) divides p(2^64), none to evaluate a gate
    import lieentropy.mahler as mahler

    rng = random.Random(97)
    p = char_poly([[rng.randint(-3, 3) for _ in range(12)] for _ in range(12)])
    rich = poly_mul(poly_mul(p, list(cyclotomic(5))),
                    poly_mul(list(cyclotomic(5)), list(cyclotomic(12))))
    product = [1]
    for _ in range(97):
        product = poly_mul(product, [-rng.randint(-9, 9), 1])
    for poly, expected in ((rich, [(5, 2), (12, 1)]), (product, None)):
        built = []

        def build(m, plain=mahler.cyclotomic.__wrapped__):
            built.append(m)
            return plain(m)

        mahler._cyclotomic_at_gate.cache_clear()
        mahler.cyclotomic.cache_clear()
        monkeypatch.setattr(mahler, "cyclotomic", functools.lru_cache(maxsize=None)(build))
        found, rest = cyclotomic_factors(poly)
        monkeypatch.undo()
        value = poly_eval(poly_primitive_int(poly), 2**64)
        dividing = [m for m, phi in _cyclotomic_candidates(poly_degree(poly))
                    if value % _cyclotomic_at_gate(m) == 0]
        assert built == dividing == [m for m, _ in found], (built, found)
        assert expected is None or found == expected
    assert found and {m for m, _ in found} <= {1, 2}  # integer roots: only +-1


def test_cyclotomic_part_examples():
    assert cyclotomic_part([1, 1, 1]) == ([1, 1, 1], [1])
    assert cyclotomic_part([1, -3, 1]) == ([1], [1, -3, 1])
    # (t-1)(t-2): trial division strips the t-1
    assert cyclotomic_part([2, -3, 1]) == ([-1, 1], [-2, 1])


def test_cyclotomic_part_idempotent():
    rng = random.Random(3)
    for _ in range(20):
        p = [rng.randint(-3, 3) for _ in range(rng.randint(2, 7))]
        if not any(p) or p[-1] == 0:
            continue
        _, rest = cyclotomic_part(p)
        assert cyclotomic_part(rest) == ([1], rest)


def test_cyclotomic_part_with_multiplicity():
    p = poly_mul(poly_mul([1, 1], [1, 1]), [-2, 1])  # (t+1)^2 (t-2)
    cyclo, rest = cyclotomic_part(p)
    assert cyclo == [1, 2, 1]
    assert rest == [-2, 1]


def _workload_documents(monkeypatch):
    """The documents of the benchmark's three workloads at seeds 1-3, their
    reference answers left out."""
    import importlib.util
    import sys
    import types
    from pathlib import Path

    import lieentropy.catalog
    import lieentropy.groups

    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name in ("mignotte_entropy", "_eigen_entropy", "li_yorke_reference"):
        monkeypatch.setattr(workloads, name, lambda *args: None)
    lib = types.SimpleNamespace(groups=lieentropy.groups, catalog=lieentropy.catalog)
    return [item[0] for make in workloads.WORKLOADS.values() for seed in (1, 2, 3)
            for family in make(seed, lib) for item in family]


def test_cyclotomic_part_multiplies_back_on_every_certificate(monkeypatch):
    # the entropy and eigenvalue-sum certificates of the catalog and of every
    # benchmark document: cyclo * rest is the certificate, with cyclo monic
    from lieentropy.catalog import builtin_catalog
    from lieentropy.formats import build_group, document_from_dict
    from lieentropy.groups import topological_entropy, validate_endomorphism

    documents = [entry.document for entry in builtin_catalog()] + _workload_documents(monkeypatch)
    certificates = set()
    for document in documents:
        endo = validate_endomorphism(*build_group(document_from_dict(document)))
        report = topological_entropy(endo)
        certificates |= {report.entropy.certificate, report.bowen_upper_bound.certificate}
    assert len(documents) > 150 and len(certificates) > 100
    for certificate in certificates:
        cyclo, rest = cyclotomic_part(certificate)
        assert poly_mul(cyclo, rest) == list(certificate), certificate
        assert cyclo[-1] == 1 and all(type(x) is int for x in cyclo + rest), certificate
        assert rest == cyclotomic_factors(certificate)[1]


def test_cyclotomic_part_rejects_zero():
    with pytest.raises(DomainError):
        cyclotomic_part([])


# --- squarefree decomposition -------------------------------------------------

def test_squarefree_decomposition():
    p = poly_mul(poly_mul([1, -3, 1], [1, -3, 1]), [1, 1])
    parts = dict((tuple(q), mult) for q, mult in squarefree_decomposition(p))
    assert parts == {(1, 1): 1, (1, -3, 1): 2}


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _derivative(p):
    return _trim([i * a for i, a in enumerate(p)][1:])


def _divmod_reference(p, q):
    """Long division over Q; a quotient coefficient is a Fraction unless the
    divisor is monic."""
    p, q = _trim(p), _trim(q)
    quot = [0] * max(len(p) - len(q) + 1, 0)
    while len(p) >= len(q):
        shift = len(p) - len(q)
        factor = p[-1] if q[-1] == 1 else Fraction(p[-1], q[-1])
        quot[shift] = factor
        for i, b in enumerate(q):
            p[shift + i] -= factor * b
        p = _trim(p)
    return _trim(quot), p


def _primitive_reference(p):
    """Denominators cleared by their lcm, content divided out, lead positive."""
    p = _trim(p)
    if not p:
        return []
    scale = math.lcm(*[Fraction(a).denominator for a in p])
    ints = [int(a * scale) for a in p]
    content = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [a // content for a in ints]


def _monic_gcd_reference(p, q):
    """Monic gcd over Q: a primitive remainder sequence over Z, made monic."""
    a, b = _primitive_reference(p), _primitive_reference(q)
    while b:
        r = a
        while len(r) >= len(b):
            shift, top = len(r) - len(b), r[-1]
            r = [x * b[-1] for x in r]
            for i, y in enumerate(b):
                r[shift + i] -= top * y
            r = _trim(r)
        a, b = b, _primitive_reference(r)
    return [Fraction(x, a[-1]) for x in a]


def _squarefree_reference(p):
    """Yun's decomposition over Q with no certificate, every stage run: monic
    gcds, Fraction quotients, and each factor made primitive at the end."""
    p = _trim(p)
    if len(p) < 2:
        return []
    d = _derivative(p)
    a = _monic_gcd_reference(p, d)
    b, _ = _divmod_reference(p, a)
    c, _ = _divmod_reference(d, a)
    out, k = [], 1
    while len(b) > 1:
        step = _trim([x - y for x, y in itertools.zip_longest(c, _derivative(b), fillvalue=0)])
        g = _monic_gcd_reference(b, step)
        if len(g) > 1:
            out.append((_primitive_reference(g), k))
        b, _ = _divmod_reference(b, g)
        c, _ = _divmod_reference(step, g)
        k += 1
    return out


def _cyclotomic_factors_reference(p):
    """Trial division by every Phi_m with phi(m) <= deg p, phi counted by
    gcds."""
    rest = poly_trim(p)
    found, deg = [], poly_degree(rest)
    for m in range(1, 2 * deg * deg + 2):
        if _phi_at_most(m, deg) is None:
            continue
        phi_m, mult = list(_cyclotomic_reference(m)), 0
        while poly_degree(rest) >= poly_degree(phi_m):
            quot, rem = poly_divmod(rest, phi_m)
            if rem:
                break
            rest, mult = quot, mult + 1
        if mult:
            found.append((m, mult))
            deg = poly_degree(rest)
    return found, rest


ELL = 2**61 - 1
LEHMER = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]  # self-reciprocal, not cyclotomic


def _certificate_polynomials():
    """Seeded integer and rational polynomials: squarefree ones, ones with
    repeated factors and with Phi_m factors, Lehmer's, ones whose lead is a
    multiple of 2^61 - 1, and ones with p(0) = 0."""
    rng = random.Random(61)

    def product(*factors):
        out = [1]
        for f in factors:
            out = poly_mul(out, f)
        return out

    polys = [[5], [0, 1], [0, 0, 3], LEHMER, product(LEHMER, LEHMER), product(LEHMER, [0, 1]),
             product([-1, ELL], [-1, ELL]), product([-1, ELL], [-1, ELL], [-2, 1]),
             product([-1, ELL], [-1, 1]),
             product([1, ELL], [1, 1], [1, 1]), product([-1, ELL], [-2, 1], [-2, 1], [0, 1]),
             [1, 1, 2 * ELL], product([1, 1, ELL], [1, 0, 1], [1, 0, 1]),
             product([0, 1], list(cyclotomic(3)), [-2, 1]), product([0, 0, 1], [1, -3, 1]),
             [Fraction(1, 2), 0, Fraction(1, 2)], [Fraction(x, 3) for x in product([1, -3, 1], [1, 1])],
             # a root at the gate point 2^64: every candidate passes the gate
             product([-2**64, 1], list(cyclotomic(3)), list(cyclotomic(4)), [1, 2, 2])]
    for _ in range(80):
        factors = [[rng.randint(-4, 4) for _ in range(rng.randint(2, 4))] for _ in range(3)]
        factors = [f for f in factors if f[-1]]
        for _ in range(rng.randint(0, 3)):
            factors.append(list(cyclotomic(rng.choice((1, 2, 3, 4, 5, 6, 8, 12, 15)))))
        if rng.random() < 0.4 and factors:
            factors.append(rng.choice(factors))
        if rng.random() < 0.2:
            factors.append([0, 1])
        p = product(*factors)
        polys.append(p if rng.random() < 0.8 else [Fraction(x, rng.choice((2, 3))) for x in p])
    return polys


def _typed_factors(factors):
    return [([type(x) for x in q], q, k) for q, k in factors]


def test_modular_certificates_match_yun_and_trial_division():
    rng = random.Random(1976)
    # products of up to four small factors, each to a power 1-9
    products = []
    for _ in range(40):
        p = [rng.choice((1, -2, 3))]
        for _ in range(rng.randint(1, 4)):
            factor = [rng.randint(-3, 3) for _ in range(rng.randint(2, 3))]
            if factor[-1]:
                p = poly_mul(p, functools.reduce(poly_mul, [factor] * rng.randint(1, 9)))
        products.append(p)
    for p in products:
        assert _typed_factors(squarefree_decomposition(p)) == \
            _typed_factors(_squarefree_reference(p)), p
    for p in _certificate_polynomials():
        assert _typed_factors(squarefree_decomposition(p)) == \
            _typed_factors(_squarefree_reference(p)), p
        if poly_trim(p):
            found, rest = cyclotomic_factors(p)
            assert (found, rest) == _cyclotomic_factors_reference(p), p
            assert [type(x) for x in rest] == [type(x) for x in
                                               _cyclotomic_factors_reference(p)[1]], p
    # Lehmer's polynomial is its own reversal: the certificate cannot decide
    assert not _coprime_mod_prime(LEHMER, LEHMER[::-1])
    # p = (l t - 1)^2 (t - 2) and p' are coprime mod l, where the repeated
    # factor is a unit; only the lead check keeps the certificate silent
    p = poly_mul(poly_mul([-1, ELL], [-1, ELL]), [-2, 1])
    assert not _coprime_mod_prime(p, poly_derivative(p))
    assert squarefree_decomposition(p) == [([-2, 1], 1), ([-1, ELL], 2)]


def test_certified_polynomials_skip_yun_and_trial_division(monkeypatch):
    # the coprimality certificate in poly_gcd skips every remainder
    # sequence, and the value gate at 2^64 skips every trial division that
    # fails: a random 12x12 char(d) divides by nothing, and times
    # Phi_5^2 Phi_12 by exactly three Phi_m
    import sys

    import lieentropy.mahler as mahler

    def forbidden(*args):
        raise AssertionError("the certificate should have decided")

    divided_in = Counter()
    poly_divmod = mahler.poly_divmod

    def counted(p, q):
        divided_in[sys._getframe(1).f_code.co_name] += 1
        return poly_divmod(p, q)

    rng = random.Random(7)
    p = char_poly([[rng.randint(-3, 3) for _ in range(12)] for _ in range(12)])
    rich = poly_mul(poly_mul(p, list(cyclotomic(5))), poly_mul(list(cyclotomic(5)),
                                                                list(cyclotomic(12))))
    expected = squarefree_decomposition(p), cyclotomic_factors(p), cyclotomic_factors(rich)
    monkeypatch.setattr(mahler, "_pseudo_remainder", forbidden)
    monkeypatch.setattr(mahler, "poly_divmod", counted)
    assert (squarefree_decomposition(p), cyclotomic_factors(p)) == expected[:2]
    assert expected[:2] == ([(p, 1)], ([], p))
    assert divided_in["cyclotomic_factors"] == 0
    assert cyclotomic_factors(rich) == expected[2] == ([(5, 2), (12, 1)], p)
    assert divided_in["cyclotomic_factors"] == 3


def _poly_gcd_reference(p, q):
    """Monic gcd by Euclid's algorithm over Q."""
    a, b = _trim(p), _trim(q)
    while b:
        a, b = b, _divmod_reference(a, b)[1]
    return [Fraction(x, a[-1]) for x in a]


def test_poly_gcd_matches_euclid_over_q():
    rng = random.Random(1913)

    def poly(low, high):
        return [rng.randint(-5, 5) for _ in range(rng.randint(low, high))]

    cases = [([], []), ([], [0, 3]), ([6], [4, 2]), ([0, 0, 2], [0, 4]), ([1, -3, 1], [])]
    for _ in range(60):
        common = poly(1, 4)
        p, q = poly_mul(poly(0, 5), common), poly_mul(poly(0, 5), common)
        if rng.random() < 0.5:
            p = [Fraction(x, rng.choice((1, 2, 3, 7))) for x in p]
            q = [Fraction(x, rng.choice((1, 4, 5))) for x in q]
        cases.append((p, q))
    for p, q in cases:
        # the primitive integer form of the monic gcd, lead positive
        got = poly_gcd(p, q)
        assert got == _primitive_reference(_poly_gcd_reference(p, q)), (p, q)
        assert all(type(x) is int for x in got)


def test_poly_gcd_certificate_decides_or_runs_the_remainder_sequence(monkeypatch):
    # certified-coprime pairs give [1] with no pseudo-remainder; where 2^61 - 1
    # divides the first lead the certificate is silent and the remainder
    # sequence decides, common factor or not
    import lieentropy.mahler as mahler

    steps = []
    pseudo_remainder = mahler._pseudo_remainder

    def counted(a, b):
        steps.append(1)
        return pseudo_remainder(a, b)

    monkeypatch.setattr(mahler, "_pseudo_remainder", counted)
    rng = random.Random(1961)
    certified = 0
    for _ in range(80):
        p = [rng.randint(-6, 6) for _ in range(rng.randint(2, 7))]
        q = [rng.randint(-6, 6) for _ in range(rng.randint(2, 7))]
        if not p[-1] or not q[-1] or len(_poly_gcd_reference(p, q)) > 1:
            continue
        steps.clear()
        assert poly_gcd(p, q) == [1], (p, q)
        assert not steps, (p, q)
        certified += 1
    assert certified >= 40
    silent = [([1, 1, ELL], [1, 2]),
              (poly_mul([1, ELL], [-2, 1]), poly_mul([3, 1], [-2, 1])),
              (poly_mul([-1, ELL], [1, 0, 1]), poly_mul([1, 0, 1], [1, 1, 1]))]
    for p, q in silent:
        steps.clear()
        assert poly_gcd(p, q) == _primitive_reference(_poly_gcd_reference(p, q)), (p, q)
        assert steps, (p, q)
    assert poly_gcd(*silent[1]) == [-2, 1] and poly_gcd(*silent[2]) == [1, 0, 1]


# --- log-Mahler sums -----------------------------------------------------------

def test_log_mahler_reference_values():
    assert abs(log_mahler([-2, 1]).value - math.log(2)) <= TOL
    assert abs(log_mahler([4, -4, 1]).value - 2 * math.log(2)) <= TOL
    ev = log_mahler([1, 0, 1])
    assert ev.value == 0.0 and ev.exact_zero
    # larger quadratic root of t^2 - 3t + 1 is (3 + sqrt 5)/2
    want = math.log((3 + math.sqrt(5)) / 2)
    got = log_mahler([1, -3, 1])
    assert abs(got.value - want) <= TOL
    assert got.expanding_count == 1
    assert got.exact_positive is True


def test_log_mahler_zero_decided_symbolically():
    # shear char poly (t-1)^2: cyclotomic square, exactly zero
    ev = log_mahler([1, -2, 1])
    assert ev.exact_zero and ev.value == 0.0 and ev.error_bound == 0.0
    # powers of t contribute nothing
    ev = log_mahler([0, 0, 0, 5])
    assert ev.exact_zero and ev.value == 0.0


def test_log_mahler_bound_counts_the_rounding_of_log():
    # t^5 + 10^160 t^2 + 1 has three roots of modulus ~10^(160/3); the bound
    # covers the rounding of the float logs, so it stays positive
    ev = log_mahler([1, 0, 10**160, 0, 0, 1])
    assert not ev.exact_zero and ev.expanding_count == 3
    assert ev.error_bound > 0.0
    # the other two roots are ~ +-i 10^-80, so the value is 160 log 10 up
    # to a relative 1e-240
    exact = Fraction("368.4136148790473094428786327494982732162")
    assert abs(Fraction(ev.value) - exact) <= Fraction(ev.error_bound)


def test_log_mahler_salem_polynomial():
    # Lehmer's degree-10 polynomial: one root outside the circle,
    # value log(1.17628...) ~ 0.1623576120
    lehmer = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
    ev = log_mahler(lehmer, 1e-9)
    assert abs(ev.value - 0.1623576120) <= 1e-9
    assert ev.expanding_count == 1
    assert ev.exact_positive is True


def test_log_mahler_non_monic_unit_circle():
    # 2t^2 + 3t + 2 has both roots on the unit circle but is not cyclotomic;
    # the value is ~0 numerically and positivity is undecided symbolically
    ev = log_mahler([2, 3, 2])
    assert abs(ev.value) <= 1e-9
    assert ev.exact_positive is None


def test_log_mahler_multiplicity():
    ev = log_mahler(poly_mul([-2, 1], [-2, 1]))
    assert abs(ev.value - 2 * math.log(2)) <= TOL
    assert ev.expanding_count == 2


def test_log_mahler_product_additivity():
    rng = random.Random(11)
    checked = 0
    while checked < 30:
        p = [rng.randint(-3, 3) for _ in range(rng.randint(2, 5))]
        q = [rng.randint(-3, 3) for _ in range(rng.randint(2, 5))]
        if not any(p) or not any(q) or p[-1] == 0 or q[-1] == 0:
            continue
        total = log_mahler(poly_mul(p, q), TOL)
        assert abs(total.value - log_mahler(p, TOL).value - log_mahler(q, TOL).value) <= 2 * TOL
        checked += 1


def test_log_mahler_conjugation_gives_identical_certificate():
    # unimodular conjugation preserves the characteristic polynomial exactly,
    # hence bit-for-bit equal entropy values
    m = [[2, 1], [1, 1]]
    p = [[1, 1], [0, 1]]
    p_inv = [[1, -1], [0, 1]]
    from lieentropy.exactlinalg import mat_mul

    conj = mat_mul(mat_mul(p, m), p_inv)
    assert char_poly(conj) == char_poly(m)
    assert log_mahler(char_poly(conj)).value == log_mahler(char_poly(m)).value


def test_log_mahler_rejects_bad_input():
    with pytest.raises(DomainError):
        log_mahler([])
    with pytest.raises(DomainError):
        log_mahler([1, -3, 1], tol=0.0)


def test_error_bound_honest_and_small():
    ev = log_mahler([1, -3, 1], 1e-9)
    assert 0.0 <= ev.error_bound <= 1e-9
    assert ev.error_bound > 0.0  # numeric stage really reports its slack


def test_log_mahler_matches_lapack_roots():
    # independent numeric route: sum log|z| over numpy.roots outside the
    # closed unit disc; agreement expected to LAPACK accuracy
    import numpy as np

    rng = random.Random(47)
    checked = 0
    while checked < 30:
        p = [rng.randint(-4, 4) for _ in range(rng.randint(2, 7))]
        if not any(p) or p[-1] == 0:
            continue
        roots = np.roots(list(reversed(p)))
        reference = float(sum(math.log(abs(z)) for z in roots if abs(z) > 1.0))
        assert abs(log_mahler(p).value - reference) <= 1e-6
        checked += 1


def test_log_mahler_certifies_large_coefficients():
    # roots of modulus ~10^(160/3) and a degree-31 polynomial with a 10^20
    # coefficient: one coefficient soon dominates the Graeffe iterates
    mpmath = pytest.importorskip("mpmath")
    for p in ([1, 0, 10**160, 0, 0, 1], [1, 10**20] + [0] * 29 + [1]):
        with mpmath.workdps(60):
            roots = mpmath.polyroots(p[::-1], maxsteps=500, extraprec=300)
            reference = float(sum(mpmath.log(abs(z)) for z in roots if abs(z) > 1))
        assert abs(log_mahler(p, TOL).value - reference) <= TOL


def test_log_mahler_rejects_non_finite_tolerance():
    for tol in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            log_mahler([1, -3, 1], tol=tol)


def test_log_mahler_answers_where_floats_overflow():
    # t^5 + 10^300 t^2 + 1 has three roots of modulus ~10^100, so z^5 leaves
    # the float range, and (t - 3)(t^2 - 10^310) has roots of modulus 10^155;
    # the Graeffe iterates are integers, so neither needs a float root
    for p, roots in (([1, 0, 10**300, 0, 0, 1], [Fraction(10**100)] * 3),
                     (poly_mul([-3, 1], [-10**310, 0, 1]), [3, 10**155, 10**155])):
        ev = log_mahler(p)
        assert ev.expanding_count == 3 and 0 < ev.error_bound <= TOL
        # the small roots of the first are ~ +-i 10^-150, and its large roots
        # are 10^100 to a relative 10^-300
        assert abs(ev.value - sum(math.log(r) for r in roots)) <= ev.error_bound + 1e-12


def _mignotte(a, n):
    """t^n - 2(at - 1)^2: two roots near 1/a, about a^(-n/2) apart."""
    return [-2, 4 * a, -2 * a * a] + [0] * (n - 3) + [1]


def _random_monic(degree, bits):
    rng = random.Random(1)
    return [rng.randint(-2**bits, 2**bits) for _ in range(degree)] + [1]


def _product(factors):
    return functools.reduce(poly_mul, factors, [1])


# The north star's hard class: degree >= 20, ~50-bit coefficients, clustered
# roots, coefficients beyond the float range, and roots on the unit circle.
# Each entry: the polynomial, then mpmath's maxsteps and extraprec.
HARD_CLASS = {
    "mignotte-10-16": (_mignotte(10, 16), 100, 100),
    "mignotte-100-24": (_mignotte(100, 24), 100, 100),
    "mignotte-10-30": (_mignotte(10, 30), 100, 100),
    "mignotte-1000-40": (_mignotte(1000, 40), 300, 60),
    "degree-20-bits-50": (_random_monic(20, 50), 100, 100),
    "degree-60-bits-20": (_random_monic(60, 20), 100, 100),
    "linear-2-to-12": (_product([[-j, 1] for j in range(2, 13)]), 100, 100),
    "beyond-floats": (poly_mul([-3, 1], [-10**310, 0, 1]), 500, 600),
    "float-overflow": ([1, 0, 10**300, 0, 0, 1], 500, 600),
    "lehmer": (LEHMER, 100, 100),
    "circle-2-3-2": ([2, 3, 2], 100, 100),
    "circle-5-6-5": ([5, -6, 5], 100, 100),
}


@pytest.mark.parametrize("name", HARD_CLASS)
def test_hard_class_matches_mpmath(name):
    mpmath = pytest.importorskip("mpmath")
    np = pytest.importorskip("numpy")
    p, maxsteps, extraprec = HARD_CLASS[name]
    ev = log_mahler(p, TOL)
    assert ev.error_bound <= TOL
    # LAPACK's roots start mpmath's iteration where the coefficients are
    # small enough for them to be good
    start = np.roots([float(c) for c in p[::-1]]) if max(map(abs, p)) < 2**64 else None
    with mpmath.workdps(60):
        roots = mpmath.polyroots(p[::-1], maxsteps=maxsteps, extraprec=extraprec,
                                 roots_init=None if start is None else list(map(complex, start)))
        # roots on the circle come back within 10^-60 of it
        outside = [z for z in roots if abs(z) > 1 + mpmath.mpf(10) ** -40]
        assert abs(ev.value - sum(mpmath.log(abs(z)) for z in outside)) <= ev.error_bound
    assert ev.expanding_count == len(outside)


def _graeffe_reference(g):
    """(-1)^n g(x) g(-x) at x^(2i), exactly."""
    n = len(g) - 1
    full = poly_mul(g, [-c if i % 2 else c for i, c in enumerate(g)])
    return [(-1) ** n * full[2 * i] for i in range(n + 1)]


def test_graeffe_balls_hold_the_exact_iterates():
    # at 24 bits the cut starts at once; every coefficient of each exact
    # iterate lies in its ball (mid +- rad) 2^e
    for p in ([-2, 1], [1, -3, 1], LEHMER, _mignotte(10, 16), [7, -5, 0, 3, -2],
              _random_monic(8, 30)):
        exact, (mids, rad, e) = p, (p, 0, 0)
        for _ in range(12):
            exact = _graeffe_reference(exact)
            mids, rad, shift = _graeffe_step(mids, rad, 24)
            e = 2 * e + shift
            assert all(abs(x - (m << e)) <= rad << e for x, m in zip(exact, mids)), p
            assert max(map(abs, mids)).bit_length() <= 24 or rad == 0


def test_circle_count_with_multiplicity():
    # Lehmer's polynomial has 8 roots on the circle and a pair r, 1/r; the
    # quadratics 2t^2 + 3t + 2 and 5t^2 - 6t + 5 have both roots on it
    assert _circle_count(LEHMER) == 8
    assert _circle_count([2, 3, 2]) == _circle_count([5, -6, 5]) == 2
    assert _circle_count([1, -3, 1]) == 0
    assert _circle_count(_product([[2, 3, 2], [2, 3, 2], [1, -3, 1], [5, -6, 5]])) == 6
    assert _circle_count(_product([LEHMER, LEHMER, [1, -3, 1]])) == 16


SALEM_4 = [1, -1, -1, -1, 1]         # t^4 - t^3 - t^2 - t + 1
SALEM_6 = [1, 0, -1, -1, -1, 0, 1]   # t^6 - t^4 - t^3 - t^2 + 1


def _circle_count_reference(h):
    """_circle_count with its Sturm chains divided over Q, as it stood before
    the chains moved to Z: each term minus the remainder of the two before."""
    m = (len(h) - 1) // 2
    q, low, high = [h[m]] + [0] * m, [2], [0, 1]
    for c in h[m + 1:]:
        q[:len(high)] = [x + c * y for x, y in zip(q, high)]
        low, high = high, [a - b for a, b in itertools.zip_longest([0] + high, low, fillvalue=0)]
    count = 0
    for part, mult in _squarefree_reference(q):
        chain = [part, _derivative(part)]
        while len(chain[-1]) > 1:
            chain.append([-x for x in _divmod_reference(chain[-2], chain[-1])[1]])
        changes = []
        for w in (-2, 2):
            signs = [v > 0 for v in (poly_eval(s, w) for s in chain) if v]
            changes.append(sum(a != b for a, b in zip(signs, signs[1:])))
        count += 2 * mult * (changes[0] - changes[1])
    return count


def _self_reciprocal_polynomials(count):
    """Seeded self-reciprocal polynomials h with h(1) h(-1) != 0, of either
    sign of lead, half of them sparse, some times a quadratic with both
    roots on the circle, or squared, or times one another.  Sparse ones
    often have a degree gap in their Sturm chain, where a pseudo-remainder
    takes an odd number of steps."""
    rng = random.Random(1933)
    circle = ([2, 3, 2], [5, -6, 5], [1, 1, 1], [3, -1, 3], [1, 0, 1], [-4, 1, -4])
    out = []
    while len(out) < count:
        m, zeros = rng.randint(1, 7), rng.choice((0, 2))
        half = [rng.choice((-1, 1)) * rng.randint(1, 4)] + [
            rng.choice([rng.randint(-4, 4)] + [0] * zeros) for _ in range(m)]
        h = half + half[-2::-1]
        roll = rng.random()
        if roll < 0.25:
            h = poly_mul(h, rng.choice(circle))
        elif roll < 0.4:
            h = poly_mul(h, h)
        elif roll < 0.55 and out:
            h = poly_mul(h, rng.choice(out))
        if poly_eval(h, 1) and poly_eval(h, -1):
            out.append(h)
    return out


def test_pseudo_remainder_is_a_positive_multiple_of_the_remainder():
    # |lead b|^k times the remainder over Q, so a Sturm chain built from it
    # keeps its signs: divisors of either sign, k odd or even
    from lieentropy.mahler import _pseudo_remainder

    rng = random.Random(1837)
    odd = 0
    for _ in range(300):
        a = [rng.randint(-5, 5) for _ in range(rng.randint(1, 9))]
        b = [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))] + [rng.choice((-3, -1, 1, 2))]
        got, rem = _pseudo_remainder(poly_trim(a), b), _divmod_reference(a, b)[1]
        assert len(got) == len(rem) and all(type(x) is int for x in got), (a, b)
        if rem:
            scale = Fraction(got[-1], rem[-1])
            assert scale > 0 and got == [scale * x for x in rem], (a, b)
            odd += b[-1] < 0 and (len(poly_trim(a)) - len(b)) % 2 == 0
    assert odd > 20


def test_circle_count_matches_sturm_over_q(monkeypatch):
    # the integer chains count what the chains over Q count, and no
    # division over Q is left in _circle_count
    import sys

    import lieentropy.mahler as mahler

    called_from = Counter()

    def counted(name):
        inner = getattr(mahler, name)

        def wrapper(*args):
            called_from[name, sys._getframe(1).f_code.co_name] += 1
            return inner(*args)
        monkeypatch.setattr(mahler, name, wrapper)

    counted("poly_divmod")
    counted("_pseudo_remainder")
    # the last has a degree gap in its chain, at a term with a negative lead
    named = [LEHMER, poly_mul(LEHMER, LEHMER), poly_mul(LEHMER, [1, -3, 1]),
             _product([LEHMER, SALEM_4, SALEM_6]), _product([LEHMER, SALEM_4, SALEM_4]),
             [-1, 0, 0, 0, -2, 0, -2, 0, 0, 0, -1]]
    polys = named + _self_reciprocal_polynomials(240)
    for h in polys:
        assert h == h[::-1] and poly_eval(h, 1) and poly_eval(h, -1)
        assert mahler._circle_count(h) == _circle_count_reference(h), h
    assert [mahler._circle_count(h) for h in named] == [8, 16, 8, 14, 12, 2]
    assert called_from["poly_divmod", "_circle_count"] == 0
    assert called_from["_pseudo_remainder", "_circle_count"] > 500


def test_pellet_test_is_strict():
    # (t - 2)(t - 3) = t^2 - 5t + 6 has |6| = 1 + 5: the test passes from the
    # first Graeffe iterate on, where Jensen's bound is positive
    ev = log_mahler([6, -5, 1])
    assert ev.expanding_count == 2 and abs(ev.value - math.log(6)) <= ev.error_bound <= TOL


def test_expanding_count_zero_gives_an_exact_value():
    # every root in the closed unit disc: the value is exactly 0, though the
    # polynomial is not cyclotomic
    for p in ([1, 2], [2, 3, 2], [1, 2, 3], poly_mul([5, -6, 5], [1, 0, 3])):
        ev = log_mahler(p)
        assert (ev.value, ev.error_bound, ev.expanding_count) == (0.0, 0.0, 0), p
        assert not ev.exact_zero and ev.exact_positive is None


def test_bracket_holds_at_coarse_tolerances():
    # a coarse tol stops the iteration after a step or two, while the
    # coefficient bounds are still far from tight; roots a/b, some of them
    # times 2t^2 + 3t + 2 with its two roots on the circle
    rng = random.Random(5)
    for _ in range(60):
        roots = {Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                 for _ in range(rng.randint(1, 4))} - {1, -1}
        p = _product([[-r.numerator, r.denominator] for r in roots]
                     + [[2, 3, 2]] * rng.randint(0, 1))
        if poly_degree(p) < 1:
            continue
        outside = [r for r in roots if abs(r) > 1]
        truth = sum(math.log(abs(r)) for r in outside)
        for tol in (1.0, 0.1, 1e-3, 1e-6):
            ev = log_mahler(p, tol)
            assert abs(ev.value - truth) <= ev.error_bound + 1e-12, (p, tol)
            assert ev.error_bound <= tol and ev.expanding_count == len(outside), (p, tol)
