import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lieentropy.errors import DomainError, ParameterError, PipelineError
from lieentropy.estimator import (
    _BALL_BLOCK,
    _ORBIT_BLOCK,
    GridDynamics,
    _auto_resolution,
    _ball_sizes,
    bundle_inequality_check,
    li_yorke_search,
    spanning_entropy_estimate,
)
from lieentropy.torus import TorusEndo


def check_count_invariants(estimate):
    counts, lower = estimate.spanning_counts, estimate.separated_counts
    assert all(lo <= up for lo, up in zip(lower, counts))
    assert all(counts[i] <= counts[i + 1] for i in range(len(counts) - 1))
    assert all(lower[i] <= lower[i + 1] for i in range(len(lower) - 1))


# --- spanning estimates -------------------------------------------------------

def test_doubling_slope_light():
    est = spanning_entropy_estimate(GridDynamics.from_rows([[2]]),
                                    n_max=10, epsilon=0.01, resolution=1 << 18)
    check_count_invariants(est)
    assert abs(est.slope - math.log(2)) / math.log(2) <= 0.15


def test_identity_and_rotation_slopes_vanish():
    ident = spanning_entropy_estimate(GridDynamics.from_rows([[1]]),
                                      n_max=8, epsilon=0.05, resolution=1024)
    assert ident.slope == 0.0
    check_count_invariants(ident)
    rot = spanning_entropy_estimate(GridDynamics.from_rows([[0, -1], [1, 0]]),
                                    n_max=8, epsilon=0.05, resolution=512)
    assert abs(rot.slope) <= 0.02
    check_count_invariants(rot)


def test_tripling_slope():
    est = spanning_entropy_estimate(GridDynamics.from_rows([[3]]),
                                    n_max=9, epsilon=0.01, resolution=1 << 20)
    check_count_invariants(est)
    assert abs(est.slope - math.log(3)) / math.log(3) <= 0.15


def test_torus_squaring_slope():
    est = spanning_entropy_estimate(GridDynamics.from_rows([[2, 0], [0, 2]]),
                                    n_max=5, epsilon=0.1, resolution=2560)
    check_count_invariants(est)
    assert abs(est.slope - 2 * math.log(2)) / (2 * math.log(2)) <= 0.15


def test_shear_slope_near_zero():
    est = spanning_entropy_estimate(GridDynamics.from_rows([[1, 1], [0, 1]]),
                                    n_max=40, epsilon=0.05, resolution=1024)
    check_count_invariants(est)
    assert est.slope <= 0.05


def grid_orbits(rows, resolution, n):
    """Orbit segments A^k x mod resolution, 0 <= k < n, of every grid point x
    in lexicographic order (the origin first), shaped (n, points, dim)."""
    matrix = np.array(rows, dtype=np.int64)
    line = np.arange(resolution, dtype=np.int64)
    grids = np.meshgrid(*([line] * len(rows)), indexing="ij")
    orbit = [np.stack([g.ravel() for g in grids], axis=1)]
    for _ in range(n - 1):
        orbit.append((orbit[-1] @ matrix.T) % resolution)
    return np.stack(orbit)


def bowen_distances(orbit, i, resolution):
    """Bowen distance in cells, max_k max_i circle|A^k (y - x)|_i, from grid
    point number i to every grid point."""
    diff = (orbit - orbit[:, i:i + 1, :]) % resolution
    return np.minimum(diff, resolution - diff).max(axis=(0, 2))


def greedy_cover(orbit, resolution, radius_cells):
    """Reference count: scan the grid in lexicographic order and make every
    point not yet covered a center of a closed Bowen ball of radius_cells.
    The centers form a cover and a radius_cells-separated set."""
    covered = np.zeros(orbit.shape[1], dtype=bool)
    count = 0
    for i in range(orbit.shape[1]):
        if not covered[i]:
            count += 1
            covered |= bowen_distances(orbit, i, resolution) <= radius_cells
    return count


@pytest.mark.parametrize("rows, resolution, epsilon, n_max", [
    ([[2]], 256, 0.05, 6),
    ([[3]], 243, 0.05, 5),
    ([[2, 1], [1, 1]], 64, 0.1, 5),
    ([[1, 1], [0, 1]], 64, 0.1, 6),
    ([[0, -1], [1, 0]], 64, 0.1, 4),
    ([[2, 0], [0, 2]], 64, 0.1, 4),
    ([[-1]], 100, 0.05, 4),
])
def test_volume_counts_bracket_greedy_cover(rows, resolution, epsilon, n_max):
    # Bowen's volume bracket: with D_n(r) the closed Bowen ball of radius r
    # cells around the origin, a greedy 2*eps cover lies between
    # ceil(R^d / |D_n(2 eps)|) and floor(R^d / |D_n(eps)|)
    est = spanning_entropy_estimate(GridDynamics.from_rows(rows), n_max=n_max,
                                    epsilon=epsilon, resolution=resolution)
    check_count_invariants(est)
    cells = resolution ** len(rows)
    radius = int(epsilon * resolution)
    radius2 = min(2 * radius, resolution // 2)
    for n, lower, upper in zip(est.n_values, est.separated_counts, est.spanning_counts):
        orbit = grid_orbits(rows, resolution, n)
        from_origin = bowen_distances(orbit, 0, resolution)
        assert upper == cells // int((from_origin <= radius).sum())
        assert lower == -(-cells // int((from_origin <= radius2).sum()))
        assert lower <= greedy_cover(orbit, resolution, radius2) <= upper


def test_counts_nonincreasing_in_epsilon():
    dynamics = GridDynamics.from_rows([[2]])
    estimates = [
        spanning_entropy_estimate(dynamics, n_max=8, epsilon=eps, resolution=1 << 16)
        for eps in (0.01, 0.02, 0.04)
    ]
    for narrow, wide in zip(estimates, estimates[1:]):
        assert all(a >= b for a, b in zip(narrow.spanning_counts, wide.spanning_counts))


def test_fine_grid_is_bounded_by_the_ball_not_the_grid():
    # 8192^2 = 2^26 grid points, but only the 17x17 and 33x33 Bowen boxes
    # are held in memory
    est = spanning_entropy_estimate(GridDynamics.from_rows([[2, 0], [0, 2]]),
                                    n_max=6, epsilon=0.001, resolution=8192)
    check_count_invariants(est)
    assert est.spanning_counts[0] == 8192**2 // 17**2
    assert est.separated_counts[0] == -(-8192**2 // 33**2)
    with pytest.raises(ParameterError, match="Bowen box of 134217729 cells exceeds the work "
                                             "bound of 50000000 cells"):
        spanning_entropy_estimate(GridDynamics.from_rows([[2]]),
                                  n_max=6, epsilon=0.25, resolution=1 << 27)


def test_parameter_errors():
    g = GridDynamics.from_rows([[2]])
    with pytest.raises(ParameterError, match="resolution too coarse"):
        spanning_entropy_estimate(g, n_max=6, epsilon=0.01, resolution=100)
    with pytest.raises(ParameterError):
        spanning_entropy_estimate(g, n_max=1, epsilon=0.01, resolution=4096)
    with pytest.raises(ParameterError):
        spanning_entropy_estimate(g, n_max=6, epsilon=0.9, resolution=4096)
    with pytest.raises(PipelineError, match="stage 'estimate': .*dimension <= 3"):
        spanning_entropy_estimate(GridDynamics.from_rows([[1, 0, 0, 0]] + [[0] * 4] * 3),
                                  n_max=6, epsilon=0.01, resolution=4096)


def test_slope_band_contains_slope():
    est = spanning_entropy_estimate(GridDynamics.from_rows([[2]]),
                                    n_max=8, epsilon=0.02, resolution=1 << 16)
    lo, hi = est.slope_band
    assert lo <= est.slope <= hi


# --- bundle inequality ----------------------------------------------------------

def test_bundle_product_equality_within_slack():
    report = bundle_inequality_check(
        GridDynamics.from_rows([[2, 0], [0, 3]]),
        GridDynamics.from_rows([[2]]),
        TorusEndo.from_rows([[3]]),
        n_max=5, epsilon=0.1, resolution=1024)
    assert report.passes
    assert abs(report.total_slope - report.bound) <= report.slack
    assert abs(report.exact_total - math.log(6)) <= 1e-9


def test_bundle_skew_extension():
    report = bundle_inequality_check(
        GridDynamics.from_rows([[2, 0], [1, 1]]),
        GridDynamics.from_rows([[2]]),
        TorusEndo.from_rows([[1]]),
        n_max=5, epsilon=0.1, resolution=1024)
    assert report.passes
    assert report.fiber_entropy == 0.0


def test_bundle_identity():
    report = bundle_inequality_check(
        GridDynamics.from_rows([[1, 0], [0, 1]]),
        GridDynamics.from_rows([[1]]),
        TorusEndo.from_rows([[1]]),
        n_max=5, epsilon=0.1, resolution=256)
    assert report.passes
    assert report.total_slope == 0.0 and report.bound == 0.0


def test_bundle_rejects_bad_structure():
    with pytest.raises(DomainError):
        bundle_inequality_check(
            GridDynamics.from_rows([[2, 1], [0, 3]]),   # upper-right block nonzero
            GridDynamics.from_rows([[2]]),
            TorusEndo.from_rows([[3]]),
            n_max=4, epsilon=0.1, resolution=256)
    with pytest.raises(DomainError):
        bundle_inequality_check(
            GridDynamics.from_rows([[2, 0], [0, 3]]),
            GridDynamics.from_rows([[5]]),
            TorusEndo.from_rows([[3]]),
            n_max=4, epsilon=0.1, resolution=256)


# --- Li-Yorke pair search --------------------------------------------------------

def test_li_yorke_search_doubling_finds_pairs():
    candidates = li_yorke_search(GridDynamics.from_rows([[2]]))
    assert candidates
    best = candidates[0]
    assert best.liminf_estimate < 0.01
    assert best.limsup_estimate > 0.25


def test_li_yorke_search_rotation_empty():
    assert li_yorke_search(GridDynamics.from_rows([[0, -1], [1, 0]])) == []
    assert li_yorke_search(GridDynamics.from_rows([[-1]])) == []


def test_li_yorke_search_shear_empty():
    assert li_yorke_search(GridDynamics.from_rows([[1, 1], [0, 1]]),
                           horizon=256, pair_budget=256) == []


def test_li_yorke_search_deterministic():
    a = li_yorke_search(GridDynamics.from_rows([[2]]), seed=5)
    b = li_yorke_search(GridDynamics.from_rows([[2]]), seed=5)
    assert a == b


def test_li_yorke_search_rejects_bad_budget():
    with pytest.raises(ParameterError):
        li_yorke_search(GridDynamics.from_rows([[2]]), horizon=0)


# --- array code against one-pair-at-a-time and row-major references ----------

def li_yorke_reference(rows, horizon, denominator, eps_low, eps_high, seed, pair_budget=64):
    """The pair search one pair at a time, in Python ints."""
    rng = random.Random(seed)
    q, dim = denominator, len(rows)
    out = []
    for _ in range(pair_budget):
        a = tuple(rng.randrange(q) for _ in range(dim))
        b = tuple(rng.randrange(q) for _ in range(dim))
        if a == b:
            continue
        delta = [(x - y) % q for x, y in zip(a, b)]
        lo, hi = 1.0, 0.0
        for _ in range(horizon):
            dist = max(min(x, q - x) for x in delta) / q
            lo, hi = min(lo, dist), max(hi, dist)
            delta = [sum(rows[i][j] * delta[j] for j in range(dim)) % q for i in range(dim)]
        if lo < eps_low and hi > eps_high:
            out.append((tuple(Fraction(x, q) for x in a), tuple(Fraction(x, q) for x in b),
                        lo, hi))
    return out


def ball_sizes_reference(rows, resolution, eps_cells, n_max):
    """|D_n(eps_cells)| for n = 1..n_max, with the ball held as rows of
    points mod resolution and the circle distance folded at every step."""
    matrix = np.array(rows, dtype=np.int64)
    line = np.arange(-eps_cells, eps_cells + 1, dtype=np.int64)
    grids = np.meshgrid(*([line] * len(rows)), indexing="ij")
    image = np.stack([g.ravel() for g in grids], axis=1) % resolution
    sizes = [len(image)]
    for _ in range(1, n_max):
        image = (image @ matrix.T) % resolution
        image = image[np.minimum(image, resolution - image).max(axis=1) <= eps_cells]
        sizes.append(len(image))
    return sizes


def oracle_matrices():
    """Seeded integer matrices of dim 1-3: small entries, which keep the
    Bowen balls wide for several steps, entries up to +-10^6, and a few
    degenerate ones (a zero matrix, a zero row, a permutation)."""
    rng = random.Random("estimator-oracle")
    out = [[[0]], [[0, 0], [1, 1]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]]
    for dim in (1, 2, 3):
        for bound in (3, 10**6):
            out.append([[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(dim)])
    return out


@pytest.mark.parametrize("rows", oracle_matrices())
def test_pair_search_matches_the_per_pair_reference(rows):
    dynamics = GridDynamics.from_rows(rows)
    # 2^40 and 2^40 + 1 take the object path; wrapped int64 products would
    # still be right mod 2^40, not mod 2^40 + 1
    for q in (2, 3, 4096, 4097, 2**40, 2**40 + 1):
        # the orbit is built by doubling: powers of two, one step either
        # side of them, and a horizon that ends partway through a round
        for horizon in (1, 2, 3, 63, 64, 65, 100):
            seed = q + horizon
            # eps_low 1 and eps_high 0 return every pair, so every extreme is
            # compared; the reference runs once and is filtered for the other
            every = li_yorke_reference(rows, horizon, q, 1.0, 0.0, seed)
            for eps_low, eps_high in ((1e-4, 0.25), (1.0, 0.0)):
                got = [(c.a, c.b, c.liminf_estimate, c.limsup_estimate)
                       for c in li_yorke_search(dynamics, horizon=horizon, denominator=q,
                                                eps_low=eps_low, eps_high=eps_high, seed=seed)]
                assert got == [c for c in every if c[2] < eps_low and c[3] > eps_high], \
                    (q, horizon, eps_low)
    # many orbit blocks, the last one partial: delta is carried from block to
    # block by the block's power of A
    assert 5000 > 2 * _ORBIT_BLOCK and 5000 % _ORBIT_BLOCK
    for q in (4097, 2**40 + 1):
        got = [(c.a, c.b, c.liminf_estimate, c.limsup_estimate)
               for c in li_yorke_search(dynamics, horizon=5000, pair_budget=4, denominator=q,
                                        eps_low=1.0, eps_high=0.0, seed=q)]
        assert got == li_yorke_reference(rows, 5000, q, 1.0, 0.0, q, pair_budget=4), q


def test_pair_search_stays_exact_beyond_int64():
    # entries far beyond int64 products are exact only once reduced mod q.
    # Entries -1, -2, -3 reduce to nearly q: at q = 5 * 2^29 + 1 each product
    # stays below 2^63 but a row-by-column sum of two can pass it, so the
    # dtype rule must count the dimension
    for rows in ([[10**18 + 1, -(10**18)], [3 * 10**17, 10**18 - 7]], [[-1, -2], [-3, -1]]):
        for q in (4096, 4097, 5 * 2**29 + 1, 2**40, 2**40 + 1):
            got = [(c.a, c.b, c.liminf_estimate, c.limsup_estimate)
                   for c in li_yorke_search(GridDynamics.from_rows(rows), horizon=16,
                                            denominator=q, eps_low=1.0, eps_high=0.0, seed=q)]
            assert got == li_yorke_reference(rows, 16, q, 1.0, 0.0, q), (rows, q)


def test_pair_search_with_no_distinct_pair():
    # one pair at q = 2 is often a == b, which leaves an empty array to run
    for seed in range(6):
        got = [(c.a, c.b, c.liminf_estimate, c.limsup_estimate)
               for c in li_yorke_search(GridDynamics.from_rows([[2]]), pair_budget=1,
                                        denominator=2, eps_low=1.0, eps_high=0.0, seed=seed)]
        assert got == li_yorke_reference([[2]], 64, 2, 1.0, 0.0, seed, pair_budget=1)


@pytest.mark.parametrize("rows", oracle_matrices())
def test_ball_sizes_match_the_row_major_reference(rows):
    dim = len(rows)
    # odd and even resolutions; epsilon 0.3 caps the 2e ball at R // 2 cells
    for resolution in ((63, 64, 256, 257) if dim < 3 else (17, 32, 33)):
        for epsilon in (0.07, 0.3):
            if resolution <= 4 / epsilon:
                continue
            est = spanning_entropy_estimate(GridDynamics.from_rows(rows), n_max=6,
                                            epsilon=epsilon, resolution=resolution)
            cells, eps_cells = resolution**dim, int(epsilon * resolution)
            eps2_cells = min(2 * eps_cells, resolution // 2)
            assert est.spanning_counts == tuple(
                cells // size for size in ball_sizes_reference(rows, resolution, eps_cells, 6))
            assert est.separated_counts == tuple(
                -(-cells // size)
                for size in ball_sizes_reference(rows, resolution, eps2_cells, 6))


@pytest.mark.parametrize("rows", [[[2, 0], [0, 2]], [[1, 1], [0, 1]]])
def test_ball_sizes_add_up_across_blocks(rows):
    # half boxes of 1, 2 and 3 blocks, the last one partial; doubling empties
    # the half box within the horizon, so every block stops early, while every
    # block of the shear keeps points of its invariant axis
    dynamics = GridDynamics.from_rows(rows)
    for outer, blocks in ((50, 1), (100, 2), (150, 3)):
        half = ((2 * outer + 1) ** 2 - 1) // 2
        assert -(-half // _BALL_BLOCK) == blocks and half % _BALL_BLOCK
        for resolution in (1023, 1024):
            small, large = _ball_sizes(dynamics, resolution, outer // 2, outer, 10)
            assert small == ball_sizes_reference(rows, resolution, outer // 2, 10)
            assert large == ball_sizes_reference(rows, resolution, outer, 10)
            assert (large[-1] == 1) == (rows[0][0] == 2), (outer, resolution)


def test_ball_memory_is_bounded_by_the_block_not_the_box():
    # a 2001^2 box of 4 * 10^6 cells, and the whole 257^3 box at the 3-dim grid
    # cap of 2^8: held at once, their half boxes took about 90 and 700 MB
    for rows, resolution, outer in (([[2, 1], [1, 1]], 4096, 1000),
                                    ([[2, 1, 0], [1, 1, 1], [0, 1, 2]], 256, 128)):
        tracemalloc.start()
        try:
            _ball_sizes(GridDynamics.from_rows(rows), resolution, outer // 2, outer, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, (rows, peak)


# (rows, n_max, epsilon, resolution, spanning_counts, separated_counts), counted
# point by point on the whole box: the seven cases of the estimate-falsify
# benchmark, then n_max 9 at epsilon 0.3, where the 2e box is capped at R // 2,
# on odd and even resolutions
PINNED_COUNTS = [
    ([[2]], 10, 0.05, 65536,
     (10, 19, 39, 80, 160, 319, 636, 1285, 2621, 5041),
     (6, 11, 20, 40, 81, 161, 320, 637, 1286, 2622)),
    ([[3]], 7, 0.05, 65536,
     (10, 29, 89, 269, 809, 2427, 7281),
     (6, 16, 45, 136, 408, 1237, 3856)),
    ([[2, 1], [1, 1]], 6, 0.05, 512,
     (100, 201, 503, 1304, 3404, 9039),
     (26, 52, 129, 334, 871, 2320)),
    ([[2, 0], [0, 2]], 4, 0.1, 1024,
     (24, 98, 403, 1677),
     (7, 25, 99, 404)),
    ([[1, 1], [0, 1]], 40, 0.1, 256,
     (25, 33, 50, 75, 100, 125, 150, 175, 200, 225, 251, 274, 299, 326, 346, 370, 397, 428,
      445, 464, 485, 508, 532, 560, 590, 624, 648, 661, 675, 689, 704, 720, 736, 753, 771,
      789, 809, 829, 851, 873),
     (7, 9, 13, 20, 26, 33, 39, 45, 52, 58, 65, 71, 77, 84, 90, 96, 103, 110, 115, 122, 129,
      135, 140, 146, 153, 161, 166, 172, 177, 183, 189, 196, 203, 211, 218, 223, 227, 232,
      237, 242)),
    ([[0, -1], [1, 0]], 8, 0.05, 512, (100,) * 8, (26,) * 8),
    ([[-1]], 8, 0.05, 4096, (10,) * 8, (6,) * 8),
    ([[2]], 9, 0.3, 63, (1, 3, 7, 12, 21, 63, 63, 63, 63), (1,) * 9),
    ([[2]], 9, 0.3, 64, (1, 3, 7, 12, 21, 64, 64, 64, 64), (1,) * 9),
    ([[3]], 9, 0.3, 63, (1, 3, 4, 9, 63, 63, 63, 63, 63), (1,) * 9),
    ([[3]], 9, 0.3, 64, (1, 2, 4, 9, 21, 21, 21, 21, 21), (1,) * 9),
    ([[2, 1], [1, 1]], 9, 0.3, 63, (2, 5, 14, 37, 96, 233, 793, 3969, 3969), (1,) * 9),
    ([[2, 1], [1, 1]], 9, 0.3, 64, (2, 5, 13, 35, 91, 240, 819, 4096, 4096), (1,) * 9),
    ([[1, 1], [0, 1]], 9, 0.3, 63, (2, 3, 5, 8, 11, 14, 17, 20, 22), (1,) * 9),
    ([[1, 1], [0, 1]], 9, 0.3, 64, (2, 3, 5, 8, 10, 13, 16, 18, 21), (1,) * 9),
    ([[1, 0, 0], [1, 1, 0], [0, 1, 1]], 9, 0.3, 33,
     (5, 8, 17, 35, 61, 100, 158, 228, 342), (1,) * 9),
    ([[1, 0, 0], [1, 1, 0], [0, 1, 1]], 9, 0.3, 32,
     (4, 8, 15, 32, 56, 91, 144, 208, 312), (1,) * 9),
]


@pytest.mark.parametrize("rows, n_max, epsilon, resolution, spanning, separated", PINNED_COUNTS)
def test_ball_counts_are_pinned(rows, n_max, epsilon, resolution, spanning, separated):
    dynamics = GridDynamics.from_rows(rows)
    est = spanning_entropy_estimate(dynamics, n_max=n_max, epsilon=epsilon,
                                    resolution=resolution)
    assert est.spanning_counts == spanning
    assert est.separated_counts == separated
    # at the R // 2 cap every box point is within reach, the two ends of an
    # even box (the same residue) each counted, so the counts above are 1
    # however the box is counted; the sizes themselves are not
    side = 2 * (resolution // 2) + 1
    cap = resolution // 2
    assert _ball_sizes(dynamics, resolution, cap, cap, n_max) == ([side ** len(rows)] * n_max,) * 2


def test_grid_dynamics_takes_integral_entries_only():
    # one integer torus map: the estimator's name is the pipeline's class,
    # under its integrality rule (spelled out in test_torus)
    assert GridDynamics is TorusEndo
    dynamics = GridDynamics.from_rows([[2.0, Fraction(4, 2)], ["6/3", np.int64(-1)]])
    assert dynamics.matrix == ((2, 2), (2, -1))
    assert all(type(x) is int for row in dynamics.matrix for x in row)
    for bad in (2.5, Fraction(5, 2), "1/3", float("nan"), float("inf"), None):
        with pytest.raises(DomainError, match="torus endomorphism matrix must be integral"):
            GridDynamics.from_rows([[bad]])


@pytest.mark.parametrize("dim", [0, 4])
def test_every_entry_point_refuses_dims_outside_one_to_three(dim):
    # the check comes first: each call below is also wrong in another way,
    # and the dimension is what is reported
    endo = TorusEndo.from_rows([[int(i == j) for j in range(dim)] for i in range(dim)])
    message = "dimension <= 3" if dim else "central torus is trivial"
    one = TorusEndo.from_rows([[2]])
    calls = [
        lambda: spanning_entropy_estimate(endo, n_max=1, epsilon=0.9, resolution=1),
        lambda: _auto_resolution(endo, 1, 0.9, 0.0),
        lambda: li_yorke_search(endo, horizon=0, denominator=1),
        # the total and the base are both run on grids
        lambda: bundle_inequality_check(endo, one, one, n_max=1),
        lambda: bundle_inequality_check(TorusEndo.from_rows([[2]]), endo, one, n_max=1),
    ]
    for call in calls:
        with pytest.raises(PipelineError, match=message) as raised:
            call()
        assert raised.value.stage == "estimate"
