import math

import numpy as np
import pytest

from lieentropy.errors import DomainError, ParameterError
from lieentropy.estimator import (
    GridDynamics,
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
    with pytest.raises(ParameterError, match="epsilon ball does not fit"):
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
    with pytest.raises(ParameterError):
        GridDynamics.from_rows([[1, 0, 0, 0]] + [[0] * 4] * 3)


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
