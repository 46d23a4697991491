"""Spanning-set entropy estimation and Li-Yorke pair search on tori.

This is the falsification oracle for the exact pipeline: it can refute an
exact entropy value at desk scale but never certify one.  It runs the
pipeline's `torus.TorusEndo` (also named `GridDynamics`); each entry point
first refuses dimensions outside 1..3 at stage "estimate", and numpy is
imported only inside the functions that compute with it.  Dynamics run
on the uniform rational grid (j_1/R, ..., j_d/R); an integer matrix maps the
grid to itself, so every orbit point is exact (an integer vector mod R) and
floats appear only when distances are compared against epsilon.  Half of
each Bowen box (v -> -v gives the rest) runs over all steps in blocks of
_BALL_BLOCK points, and the pair orbits, built by doubling, run in blocks of
_ORBIT_BLOCK steps, as exact integer arrays with the matrix reduced mod R or
q first.  Pair orbits are int64 below 2^62 and `object` beyond; the Bowen
box stays int64, and only a resolution beyond about 2^30 can overflow it,
which is refused as a ParameterError.

For a group endomorphism A the Bowen metric is translation invariant, so
every Bowen ball is a translate of one difference set

    D_n(r) = {v : max_i circle|A^k v|_i <= r for 0 <= k < n},

a closed box of radius r cells in every coordinate at every time step, and
minimal spanning and maximal separated sets are bracketed by grid volume
alone (Bowen, "Entropy for group endomorphisms and homogeneous spaces",
Trans. AMS 153 (1971)):

    R^d / |D_n(2e)| <= span_n(2e) <= sep_n(2e) <= R^d / |D_n(e)|,

with e = floor(epsilon * R) cells.  The estimate is the fitted log-growth of
the upper volume count over the last half of the time range.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, ParameterError, PipelineError
from .torus import TorusEndo, entropy as exact_entropy

_MAX_BALL_CELLS = 5 * 10**7  # cells of a Bowen box: a bound on work, not on memory
_ORBIT_BLOCK = 256  # steps of the pair orbits held at once; a power of two
_BALL_BLOCK = 1 << 14  # flat indices of a Bowen half box held at once


GridDynamics = TorusEndo  # a public name, kept for the callers that use it


class SpanningEstimate(NamedTuple):
    n_values: tuple[int, ...]
    spanning_counts: tuple[int, ...]    # floor(R^d / |D_n(e)|): upper bracket
    separated_counts: tuple[int, ...]   # ceil(R^d / |D_n(2e)|): lower bracket
    epsilon: float
    resolution: int
    slope: float
    slope_stderr: float

    @property
    def slope_band(self) -> tuple[float, float]:
        return self.slope - 2 * self.slope_stderr, self.slope + 2 * self.slope_stderr


def _ball_sizes(dynamics: TorusEndo, resolution: int, inner: int, outer: int,
                n_max: int) -> tuple[list[int], list[int]]:
    """(|D_n(inner)|, |D_n(outer)|) for n = 1..n_max, inner <= outer <= R//2,
    in one pass over the outer box, as D_n(inner) lies in D_n(outer).  D_n is
    symmetric under v -> -v and holds 0, and C-order flat indices i and
    N - 1 - i of the box [-E, E]^d are negatives, so only the points after
    the centre are run, as int64 arrays of s = x + E mod R: circle|y| <= E is
    (y + E) mod R <= 2E, and then circle|y| <= e is |s - E| <= e.

    Those points are walked in consecutive blocks of _BALL_BLOCK flat
    indices, each run over every step and its survivor counts added, so
    working memory is O(block * d) however large the box.  Grid arithmetic
    is mod R, so the matrix is reduced first to residues of least absolute
    value, |a| <= R//2; the step then stays in int64 when max|a| * (2E + 1)
    * d and R are below 2^62, which only a resolution beyond about 2^30 can
    break (a ParameterError)."""
    import numpy as np

    side, dim = 2 * outer + 1, dynamics.dim
    cells = side**dim
    if cells > _MAX_BALL_CELLS:
        raise ParameterError(f"Bowen box of {cells} cells exceeds the work bound of "
                             f"{_MAX_BALL_CELLS} cells")
    shift = resolution // 2
    matrix = [[(a + shift) % resolution - shift for a in row] for row in dynamics.matrix]
    largest = max(abs(a) for row in matrix for a in row)
    if max(resolution, largest * side * dim) >= 1 << 62:
        raise ParameterError(f"resolution {resolution} is too fine for exact int64 "
                             f"grid arithmetic")
    # A(s - E) + E = A s + E (1 - row sum): one constant per row keeps images shifted
    offsets = [outer * (1 - sum(row)) % resolution for row in matrix]
    inside = np.abs(np.arange(side) - outer) <= inner  # s -> circle|s - E| <= e, s <= 2E
    small, large = [0] * n_max, [0] * n_max
    for start in range((cells + 1) // 2, cells, _BALL_BLOCK):
        coords = np.unravel_index(np.arange(start, min(start + _BALL_BLOCK, cells)),
                                  (side,) * dim)
        near = np.logical_and.reduce([inside[x] for x in coords])
        for n in range(n_max):
            if n:
                images = []
                for row, offset in zip(matrix, offsets):
                    image = np.full(len(coords[0]), offset, dtype=np.int64)
                    for a, x in zip(row, coords):
                        if a:
                            image += x if a == 1 else a * x
                    image %= resolution
                    images.append(image)
                keep = np.logical_and.reduce([image <= 2 * outer for image in images])
                coords = [image[keep] for image in images]
                near = np.logical_and.reduce([near[keep]] + [inside[x] for x in coords])
            if not len(coords[0]):
                break  # the block's survivors ran out: later steps add nothing
            small[n] += int(near.sum())
            large[n] += len(coords[0])
    return [2 * count + 1 for count in small], [2 * count + 1 for count in large]


def spanning_entropy_estimate(dynamics: TorusEndo, n_max: int, epsilon: float,
                              resolution: int) -> SpanningEstimate:
    """Bracket the spanning-set growth of the dynamics under the Bowen metric.

    `resolution` is the number of grid points per axis and must be finer
    than epsilon/4.  With e = floor(epsilon * resolution) cells, the counts
    come from the sizes of the difference sets D_n(e) and D_n(min(2e, R//2)),
    closed boxes in the circle distance measured in cells (Bowen 1971):
    spanning_counts[n] = floor(R^d / |D_n(e)|) and separated_counts[n] =
    ceil(R^d / |D_n(2e)|).  Every greedy 2e cover, being also a
    2e-separated set, lies between the two, and both are nondecreasing in n.
    The fitted slope uses the upper counts over the last half of the time
    range; the band is two standard errors of the fit.  Counts saturate once
    the boxes stop shrinking, which flattens the slope: a matrix that
    vanishes mod R (2^40 at R = 2^22) maps every point to 0 in one step, and
    reads slope 0 whatever its entropy.
    """
    _check_parameters(dynamics, n_max, epsilon)
    if resolution <= 4 / epsilon:
        raise ParameterError("resolution too coarse: need resolution > 4/epsilon")
    eps_cells = int(epsilon * resolution)
    cells = resolution**dynamics.dim
    n_values = list(range(1, n_max + 1))
    small, large = _ball_sizes(dynamics, resolution, eps_cells,
                               min(2 * eps_cells, resolution // 2), n_max)
    upper = [cells // size for size in small]
    lower = [-(-cells // size) for size in large]
    slope, stderr = _fit_log_growth(n_values, upper)
    return SpanningEstimate(
        tuple(n_values), tuple(upper), tuple(lower), epsilon, resolution, slope, stderr)


def _check_dim(endo: TorusEndo) -> None:
    if not 1 <= endo.dim <= 3:
        raise PipelineError("estimate", "grid estimation is limited to tori of dimension <= 3"
                            if endo.dim else "the central torus is trivial; nothing to estimate")


def _check_parameters(dynamics: TorusEndo, n_max: int, epsilon: float) -> None:
    _check_dim(dynamics)
    if n_max < 2:
        raise ParameterError("n_max must be at least 2")
    if not 0 < epsilon < 0.5:
        raise ParameterError("epsilon must lie in (0, 1/2)")


def _fit_log_growth(ns, counts) -> tuple[float, float]:
    """Least-squares slope of log(count) against n over the last half."""
    import numpy as np

    start = len(ns) // 2
    xs = np.array(ns[start:], dtype=float)
    ys = np.log(np.array(counts[start:], dtype=float))
    if xs.size < 2:
        return 0.0, 0.0
    xbar, ybar = xs.mean(), ys.mean()
    sxx = float(((xs - xbar) ** 2).sum())
    slope = float(((xs - xbar) * (ys - ybar)).sum() / sxx)
    residuals = ys - (ybar + slope * (xs - xbar))
    dof = max(xs.size - 2, 1)
    stderr = math.sqrt(float((residuals**2).sum()) / dof / sxx)
    return slope, stderr


# ---------------------------------------------------------------------------
# bundle inequality

class BundleInequalityReport(NamedTuple):
    total_slope: float
    base_slope: float
    fiber_entropy: float
    exact_total: float
    exact_base: float

    @property
    def bound(self) -> float:
        return self.base_slope + self.fiber_entropy

    @property
    def slack(self) -> float:
        return 0.2 * self.bound

    @property
    def passes(self) -> bool:
        return self.total_slope <= self.bound + self.slack


def bundle_inequality_check(total: TorusEndo, base: TorusEndo, fiber: TorusEndo,
                            n_max: int = 6, epsilon: float = 0.05,
                            resolution: int | None = None) -> BundleInequalityReport:
    """Numerical check of entropy(total) <= entropy(base) + entropy(fiber)
    for a torus bundle: the total matrix must be block-triangular with the
    base block on top, zero upper-right block, and the fiber action below.
    """
    _check_dim(total)
    _check_dim(base)
    a, b = base.dim, fiber.dim
    if total.dim != a + b:
        raise DomainError("total dimension must be base dim + fiber dim")
    top, bottom = total.matrix[:a], total.matrix[a:]
    if any(row[a:] != (0,) * b for row in top):
        raise DomainError("total matrix is not block-triangular over the base")
    if tuple(row[:a] for row in top) != base.matrix:
        raise DomainError("top-left block differs from the base matrix")
    if tuple(row[a:] for row in bottom) != fiber.matrix:
        raise DomainError("bottom-right block differs from the fiber matrix")

    exact_total = exact_entropy(total).value
    if resolution is None:
        resolution = _auto_resolution(total, n_max, epsilon, exact_total)
    total_est = spanning_entropy_estimate(total, n_max, epsilon, resolution)
    base_res = min(resolution, _grid_cap_for_dim(base.dim))
    base_est = spanning_entropy_estimate(base, n_max, epsilon, base_res)
    return BundleInequalityReport(
        total_slope=total_est.slope,
        base_slope=base_est.slope,
        fiber_entropy=exact_entropy(fiber).value if fiber.dim else 0.0,
        exact_total=exact_total,
        exact_base=exact_entropy(base).value,
    )


def _grid_cap_for_dim(dim: int) -> int:
    return {1: 1 << 22, 2: 1 << 12, 3: 1 << 8}[dim]


def _auto_resolution(dynamics: TorusEndo, n_max: int, epsilon: float, h: float) -> int:
    """Power-of-two resolution keeping the deepest Bowen ball a few cells
    wide at exact entropy h, capped by memory; saturated counts flatten the
    fitted slope, so explicit resolutions are preferable for sharp checks."""
    _check_parameters(dynamics, n_max, epsilon)
    cap, r = _grid_cap_for_dim(dynamics.dim), 1
    # a target past the cap is found in the log domain, where no horizon overflows
    if (math.log(8.0) + h * (n_max - 1)) / dynamics.dim > math.log(2 * epsilon * cap):
        r = cap
    else:
        target = (8.0 * math.exp(h * (n_max - 1))) ** (1.0 / dynamics.dim) / (2 * epsilon)
        while r < target:
            r <<= 1
    floor = 1
    while floor <= 4 / epsilon:
        floor <<= 1
    return max(min(r, cap), floor)


# ---------------------------------------------------------------------------
# Li-Yorke pair search

class PairCandidate(NamedTuple):
    """Heuristic evidence only: empirical orbit-distance extremes of one
    sampled pair, never a proof of a Li-Yorke pair."""

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    liminf_estimate: float
    limsup_estimate: float


def li_yorke_search(dynamics: TorusEndo, horizon: int = 64, pair_budget: int = 64,
                    denominator: int = 4096, eps_low: float = 1e-4,
                    eps_high: float = 0.25, seed: int = 0) -> list[PairCandidate]:
    """Sample rational pairs and track their orbit distances exactly.

    A pair is a candidate when its minimal distance over the horizon drops
    below eps_low and its maximal distance exceeds eps_high.  The default
    eps_low is below 1/denominator, so "proximal" requires the orbits to
    actually collide on the sample grid; isometric and shear-like systems
    therefore return nothing, while collapsing dyadic differences (as under
    the doubling map) are found immediately.  All pairs and up to
    _ORBIT_BLOCK steps run at once, orbit[k] = A^k delta built by doubling,
    so memory is bounded for any horizon: int64 while dim*(q-1)^2 < 2^62,
    `object` beyond.
    """
    import numpy as np

    _check_dim(dynamics)
    if horizon <= 0 or pair_budget <= 0:
        raise ParameterError("horizon and pair budget must be positive")
    if denominator < 2:
        raise ParameterError("denominator must be at least 2")
    rng = random.Random(seed)
    q, dim = denominator, dynamics.dim
    draws = ((tuple(rng.randrange(q) for _ in range(dim)),
              tuple(rng.randrange(q) for _ in range(dim))) for _ in range(pair_budget))
    pairs = [(a, b) for a, b in draws if a != b]
    dtype = np.int64 if dim * (q - 1) ** 2 < 1 << 62 else object
    matrix = np.array([[x % q for x in row] for row in dynamics.matrix], dtype=dtype)
    delta = np.array([[(x - y) % q for x, y in zip(a, b)] for a, b in pairs],
                     dtype=dtype).reshape(len(pairs), dim)
    lo, hi = np.full(len(pairs), q, dtype=dtype), np.zeros(len(pairs), dtype=dtype)
    for start in range(0, horizon, _ORBIT_BLOCK):
        # orbit[k] = A^k delta: each round appends A^len(orbit) times the
        # whole orbit and squares the step matrix, step = (A^len(orbit))^T
        orbit, step, length = delta[None], matrix.T, min(horizon - start, _ORBIT_BLOCK)
        while len(orbit) < length:
            orbit = np.concatenate([orbit, (orbit[:length - len(orbit)] @ step) % q])
            step = (step @ step) % q
        dist = np.minimum(orbit, q - orbit).max(axis=2)
        lo, hi = np.minimum(lo, dist.min(axis=0)), np.maximum(hi, dist.max(axis=0))
        delta = (delta @ step) % q
    return [PairCandidate(tuple(Fraction(x, q) for x in a), tuple(Fraction(x, q) for x in b),
                          low / q, high / q)
            for (a, b), low, high in zip(pairs, lo.tolist(), hi.tolist())
            if low / q < eps_low and high / q > eps_high]
