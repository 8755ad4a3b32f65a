"""First-order loss functions for normal demand and their piecewise-linear
segment data.

For a random variable w and scalar x:

    loss(x)               = E[max(w - x, 0)]   (expected shortfall)
    complementary_loss(x) = E[max(x - w, 0)]   (expected overage)

Both admit closed forms for normal w. The piecewise machinery partitions the
standard-normal support into N cells; conditioning on the cells yields a
convex piecewise-linear lower bound of the complementary loss (Jensen), and
shifting it up by the maximal gap e_W yields an upper bound. The MILP models
consume these as segment slopes, breakpoints and an anchor value.

Two partitions are offered. Equal-probability cells sit at consecutive
quantiles. Minimax cells minimize e_W (Rossi, Tarim, Prestwich & Hnich 2014);
their boundaries for 2..40 cells ship as float hex in
data/minimax_boundaries.json, read once on first use. That file is what
search_minimax_boundaries returns under the numpy and scipy releases it
records; tools/minimax_table.py rewrites it (--write) or checks it against
the search (--check). Any other cell count is searched when asked for,
which is the only use of scipy.optimize, imported there; a search that
stops without converging raises MinimaxSearchError rather than hand on a
partition that is not minimax.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import ndtr, ndtri

from .data import bundled
from .domain import is_integer

SQRT_2PI = np.sqrt(2.0 * np.pi)
JENSEN_BLOCK = 1 << 22  # elements per row block of Partition.jensen_values
MINIMAX_TABLE = "minimax_boundaries.json"  # bundled data file


class MinimaxSearchError(RuntimeError):
    """Nelder-Mead stopped without converging on a minimax partition."""


def _phi(z):
    """Standard normal density."""
    return np.exp(-0.5 * np.square(z)) / SQRT_2PI


def std_normal_loss(z):
    """Standard-normal first-order loss: phi(z) - z * (1 - Phi(z))."""
    z = np.asarray(z, dtype=float)
    return _phi(z) - z * ndtr(-z)


def std_normal_complementary_loss(z):
    """Standard-normal complementary loss: z * Phi(z) + phi(z)."""
    z = np.asarray(z, dtype=float)
    return z * ndtr(z) + _phi(z)


def loss(x, mean, std_dev):
    """Expected shortfall E[max(w - x, 0)] for w ~ Normal(mean, std_dev).

    std_dev = 0 degenerates to max(mean - x, 0).
    """
    if std_dev < 0:
        raise ValueError(f"negative std_dev {std_dev}")
    if std_dev == 0.0:
        return np.maximum(np.asarray(mean, dtype=float) - x, 0.0)[()]
    z = (np.asarray(x, dtype=float) - mean) / std_dev
    return (std_dev * std_normal_loss(z))[()]


def complementary_loss(x, mean, std_dev):
    """Expected overage E[max(x - w, 0)]; equals x - mean + loss(x)."""
    if std_dev < 0:
        raise ValueError(f"negative std_dev {std_dev}")
    if std_dev == 0.0:
        return np.maximum(np.asarray(x, dtype=float) - mean, 0.0)[()]
    z = (np.asarray(x, dtype=float) - mean) / std_dev
    return (std_dev * std_normal_complementary_loss(z))[()]


@dataclass(frozen=True)
class Partition:
    """A partition of the standard-normal support into N consecutive cells.

    probabilities[i] is the cell mass, conditional_means[i] the truncated
    normal mean of cell i. Cells are ordered left to right.
    """

    probabilities: tuple[float, ...]
    conditional_means: tuple[float, ...]

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        m = np.asarray(self.conditional_means, dtype=float)
        if p.size != m.size or p.size < 2:
            raise ValueError("need >= 2 cells with matching conditional means")
        if np.any(p <= 0):
            raise ValueError("cell probabilities must be positive")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"cell probabilities sum to {p.sum()!r}, not 1")
        if np.any(np.diff(m) <= 0):
            raise ValueError("conditional means must be strictly increasing")
        if abs(float(np.dot(p, m))) > 1e-9:
            raise ValueError("conditional means violate the zero-mean identity")

    @property
    def size(self) -> int:
        return len(self.probabilities)

    @cached_property
    def slopes(self) -> np.ndarray:
        """Segment slopes, read-only: 0, then the cumulative cell
        probabilities, the last exactly 1."""
        out = np.concatenate(([0.0], np.cumsum(self.probabilities)))
        # guard against cumulative rounding: the final slope must be exactly 1
        out[-1] = 1.0
        out.flags.writeable = False
        return out

    def jensen_values(self, x):
        """Jensen lower bound of the standard complementary loss at x.

        Each value is one row of max(x - m, 0) @ p; the rows are formed in
        blocks of at most JENSEN_BLOCK elements, so memory stays bounded
        however many cells the partition has.
        """
        p = np.asarray(self.probabilities)
        m = np.asarray(self.conditional_means)
        x = np.asarray(x, dtype=float)
        rows = max(1, JENSEN_BLOCK // m.size)
        flat = x.ravel()
        out = np.empty(flat.size)
        for start in range(0, flat.size, rows):
            block = flat[start:start + rows]
            out[start:start + rows] = np.maximum(block[:, None] - m, 0.0) @ p
        return out.reshape(x.shape)


def _cells_from_boundaries(boundaries: np.ndarray) -> Partition:
    """Build a Partition from strictly increasing interior boundaries."""
    cdf = np.concatenate(([0.0], ndtr(boundaries), [1.0]))
    p = np.diff(cdf)
    pdf = np.concatenate(([0.0], _phi(boundaries), [0.0]))
    means = (pdf[:-1] - pdf[1:]) / p
    # Remove the tiny aggregate drift so the law-of-total-expectation
    # identity holds to near machine precision.
    means = means - float(np.dot(p, means))
    return Partition(tuple(p), tuple(means))


def approximation_error(partition: Partition) -> float:
    """Maximal gap e_W between the true standard complementary loss and the
    partition's Jensen lower bound.

    The gap is convex between breakpoints, so its maximum is attained at a
    breakpoint; a dense grid is scanned as well for cheap insurance.
    """
    m = np.asarray(partition.conditional_means)
    grid = np.concatenate((m, np.linspace(-8.5, 8.5, 3001)))
    gap = std_normal_complementary_loss(grid) - partition.jensen_values(grid)
    return float(max(gap.max(), 0.0))


def search_minimax_boundaries(n_cells: int) -> np.ndarray:
    """Numerically choose symmetric cell boundaries minimizing e_W;
    MinimaxSearchError, naming the cell count and the optimizer's message,
    where the search does not converge."""
    from scipy import optimize

    n_bound = n_cells - 1
    start = ndtri(np.arange(1, n_cells) / n_cells)
    half = n_bound // 2
    if half == 0:
        return start  # N = 2: the symmetric boundary {0} is already optimal

    def assemble(free: np.ndarray) -> np.ndarray:
        left = -np.sort(np.abs(free))[::-1]
        if n_bound % 2:
            return np.concatenate((left, [0.0], -left[::-1]))
        return np.concatenate((left, -left[::-1]))

    def objective(free: np.ndarray) -> float:
        b = assemble(free)
        if np.any(np.diff(b) <= 1e-10):
            return 1e6
        return approximation_error(_cells_from_boundaries(b))

    free0 = np.abs(start[:half])
    res = optimize.minimize(objective, free0, method="Nelder-Mead",
                            options={"xatol": 1e-7, "fatol": 1e-12, "maxiter": 4000})
    if not res.success:
        raise MinimaxSearchError(
            f"minimax search for {n_cells} cells did not converge: {res.message}")
    best = assemble(res.x)
    if objective(res.x) <= approximation_error(_cells_from_boundaries(start)):
        return best
    return start


@lru_cache(maxsize=1)
def _minimax_table() -> dict:
    """Tabulated minimax boundaries as {cell count: tuple of floats}."""
    with bundled(MINIMAX_TABLE).open(encoding="utf-8") as f:
        record = json.load(f)
    return {int(n): tuple(map(float.fromhex, values))
            for n, values in record["boundaries"].items()}


def make_partition(segments: int, strategy: str = "equal-probability") -> Partition:
    """Partition the standard normal into `segments` cells.

    equal-probability: cells of mass 1/N at consecutive quantiles.
    minimax: boundaries minimizing e_W, from the bundled table, or from
    search_minimax_boundaries for a cell count the table lacks.
    """
    if not is_integer(segments) or segments < 2:
        raise ValueError(f"need an integer of at least 2 segments, got {segments!r}")
    if strategy == "equal-probability":
        boundaries = ndtri(np.arange(1, segments) / segments)
    elif strategy == "minimax":
        tabulated = _minimax_table().get(segments)
        boundaries = (search_minimax_boundaries(segments) if tabulated is None
                      else np.array(tabulated))
    else:
        raise ValueError(f"unknown partition strategy {strategy!r}")
    return _cells_from_boundaries(boundaries)


@lru_cache(maxsize=32)
def cached_partition(segments: int, strategy: str = "equal-probability") -> tuple[Partition, float]:
    """(partition, e_W) memoized per (N, strategy); both are immutable."""
    part = make_partition(segments, strategy)
    return part, approximation_error(part)


@dataclass(frozen=True)
class PiecewiseLoss:
    """Segment data approximating the complementary loss of one normal.

    slopes has one more entry than breakpoints; slopes[0] = 0 and the final
    slope is 1 (cumulative cell probabilities). lower() is the Jensen lower
    bound; adding error_bound gives the upper bound used by the MILP rows.
    anchor_value is the upper bound evaluated at x = 0.
    """

    slopes: tuple[float, ...]
    breakpoints: tuple[float, ...]
    anchor_value: float
    error_bound: float
    mean: float
    std_dev: float

    @cached_property
    def hinges(self) -> tuple:
        """(breakpoints, np.diff(slopes)) as arrays, built once per piece
        and read-only: lower(x) = max(x - breakpoints, 0) @ steps."""
        out = (np.array(self.breakpoints, dtype=float),
               np.diff(np.asarray(self.slopes, dtype=float)))
        for a in out:
            a.flags.writeable = False
        return out

    def lower(self, x):
        """Jensen lower bound of complementary_loss(x, mean, std_dev)."""
        x = np.asarray(x, dtype=float)
        breakpoints, steps = self.hinges
        return (np.maximum(x[..., None] - breakpoints, 0.0) @ steps)[()]

    def upper(self, x):
        """Shifted approximation: lower(x) + error_bound (>= true loss)."""
        return self.lower(x) + self.error_bound

    def penalty_lower(self, x):
        """Jensen lower bound of loss(x, mean, std_dev): lower(x) - (x - mean)."""
        return self.lower(x) - (np.asarray(x, dtype=float) - self.mean)[()]

    def penalty_upper(self, x):
        return self.penalty_lower(x) + self.error_bound


def piecewise_loss(partition: Partition, mean: float, std_dev: float) -> PiecewiseLoss:
    """Segment data for w ~ Normal(mean, std_dev) from a standard partition.

    Slopes are cumulative cell probabilities (0 up to 1), breakpoints are
    mean + std_dev * E[Z | cell]. The anchor value is measured from the
    induced function directly rather than trusting a closed form, and the
    error bound scales the standard-normal e_W by std_dev.

    std_dev = 0 degenerates to the exact deterministic kink at `mean`: every
    breakpoint sits at `mean`, so the segment count, and with it the shape
    of the model rows, stays that of the partition.
    """
    if std_dev < 0:
        raise ValueError(f"negative std_dev {float(std_dev)}")
    slopes = partition.slopes
    breakpoints = mean + std_dev * np.asarray(partition.conditional_means)
    scaled = std_dev * approximation_error(partition)
    anchor = float(np.maximum(-breakpoints, 0.0) @ np.diff(slopes)) + scaled
    return PiecewiseLoss(slopes=tuple(slopes.tolist()),
                         breakpoints=tuple(breakpoints.tolist()),
                         anchor_value=anchor, error_bound=scaled,
                         mean=mean, std_dev=std_dev)
