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
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import optimize
from scipy.special import ndtr, ndtri

SQRT_2PI = np.sqrt(2.0 * np.pi)
JENSEN_BLOCK = 1 << 22  # elements per row block of Partition.jensen_values


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


def _minimax_boundaries(n_cells: int) -> np.ndarray:
    """Numerically choose symmetric cell boundaries minimizing e_W."""
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
    best = assemble(res.x)
    if objective(res.x) <= approximation_error(_cells_from_boundaries(start)):
        return best
    return start


def make_partition(segments: int, strategy: str = "equal-probability") -> Partition:
    """Partition the standard normal into `segments` cells.

    equal-probability: cells of mass 1/N at consecutive quantiles.
    minimax: boundaries chosen numerically to minimize e_W.
    """
    if segments < 2:
        raise ValueError(f"need at least 2 segments, got {segments}")
    if strategy == "equal-probability":
        boundaries = ndtri(np.arange(1, segments) / segments)
    elif strategy == "minimax":
        boundaries = _minimax_boundaries(segments)
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

    @property
    def segment_count(self) -> int:
        return len(self.slopes)

    @cached_property
    def segment_intercepts(self) -> np.ndarray:
        """Intercepts c_i with lower(x) = max_i(slopes[i] * x + c_i),
        computed once per piece and read-only."""
        out = segment_intercepts(np.asarray(self.slopes), np.asarray(self.breakpoints))
        out.flags.writeable = False
        return out

    def lower(self, x):
        """Jensen lower bound of complementary_loss(x, mean, std_dev)."""
        x = np.asarray(x, dtype=float)
        p = np.diff(np.asarray(self.slopes))
        bp = np.asarray(self.breakpoints)
        return (np.maximum(x[..., None] - bp, 0.0) @ p)[()]

    def upper(self, x):
        """Shifted approximation: lower(x) + error_bound (>= true loss)."""
        return self.lower(x) + self.error_bound

    def penalty_lower(self, x):
        """Jensen lower bound of loss(x, mean, std_dev): lower(x) - (x - mean)."""
        return self.lower(x) - (np.asarray(x, dtype=float) - self.mean)[()]

    def penalty_upper(self, x):
        return self.penalty_lower(x) + self.error_bound


def segment_intercepts(slopes: np.ndarray, breakpoints: np.ndarray) -> np.ndarray:
    """PiecewiseLoss.segment_intercepts of the pieces along the leading
    axes, their slopes and breakpoints along the last."""
    steps = -np.cumsum(np.diff(slopes) * breakpoints, axis=-1)
    return np.concatenate((np.zeros(steps.shape[:-1] + (1,)), steps), axis=-1)


def piecewise_loss(partition: Partition, mean: float, std_dev: float,
                   error: float | None = None) -> PiecewiseLoss:
    """Segment data for w ~ Normal(mean, std_dev) from a standard partition.

    Slopes are cumulative cell probabilities (0 up to 1), breakpoints are
    mean + std_dev * E[Z | cell]. The anchor value is measured from the
    induced function directly rather than trusting a closed form, and the
    error bound scales the standard-normal e_W by std_dev.

    std_dev = 0 degenerates to the exact deterministic kink at `mean`: every
    breakpoint sits at `mean`, so the segment count, and with it the shape
    of the model rows, stays that of the partition.
    """
    return piecewise_losses(partition, (mean,), (std_dev,), error)[0]


def piecewise_losses(partition: Partition, means, std_devs,
                     error: float | None = None) -> list:
    """piecewise_loss of each (mean, std_dev) pair, all breakpoints in one
    broadcast. The pieces share one slopes tuple and keep the given mean
    and std_dev objects as fields."""
    sds = np.asarray(std_devs, dtype=float)
    if np.any(sds < 0):
        raise ValueError(f"negative std_dev {sds.min()}")
    p = np.asarray(partition.probabilities)
    slopes = tuple(np.concatenate(([0.0], np.cumsum(p))))
    # guard against cumulative rounding: the final slope must be exactly 1
    slopes = slopes[:-1] + (1.0,)
    steps = np.diff(np.asarray(slopes))
    breakpoints = (np.asarray(means, dtype=float)[:, None]
                   + sds[:, None] * np.asarray(partition.conditional_means))
    below = np.maximum(-breakpoints, 0.0)
    e_std = approximation_error(partition) if error is None else error
    out = []
    for mean, std_dev, row, neg in zip(means, std_devs, breakpoints, below):
        scaled = std_dev * e_std
        # one dot per piece: a matrix-vector product may sum in another order
        anchor = float(neg @ steps) + scaled
        out.append(PiecewiseLoss(slopes=slopes, breakpoints=tuple(row),
                                 anchor_value=anchor, error_bound=scaled,
                                 mean=mean, std_dev=std_dev))
    return out
