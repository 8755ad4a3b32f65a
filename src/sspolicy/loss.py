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
quantiles. Minimax cells minimize e_W (Rossi, Tarim, Prestwich & Hnich 2014)
and are built, not searched for. The Jensen bound is exact at every cell
boundary, so each cell's largest gap sits at its own conditional mean and
depends on its endpoints alone; it grows with the cell's width, so at the
minimax every cell has the same error. minimax_boundaries walks the left
half's boundaries from -inf, each placed by one Newton root so that its cell
has a trial error e, bisects e until the middle cell has error e too, and
mirrors the half. It takes about a millisecond at 10 cells and works at any
cell count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import ndtr, ndtri

from .domain import is_integer

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


# Scalar Phi and phi for the minimax construction, which evaluates them one
# point at a time: on a float the math module skips numpy's ufunc overhead.
def _cdf(z: float) -> float:
    return 0.5 * math.erfc(-z * math.sqrt(0.5))


def _pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _cell_error(a: float, cdf_a: float, pdf_a: float, b: float) -> tuple:
    """(e, de/db) of the cell [a, b], given Phi(a) and phi(a).

    e is the Jensen gap at the cell's conditional mean m, its largest:
    e = m (Phi(m) - Phi(a)) - phi(a) + phi(m). It rises in b, with
    de/db = (Phi(m) - Phi(a)) phi(b) (b - m) / p for the cell's mass p.
    """
    cdf_b, pdf_b = _cdf(b), _pdf(b)
    p = cdf_b - cdf_a
    m = (pdf_a - pdf_b) / p
    rise = _cdf(m) - cdf_a
    return m * rise - pdf_a + _pdf(m), rise * pdf_b * (b - m) / p


def _place(a: float, target: float, guess: float):
    """The boundary b in (a, 0] at which the cell [a, b] has error
    `target`, or None where even [a, 0] falls short.

    Newton's method from `guess`, kept inside a bracket that every step
    shrinks: a step that would leave it bisects it instead, and the root
    is taken once the bracket holds no float between its ends. The first
    cell's bracket opens at -30, where its error (~1e-200) is below any
    target.
    """
    cdf_a, pdf_a = _cdf(a), _pdf(a)
    lo, hi = max(a, -30.0), 0.0
    if _cell_error(a, cdf_a, pdf_a, hi)[0] < target:
        return None
    b = guess if lo < guess < hi else 0.5 * (lo + hi)
    while True:
        error, slope = _cell_error(a, cdf_a, pdf_a, b)
        if error == target:
            return b
        if error < target:
            lo = b
        else:
            hi = b
        step = b - (error - target) / slope
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
            if step in (lo, hi):
                return b
        if step == b:
            return b
        b = step


def _middle_excess(e: float, left: list, even: bool) -> float:
    """Place the left half's boundaries, in `left`, so that each cell from
    -inf has error e; return the middle cell's error less e, or -1.0
    where e is so large that the walk reaches 0. The middle cell is
    [a, 0] for an even cell count and [a, -a], error phi(0) - phi(a), for
    an odd one, a being the last boundary placed. `left` holds the
    previous walk's boundaries on entry, which start each root."""
    a = -math.inf
    for k, guess in enumerate(left):
        a = _place(a, e, guess)
        if a is None:
            return -1.0
        left[k] = a
    middle = (_cell_error(a, _cdf(a), _pdf(a), 0.0)[0] if even
              else _pdf(0.0) - _pdf(a))
    return middle - e


def minimax_boundaries(n_cells: int) -> np.ndarray:
    """Interior boundaries of the partition of the standard normal into
    `n_cells` cells of equal error, the minimax partition.

    The middle cell's error falls as the common error e of the cells to
    its left rises, so e is bisected, from (0, phi(0)), until no float
    lies between the ends; the boundaries are the walk's at the lower end.
    The right half is the left one negated, so the partition is exactly
    symmetric.
    """
    left = ndtri(np.arange(1, (n_cells + 1) // 2) / n_cells).tolist()
    even = n_cells % 2 == 0
    lo, hi = 0.0, _pdf(0.0)  # no cell's error reaches phi(0)
    while (e := 0.5 * (lo + hi)) not in (lo, hi):
        if _middle_excess(e, left, even) > 0.0:
            lo = e
        else:
            hi = e
    _middle_excess(lo, left, even)
    middle = [0.0] if even else []
    return np.array([*left, *middle, *(-b for b in reversed(left))])


def make_partition(segments: int, strategy: str = "equal-probability") -> Partition:
    """Partition the standard normal into `segments` cells.

    equal-probability: cells of mass 1/N at consecutive quantiles.
    minimax: boundaries minimizing e_W, cells of equal error
    (minimax_boundaries).
    """
    if not is_integer(segments) or segments < 2:
        raise ValueError(f"need an integer of at least 2 segments, got {segments!r}")
    if strategy == "equal-probability":
        boundaries = ndtri(np.arange(1, segments) / segments)
    elif strategy == "minimax":
        boundaries = minimax_boundaries(segments)
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
