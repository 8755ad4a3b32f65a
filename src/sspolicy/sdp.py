"""Exact benchmark solver: backward induction on an inventory grid.

Computes, for every period t and grid level y, the cost-to-go after ordering

    G_t(y) = c*y + E[h*(y - d)^+ + b*(d - y)^+] + E[C_{t+1}(y - d)]

and the optimal value C_t(x) = min(G_t(x), K + min_{y >= x} G_t(y)) - c*x,
then extracts the per-period (s_t, S_t) policy. Demand is discretized to
grid-step cells with normal CDF mass, truncated at a far quantile and at
zero, then renormalized. Per period, prefix sums over these atoms give the
stage cost, and one convolution of C_{t+1}, extended below the grid by its
linear tail, gives the continuation.

A solution keeps the answer only: the instance, grid, policy, expected
cost, demand truncation and atom counts. The pass runs in one period's
memory; the G tables are derived on first read by running it again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtr, ndtri

from .domain import (Instance, PolicyParameters, ValidationError, is_integer,
                     validate)


class GridTooSmallError(RuntimeError):
    """The optimal action hit the grid boundary; widen the grid."""


def _check_step(step: float) -> None:
    if not (math.isfinite(step) and step > 0):
        raise ValidationError(
            f"grid step must be positive and finite, got {step}")


@dataclass(frozen=True)
class InventoryGrid:
    lower: float
    upper: float
    step: float = 1.0

    def __post_init__(self):
        _check_step(self.step)
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValidationError(
                f"grid bounds must be finite, got {self.lower}, {self.upper}")
        if not self.lower < self.upper:
            raise ValidationError("grid lower bound must be below upper bound")
        n = (self.upper - self.lower) / self.step
        if abs(n - round(n)) > 1e-9:
            raise ValidationError("grid span must be an integer number of steps")

    @property
    def size(self) -> int:
        return int(round((self.upper - self.lower) / self.step)) + 1

    def levels(self) -> np.ndarray:
        return self.lower + self.step * np.arange(self.size)

    def index_of(self, y: float) -> int:
        i = (y - self.lower) / self.step
        if math.isfinite(i):
            j = int(round(i))
            if abs(i - j) <= 1e-6 and 0 <= j < self.size:
                return j
        raise ValueError(f"level {y} is not on the grid")


def default_grid(instance: Instance, step: float = 1.0) -> InventoryGrid:
    """Grid covering every state reachable under a sensible policy.

    The lower bound allows full demand depletion plus the never-order band
    (roughly K/(b - c) deep, b the penalty and c the unit cost); the upper
    bound covers any plausible order-up-to level. Boundary hits are still
    checked after the solve.
    """
    _check_step(step)
    total_mean, total_var = instance.demand_totals
    total_sd = math.sqrt(total_var)
    i0 = instance.initial_inventory
    c = instance.costs
    slack = c.never_order_depth + 10.0 * step
    lower = min(0.0, i0) - total_mean - 4.0 * total_sd - slack
    upper = max(i0, total_mean + 4.0 * total_sd) + 10.0 * step
    lower = math.floor(lower / step) * step
    upper = math.ceil(upper / step) * step
    return InventoryGrid(lower, upper, step)


def discretize_demand(mean: float, std_dev: float, step: float,
                      truncation: float) -> tuple[np.ndarray, np.ndarray]:
    """Demand atoms on multiples of `step` with CDF cell mass.

    Cells beyond the truncation quantile on either side are dropped, as is
    everything below zero; the remaining mass is renormalized.
    """
    if not (math.isfinite(std_dev) and std_dev >= 0.0):
        raise ValidationError(
            f"demand std dev must be finite and non-negative, got {std_dev}")
    if std_dev == 0.0:
        return np.array([round(mean / step) * step]), np.array([1.0])
    z = ndtri(truncation)
    lo = max(0.0, math.floor((mean - z * std_dev) / step) * step)
    hi = math.ceil((mean + z * std_dev) / step) * step
    values = np.arange(lo, hi + step / 2, step)
    edges_lo = (values - step / 2 - mean) / std_dev
    edges_hi = (values + step / 2 - mean) / std_dev
    mass = ndtr(edges_hi) - ndtr(edges_lo)
    keep = mass > 0
    values, mass = values[keep], mass[keep]
    return values, mass / mass.sum()


@dataclass(frozen=True)
class SdpSolution:
    instance: Instance
    grid: InventoryGrid
    policy: PolicyParameters
    expected_cost: float      # C_1 at the instance's initial inventory
    demand_truncation: float
    demand_atoms: tuple[int, ...]  # discretized demand atoms per period

    @cached_property
    def g_tables(self) -> np.ndarray:
        """G_t over the grid, shape (T, n), derived on first read by
        solve_sdp's pass, so it is bit-equal to the rows that pass used."""
        demand = _demand(self.instance, self.grid.step,
                         self.demand_truncation)
        rows = [g for _, g, _ in _backward_pass(self.instance, self.grid,
                                                demand)]
        return np.array(rows[::-1])

    @property
    def c_tables(self) -> np.ndarray:
        """C_t over the grid, shape (T, n), derived from G_t on each read
        by the operations of solve_sdp's pass, so it is bit-equal to the
        table that pass used."""
        return _optimal_value(self.g_tables, self.instance.costs,
                              self.grid.levels())

    def g_minimum(self, t: int) -> float:
        _check_period(t, self.instance.horizon)
        return float(self.g_tables[t - 1].min())

    def reorder_cost(self, t: int) -> float:
        """The indifference cost K + G_t(S_t) defining the reorder point."""
        return self.instance.costs.fixed + self.g_minimum(t)


def _check_period(t, horizon: int) -> None:
    if not (is_integer(t) and 1 <= t <= horizon):
        raise ValueError(
            f"period must be an int in the horizon 1..{horizon}, got {t!r}")


def cost_to_go(solution: SdpSolution, t: int, y: float) -> float:
    """G_t(y) looked up from the solved tables; y must lie on the grid."""
    _check_period(t, solution.instance.horizon)
    return float(solution.g_tables[t - 1][solution.grid.index_of(y)])


def solve_sdp(instance: Instance, grid: InventoryGrid | None = None,
              demand_truncation: float = 0.9999) -> SdpSolution:
    """Backward-induction solve; returns the policy and C_1(I_0)."""
    validate(instance)
    if not 0.99 < demand_truncation < 1.0:
        raise ValidationError("demand_truncation must lie in (0.99, 1)")
    if grid is None:
        grid = default_grid(instance)
    levels = grid.levels()
    demand = _demand(instance, grid.step, demand_truncation)
    rows = [None] * instance.horizon
    error = None
    # rows arrive from T down to 1; the lowest offending period is named
    for t, g, c_now in _backward_pass(instance, grid, demand):
        try:
            rows[t - 1] = _policy_row(t, g, instance.costs.fixed, levels)
        except GridTooSmallError as exc:
            error = exc
    if error is not None:
        raise error
    ss, SS, costs = zip(*rows)
    i0_idx = grid.index_of(_snap(instance.initial_inventory, grid))
    return SdpSolution(
        instance=instance, grid=grid,
        policy=PolicyParameters(reorder_points=ss, order_up_to_levels=SS,
                                costs=costs),
        expected_cost=float(c_now[i0_idx]),
        demand_truncation=demand_truncation,
        demand_atoms=tuple(dv.size for dv, _ in demand))


def _demand(instance: Instance, step: float, truncation: float) -> list:
    """Each period's (atoms, mass) from discretize_demand."""
    return [discretize_demand(d.mean, d.std_dev, step, truncation)
            for d in instance.demands]


def _backward_pass(instance: Instance, grid: InventoryGrid, demand: list):
    """Yields (t, G_t, C_t), G and C over the grid, for t = T down to 1,
    holding one period's rows at a time."""
    costs = instance.costs
    c, h, b = costs.unit, costs.holding, costs.penalty
    levels = grid.levels()
    n = levels.size
    T = instance.horizon
    step = grid.step

    c_next = None             # C_{t+1} over the grid
    for t in range(T, 0, -1):
        dv, dp = demand[t - 1]
        # stage cost via E[(y - d)^+] = y*F[k] - M[k] over the k atoms <= y
        k = np.searchsorted(dv, levels, "right")
        F = np.concatenate(([0.0], np.cumsum(dp)))
        M = np.concatenate(([0.0], np.cumsum(dp * dv)))
        stage = (h + b) * (levels * F[k] - M[k]) + b * (M[-1] - levels)
        g = c * levels + stage
        if t < T:
            # + E[C_{t+1}(y - d)]; below-grid states are in the ordering
            # region, where C_{t+1} extends linearly with slope -c
            shifts = np.rint(dv / step).astype(int)
            kernel = np.bincount(shifts - shifts[0], weights=dp)
            tail = c_next[0] + c * step * np.arange(shifts[-1], 0, -1)
            ext = np.concatenate((tail, c_next))[:n + kernel.size - 1]
            g = g + np.convolve(ext, kernel, "valid")
        c_next = _optimal_value(g, costs, levels)
        yield t, g, c_next


def _optimal_value(g: np.ndarray, costs, levels: np.ndarray) -> np.ndarray:
    """C = min(G, K + min_{y >= x} G(y)) - c*x along the last axis of G,
    one period's row or a stack of them."""
    # suffix minimum from the right: best order-up-to cost from each x
    best_up = np.minimum.accumulate(g[..., ::-1], axis=-1)[..., ::-1]
    return np.minimum(g, costs.fixed + best_up) - costs.unit * levels


def _snap(y: float, grid: InventoryGrid) -> float:
    j = round((y - grid.lower) / grid.step)
    return grid.lower + j * grid.step


_TIE_RTOL = 1e-9


def _policy_row(t: int, g: np.ndarray, K: float,
                levels: np.ndarray) -> tuple:
    """(s_t, S_t, K + G_t(S_t)) from period t's row of G."""
    n = levels.size
    # Flat stretches of G (zero-demand periods, say) tie up to rounding,
    # so compare within a relative tolerance far above the rounding of
    # any one pass: ties resolve to the smaller level for S_t and
    # against ordering for s_t, whichever pass built the table.
    g_min = float(g.min())
    tol = _TIE_RTOL * max(1.0, abs(g_min))
    s_idx = int(np.argmax(g <= g_min + tol))
    if s_idx in (0, n - 1):
        raise GridTooSmallError(
            f"order-up-to level for period {t} sits on the grid boundary "
            f"({levels[s_idx]}); widen the grid")
    big_s = levels[s_idx]
    threshold = K + g[s_idx]
    if K == 0.0:
        # ordering is free: order whenever below the base stock
        small_s = big_s
    else:
        above = np.nonzero(g[:s_idx] > threshold + tol)[0]
        if above.size == 0:
            raise GridTooSmallError(
                f"reorder point for period {t} lies below the grid lower "
                f"bound {levels[0]}; widen the grid")
        small_s = levels[above[-1]]
    return small_s, big_s, threshold


def _extract_policy_arrays(instance: Instance, grid: InventoryGrid,
                           g_tables: np.ndarray) -> PolicyParameters:
    levels = grid.levels()
    ss, SS, costs = zip(*(
        _policy_row(t, g_tables[t - 1], instance.costs.fixed, levels)
        for t in range(1, instance.horizon + 1)))
    return PolicyParameters(reorder_points=ss, order_up_to_levels=SS,
                            costs=costs)


def extract_policy(solution: SdpSolution) -> PolicyParameters:
    """Re-derive (s_t, S_t) from the G tables.

    S_t minimizes G_t on the grid; s_t is the largest grid level below S_t
    at which ordering is still strictly better, i.e. G_t(y) > K + G_t(S_t).
    Both comparisons treat values within a relative 1e-9 as ties.
    """
    return _extract_policy_arrays(solution.instance, solution.grid,
                                  solution.g_tables)


def check_k_convexity(g_values: np.ndarray, step: float, K: float,
                      tol: float = 1e-7):
    """Discrete K-convexity: K + G(y + D) >= G(y) + D * (G(y) - G(y-d))/d.

    Checked with d = one step exhaustively over all (y, D) pairs. Returns
    (True, None) or (False, (y-d_level_index, y_index, y+D_index, slack)).
    """
    g = np.asarray(g_values, dtype=float)
    n = g.size
    slopes = (g[1:] - g[:-1]) / step  # slope into y, for y = index 1..n-1
    for i in range(1, n - 1):
        j = np.arange(i + 1, n)
        lhs = K + g[j]
        rhs = g[i] + (j - i) * step * slopes[i - 1]
        bad = lhs < rhs - tol
        if np.any(bad):
            k = int(j[np.argmax(bad)])
            return False, (i - 1, i, k, float((rhs - lhs)[np.argmax(bad)]))
    return True, None


def write_g_curve(solution: SdpSolution, path) -> None:
    """CSV dump of (t, y, G_t(y)) for plotting the cost-to-go curves."""
    levels = solution.grid.levels()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,y,G\n")
        for t in range(1, solution.instance.horizon + 1):
            for y, gval in zip(levels, solution.g_tables[t - 1]):
                fh.write(f"{t},{y:.10g},{gval:.10g}\n")
