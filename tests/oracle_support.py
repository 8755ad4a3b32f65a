"""Reference optima of the linearized lot-sizing models.

brute_force_submodel is independent of the package's pattern/pooling
solver: it enumerates every order pattern and runs a dense-grid dynamic
program over the chained cycle levels. The grid is a 0.25 lattice augmented
with every piecewise breakpoint and any pinned first level, each shifted by
every partial demand sum, so piecewise-linear optima are captured exactly.

full_enumeration is the solver's pattern search without its bound: every
pattern, in lexicographic order, through the engine's own solve_pattern.
EnumerationEngine is the solver engine without its envelope: pinned costs
come from the pattern search alone and reorder roots from bisection.

dense_sdp_tables is the SDP oracle's backward pass done the direct way: a
dense levels x atoms stage-cost matrix and one shifted lookup of the next
period's cost per demand atom.

row_major_simulation is the Monte Carlo pricing loop done the direct way:
replication-major demand blocks read column by column, with fresh arrays
for every step of every period.

one_shot_jensen_values is a partition's Jensen bound as one dense product
over all points and cells, without Partition.jensen_values' row blocks.

reference_segments is build_segments done piece by piece: each (j, t)
pair's convolved mean and variance summed in a Python loop and its own
scalar piecewise-loss formula. reference_cycle and reference_priced are
CycleTable.cycle and CycleTable.priced done the direct way: the cycle's
pieces added one at a time with ConvexPWL.plus, then ConvexPWL.argmin's
own sort.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import ndtri

from sspolicy.domain import validate
from sspolicy.loss import PiecewiseLoss, cached_partition
from sspolicy.sdp import discretize_demand
from sspolicy.simulate import SimulationResult
from sspolicy.solver import ConvexPWL, _largest_root, _SubmodelEngine


def _cycle_cost_fn(instance, segments, j, e):
    """Cost of cycle j..e (1-based local periods) as a function of the
    level right after the cycle starts, via direct piecewise evaluation."""
    costs = instance.costs
    h, b = costs.holding, costs.penalty
    pieces = [segments[(j, t)] for t in range(j, e + 1)]

    def fn(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        total = np.zeros_like(y)
        for pw in pieces:
            h_val = pw.upper(y)
            b_val = h_val - (y - pw.mean)
            total += h * h_val + b * b_val
        return total

    return fn


def brute_force_submodel(instance, segments, first_order: bool,
                         fixed_i0: float | None = None,
                         grid_step: float = 0.25):
    """(best_cost, best_deltas) over all order patterns.

    first_order fixes delta_1; fixed_i0 pins the first cycle's level when
    period 1 has no order.
    """
    T = instance.horizon
    costs = instance.costs
    K, c = costs.fixed, costs.unit
    means = instance.means

    total_mean = sum(means)
    total_sd = float(np.sqrt(sum(s * s for s in instance.std_devs)))
    anchor = fixed_i0 if fixed_i0 is not None else 0.0
    lo = min(0.0, anchor) - total_mean - 6 * total_sd - K / costs.penalty - 10
    hi = max(anchor, total_mean + 6 * total_sd) + K / costs.holding + 10
    pieces = [np.arange(lo, hi + grid_step, grid_step)]
    kinks = []
    for pw in segments.values():
        kinks.extend(pw.breakpoints)
    partial_sums = {0.0}
    for a in range(T):
        acc = 0.0
        for t in range(a, T):
            acc += means[t]
            partial_sums.add(acc)
            partial_sums.add(-acc)
    shifts = np.array(sorted(partial_sums))
    pieces.append((np.asarray(kinks)[:, None] + shifts[None, :]).ravel())
    if fixed_i0 is not None:
        # a later level can sit where its order is zero: the pin less the
        # demand in between
        pieces.append(fixed_i0 + shifts)
    grid = np.unique(np.concatenate(pieces))
    grid = grid[(grid >= lo) & (grid <= hi)]

    best = None
    first = 1 if first_order else 0
    for combo in itertools.product((0, 1), repeat=T - 1):
        deltas = (first,) + combo
        starts = [1] + [t for t in range(2, T + 1) if deltas[t - 1]]
        cycles = []
        for idx, j in enumerate(starts):
            e = (starts[idx + 1] - 1) if idx + 1 < len(starts) else T
            cycles.append((j, e, bool(deltas[j - 1])))
        m = len(cycles)
        cum = np.zeros(len(grid))
        prev_demand = 0.0
        for i, (j, e, orders) in enumerate(cycles):
            stage = _cycle_cost_fn(instance, segments, j, e)(grid)
            if c and i == 0:
                stage = stage - c * grid
            if c and i == m - 1:
                stage = stage + c * grid
            if i == 0:
                cum = stage.copy()
                if not orders and fixed_i0 is not None:
                    cum[np.abs(grid - fixed_i0) > 1e-9] = np.inf
            else:
                # y_i >= y_{i-1} - prev_demand: prefix minimum after shifting
                allowed_prev = grid + prev_demand
                idx_hi = np.searchsorted(grid, allowed_prev + 1e-9, side="right") - 1
                prefix = np.minimum.accumulate(cum)
                reach = np.where(idx_hi >= 0, prefix[np.maximum(idx_hi, 0)], np.inf)
                cum = reach + stage
            prev_demand = sum(means[j - 1:e])
        pattern_best = float(np.min(cum))
        if not np.isfinite(pattern_best):
            continue
        total = pattern_best + K * sum(1 for _, _, o in cycles if o)
        if c:
            total += c * (total_mean - sum(means[cycles[-1][0] - 1:cycles[-1][1]]))
        if best is None or total < best[0]:
            best = (total, deltas)
    return best


def full_enumeration(engine, pinned_i0=None):
    """(cost, deltas, y_levels, cycles) | None over all 2^(T-1) patterns of
    a solver engine, accepting a pattern only when it beats the best so
    far by more than 1e-12 (ties keep the lexicographically smallest)."""
    best = None
    for combo in itertools.product((0, 1), repeat=engine.T - 1):
        deltas = (0,) + combo
        solved = engine.solve_pattern(deltas, pinned_i0)
        if solved is None:
            continue
        cost, y_opt, cycles = solved
        if best is None or cost < best[0] - 1e-12:
            best = (cost, deltas, y_opt, cycles)
    return best


class EnumerationEngine(_SubmodelEngine):
    """The solver engine without its envelope: every cost_at is a pattern
    search, and every reorder root bisects that search's cost curve."""

    def _certified_at(self, x):
        return None

    def reorder_root(self, target, hi):
        cache = {}

        def g(x):
            hit = cache.get(x)
            if hit is None:
                hit = cache[x] = self.cost_at(x)
            return hit[0]

        root, _ = _largest_root(g, target, hi, g(hi), self.pin_lower)
        return root, cache[root] if root in cache else self.cost_at(root)


def dense_sdp_tables(instance, grid, truncation):
    """(g_tables, c_tables) of sspolicy.sdp.solve_sdp's backward pass,
    computed densely over every (level, demand atom) pair."""
    costs = instance.costs
    K, c, h, b = costs.fixed, costs.unit, costs.holding, costs.penalty
    levels = grid.levels()
    n = levels.size
    T = instance.horizon
    step = grid.step

    g_tables = np.empty((T, n))
    c_tables = np.empty((T, n))
    c_next = np.zeros(n)

    for t in range(T, 0, -1):
        d = instance.demands[t - 1]
        dv, dp = discretize_demand(d.mean, d.std_dev, step, truncation)
        shifts = np.rint(dv / step).astype(int)
        # expected one-period holding/penalty at post-order level y
        diff = levels[:, None] - dv[None, :]
        stage = (h * np.maximum(diff, 0.0) + b * np.maximum(-diff, 0.0)) @ dp
        # expected continuation E[C_{t+1}(y - d)]; below-grid states are in
        # the ordering region where C extends linearly with slope -c
        cont = np.zeros(n)
        if t < T:
            idx = np.arange(n)
            for k, p in zip(shifts, dp):
                j = idx - k
                clipped = np.maximum(j, 0)
                vals = c_next[clipped]
                under = j < 0
                if np.any(under):
                    vals = vals + np.where(under, c * step * (-j), 0.0)
                cont += p * vals
        g = c * levels + stage + cont
        # suffix minimum from the right: best order-up-to cost from each x
        best_up = np.minimum.accumulate(g[::-1])[::-1]
        c_now = np.minimum(g, K + best_up) - c * levels
        g_tables[t - 1] = g
        c_tables[t - 1] = c_now
        c_next = c_now
    return g_tables, c_tables


def _demand_uniforms(seed: int, start: int, count: int, horizon: int) -> np.ndarray:
    """Uniforms for replications [start, start + count), shape (count, T).

    Each replication owns ceil(T / 4) Philox counter blocks; chunk
    boundaries therefore never change the draws.
    """
    blocks_per_rep = (horizon + 3) // 4
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    counter = np.zeros(4, dtype=np.uint64)
    counter[0] = np.uint64(start * blocks_per_rep)
    bg = np.random.Philox(key=key, counter=counter)
    raw = bg.random_raw(4 * blocks_per_rep * count)
    words = raw.reshape(count, 4 * blocks_per_rep)[:, :horizon]
    return (words >> np.uint64(11)) * 2.0 ** -53


def row_major_simulation(instance, policy, replications, seed, chunk_size):
    """sspolicy.simulate.simulate_policy's SimulationResult, computed on
    (replications, T) demand blocks with a new array for every step."""
    validate(instance)
    if replications < 1:
        raise ValueError("need at least one replication")
    if policy.horizon != instance.horizon:
        raise ValueError(
            f"policy horizon {policy.horizon} does not match instance "
            f"horizon {instance.horizon}")
    T = instance.horizon
    costs = instance.costs
    K, c, h, b = costs.fixed, costs.unit, costs.holding, costs.penalty
    means = np.asarray(instance.means)
    sds = np.asarray(instance.std_devs)
    ss = np.asarray(policy.reorder_points)
    big_ss = np.asarray(policy.order_up_to_levels)

    # one cost per replication, reduced once at the end so the statistics
    # do not depend on how the work was chunked
    all_costs = np.empty(replications)
    truncated = 0
    done = 0
    while done < replications:
        n = min(chunk_size, replications - done)
        uniforms = _demand_uniforms(seed, done, n, T)
        z = ndtri(np.maximum(uniforms, 2.0 ** -53))
        demands = means + sds * z
        truncated += int(np.count_nonzero(demands < 0.0))
        np.maximum(demands, 0.0, out=demands)

        level = np.full(n, float(instance.initial_inventory))
        cost = np.zeros(n)
        for t in range(T):
            ordering = level <= ss[t]
            if np.any(ordering):
                cost += ordering * (K + c * (big_ss[t] - level))
                level = np.where(ordering, big_ss[t], level)
            level = level - demands[:, t]
            cost += h * np.maximum(level, 0.0) + b * np.maximum(-level, 0.0)
        all_costs[done:done + n] = cost
        done += n

    mean = float(all_costs.mean())
    if replications > 1:
        se = float(all_costs.std(ddof=1)) / math.sqrt(replications)
    else:
        se = 0.0
    return SimulationResult(mean=mean, standard_error=se,
                            replications=replications, seed=seed,
                            truncation_frequency=truncated / (replications * T))


def one_shot_jensen_values(partition, x):
    """Partition.jensen_values as one dense (len(x), N) product."""
    p = np.asarray(partition.probabilities)
    m = np.asarray(partition.conditional_means)
    x = np.asarray(x, dtype=float)
    return np.maximum(x[..., None] - m, 0.0) @ p


def reference_piecewise_loss(partition, mean, std_dev, error):
    """loss.piecewise_loss of one normal, by the scalar formulas."""
    p = np.asarray(partition.probabilities)
    slopes = tuple(np.concatenate(([0.0], np.cumsum(p))))
    slopes = slopes[:-1] + (1.0,)
    breakpoints = tuple(mean + std_dev * np.asarray(partition.conditional_means))
    scaled = std_dev * error
    anchor = float(np.maximum(-np.asarray(breakpoints), 0.0)
                   @ np.diff(np.asarray(slopes))) + scaled
    return PiecewiseLoss(slopes=slopes, breakpoints=breakpoints,
                         anchor_value=anchor, error_bound=scaled,
                         mean=mean, std_dev=std_dev)


def reference_segments(instance, segments, strategy):
    """build_segments(instance, segments, strategy), one piece at a time."""
    validate(instance)
    partition, err = cached_partition(segments, strategy)
    out = {}
    for t in range(1, instance.horizon + 1):
        for j in range(1, t + 1):
            mean = variance = 0.0
            for d in instance.demands[j - 1:t]:
                mean += d.mean
                variance += d.std_dev * d.std_dev
            out[(j, t)] = reference_piecewise_loss(
                partition, mean, math.sqrt(variance), err)
    return out


def reference_cycle(instance, segments, j, e):
    """CycleTable.cycle(j, e) of a segment dict: (cost, mean demand,
    largest and smallest demand shift), the pieces added one at a time."""
    b = instance.costs.penalty
    hb = instance.costs.holding + b
    total = ConvexPWL()
    shifts = []
    for t in range(j, e + 1):
        pw = segments[(j, t)]
        deltas = np.diff(np.asarray(pw.slopes)) * hb
        f = ConvexPWL(0.0, hb * pw.error_bound, np.asarray(pw.breakpoints), deltas)
        total = total.plus(f.plus_affine(-b, b * pw.mean))
        shifts.append(pw.mean)
    return total, shifts[-1], max(shifts), min(shifts)


def reference_priced(instance, segments, j, e, first):
    """CycleTable.priced(j, e, first) of a segment dict."""
    f = reference_cycle(instance, segments, j, e)[0]
    c = instance.costs.unit
    if c:
        if first:
            f = f.plus_affine(-c, 0.0)
        if e == instance.horizon:
            f = f.plus_affine(c, 0.0)
    x = f.argmin()
    return f, x, f(x) if math.isfinite(x) else math.nan
