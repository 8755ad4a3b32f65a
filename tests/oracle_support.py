"""Reference optima of the linearized lot-sizing models.

brute_force_submodel is independent of the package's pattern/pooling
solver: it enumerates every order pattern and runs a dense-grid dynamic
program over the chained cycle levels. The grid is a 0.25 lattice augmented
with every piecewise breakpoint and any pinned first level, each shifted by
every partial demand sum, so piecewise-linear optima are captured exactly.

full_enumeration is the solver's pattern search without its bound: every
pattern, in lexicographic order, through the engine's own solve_pattern.
cycles_of rebuilds a pattern's cycles from the deltas alone, each with its
record of the engine's table and its level bounds from the engine's
inventory bounds and the largest and smallest mean of the cycle's segment
rows, not from the record; the references below read cycles only through
it.
EnumerationEngine is the solver engine with every certificate limit of its
tails cut to -inf: free minima and pinned costs come from the pattern
search alone and reorder roots from bisection. reference_solve_pattern is
solve_pattern's pool-adjacent pass as a scan that restarts from the left
after every merge.

dense_sdp_tables is the SDP oracle's backward pass done the direct way: a
dense levels x atoms stage-cost matrix and one shifted lookup of the next
period's cost per demand atom. stored_sdp_tables is solve_sdp's own pass
as it was when it stored C_t for every period, not only C_{t+1}.
policy_from_tables reads a policy from such G tables with solve_sdp's
per-period rule (sdp._policy_row), periods 1..T in order.

row_major_simulation is the Monte Carlo pricing loop done the direct way:
replication-major demand blocks read column by column, with fresh arrays
for every step of every period. separate_charge_costs is the pricing loop
as it was before it fused the period's holding and shortage charges: each
charged and added on its own, seven array passes per period and policy.

one_shot_jensen_values is a partition's Jensen bound as one dense product
over all points and cells, without Partition.jensen_values' row blocks.

reference_segments is build_segments done piece by piece: each (j, t)
pair's convolved mean and variance summed in a Python loop and its own
scalar piecewise-loss formula, one PiecewiseLoss per pair.
reference_pieces gives those pieces for the partition a Segments record
was built from, without reading the record's arrays, and reference_rows
one piece's model-row data by the scalar intercept formula. The other
references read segment data only through these pieces. reference_cycle
and reference_priced are a cycle record's fields done the direct way:
the cycle's pieces added one at a time with ConvexPWL.plus, and the
priced cost's argmin and minimum from that sum's own sort
(reference_sort, reference_minimum: the per-cost sort and minimum as
ConvexPWL formed them for every record, evaluated with the `@` product).

reference_solution is solve_exact's answer built by name: each side's
variables from the solved pattern (reference_assignment, H_t from the
piece's own PiecewiseLoss.upper), as a name -> value dict.
reference_verify_assignment is model.verify_assignment on that dict, every
check over every column, row and rule, with the row senses compared as
strings.

_emit_joint is the joint model emitted row by row into one emitter:
both submodels, the cost-equality link and the ordering I0_s <= I0_S
(model._add_joint), which build_joint fills as a one-block JointStack.

per_suffix_mp_policy is mp_policy with each suffix's answer checked alone:
joint_answer of the table's engine for the suffix, written into the joint
model built from the suffix's own segments (build_joint of
build_segments) and verified against that model alone.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtri

from sspolicy.domain import PolicyParameters, validate
from sspolicy.heuristics import HeuristicConfig, _table_for
from sspolicy.loss import PiecewiseLoss, cached_partition
from sspolicy.model import (INDICATOR, _add_joint, _Emitter, build_joint,
                            build_segments, pair_row)
from sspolicy.sdp import _policy_row, discretize_demand
from sspolicy.simulate import SimulationResult
from sspolicy.solver import (ConvexPWL, _engine_for, _forced,
                             _largest_root, _put_joint, _self_check,
                             _SubmodelEngine, joint_answer)


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
    period 1 has no order. The unit cost is charged from level zero,
    c (I_T + D(1..T)): c y on the last cycle's level y and c times the
    demand before that cycle.
    """
    segments = reference_pieces(instance, segments)
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
    """(cost, deltas, y_levels) | None over all 2^(T-1) patterns of a
    solver engine, accepting a pattern only when it beats the best so far
    by more than 1e-12 (ties keep the lexicographically smallest)."""
    best = None
    for combo in itertools.product((0, 1), repeat=engine.T - 1):
        deltas = (0,) + combo
        solved = engine.solve_pattern(deltas, pinned_i0)
        if solved is None:
            continue
        cost, y_opt = solved
        if best is None or cost < best[0] - 1e-12:
            best = (cost, deltas, y_opt)
    return best


@dataclass
class Cycle:
    start: int           # local period j (1-based); orders unless j == 1
    end: int             # local period e
    cost: ConvexPWL      # priced cost of the start-of-cycle level y
    mean_demand: float   # cumulative mean over the cycle
    y_lo: float
    y_hi: float


def engine_cycle(engine, j, e):
    """An engine's local cycle j..e: its table record (cost, mean), and its
    level bounds from the engine's inventory bounds and the largest and
    smallest cumulative mean D(j..t), t = j..e, of the table's segment
    rows: every I_t = y - D(j..t) within [inv_lo, inv_hi]."""
    start = j + engine.offset
    cost, mean_d = engine.costs.start(start)[e - j]
    shifts = engine.costs.segments.means[
        pair_row(start, np.arange(start, start + e - j + 1))].tolist()
    return Cycle(j, e, cost, mean_d, engine.inv_lo + max(shifts),
                 engine.inv_hi + min(shifts))


def cycles_of(engine, deltas):
    """The cycles of a pattern, deltas[t - 1] being delta_t: one opens at
    period 1 and one at every later order, each closing before the next."""
    T = len(deltas)
    starts = [1] + [t for t in range(2, T + 1) if deltas[t - 1]]
    ends = [j - 1 for j in starts[1:]] + [T]
    return [engine_cycle(engine, j, e) for j, e in zip(starts, ends)]


def reference_solve_pattern(engine, deltas, pinned_i0):
    """engine.solve_pattern(deltas, pinned_i0) with its pool-adjacent pass
    as a scan that, after every merge, restarts from the left to merge the
    leftmost pair that breaks the chain, and every cycle's cost shifted
    into z, the first by 0.0."""
    cycles = cycles_of(engine, deltas)
    m = len(cycles)
    offsets = np.zeros(m)
    for i in range(1, m):
        offsets[i] = offsets[i - 1] + cycles[i - 1].mean_demand
    funcs = [cyc.cost.shifted(offsets[i]) for i, cyc in enumerate(cycles)]
    z_los = np.array([c.y_lo + offsets[i] for i, c in enumerate(cycles)])
    z_his = np.array([c.y_hi + offsets[i] for i, c in enumerate(cycles)])
    z_los[0] = max(z_los[0], engine.inv_lo)
    z_his[0] = min(z_his[0], engine.inv_hi)
    pin = pinned_i0
    if pin is not None and not (
            cycles[0].y_lo - 1e-9 <= pin <= cycles[0].y_hi + 1e-9):
        return None
    blocks = []  # [first, last, func, z, pinned]
    for i, f in enumerate(funcs):
        if i == 0 and pin is not None:
            blocks.append([0, 0, f, pin, True])
        else:
            if z_los[i] > z_his[i] + 1e-9:
                return None
            z, _ = f.minimize(z_los[i], z_his[i])
            blocks.append([i, i, f, z, False])
    while True:
        merged = False
        for i in range(len(blocks) - 1):
            if blocks[i][3] > blocks[i + 1][3] + 1e-9:
                a, b = blocks[i], blocks[i + 1]
                f = a[2].plus(b[2])
                lo = z_los[a[0]:b[1] + 1].max()
                hi = z_his[a[0]:b[1] + 1].min()
                if a[4]:
                    z = a[3]
                    if not (lo - 1e-9 <= z <= hi + 1e-9):
                        return None
                else:
                    if lo > hi + 1e-9:
                        return None
                    z, _ = f.minimize(lo, hi)
                blocks[i:i + 2] = [[a[0], b[1], f, z, a[4]]]
                merged = True
                break
        if not merged:
            break
    z_opt = np.empty(m)
    cost = 0.0
    for first, last, f, z, _ in blocks:
        z_opt[first:last + 1] = z
        cost += f(z)
    y_opt = z_opt - offsets
    cost += engine.K * (m - 1)
    if engine.c:
        cost += engine.c * (engine.total_mean - cycles[-1].mean_demand)
    return float(cost), y_opt


class EnumerationEngine(_SubmodelEngine):
    """The solver engine without its certificates: every free minimum and
    cost_at is a pattern search, and every reorder root bisects that
    search's cost curve."""

    @cached_property
    def tails(self):
        W, limits, completions = _SubmodelEngine.tails.func(self)
        return W, [-math.inf] * len(limits), completions

    def reorder_root(self, target, hi):
        cache = {}

        def g(x):
            hit = cache.get(x)
            if hit is None:
                hit = cache[x] = self.cost_at(x)
            return hit[0]

        root, _ = _largest_root(g, target, hi, g(hi), self.pin_lower)
        return root, cache[root] if root in cache else self.cost_at(root)


def reference_assignment(segments, lab, deltas, y_opt):
    """Values of submodel `lab`'s variables for a solved pattern, by name:
    its i-th cycle, from the i-th start (period 1, then every order) to
    the period before the next, at level y_opt[i]."""
    T = len(deltas)
    out = {}
    for t in range(1, T + 1):
        out[f"delta_{lab}_{t}"] = float(deltas[t - 1])
        for j in range(1, t + 1):
            out[f"P_{lab}_{j}_{t}"] = 0.0
    starts = [1] + [t for t in range(2, T + 1) if deltas[t - 1]]
    i0 = None
    for i, (start, after) in enumerate(zip(starts, starts[1:] + [T + 1])):
        y = float(y_opt[i])
        if i == 0:
            i0 = y  # the first level doubles as the initial one
        for t in range(start, after):
            pw = segments[(start, t)]
            out[f"P_{lab}_{start}_{t}"] = 1.0
            inv = y - pw.mean
            h_val = float(pw.upper(y))
            out[f"I_{lab}_{t}"] = inv
            out[f"H_{lab}_{t}"] = h_val
            out[f"B_{lab}_{t}"] = h_val - inv
    out[f"I0_{lab}"] = float(i0)
    return out


def reference_solution(model):
    """solve_exact(model)'s values as a name -> value dict, built name by
    name from the engine's answer; None where no pattern is feasible."""
    engine = _engine_for(model)
    label = model.kind
    col = model.index["I0_S" if label == "S" else "I0_s"]
    pinned = None
    if label == "s" and model.lb[col] == model.ub[col]:
        pinned = float(model.lb[col])
        best = engine.enumerate(pinned_i0=pinned)[0]
    else:
        best = engine.free_optimum()
    if best is None:
        return None
    if label != "joint":
        if label == "S":
            best = _forced(engine, best)
        out = reference_assignment(
            reference_pieces(model.instance, model.segments), label, *best[1:])
        if pinned is not None:
            out["I0_s"] = pinned
        return out
    cost_S, deltas_S, y_S = _forced(engine, best)
    root, (cost_s, deltas_s, y_s) = engine.reorder_root(cost_S, float(y_S[0]))
    pieces = reference_pieces(model.instance, model.segments)
    out = reference_assignment(pieces, "S", deltas_S, y_S)
    out.update(reference_assignment(pieces, "s", deltas_s, y_s))
    out["I0_s"] = float(root)
    out["C_S"] = float(cost_S)
    out["G_s"] = float(cost_s)
    return out


def _emit_joint(instance, segments):
    """The joint model, row by row (see the module docstring)."""
    em = _Emitter()
    big_m = _add_joint(em, instance, segments.model_rows)
    return em.model("joint", instance, big_m, segments)


def per_suffix_mp_policy(instance, config=None, table=None):
    """mp_policy with each suffix's joint answer written into its own
    joint model and checked alone; the policy is read from those models'
    columns."""
    validate(instance)
    config = config or HeuristicConfig()
    table = _table_for(instance, config, table)
    ss, SS, costs = [], [], []
    for k in range(1, instance.horizon + 1):
        try:
            answer = joint_answer(table.engine(k))
        except Exception as exc:
            raise RuntimeError(f"joint solve failed at suffix k={k}: {exc}") from exc
        suffix = instance.suffix(k)
        model = build_joint(suffix, build_segments(
            suffix, segments=config.cells, strategy=config.strategy))
        index = model.index
        x = np.zeros(len(model.names))
        _put_joint(x, model, [model.columns],
                   np.array([[index["C_S"], index["G_s"]]]), [answer])
        _self_check(model, x, None, None)
        ss.append(float(x[index["I0_s"]]))
        SS.append(float(x[index["I0_S"]]))
        costs.append(float(x[index["C_S"]]))
    return PolicyParameters(reorder_points=tuple(ss),
                            order_up_to_levels=tuple(SS),
                            costs=tuple(costs))


def reference_verify_assignment(model, assignment, tol=1e-6):
    """model.verify_assignment of a name -> value dict, every column, row
    and rule checked and the senses compared as strings."""
    x = np.fromiter(map(assignment.__getitem__, model.names), float,
                    len(model.names))
    bad = []

    def report(amounts, name):
        bad.extend((name(i), float(amounts[i]))
                   for i in np.flatnonzero(amounts > tol))

    names = model.names
    report(np.maximum(model.lb - x, x - model.ub),
           lambda i: f"bound_{names[i]}")
    free = model.binary & (model.lb != model.ub)
    report(np.where(free, np.abs(x - np.round(x)), 0.0),
           lambda i: f"integrality_{names[i]}")

    rows = model.rows
    lhs = rows.matrix @ x
    over = np.where(rows.sense == "<=", lhs - rows.rhs,
                    np.where(rows.sense == ">=", rows.rhs - lhs,
                             np.abs(lhs - rows.rhs)))
    idle = (rows.kind == INDICATOR) & (np.round(x[rows.condition]) != 0)
    report(np.where(idle, 0.0, over), lambda i: str(rows.names[i]))

    pw, segs = model.piecewise, model.segments
    level = x[pw.inventory]
    upper = ((level + segs.means[pw.piece])[:, None] * segs.slopes[pw.piece]
             + segs.lines[pw.piece]).max(axis=1)
    miss = np.maximum(np.abs(x[pw.holding] - upper),
                      np.abs(x[pw.backorder] - (upper - level)))
    report(np.where(np.round(x[pw.selector]) == 1, miss, 0.0),
           lambda i: f"loss_{pw.label[i]}_{pw.start[i]}_{pw.period[i]}")
    bad.sort(key=lambda kv: -kv[1])
    return bad


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


def stored_sdp_tables(instance, grid, truncation):
    """(g_tables, c_tables) of solve_sdp's prefix-sum and convolution pass,
    with C_t stored for every period."""
    costs = instance.costs
    K, c, h, b = costs.fixed, costs.unit, costs.holding, costs.penalty
    levels = grid.levels()
    n = levels.size
    T = instance.horizon
    step = grid.step

    g_tables = np.empty((T, n))
    c_tables = np.empty((T, n))
    for t in range(T, 0, -1):
        d = instance.demands[t - 1]
        dv, dp = discretize_demand(d.mean, d.std_dev, step, truncation)
        k = np.searchsorted(dv, levels, "right")
        F = np.concatenate(([0.0], np.cumsum(dp)))
        M = np.concatenate(([0.0], np.cumsum(dp * dv)))
        stage = (h + b) * (levels * F[k] - M[k]) + b * (M[-1] - levels)
        g = c * levels + stage
        if t < T:
            shifts = np.rint(dv / step).astype(int)
            kernel = np.bincount(shifts - shifts[0], weights=dp)
            tail = c_tables[t][0] + c * step * np.arange(shifts[-1], 0, -1)
            ext = np.concatenate((tail, c_tables[t]))[:n + kernel.size - 1]
            g = g + np.convolve(ext, kernel, "valid")
        best_up = np.minimum.accumulate(g[::-1])[::-1]
        g_tables[t - 1] = g
        c_tables[t - 1] = np.minimum(g, K + best_up) - c * levels
    return g_tables, c_tables


def policy_from_tables(instance, grid, g_tables):
    """The (s_t, S_t) policy of G tables over the grid, by solve_sdp's
    per-period rule; the first period whose row fails raises its
    GridTooSmallError."""
    levels = grid.levels()
    ss, SS, costs = zip(*(
        _policy_row(t, g_tables[t - 1], instance.costs.fixed, levels)
        for t in range(1, instance.horizon + 1)))
    return PolicyParameters(reorder_points=ss, order_up_to_levels=SS,
                            costs=costs)


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


def separate_charge_costs(instance, policies, seed, start, count,
                          chunk_size):
    """(costs, truncated) of replications start .. start + count - 1: one
    row of per-replication costs per policy, holding and shortage charged
    one at a time."""
    T = instance.horizon
    costs = instance.costs
    K, c, h, b = costs.fixed, costs.unit, costs.holding, costs.penalty
    means = np.asarray(instance.means, dtype=float)[:, None]
    sds = np.asarray(instance.std_devs, dtype=float)[:, None]
    blocks_per_rep = (T + 3) // 4
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)

    all_costs = np.empty((len(policies), count))
    width = min(chunk_size, count)
    demand_block = np.empty((T, width))
    level_block = np.empty(width)
    scratch_block = np.empty(width)
    ordering_block = np.empty(width, dtype=bool)
    truncated = 0
    done = 0
    while done < count:
        n = min(chunk_size, count - done)
        counter = np.zeros(4, dtype=np.uint64)
        counter[0] = np.uint64((start + done) * blocks_per_rep)
        raw = np.random.Philox(key=key, counter=counter).random_raw(
            4 * blocks_per_rep * n).reshape(n, 4 * blocks_per_rep)
        raw >>= np.uint64(11)
        demands = demand_block[:, :n]
        np.multiply(raw[:, :T].T, 2.0 ** -53, out=demands)
        np.maximum(demands, 2.0 ** -53, out=demands)
        ndtri(demands, out=demands)
        demands *= sds
        demands += means
        truncated += int(np.count_nonzero(demands < 0.0))
        np.maximum(demands, 0.0, out=demands)

        level = level_block[:n]
        scratch = scratch_block[:n]
        ordering = ordering_block[:n]
        for policy, policy_costs in zip(policies, all_costs):
            ss = policy.reorder_points
            big_ss = policy.order_up_to_levels
            cost = policy_costs[done:done + n]
            level.fill(instance.initial_inventory)
            cost.fill(0.0)
            for t in range(T):
                np.less_equal(level, ss[t], out=ordering)
                if ordering.any():
                    np.subtract(big_ss[t], level, out=scratch)
                    scratch *= c
                    scratch += K
                    np.add(cost, scratch, out=cost, where=ordering)
                    np.copyto(level, big_ss[t], where=ordering)
                level -= demands[t]
                np.maximum(level, 0.0, out=scratch)
                scratch *= h
                cost += scratch
                np.negative(level, out=scratch)
                np.maximum(scratch, 0.0, out=scratch)
                scratch *= b
                cost += scratch
        done += n
    return all_costs, truncated


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


def reference_pieces(instance, segments):
    """reference_segments of the instance for the (cells, strategy) that
    the Segments record `segments` was built from: (j, t) -> PiecewiseLoss
    by the scalar formulas, none read from the record's rows."""
    return reference_segments(instance, *segments.partition)


def reference_rows(piece):
    """(slopes, lines, cut coefficients) of one PiecewiseLoss, a model
    row of its Segments, by the scalar formulas: intercept c_i =
    -sum_{k < i} (slope_{k+1} - slope_k) * breakpoint_k added left to
    right, the line c_i + e and the cut slope_i * mean + c_i + e."""
    slopes = np.array(piece.slopes)
    icpt = [0.0] + [-v for v in itertools.accumulate(
        (b - a) * x for a, b, x in zip(piece.slopes, piece.slopes[1:],
                                       piece.breakpoints))]
    icpt = np.array(icpt)
    e = piece.error_bound
    return slopes, icpt + e, slopes * piece.mean + icpt + e


def suffix_segments(segments, horizon, k):
    """Suffix k's Segments read from a `horizon`-period instance's: the
    rows of its pairs (j, t), j >= k, which are the suffix's pairs
    (j - k + 1, t - k + 1) in its own row order."""
    rows = [pair_row(j, t) for t in range(k, horizon + 1) for j in range(k, t + 1)]
    return dataclasses.replace(segments, demands=segments.demands[k - 1:], **{
        name: getattr(segments, name)[rows]
        for name in ("breakpoints", "means", "errors", "slopes", "lines", "cuts")})


def reference_cycle(instance, segments, j, e):
    """Cycle j..e of a segment dict without the unit cost: (cost, mean
    demand, largest and smallest demand shift), the pieces added one at a
    time. The mean is a cycle record's second field; the largest shift is
    that mean and the smallest the mean of cycle j..j, as demand is
    non-negative."""
    b = instance.costs.penalty
    hb = instance.costs.holding + b
    total = ConvexPWL()
    shifts = []
    for t in range(j, e + 1):
        pw = segments[(j, t)]
        deltas = np.diff(np.asarray(pw.slopes)) * hb
        total = total.plus(ConvexPWL(0.0 + -b, hb * pw.error_bound + b * pw.mean,
                                     np.asarray(pw.breakpoints), deltas))
        shifts.append(pw.mean)
    return total, shifts[-1], max(shifts), min(shifts)


def reference_priced(instance, segments, j, e):
    """(cost, argmin, min): the cost of cycle j..e's record, and its argmin
    and the cost there (nan where the argmin is infinite), of a segment
    dict."""
    f = reference_cycle(instance, segments, j, e)[0]
    c = instance.costs.unit
    slope = f.slope
    if c and e == instance.horizon:
        slope += c
    f = ConvexPWL(slope, f.const, f.kinks, f.deltas)
    return (f, *reference_minimum(f))


def reference_sort(f):
    """(kinks, rises) of a ConvexPWL as its own per-cost sort formed them
    before one sort per cycle start served every cycle record: the kinks
    stably sorted, and rises[i] the sum of the sorted deltas of kinks[:i]."""
    order = np.argsort(f.kinks, kind="stable")
    return f.kinks[order], np.concatenate(([0.0], np.cumsum(f.deltas[order])))


def reference_minimum(f):
    """(argmin, f there) of a ConvexPWL, nan where the argmin is infinite,
    from reference_sort and not from any memo, with f evaluated by the
    `@` product: flat minima give their midpoint, and the argmin is inf
    where f never rises, -inf where it never falls."""
    kinks, rises = reference_sort(f)
    slopes = f.slope + rises
    neg = np.nonzero(slopes < -1e-11)[0]
    pos = np.nonzero(slopes > 1e-11)[0]
    if pos.size == 0:
        return math.inf, math.nan
    if neg.size == 0:
        return -math.inf, math.nan
    last_neg, first_pos = neg[-1], pos[0]
    left, right = kinks[last_neg], kinks[first_pos - 1]
    x = float(left if first_pos == last_neg + 1 else 0.5 * (left + right))
    return x, reference_value(f, x)


def reference_value(f, x):
    """f(x) as ConvexPWL.__call__ formed it with the `@` product."""
    if f.kinks.size == 0:
        return f.slope * x + f.const
    return (f.slope * x + f.const
            + float(np.maximum(x - f.kinks, 0.0) @ f.deltas))
