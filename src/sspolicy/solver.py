"""Exact in-repo optimizer for the canonical lot-sizing models.

The binaries of these models encode nothing but the order-timing pattern:
once every delta_t is fixed, the P selectors are implied and the residual
problem separates into replenishment cycles, each contributing a convex
piecewise-linear cost in its start-of-cycle level. Cycles are coupled only
by nonnegative order quantities, an isotonic chain that a pool-adjacent
pass solves exactly.

Patterns are searched by a depth-first branch and bound over delta_2..T,
0 before 1, so leaves arrive in the lexicographic order of a full
enumeration. The bound drops only the chain between cycles: each cycle
(j, e) then costs K if it orders plus its own convex cost minimized alone
over its level bounds (Wagner-Whitin 1958), and one backward shortest-path
pass over these arcs gives the relaxed cost-to-go of every cycle start. A
subtree's bound is its closed cycles plus the cheapest relaxed completion
of its open cycle. The relaxed path's own pattern, solved exactly, is the
starting incumbent. A subtree is pruned only when its bound exceeds the
better of the incumbent and the best leaf by a relative margin of 1e-6,
which covers the pool-adjacent pass's 1e-9 bound slack and rounding. Every
pattern within that margin of the optimum is therefore solved, in the same
order and with the same acceptance rule as a full enumeration, and those
are the only patterns that can decide the winner: the winning pattern, its
cost and its levels equal the full enumeration's.

Only the no-order submodel is searched. The forced-order model differs
from it by the period-1 order alone, which adds K to every pattern and
leaves the levels free, so its optimum is the no-order free optimum plus K
at the same levels, with delta_1 = 1. Joint models are solved by one
no-order engine (joint_answer): its free minimum gives the order-up-to
level and, plus K, the linked cost; the reorder point is the largest root
of its pinned cost curve equal to that cost at or below the order-up-to
level (deterministic replacement for the solver's free root choice).

The pinned cost g(x), the no-order optimum with the first level fixed at
x, has one evaluation: the first cycle's arcs pinned at x (_first_arc),
the arcs of the branch and bound's first row. Its arc[e] is the priced
first cycle 1..e at x, so F_e(x) = arc[e] + V(e + 1), the cycle
completed at the relaxed cost-to-go (V(T + 1) = 0), is a convex
piecewise-linear function of x, and R(x) =
min_e F_e(x), the pinned first row's reach[2], is an envelope that
bounds g from below. End e carries a certificate limit
U_e = y*_{e+1} + D(1..e), where y*_{e+1} is the first level of the
relaxed shortest path from e + 1 and D(1..e) the first cycle's mean
demand (U_T = +inf). If that path keeps its own order chain and clamps no
level to a bound, the pattern "cycle 1..e, then that path" needs no merge
in solve_pattern for x <= U_e and costs exactly F_e(x). So where an end
attaining R(x) is certified, g(x) = R(x), and cost_at returns that
pattern without a search, in one pass over the arcs; otherwise it forms
the pinned first row from the same arcs (_first_row) and searches from
it. The reorder root walks the certified sublevel set {x <= U_e : F_e(x)
< target} leftward from the order-up-to level to the end x_C of its
component, reading F_e from the arcs pinned at the walk's level and
solving each crossing in closed form. Since g < target on (x_C, S], x_C
is the largest root when g(x_C) meets the target. Otherwise the root
falls back to a bisection below x_C; the engine counts such fallbacks and
logs each at DEBUG level. Every cycle 1..e is a cycle of the suffix's
first start, so its kinks are a prefix of cycle 1..T's (see CycleTable
below): the pinned arcs form the hinge max(x - kink, 0) once over those
kinks, and each arc dots its prefix of the hinge with the cycle's deltas,
the same numbers summed in the same order as evaluating the cycle alone.

An answer is (cost, pattern, levels): the order pattern delta_1..T and
one level per cycle. The pattern implies the cycles, which open at period 1
and at every order, so nothing else is kept: a solved pattern reads its
cycles' costs from the table's records and their level bounds from its
engine. A solve writes its answer into one float vector in the model's
column order. The model records where each submodel's variables sit
(model.Columns), so the pattern, the levels and the selected cycle pairs
go straight to their columns, every side in one array pass (_put_sides)
that derives each period's cycle start and level from the pattern;
H_t comes from the selected piecewise rule's lines, the max-of-lines form
verify_assignment checks, and B_t = H_t - I_t. _self_check verifies that
vector against the model on every solve, and names are built only for a
failure. SolveResult keeps the vector with the model's name -> column
index. mp_policy builds no model per suffix: check_joint_answers writes
the joint answers of all suffixes of an instance into one vector of the
instance's model.JointStack, whose diagonal blocks are the suffixes' joint
models, and verifies it with one pass; a violation names its suffix and
row.

Cycle data lives in a CycleTable, one per instance: its model.Segments
and, built on first use, one record per cycle (j, e) and `first` flag:
(cost, mean), its priced convex cost and its mean demand D(j..e), kept per
start j as the list of cycles j..T (_PricedCycles). The cycles of one start j come
from one array pass: the breakpoints of rows (j, j..T) are
flattened once into kinks, the slope steps tiled into deltas, and cycle
(j, e) is a ConvexPWL over a read-only prefix of them, bit-equal to adding
the pieces one at a time with ConvexPWL.plus.
Each cost sorts its kinks once, on first use, and memoizes its free
minimizer and the minimum there; the unit cost's terms are added with
ConvexPWL.plus_affine, which hands the sort on, so both `first` records of
a cycle share one sort. The heuristics solve every suffix
k..T, its free minimum and every root-search step, from the one table
through a SuffixView: the suffix's instance, and the offset k - 1 by
which its engine shifts local periods to read the table's cycles. Sharing is exact:
suffix k's (j, t) piece is the instance's (j + k - 1, t + k - 1) piece,
the normal loss of the same demand slice summed in the same order, so a
cycle's cost is the same function, built by the same operations,
whichever suffix reads it. The unit cost's level terms depend only on
whether the cycle opens the suffix (`first`) and whether it closes the
horizon; without a unit cost both `first` keys hold one record. Level
bounds differ per suffix and stay with its engine, which clamps the shared
free minimizer to them with ConvexPWL.minimize. Each period's closing
inventory I_t = y - D(j..t) must lie in [inv_lo, inv_hi]. Means are
non-negative and D(j..t) is a running sum from 0.0, which adding a
non-negative double never lowers, so the binding periods are the last and
the first: cycle (j, e)'s levels lie in [inv_lo + D(j..e), inv_hi +
D(j..j)], both read from the start's records. A free first cycle's level
is also the initial inventory, within [inv_lo, inv_hi]: its upper bound is
inv_hi, and its lower one is already above inv_lo.

The table also owns one no-order engine per suffix (CycleTable.engine),
built on first use at the suffix's default level bounds (those of
build_minlp_s with a free initial level, which build_joint shares).
ExactBackend.evaluator reads that engine, so the heuristics that run on
one table search each suffix once: the engine memoizes its free minimum,
and builds its relaxation whole on first use as flat lists, in one
backward pass over the cycle starts that reads each start's records of
the table: every start's relaxation row and cost-to-go and, for the
relaxed path from the start, its first level and its `chained` flag (the
start after its first cycle is one past the row's end); then each first
cycle's cost and level bounds and the certificate limits from those
values. Both are pure
functions of the suffix and its bounds, so an answer does not depend on
which caller filled them, and a build that raises stores nothing. A
relaxed path's levels and pattern are built from those pointers when a
search seeds from it or a certified answer returns it, and the engine
keeps them. A cycle's level bounds are applied where its record is read.
An engine holds the table's records, not the table, so a table and its
engines are freed by reference counting. solve_exact solves every model
with an engine of its own, over a table of the model's instance and
segments at the model's level bounds, so its answer and node count depend
on the model alone.
"""
from __future__ import annotations

import logging
import math
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .model import (JointStack, MilpModel, Segments, default_big_m,
                    level_bounds, pair_row, verify_assignment)

ROOT_TOLERANCE = 1e-4  # bracket width of the fallback root bisection
ROOT_MATCH = 1e-7      # |g - target| that accepts a reorder root

log = logging.getLogger(__name__)


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class SolveResult:
    """A solve's answer as one float per model column: `vector` in column
    order, `index` the model's column name -> entry map (both empty when
    infeasible). value() reads one entry; `assignment`, the name -> value
    dict, is built on first use."""
    objective: float
    vector: np.ndarray
    index: Mapping
    status: str              # "optimal" | "infeasible"
    node_count: int
    wall_time: float

    def value(self, name: str) -> float:
        return float(self.vector[self.index[name]])

    @cached_property
    def assignment(self) -> dict:
        values = self.vector.tolist()
        return {name: values[col] for name, col in self.index.items()}


class ConvexPWL:
    """f(x) = slope * x + const + sum_k delta_k * max(x - kink_k, 0),
    with all delta_k >= 0 (convex).

    The stable sort of the kinks, with the running sums of the sorted
    deltas, is formed once, on first use, and so are the free minimizer
    and the cost there; argmin, minimize and left_crossing read them. The
    memo's arrays are read-only. plus_affine hands the sort on; plus and
    shifted do not, as a shift can round two kinks into a tie and change
    the stable order."""

    __slots__ = ("slope", "const", "kinks", "deltas", "_sorted", "_free")

    def __init__(self, slope=0.0, const=0.0, kinks=None, deltas=None):
        self.slope = float(slope)
        self.const = float(const)
        self.kinks = np.asarray([] if kinks is None else kinks, dtype=float)
        self.deltas = np.asarray([] if deltas is None else deltas, dtype=float)
        self._sorted = None  # _sort()'s (kinks, rises)
        self._free = None    # _minimum()'s (argmin, min)

    def __call__(self, x):
        if self.kinks.size == 0:
            return self.slope * x + self.const
        return (self.slope * x + self.const
                + float(np.maximum(x - self.kinks, 0.0) @ self.deltas))

    def plus(self, other: "ConvexPWL") -> "ConvexPWL":
        return ConvexPWL(self.slope + other.slope, self.const + other.const,
                         np.concatenate((self.kinks, other.kinks)),
                         np.concatenate((self.deltas, other.deltas)))

    def plus_affine(self, a: float, b: float) -> "ConvexPWL":
        out = ConvexPWL(self.slope + a, self.const + b, self.kinks, self.deltas)
        out._sorted = self._sort()
        return out

    def shifted(self, delta: float) -> "ConvexPWL":
        """g(x) = f(x - delta)."""
        return ConvexPWL(self.slope, self.const - self.slope * delta,
                         self.kinks + delta, self.deltas)

    def _sort(self) -> tuple:
        """(kinks, rises): the kinks stably sorted, and rises[i] the sum of
        the deltas of kinks[:i], so that slope + rises[i] is f's slope on
        (kinks[i-1], kinks[i]) and slope + rises[n] after the last kink."""
        if self._sorted is None:
            order = np.argsort(self.kinks, kind="stable")
            kinks = self.kinks[order]
            rises = np.concatenate(([0.0], np.cumsum(self.deltas[order])))
            kinks.flags.writeable = rises.flags.writeable = False
            self._sorted = kinks, rises
        return self._sorted

    def argmin(self) -> float:
        """Minimizer over the whole line; flat minima return their midpoint,
        and f returns inf where it never rises, -inf where it never falls.

        Convexity makes the slope sequence nondecreasing, so the minimum
        region is bracketed by the last descending and first ascending
        segment.
        """
        return self._minimum()[0]

    def _minimum(self) -> tuple:
        """(argmin, f there), nan where argmin is infinite; memoized."""
        if self._free is None:
            kinks, rises = self._sort()
            slopes = self.slope + rises
            neg = np.nonzero(slopes < -1e-11)[0]
            pos = np.nonzero(slopes > 1e-11)[0]
            if pos.size == 0:
                x = math.inf
            elif neg.size == 0:
                x = -math.inf
            else:
                last_neg, first_pos = neg[-1], pos[0]
                left, right = kinks[last_neg], kinks[first_pos - 1]
                x = left if first_pos == last_neg + 1 else 0.5 * (left + right)
            self._free = x, self(x) if math.isfinite(x) else math.nan
        return self._free

    def minimize(self, lo: float, hi: float):
        """(argmin, min) over [lo, hi]: the free argmin clamped to it."""
        free, value = self._minimum()
        x = min(max(free, lo), hi)
        return x, value if x == free else self(x)

    def left_crossing(self, level: float, x: float, fx: float) -> float:
        """Left end a of f's sublevel interval {f < level} that holds x,
        given fx = f(x) < level: f < level on (a, x], and a = -inf where f
        stays below level to the left.

        Kink values left of x come from fx by the slopes; the crossing
        itself is solved on its linear piece from an exact evaluation of
        the piece's right end.
        """
        kinks, rises = self._sort()
        n = int(np.searchsorted(kinks, x, side="right"))
        points = np.append(kinks[:n], x)
        slopes = self.slope + rises[:n + 1]
        # f at the kinks left of x, from the rise over each piece up to x
        rise = slopes[1:] * np.diff(points)
        values = fx - np.cumsum(rise[::-1])[::-1]
        above = np.nonzero(values >= level)[0]
        if above.size:
            i = int(above[-1])
            left, right, slope = points[i], points[i + 1], slopes[i + 1]
        else:
            left, right, slope = -math.inf, points[0], slopes[0]
        if slope >= 0.0:
            return left
        f_right = fx if right == x else self(right)
        return min(max(right + (level - f_right) / slope, left), right)


class _PricedCycles:
    """The priced cycle records of one instance, keyed by its own (1-based)
    periods, each start's built in one array pass on first use. The
    instance's CycleTable and every engine it builds read the same records;
    this holds no engine, so an engine that holds it keeps no reference
    back to its table."""

    def __init__(self, instance, segments: Segments):
        self.instance = instance
        self.segments = segments
        self._starts: dict = {}  # (j, first) -> records of cycles j..T

    def start(self, j: int, first: bool) -> list:
        """The records (cost, mean) of cycles j..T, entry e - j being
        cycle j..e's. The cost is a ConvexPWL of the start-of-cycle level y
        over read-only prefixes of start j's kink arrays, with the unit
        ordering cost, which telescopes into the levels of a suffix's first
        cycle (`first`) and of the horizon's last; the mean is D(j..e).
        With no unit cost both `first` keys hold one record; with one, both
        records share the cost's kink sort."""
        hit = self._starts.get((j, first))
        if hit is None:
            self._build_start(j)
            hit = self._starts[(j, first)]
        return hit

    def _build_start(self, j: int) -> None:
        """Every cycle (j, e), both `first` records, in one array pass.

        Cycle (j, e) sums pieces (j, j..e): its kinks and deltas are a
        prefix of those rows' breakpoints and steps, and its slope and
        constant are running sums from 0.0, so the result is bit-equal to
        adding the pieces one at a time with ConvexPWL.plus. Each cycle
        sorts its own kinks on first use; the unit cost's terms are
        plus_affine, which hands that sort on.
        """
        T = self.instance.horizon
        costs = self.instance.costs
        b, c = costs.penalty, costs.unit
        hb = costs.holding + b
        segs = self.segments
        rows = pair_row(j, np.arange(j, T + 1))
        count, cells = len(rows), len(segs.steps)
        kinks = segs.breakpoints[rows].ravel()
        deltas = np.tile(segs.steps, count) * hb
        kinks.flags.writeable = deltas.flags.writeable = False
        shifts = segs.means[rows].tolist()
        # b * B_t = b * (H_t - I_t) = b * (H_t - y + shift)
        slopes = list(accumulate([0.0 - b] * count, initial=0.0))[1:]
        consts = list(accumulate([hb * e + b * mean for e, mean in
                                  zip(segs.errors[rows].tolist(), shifts)],
                                 initial=0.0))[1:]
        ends = range(cells, cells * count + 1, cells)
        cycles = [ConvexPWL(slope, const, kinks[:n], deltas[:n])
                  for slope, const, n in zip(slopes, consts, ends)]
        firsts = later = list(zip(cycles, shifts))
        if c:
            # -c y for the suffix's first cycle, +c y for the horizon's last
            priced = [f.plus_affine(-c, 0.0) for f in cycles]
            priced[-1] = priced[-1].plus_affine(c, 0.0)
            firsts = list(zip(priced, shifts))
            later[-1] = (cycles[-1].plus_affine(c, 0.0), shifts[-1])
        self._starts[(j, True)] = firsts
        self._starts[(j, False)] = later


class CycleTable:
    """Segment data and cycle costs of one instance, keyed by the instance's
    own (1-based) periods, and one no-order engine per suffix; see the
    module docstring. The cycles slice the Segments' rows, and a model or
    stack reads its model rows."""

    def __init__(self, instance, segments: Segments):
        segments.check(instance)
        self.instance = instance
        self.segments = segments
        self.costs = _PricedCycles(instance, segments)
        self._engines: dict = {}  # suffix k -> its no-order engine

    def suffix(self, k: int) -> "SuffixView":
        return SuffixView(self, k)

    def engine(self, k: int) -> "_SubmodelEngine":
        """Suffix k's no-order engine at its default level bounds, built on
        first use and shared by every caller."""
        hit = self._engines.get(k)
        if hit is None:
            view = self.suffix(k)
            hit = _SubmodelEngine(view, default_bounds(view.instance))
            self._engines[k] = hit
        return hit

    def work(self) -> tuple:
        """(patterns solved, certified cost_at answers, root fallbacks),
        summed over the engines built so far."""
        engines = self._engines.values()
        return (sum(e.nodes for e in engines), sum(e.certified for e in engines),
                sum(e.fallbacks for e in engines))


class SuffixView:
    """Periods k..T of a CycleTable in the suffix's local periods
    1..T-k+1: the table, the suffix's instance and the offset k - 1 from
    local to table periods. `horizon` is read only by bench/tracing.py,
    which sizes its per-call pattern counts by it; ROADMAP item 2 deletes
    it with ExactBackend."""

    def __init__(self, table: CycleTable, k: int):
        self.table = table
        self.offset = k - 1
        self.instance = table.instance if k == 1 else table.instance.suffix(k)
        self.horizon = self.instance.horizon


@dataclass
class _Relaxation:
    """A suffix's separable cycle relaxation as flat lists, built whole by
    _SubmodelEngine.relaxation. Lists are indexed by the local cycle start
    j (entry 0 unused). The relaxed path from j >= 2 is cycle j..end, row
    j's end, then the path from end + 1; it is `chained` where every level
    is its cycle's own minimizer within the level bounds and the levels
    keep the order chain y_next >= y - D, so solve_pattern gives its
    pattern exactly these levels and the relaxed cost. Its levels and
    pattern are built from these pointers by _SubmodelEngine._path when an
    answer reads them."""
    rows: list           # (arc, reach, end): _SubmodelEngine._row
    cost_to_go: list     # V(j) = reach[j + 1], and V(T + 1) = 0
    levels: list         # j >= 2: the path's first level y*_j
    chained: list        # j >= 2, and True at T + 1
    firsts: list         # by the first cycle's end e: (cost, y_lo, y_hi)
                         # of cycle 1..e pinned, [inv_lo + D(1..e),
                         # inv_hi + D(1..1)]
    limits: list         # by the first cycle's end e: U_e = y*_{e+1} +
                         # D(1..e) where the path from e + 1 is chained,
                         # -inf where it is not, +inf at e = T


class _SubmodelEngine:
    """Order-pattern search for the no-order submodel of a suffix.

    `view` gives the suffix's instance and where its cycles sit in the
    table, `bounds` the (lower, upper) bound of every inventory level, the
    initial one included (model.level_bounds). A fixed initial level is
    passed to `enumerate`. `free_minimum` and `cost_at` are its optimum
    with a free and a fixed initial level, `reorder_root` the largest level
    at which the latter reaches a target; `nodes` counts the patterns they
    solved, `certified` the `cost_at` answers read from the pinned first
    cycle and `fallbacks` the roots that needed `_largest_root`. The free
    minimum is searched once and memoized, its levels read-only. An
    answer is (cost, deltas, levels): the pattern, deltas[t - 1] being
    delta_t, and one level per cycle, the cycles starting at period 1 and
    at every order. A solved pattern reads its cycles' costs and means
    from the table's records, and their level bounds from those means and
    `inv_lo` and `inv_hi`.
    `relaxation` is built whole on first use, inside the first search's
    call; a build that raises stores nothing. The relaxed paths are built
    when an answer reads them, and kept.
    """

    def __init__(self, view: SuffixView, bounds: tuple):
        inst = view.instance
        # the table's records, not the table: the table holds this engine
        self.costs, self.offset = view.table.costs, view.offset
        self.T = inst.horizon
        self.K, self.c = inst.costs.fixed, inst.costs.unit
        self.total_mean = inst.demand_totals[0]
        self.inv_lo, self.inv_hi = bounds
        # lowest pinnable no-order starting level: period 1's closing
        # inventory must stay within bounds for at least one pattern
        self.pin_lower = self.inv_lo + inst.means[0]
        self.nodes = 0
        self.certified = 0
        self.fallbacks = 0
        self._free: tuple | None = None   # (free optimum or None,), memoized
        self._paths: dict = {}   # j -> (levels, pattern) of its path

    def records(self, j: int) -> list:
        """The table's records of local cycles j..T, entry e - j being
        cycle j..e's; local period 1 opens the suffix."""
        return self.costs.start(j + self.offset, j == 1)

    @cached_property
    def relaxation(self) -> _Relaxation:
        """One pass over the cycle starts j = T..1: start j's row and V(j)
        and, for j >= 2, the relaxed path's first level and `chained` flag;
        then each first cycle's (cost, y_lo, y_hi) and the limits.

        Arc e of row j is cycle j..e alone: K if it orders (j > 1), plus
        its priced cost minimized over its level bounds widened by
        solve_pattern's 1e-9 slack, plus the unit cost's constant if it
        closes the horizon; math.inf where solve_pattern would find no
        level for it."""
        T, K, c = self.T, self.K, self.c
        inv_lo, inv_hi = self.inv_lo, self.inv_hi
        rows = [None] * (T + 1)
        cost_to_go = [None] * (T + 1) + [0.0]
        levels = [None] * (T + 2)
        chained = [None] * (T + 1) + [True]
        for j in range(T, 0, -1):
            records = self.records(j)
            # a free first level is the initial one, at most inv_hi
            hi = inv_hi if j == 1 else inv_hi + records[0][1]
            arc = [math.inf] * j
            for cost, mean in records:
                lo = inv_lo + mean
                if lo > hi + 1e-9:
                    arc.append(math.inf)
                    continue
                value = cost.minimize(lo - 1e-9, hi + 1e-9)[1]
                if j > 1:
                    value += K
                arc.append(value)
            if c:
                arc[T] += c * (self.total_mean - records[-1][1])
            rows[j] = _, reach, end = self._row(j, arc, cost_to_go)
            cost_to_go[j] = reach[j + 1]
            if j > 1:
                cost, mean = records[end - j]
                levels[j] = y = cost.argmin()
                chained[j] = (chained[end + 1] and inv_lo + mean <= y <= hi
                              and (end == T or levels[end + 1] >= y - mean))
        y_hi = inv_hi + records[0][1]
        firsts = [None] + [(cost, inv_lo + mean, y_hi) for cost, mean in records]
        limits = [None] + [levels[e + 1] + records[e - 1][1]
                           if chained[e + 1] else -math.inf
                           for e in range(1, T)] + [math.inf]
        return _Relaxation(rows, cost_to_go, levels, chained, firsts, limits)

    def _path(self, j: int) -> tuple:
        """(levels, pattern) of the relaxed path from start j >= 2, empty
        at j = T + 1, built from the relaxation's pointers on first use and
        kept; its pattern orders at its starts."""
        hit = self._paths.get(j)
        if hit is None:
            if j > self.T:
                hit = [], (0,) * self.T
            else:
                relax = self.relaxation
                levels, pattern = self._path(relax.rows[j][2] + 1)
                hit = ([relax.levels[j]] + levels,
                       pattern[:j - 1] + (1,) + pattern[j:])
            self._paths[j] = hit
        return hit

    def solve_pattern(self, deltas: tuple, pinned_i0: float | None):
        """(cost, y-levels) for one order pattern, or None if infeasible.

        The pattern's cycles open at period 1 and at every order. Pool-
        adjacent pass over the chain y_c >= y_{c-1} - D_{c-1}, in the stack
        form of Best and Chakravarti (1990): it pools the same blocks as a
        scan that restarts from the left after every merge. A pinned first
        level (fixed initial inventory) propagates as a hard lower bound
        through any merge containing it.
        """
        T = self.T
        starts = [1] + [t for t in range(2, T + 1) if deltas[t - 1]]
        ends = [j - 1 for j in starts[1:]] + [T]
        records = [self.records(j) for j in starts]
        cycles = [rec[e - j] for rec, j, e in zip(records, starts, ends)]
        m = len(cycles)
        offsets = np.zeros(m)
        for i in range(1, m):
            offsets[i] = offsets[i - 1] + cycles[i - 1][1]
        # in z = y + cumulative demand; the first cycle's offset is 0, so
        # its record's cost serves as is, with its memoized sort and minimum
        funcs = [cycles[0][0]] + [cycles[i][0].shifted(offsets[i])
                                  for i in range(1, m)]
        y_los = [self.inv_lo + mean for _, mean in cycles]
        y_his = [self.inv_hi + rec[0][1] for rec in records]
        z_los = y_los + offsets
        z_his = y_his + offsets
        # the first level doubles as the initial-inventory variable
        z_his[0] = self.inv_hi
        pin = pinned_i0
        if pin is not None and not (y_los[0] - 1e-9 <= pin <= y_his[0] + 1e-9):
            return None

        # blocks [first, last, func, z, pinned] that keep the chain; the
        # leftmost pair that breaks it is always the top two
        stack = []
        for i, f in enumerate(funcs):
            if i == 0 and pin is not None:
                stack.append([0, 0, f, pin, True])
            elif z_los[i] > z_his[i] + 1e-9:
                return None
            else:
                stack.append([i, i, f, f.minimize(z_los[i], z_his[i])[0], False])
            while len(stack) > 1 and stack[-2][3] > stack[-1][3] + 1e-9:
                a, b = stack[-2:]
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
                stack[-2:] = [[a[0], b[1], f, z, a[4]]]
        z_opt = np.empty(m)
        cost = 0.0
        for first, last, f, z, _ in stack:
            z_opt[first:last + 1] = z
            cost += f(z)
        y_opt = z_opt - offsets
        cost += self.K * (m - 1)
        if self.c:
            cost += self.c * (self.total_mean - cycles[-1][1])
        return float(cost), y_opt

    def _row(self, j: int, arc: list, cost_to_go: list) -> tuple:
        """(arc, reach, end) for a cycle opened at j, arc[e] being the
        relaxed cost of cycle j..e: reach[t] is the cheapest relaxed cost
        of closing it at some e >= t - 1 and completing the horizon from
        e + 1 at the cost-to-go V(e + 1) (so reach[j + 1] is V(j)), and
        `end` the smallest e attaining reach[j + 1]."""
        reach = [math.inf] * (self.T + 2)
        best = math.inf
        for e in range(self.T, j - 1, -1):
            value = arc[e] + cost_to_go[e + 1]
            if value <= best:
                end = e
                if value < best:  # min(best, value), keeping best on a tie
                    best = value
            reach[e + 1] = best
        return arc, reach, end

    def _first_arc(self, x: float) -> list:
        """The arcs of the first cycle pinned at x: arc[e] is cycle 1..e's
        priced cost at x (inf outside its level bounds widened by
        solve_pattern's 1e-9 slack). So arc[e] + V(e + 1) is the envelope's
        piece F_e(x): the unit cost's constant, c times the mean demand
        before the horizon's last cycle, is 0 for the single cycle 1..T.
        Every cycle 1..e's kinks are a prefix of cycle 1..T's: the hinge
        max(x - kink, 0) is formed once, and each arc dots its prefix with
        the cycle's deltas, the numbers that ConvexPWL.__call__ sums, in
        its order."""
        T = self.T
        firsts = self.relaxation.firsts
        hinge = np.maximum(x - firsts[T][0].kinks, 0.0)
        arc = [math.inf] * (T + 1)
        for e in range(1, T + 1):
            f, y_lo, y_hi = firsts[e]
            if y_lo - 1e-9 <= x <= y_hi + 1e-9:
                arc[e] = (f.slope * x + f.const
                          + float(hinge[:len(f.deltas)] @ f.deltas))
        return arc

    def _first_row(self, x: float) -> tuple:
        """_row of the first cycle pinned at x: its reach[2] is R(x)."""
        return self._row(1, self._first_arc(x), self.relaxation.cost_to_go)

    def enumerate(self, pinned_i0: float | None):
        """Global optimum over all order patterns, by the branch and bound
        of the module docstring. Ties keep the lexicographically smallest
        pattern. Returns ((cost, deltas, y_levels) | None, nodes),
        nodes counting the distinct patterns passed to solve_pattern.
        """
        if pinned_i0 is None:
            return self._search(self.relaxation.rows[1], None)
        return self._search(self._first_row(pinned_i0), pinned_i0)

    def _search(self, first: tuple, pinned_i0: float | None):
        """enumerate from the (pinned) first row `first`: a depth-first walk
        with delta_t = 0 before 1, on an explicit stack."""
        T = self.T
        rows = [None, first] + self.relaxation.rows[2:]
        _, reach, end = first
        if reach[2] == math.inf:
            return None, 0  # every pattern holds a cycle with no feasible level

        # the relaxed shortest path's pattern seeds the incumbent: the first
        # cycle's end from the first row, then the relaxed path
        seed_pattern = self._path(end + 1)[1]
        seed = self.solve_pattern(seed_pattern, pinned_i0)
        seed_cost = math.inf if seed is None else seed[0]
        nodes = 1
        best = None
        deltas = [0] * T
        # (t, j, closed): periods j..t-1 form the open cycle, delta_t is
        # decided next, and the closed cycles cost `closed`
        stack = [(2, 1, 0.0)]
        while stack:
            t, j, closed = stack.pop()
            if t > 2:
                deltas[t - 2] = int(j == t - 1)  # delta_{t-1}
            arc, reach, _ = rows[j]
            bound = closed + reach[t]
            ref = seed_cost if best is None else min(seed_cost, best[0])
            if bound == math.inf or bound > ref + 1e-6 * max(1.0, abs(ref)):
                continue
            if t > T:
                pattern = tuple(deltas)
                if pattern == seed_pattern:
                    solved = seed
                else:
                    nodes += 1
                    solved = self.solve_pattern(pattern, pinned_i0)
                if solved is not None and (best is None or solved[0] < best[0] - 1e-12):
                    best = (solved[0], pattern, solved[1])
                continue
            stack.append((t + 1, t, closed + arc[t - 1]))
            stack.append((t + 1, j, closed))
        return best, nodes

    def free_optimum(self):
        """The free minimum (cost, deltas, y_levels), or None where
        no pattern is feasible; searched on the first call only."""
        if self._free is None:
            best, nodes = self.enumerate(pinned_i0=None)
            self.nodes += nodes
            if best is not None:
                best[2].flags.writeable = False
            self._free = (best,)
        return self._free[0]

    def free_minimum(self):
        best = self.free_optimum()
        if best is None:
            raise SolverError("no feasible order pattern")
        return best

    def cost_at(self, x: float):
        """The optimum with the initial level pinned at x: read from the
        first cycle's arcs at x where an end attaining R(x) is certified,
        else searched from the first row pinned at x."""
        return self._answer(x, self._first_arc(x))

    def _answer(self, x: float, arc: list):
        """cost_at(x) from `arc`, the first cycle's arcs at x."""
        best = self._certified(x, arc)
        if best is not None:
            self.certified += 1
            return best
        best, nodes = self._search(
            self._row(1, arc, self.relaxation.cost_to_go), x)
        self.nodes += nodes
        if best is None:
            raise SolverError(f"no feasible pattern at initial level {x}")
        return best

    def _certified(self, x: float, arc: list):
        """cost_at(x) from the first cycle's arcs at x, or None where no
        certified end attains R(x) = min_e F_e(x). End e is certified at
        x <= U_e: its pattern then costs F_e(x) = arc[e] + V(e + 1) in
        solve_pattern, so g(x) <= F_e(x) = R(x) <= g(x). The smallest such
        e answers. R(x) is the first row's reach[2]: the same running
        minimum from e = T down, so the same bits."""
        relax = self.relaxation
        cost_to_go, limits = relax.cost_to_go, relax.limits
        low, chosen = math.inf, None
        for e in range(self.T, 0, -1):
            value = arc[e] + cost_to_go[e + 1]
            if value < low:
                low, chosen = value, e if x <= limits[e] else None
            elif value == low and x <= limits[e]:
                chosen = e
        if chosen is None or low == math.inf:
            return None
        levels, pattern = self._path(chosen + 1)
        return float(low), pattern, np.array([x] + levels)

    def reorder_root(self, target: float, hi: float):
        """(x, cost_at(x)) for the largest x <= hi with cost_at(x) = target,
        the pinned cost exceeding target far to the left.

        Walks the certified sublevel set {x <= U_e : F_e(x) < target} from
        hi leftward to the end x_C of its component, reading F_e from the
        first cycle's arcs at the walk's level, the arcs that also answer
        cost_at there; g < target on (x_C, hi], so x_C is the root if
        g(x_C) = target within ROOT_MATCH. Otherwise _largest_root
        searches below x_C.
        """
        arc = self._first_arc(hi)
        best = self._answer(hi, arc)
        if abs(best[0] - target) <= 1e-9:
            return hi, best  # K = 0: the order-up-to level is the root
        relax = self.relaxation
        x = hi
        moved = True
        while moved:
            moved = False
            for e in range(1, self.T + 1):
                const = relax.cost_to_go[e + 1]  # piece e's constant
                value = arc[e] + const
                if x <= relax.limits[e] and value < target:
                    f, y_lo, _ = relax.firsts[e]
                    left = max(f.left_crossing(
                        target - const, x, value - const), y_lo - 1e-9)
                    if left < x:
                        x, moved = left, True
                        arc = self._first_arc(x)
        if x < hi:
            best = self._answer(x, arc)
        if abs(best[0] - target) <= ROOT_MATCH:
            return x, best
        self.fallbacks += 1
        log.debug("reorder root of a %d-period suffix not certified; "
                  "bisecting below %r", self.T, x)
        cache = {x: best}

        def g(v: float) -> float:
            hit = cache.get(v)
            if hit is None:
                hit = cache[v] = self.cost_at(v)
            return hit[0]

        root, _ = _largest_root(g, target, x, best[0], self.pin_lower)
        return root, cache[root] if root in cache else self.cost_at(root)


def _largest_root(g, target: float, hi: float, g_hi: float, lo_limit: float):
    """Largest x <= hi with g(x) = target for a continuous piecewise-linear
    g that exceeds target far to the left. Expands a bracket leftward from
    hi, bisects to ROOT_TOLERANCE, then polishes on the final linear piece."""
    if abs(g_hi - target) <= 1e-9:
        return hi, g_hi
    if g_hi > target:
        raise SolverError("root search requires g(hi) <= target")
    step = 1.0
    left = hi
    g_left = g_hi
    while g_left < target:
        right, g_right = left, g_left
        left = hi - step
        step *= 2.0
        if left < lo_limit:
            left = lo_limit
        g_left = g(left)
        if left <= lo_limit and g_left < target:
            raise SolverError(
                f"no root above the lower limit {lo_limit}; bracket "
                f"[{left}, {right}] has costs [{g_left}, {g_right}]")
    lo, g_lo = left, g_left
    hi_b, g_hi_b = right, g_right
    width = ROOT_TOLERANCE
    while True:
        while hi_b - lo > width:
            mid = 0.5 * (lo + hi_b)
            g_mid = g(mid)
            if g_mid >= target:
                lo, g_lo = mid, g_mid
            else:
                hi_b, g_hi_b = mid, g_mid
        if g_hi_b < g_lo:  # secant polish on the final piece, exact if linear
            x = lo + (g_lo - target) * (hi_b - lo) / (g_lo - g_hi_b)
            gx = g(x)
            if abs(gx - target) <= 1e-7:
                return x, gx
        if width <= 1e-9:
            # a kink sits inside the bracket: the bracket end is the root
            # up to one slope-scaled width
            return lo, g_lo
        width = max(width * 1e-4, 1e-9)


def default_bounds(instance) -> tuple:
    """model.level_bounds at model.default_big_m: the level bounds of
    build_minlp_s with a free initial level and of build_joint."""
    return level_bounds(instance, default_big_m(instance))


def _engine_for(model: MilpModel) -> _SubmodelEngine:
    """A private no-order engine over the model's instance, segments and
    level bounds."""
    return _SubmodelEngine(CycleTable(model.instance, model.segments).suffix(1),
                           level_bounds(model.instance, model.big_m))


def solve_exact(model: MilpModel) -> SolveResult:
    """Global optimum of the linearized model; see the module docstring.
    The model's own engine answers it, so the node count is the patterns
    this solve searched."""
    start = time.perf_counter()
    if model.kind not in ("s", "S", "joint"):
        raise SolverError(f"unknown model kind {model.kind!r}")
    engine = _engine_for(model)
    kind = model.kind
    i0 = model.columns["s"].initial if kind == "s" else None
    if i0 is not None and model.lb[i0] == model.ub[i0]:
        # the pinned level is the pattern's first level, y_opt[0]
        best, nodes = engine.enumerate(pinned_i0=float(model.lb[i0]))
        engine.nodes += nodes
    else:
        best = engine.free_optimum()
    if best is None:
        return SolveResult(math.nan, np.empty(0), {}, "infeasible", engine.nodes,
                           time.perf_counter() - start)
    x = np.zeros(len(model.names))
    engine_cost = None
    if kind == "joint":
        index = model.index
        _put_joint(x, model.piecewise, [model.columns],
                   np.array([[index["C_S"], index["G_s"]]]), [joint_answer(engine)])
    else:
        if kind == "S":
            best = _forced(engine, best)
        _put_sides(x, model.piecewise, [(model.columns[kind], *best[1:])])
        engine_cost = best[0]
    obj = model.objective_value(x)
    _self_check(model, x, obj, engine_cost)
    return SolveResult(obj, x, model.index, "optimal", engine.nodes,
                       time.perf_counter() - start)


def _put_sides(x: np.ndarray, pw, sides: list) -> None:
    """Write solved submodel sides into the column vector x, one array pass
    over the periods of all of them. A side is (Columns, deltas, y-levels)
    of its pattern, one level per cycle: a cycle opens at period 1 and at
    every order. Each period gets delta_t, the selector P_jt of its cycle
    (its other P stay 0), I0 and I_t = y - mean_t at its cycle's level y,
    and H_t and B_t = H_t - I_t from the selected rule of `pw`, the
    max-of-lines form that verify_assignment checks."""
    columns = [cols for cols, _, _ in sides]
    orders = [d for _, deltas, _ in sides for d in deltas]
    lengths = [len(deltas) for _, deltas, _ in sides]
    heads = np.zeros(len(orders), dtype=bool)  # every side's period 1
    heads[np.cumsum([0] + lengths[:-1])] = True
    opens = heads | np.array(orders, dtype=bool)
    period = np.arange(len(orders))
    # the latest cycle start at or before each period, local to its side
    starts = (np.maximum.accumulate(np.where(opens, period, 0))
              - np.maximum.accumulate(np.where(heads, period, 0)))
    levels = np.concatenate([y_opt for _, _, y_opt in sides])[np.cumsum(opens) - 1]

    def at(field: str) -> np.ndarray:
        return np.concatenate([getattr(c, field) for c in columns])

    rules = at("rules") + starts
    shift = pw.shift[rules]
    inv = levels - shift
    hold = ((inv + shift)[:, None] * pw.slopes[rules]
            + pw.intercepts[rules]).max(axis=1)
    x[at("order")] = orders
    x[pw.selector[rules]] = 1.0
    # the first level doubles as the initial one
    x[[c.initial for c in columns]] = [y_opt[0] for _, _, y_opt in sides]
    x[at("inventory")] = inv
    x[at("holding")] = hold
    x[at("backorder")] = hold - inv


def _forced(engine: _SubmodelEngine, free: tuple) -> tuple:
    """The forced-order optimum from the no-order free one: the period-1
    order adds K, and the levels stay."""
    cost, deltas, y_opt = free
    return cost + engine.K, (1,) + deltas[1:], y_opt


def joint_answer(engine: _SubmodelEngine) -> tuple:
    """(forced, root, pinned): a joint model's answer from its suffix's
    no-order engine. `forced` is the forced-order side (cost, deltas,
    levels) at the free minimum, whose first level is the
    order-up-to level and whose cost the linked cost C_S; `root` is the
    reorder point and `pinned` the no-order side pinned there."""
    forced = _forced(engine, engine.free_minimum())
    root, pinned = engine.reorder_root(forced[0], float(forced[2][0]))
    return forced, root, pinned


def _put_joint(x: np.ndarray, pw, columns: Sequence, linked: np.ndarray,
               answers: list) -> None:
    """Write joint answers into x: each with its (label -> Columns) and
    (C_S, G_s) columns. The no-order side's initial level is its root."""
    sides = []
    for cols, (forced, _, pinned) in zip(columns, answers):
        sides += [(cols["S"], *forced[1:]), (cols["s"], *pinned[1:])]
    _put_sides(x, pw, sides)
    x[[cols["s"].initial for cols in columns]] = [root for _, root, _ in answers]
    x[linked] = [(forced[0], pinned[0]) for forced, _, pinned in answers]


def check_joint_answers(table: CycleTable, answers: list) -> None:
    """Check the joint answers of suffixes 1..m of a table's instance at
    once: answers[k - 1] is joint_answer of table.engine(k). Fills the
    instance's JointStack of m blocks from the table's segments, each
    block's levels bounded as its engine's, writes every answer into one
    column vector and verifies it; a violation names its suffix and row."""
    instance, segments = table.instance, table.segments
    stack = JointStack.of(instance.horizon, segments.slopes.shape[1],
                          bool(instance.costs.unit), len(answers))
    engines = map(table.engine, range(1, len(answers) + 1))
    model = stack.fill(instance, segments,
                       [(e.inv_lo, e.inv_hi) for e in engines])
    x = np.zeros(len(model.names))
    _put_joint(x, model.piecewise, stack.columns, stack.linked, answers)
    _self_check(model, x, None, None, stack)


def _self_check(model: MilpModel, x: np.ndarray, obj: float | None,
                engine_cost: float | None, stack: JointStack | None = None) -> None:
    """Verify a solve's own column vector against the model, a JointStack's
    filled `stack` by its suffixes; names are built only for a failure."""
    bad = (verify_assignment(model, x, tol=1e-6) if stack is None
           else stack.verify(model, x, tol=1e-6))
    if bad:
        raise SolverError(f"internal solution fails verification: {bad[:3]}")
    if engine_cost is not None and abs(obj - engine_cost) > 1e-6 * max(1, abs(obj)):
        raise SolverError(
            f"objective mismatch: rows give {obj}, engine gave {engine_cost}")


def import_solution(model: MilpModel, path) -> SolveResult:
    """Validate an external solver's `name value` file against the model.

    The objective is recomputed from the assignment, never trusted from the
    file. Unknown names referencing no model variable are rejected; export
    auxiliaries (segment selectors, the constant-one column) are ignored.
    """
    start = time.perf_counter()
    assignment = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise SolverError(f"{path}: parse error: empty solution file")
    for ln in lines:
        parts = ln.split()
        if len(parts) != 2:
            raise SolverError(f"{path}: parse error on line {ln!r}")
        name, value = parts
        if name not in model.index:
            if name == "ONE" or name.startswith("z_"):
                continue
            raise SolverError(f"{path}: name mismatch: unknown variable {name!r}")
        try:
            assignment[name] = float(value)
        except ValueError as exc:
            raise SolverError(f"{path}: bad value for {name}: {value!r}") from exc
    for col, name in enumerate(model.names):
        if name not in assignment:
            if model.lb[col] != model.ub[col]:
                raise SolverError(f"{path}: name mismatch: missing variable {name!r}")
            assignment[name] = float(model.lb[col])
    bad = verify_assignment(model, assignment, tol=1e-6)
    if bad:
        name, amount = bad[0]
        raise SolverError(
            f"imported solution violates {name} by {amount:.3e} "
            f"({len(bad)} rows beyond tolerance)")
    x = model.vector(assignment)
    obj = model.objective_value(x)
    return SolveResult(obj, x, model.index, "optimal", 0,
                       time.perf_counter() - start)


class ExactBackend:
    """Default backend: the in-repo branch-and-bound solver.

    Order patterns are searched under the separable cycle relaxation
    described in the module docstring; its bound is a true lower bound on
    every pattern below it and prunes only past a margin above the
    incumbent, so the optimum, its cost and its levels are those of a full
    enumeration of the 2^(T-1) patterns.

    The heuristics default to it, and bench/tracing.py, which wraps it to
    time solver spans through their `backend=` parameter, is its only
    remaining reader; ROADMAP item 2 deletes it with SuffixView.horizon.
    """

    def evaluator(self, view: SuffixView) -> _SubmodelEngine:
        """The no-first-order model of a suffix, as build_minlp_s would
        build it with a free initial level: its table's shared engine."""
        return view.table.engine(view.offset + 1)
