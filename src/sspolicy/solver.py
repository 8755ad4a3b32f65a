"""Exact in-repo optimizer for the canonical lot-sizing models.

The binaries of these models encode nothing but the order-timing pattern:
once every delta_t is fixed, the P selectors are implied and the residual
problem separates into replenishment cycles, each contributing a convex
piecewise-linear cost in its start-of-cycle level. Cycles are coupled only
by nonnegative order quantities, an isotonic chain that a pool-adjacent
pass solves exactly.

Patterns are searched by a depth-first branch and bound over delta_2..T,
0 before 1, so leaves arrive in the lexicographic order of a full
enumeration. The bound drops only the order-quantity link after a cycle:
each cycle (j, e) then costs K if it orders plus its own convex cost
minimized alone over its level bounds, and the horizon after it at least
W(e + 1), the solved cost of the later suffix that starts at e + 1 (the
tails below). A subtree's bound is its closed cycles plus the cheapest
such completion of its open cycle. The first row's cheapest end,
completed by its tail's answer, is the starting incumbent. A subtree is
pruned only when its bound exceeds the better of the incumbent and the
best leaf by a relative margin of 1e-6, which covers the pool-adjacent
pass's 1e-9 bound slack and rounding. Every pattern within that margin of
the optimum is therefore solved, in the same order and with the same
acceptance rule as a full enumeration, and those are the only patterns
that can decide the winner: the winning pattern, its cost and its levels
equal the full enumeration's.

Tails. Both heuristics solve every suffix, so each suffix engine reads the
solved later suffixes, the Wagner-Whitin (1958) backward recursion over
regeneration points. In suffix k, a first cycle 1..e < T is followed by
suffix k + e. Its free optimum gives three things: W(e + 1), its cost plus
K for its order plus c D(1..e), the unit cost's constant of a horizon
whose last cycle starts after e (W(T + 1) = 0); the limit U_e = S +
D(1..e), S being its first level (U_T = +inf); and the completion, cycle
1..e followed by its pattern and levels. W is summed as the search's rows
sum it: a tail whose free minimum was certified carries (its winning
piece's minimum + K) + that piece's own W, one that fell back to the
search K + its cost. Every engine of a table shares the table's level
bounds, so a tail's optimum bounds the later cycles of an earlier suffix
from below. (A tail's first level is also its initial level, at most
inv_hi, where a later cycle's may reach inv_hi + D(j..j); no optimum sits
near the big-M level bound.)

Only the no-order submodel is searched. The forced-order model differs
from it by the period-1 order alone, which adds K to every pattern and
leaves the levels free, so its optimum is the no-order free optimum plus K
at the same levels, with delta_1 = 1. Joint models are solved by one
no-order engine (joint_answer): its free minimum gives the order-up-to
level and, plus K, the linked cost; the reorder point is the largest root
of its pinned cost curve equal to that cost at or below the order-up-to
level (deterministic replacement for the solver's free root choice).

The free minimum is one pass over the first-cycle pieces: piece e is
record (1, e) minimized over [inv_lo + D(1..e), inv_hi], widened by
solve_pattern's 1e-9 slack, plus W(e + 1). Dropping the link makes every
piece a lower bound on the patterns whose first cycle ends at e. The
answer is exact without a search when exactly one piece lies within 1e-9
relative of the lowest, its minimizer is at most U_e (the completion then
keeps the order chain) and its tail was itself exact: its pattern is then
the only one within that margin, so the branch and bound would return it
too. solve_pattern of that pattern, counted as one node, is the answer;
otherwise the branch and bound searches, and the answer is not exact.

The pinned cost g(x), the no-order optimum with the first level fixed at
x, has one evaluation: the first cycle's arcs pinned at x (_first_arc),
the arcs of the branch and bound's first row. Its arc[e] is the priced
first cycle 1..e at x, so F_e(x) = arc[e] + W(e + 1), the cycle
completed by its tail, is a convex piecewise-linear function of x, and
R(x) = min_e F_e(x), the pinned first row's reach[2], is an envelope that
bounds g from below. For x <= U_e the completion of e keeps the order
chain, so solve_pattern merges nothing and it costs exactly F_e(x). So
where an end attaining R(x) has x <= U_e, g(x) = R(x), and cost_at
returns that completion without a search, in one pass over the arcs;
otherwise it forms the pinned first row from the same arcs (_first_row)
and searches from it. The reorder root walks the certified sublevel set
{x <= U_e : F_e(x) < target} leftward from the order-up-to level to the
end x_C of its component, reading F_e from the arcs pinned at the walk's
level and solving each crossing in closed form. Since g < target on
(x_C, S], x_C is the largest root when g(x_C) meets the target. Otherwise
the root falls back to a bisection below x_C; the engine counts such
fallbacks and logs each at DEBUG level. Every cycle 1..e is a cycle of the
suffix's first start, so its kinks are a prefix of cycle 1..T's (see
CycleTable below): the pinned arcs form the hinge max(x - kink, 0) once
over those kinks, and each arc dots its prefix of the hinge with the
cycle's deltas, the same numbers summed in the same order as evaluating
the cycle alone.

An answer is (cost, pattern, levels): the order pattern delta_1..T and
one level per cycle. The pattern implies the cycles, which open at period 1
and at every order, so nothing else is kept: a solved pattern reads its
cycles' costs from the table's records and their level bounds from its
engine. A solve writes its answer into one float vector in the model's
column order. The model records where each submodel's variables sit
(model.Columns), so the pattern, the levels and the selected cycle pairs
go straight to their columns, every side in one array pass (_put_sides)
that derives each period's cycle start and level from the pattern;
H_t comes from the lines of the Segments row the selected piecewise rule
points at, the max-of-lines form verify_assignment checks, and B_t = H_t -
I_t. _self_check verifies that vector against the model on every solve,
and names are built only for a failure. SolveResult keeps the vector with the model's name -> column
index. mp_policy builds no model per suffix: check_joint_answers writes
the joint answers of all suffixes of an instance into one vector of the
instance's model.JointStack, whose diagonal blocks are the suffixes' joint
models, and verifies it with one pass; a violation names its suffix and
row.

Cycle data lives in a CycleTable, one per instance: its model.Segments
and, built on first use, one record per cycle (j, e): (cost, mean), its
priced convex cost and its mean demand D(j..e), kept per start j as the
list of cycles j..T (_PricedCycles). The unit cost c is charged from level
zero, as the SDP oracle charges it (Scarf 1960): a pattern's orders sum to
I_T - I_0 + D(1..T), so c (I_T + D(1..T)) is c times that sum plus c I_0,
the cost of buying the start level. Its level term c y therefore sits on
the horizon's last cycle alone, and the constant c D(1..j-1) on the pattern
whose last cycle starts at j. The cycles of one start j come
from one array pass: the breakpoints of rows (j, j..T) are
flattened once into kinks, the slope steps tiled into deltas, and cycle
(j, e) is a ConvexPWL over a read-only prefix of them, bit-equal to adding
the pieces one at a time with ConvexPWL.plus. The same pass sorts the
start's kinks once: a prefix's stable order is the full one filtered to
the prefix, so one masked running sum gives every record its sorted
running slopes, and each record memoizes its free minimizer and the
minimum there, bit-equal to sorting its own kinks. A record sorts its own
kinks only if left_crossing reads them.
The heuristics solve every suffix
k..T, its free minimum and every root-search step, from the one table
through its engine CycleTable.engine(k), which shifts local periods by
k - 1 to read the table's cycles. Sharing is exact:
suffix k's (j, t) piece is the instance's (j + k - 1, t + k - 1) piece,
the normal loss of the same demand slice summed in the same order, so a
cycle's cost is the same function, built by the same operations,
whichever suffix reads it. Level
bounds are the table's, one (inv_lo, inv_hi) pair for every suffix, and
each engine clamps the shared free minimizer to them with
ConvexPWL.minimize. Each period's closing
inventory I_t = y - D(j..t) must lie in [inv_lo, inv_hi]. Means are
non-negative and D(j..t) is a running sum from 0.0, which adding a
non-negative double never lowers, so the binding periods are the last and
the first: cycle (j, e)'s levels lie in [inv_lo + D(j..e), inv_hi +
D(j..j)], both read from the start's records. A free first cycle's level
is also the initial inventory, within [inv_lo, inv_hi]: its upper bound is
inv_hi, and its lower one is already above inv_lo.

The table also owns one no-order engine per suffix (CycleTable.engine),
built on first use at the table's level bounds: default_bounds of the
instance (those of build_minlp_s with a free initial level, which
build_joint shares) unless the table was given others. Engine k is built
with the engines of suffixes k + 1..T, its tails, and solves their free
minima from the last suffix back on first use, so the recursion stays
shallow. The heuristics read each suffix's engine by its index k, so
those that run on one table solve each suffix once: the engine
memoizes its free minimum and its tails' (W, U, completion) lists, and
builds the branch and bound's rows of the later cycle starts only when a
search runs. All are pure functions of the suffix, its tails and the
bounds, so an answer does not depend on which caller filled them, and a
build that raises stores nothing. A cycle's level bounds are applied
where its record is read. An engine holds the table's records and its
tails' engines, not the table, so a table and its engines are freed by
reference counting. solve_exact solves every model with an engine of its
own, over a table of the model's instance and segments at the model's
level bounds, so its answer and node count depend on the model alone.
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

from .domain import running_sums
from .model import (JointStack, MilpModel, Segments, default_bounds,
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

    The free minimizer and the cost there are memoized: a cycle record's
    are set by _PricedCycles from its start's one kink sort, any other
    cost forms them from its own sort on first use, both by _set_free. The
    stable sort of the kinks, with the running sums of the sorted deltas,
    is formed on first use (left_crossing, and a minimum not set from
    outside); its arrays are read-only."""

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
                + float(np.maximum(x - self.kinks, 0.0).dot(self.deltas)))

    def plus(self, other: "ConvexPWL") -> "ConvexPWL":
        return ConvexPWL(self.slope + other.slope, self.const + other.const,
                         np.concatenate((self.kinks, other.kinks)),
                         np.concatenate((self.deltas, other.deltas)))

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
        """Minimizer over the whole line, by _set_free's rule."""
        return self._minimum()[0]

    def _minimum(self) -> tuple:
        """(argmin, f there), nan where argmin is infinite; memoized."""
        if self._free is None:
            kinks, rises = self._sort()
            _set_free([self], (self.slope + rises)[None], kinks)
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
    periods, each start's built, with its records' free minima from one
    kink sort, in one array pass on first use. The
    instance's CycleTable and every engine it builds read the same records;
    this holds no engine, so an engine that holds it keeps no reference
    back to its table."""

    def __init__(self, instance, segments: Segments):
        self.instance = instance
        self.segments = segments
        self._starts: dict = {}  # j -> records of cycles j..T

    def start(self, j: int) -> list:
        """The records (cost, mean) of cycles j..T, entry e - j being
        cycle j..e's. The cost is a ConvexPWL of the start-of-cycle level y
        over read-only prefixes of start j's kink arrays, the horizon's
        last cycle carrying the unit cost's c y; the mean is D(j..e).
        Every cost's free minimum is memoized when the start is built."""
        hit = self._starts.get(j)
        if hit is None:
            hit = self._starts[j] = self._build_start(j)
        return hit

    def _build_start(self, j: int) -> list:
        """Every cycle (j, e)'s record, in one array pass.

        Cycle (j, e) sums pieces (j, j..e): its kinks and deltas are a
        prefix of those rows' breakpoints and steps, and its slope and
        constant are running sums from 0.0, so the result is bit-equal to
        adding the pieces one at a time with ConvexPWL.plus. The horizon's
        last cycle's slope adds the unit cost c. Every record's
        free minimum comes from one stable sort of the start's kinks
        (_set_minima).
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
        slopes[-1] += c  # c y for the horizon's last cycle
        consts = list(accumulate([hb * e + b * mean for e, mean in
                                  zip(segs.errors[rows].tolist(), shifts)],
                                 initial=0.0))[1:]
        ends = range(cells, cells * count + 1, cells)
        priced = [ConvexPWL(slope, const, kinks[:n], deltas[:n])
                  for slope, const, n in zip(slopes, consts, ends)]
        _set_minima(priced, kinks, deltas, ends)
        return list(zip(priced, shifts))


def _set_minima(costs: list, kinks: np.ndarray, deltas: np.ndarray,
                ends: range) -> None:
    """Memoize every cost's free (argmin, min) by _set_free, from one
    stable sort of a start's kinks: one cost per cycle, cost i over the
    prefix kinks[:ends[i]].

    A prefix's stable order is the full one filtered to indices below its
    length. So row i of `rises`, the running sum of the sorted deltas with
    each kink outside cost i's prefix adding +0.0 (which leaves a
    non-negative sum's bits alone), holds cost i's own running sums at its
    kinks, and its slopes change only at its own kinks."""
    order = np.argsort(kinks, kind="stable")
    steps = np.zeros((len(ends), len(kinks) + 1))
    steps[:, 1:] = np.where(order < np.array(ends)[:, None], deltas[order], 0.0)
    rises = steps.cumsum(axis=1)
    slopes = np.array([f.slope for f in costs])
    _set_free(costs, slopes[:, None] + rises, kinks[order])


def _set_free(costs: list, slopes: np.ndarray, kinks: np.ndarray) -> None:
    """Memoize each cost's free (argmin, min), nan where the argmin is
    infinite. `kinks` is sorted, and row i of `slopes` is costs[i]'s slope
    left of kinks[0] and then right of each kink: nondecreasing by
    convexity, and changing only at costs[i]'s own kinks. A slope below
    -1e-11 falls and one above 1e-11 rises. The minimum lies between the
    last falling piece and the first rising one, at the midpoint where they
    are apart, and the argmin is inf where f never rises, -inf where it
    never falls."""
    after_fall = np.argmin(slopes < -1e-11, axis=1).tolist()
    first_rise = np.argmax(slopes > 1e-11, axis=1).tolist()
    for f, first, last, a, z in zip(costs, slopes[:, 0].tolist(),
                                    slopes[:, -1].tolist(), after_fall,
                                    first_rise):
        if not last > 1e-11:
            x = math.inf
        elif not first < -1e-11:
            x = -math.inf
        else:  # kinks[a - 1] ends the last falling piece
            x = float(kinks[a - 1] if a == z
                      else 0.5 * (kinks[a - 1] + kinks[z - 1]))
        f._free = x, f(x) if math.isfinite(x) else math.nan


class CycleTable:
    """Segment data and cycle costs of one instance, keyed by the instance's
    own (1-based) periods, its level bounds, and one no-order engine per
    suffix; see the module docstring. The cycles slice the Segments' rows,
    and a model or stack reads its model rows."""

    def __init__(self, instance, segments: Segments, bounds=None):
        segments.check(instance)
        self.instance = instance
        self.segments = segments
        self.bounds = default_bounds(instance) if bounds is None else bounds
        self.costs = _PricedCycles(instance, segments)
        self._engines: dict = {}  # suffix k -> its no-order engine

    def engine(self, k: int) -> "_SubmodelEngine":
        """Suffix k's no-order engine at the table's level bounds, built on
        first use with the engines of suffixes k + 1..T, and shared by
        every caller. ValueError unless 1 <= k <= T."""
        T = self.instance.horizon
        if not 1 <= k <= T:
            raise ValueError(f"suffix index k={k!r} outside 1..{T}")
        for j in range(T, k - 1, -1):
            if j not in self._engines:
                later = [self._engines[i] for i in range(j + 1, T + 1)]
                self._engines[j] = _SubmodelEngine(self.costs, j, self.bounds,
                                                   later)
        return self._engines[k]

    def work(self) -> tuple:
        """(patterns solved, certified cost_at answers, root fallbacks),
        summed over the engines built so far."""
        engines = self._engines.values()
        return (sum(e.nodes for e in engines), sum(e.certified for e in engines),
                sum(e.fallbacks for e in engines))


class _SubmodelEngine:
    """Order-pattern search for the no-order submodel of a suffix.

    `costs` holds the instance's cycle records and `k` opens the suffix,
    local period t being the instance's t + k - 1; `bounds` gives the
    (lower, upper) bound of every inventory level, the initial one
    included (model.level_bounds), and `later` the engines of the suffixes
    after it, later[e - 1] being the tail after a first cycle 1..e, all at
    the same bounds. A fixed initial level is passed to
    `enumerate`. `free_minimum` and `cost_at` are its optimum with a free
    and a fixed initial level, `reorder_root` the largest level at which
    the latter reaches a target; `nodes` counts the patterns they solved,
    `certified` the `cost_at` answers read from the pinned first cycle and
    `fallbacks` the roots that needed `_largest_root`. The free minimum is
    solved once and memoized, its levels read-only. An answer is (cost,
    deltas, levels): the pattern, deltas[t - 1] being delta_t, and one
    level per cycle, the cycles starting at period 1 and at every order. A
    solved pattern reads its cycles' costs and means from the table's
    records, and their level bounds from those means and `inv_lo` and
    `inv_hi`. `tails` and the search's rows are built whole on first use;
    a build that raises stores nothing.
    """

    def __init__(self, costs: _PricedCycles, k: int, bounds: tuple,
                 later: list):
        inst = costs.instance.suffix(k)
        # the table's records, not the table: the table holds this engine
        self.costs, self.offset = costs, k - 1
        self.later = later
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
        # (free optimum or None, its cost as a tail's W sums it, exact)
        self._free: tuple | None = None

    def records(self, j: int) -> list:
        """The table's records of local cycles j..T, entry e - j being
        cycle j..e's; local period 1 opens the suffix."""
        return self.costs.start(j + self.offset)

    @cached_property
    def tails(self) -> tuple:
        """(W, limits, completions) from the later suffixes' free optima,
        solved from the last suffix back: W[e + 1] the tail's cost after a
        first cycle 1..e, limits[e] = U_e and completions[e] the (pattern,
        levels) of that cycle followed by the tail's answer (W[T + 1] = 0,
        U_T = +inf); inf, -inf and None after an infeasible tail."""
        T, c = self.T, self.c
        first = self.records(1)
        W = [math.inf] * (T + 1) + [0.0]
        limits = [-math.inf] * T + [math.inf]
        completions = [None] * T + [((0,) * T, np.empty(0))]
        for e in range(T - 1, 0, -1):
            tail = self.later[e - 1]
            best = tail.free_optimum()
            if best is not None:
                mean = first[e - 1][1]  # D(1..e)
                W[e + 1] = tail._free[1] + c * mean
                limits[e] = float(best[2][0]) + mean
                completions[e] = (0,) * e + (1,) + best[1][1:], best[2]
        return W, limits, completions

    @cached_property
    def _rows(self) -> list:
        """The branch and bound's row of every cycle start j >= 2 (entries 0
        and 1 unused), its arcs completed at the tails' W."""
        W = self.tails[0]
        return [None, None] + [self._row(j, self._arcs(j)[0], W)
                               for j in range(2, self.T + 1)]

    def _arcs(self, j: int) -> tuple:
        """(arc, levels) of a cycle opened at j: arc[e] is cycle j..e alone,
        K if it orders (j > 1), plus its priced cost minimized over its
        level bounds widened by solve_pattern's 1e-9 slack, at levels[e],
        plus the unit cost's constant if it closes the horizon; math.inf
        and None where solve_pattern would find no level for it. A free
        first level is the initial one, at most inv_hi."""
        records = self.records(j)
        hi = self.inv_hi if j == 1 else self.inv_hi + records[0][1]
        arc, levels = [math.inf] * (self.T + 1), [None] * (self.T + 1)
        for e, (cost, mean) in enumerate(records, start=j):
            lo = self.inv_lo + mean
            if lo <= hi + 1e-9:
                levels[e], value = cost.minimize(lo - 1e-9, hi + 1e-9)
                arc[e] = value + self.K if j > 1 else value
        arc[self.T] += self.c * (self.total_mean - records[-1][1])
        return arc, levels

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
        offsets = np.array(running_sums([mean for _, mean in cycles[:-1]]))
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
        cost += self.c * (self.total_mean - cycles[-1][1])
        return float(cost), y_opt

    def _row(self, j: int, arc: list, W: list) -> tuple:
        """(arc, reach, end) for a cycle opened at j, arc[e] being the
        relaxed cost of cycle j..e: reach[t] is the cheapest relaxed cost
        of closing it at some e >= t - 1 and completing the horizon from
        e + 1 at the tail's W(e + 1), and `end` the smallest e attaining
        reach[j + 1]."""
        reach = [math.inf] * (self.T + 2)
        best = math.inf
        for e in range(self.T, j - 1, -1):
            value = arc[e] + W[e + 1]
            if value <= best:
                end = e
                if value < best:  # min(best, value), keeping best on a tie
                    best = value
            reach[e + 1] = best
        return arc, reach, end

    def _first_arc(self, x: float) -> list:
        """The arcs of the first cycle pinned at x: arc[e] is cycle 1..e's
        priced cost at x (inf outside its level bounds widened by
        solve_pattern's 1e-9 slack). So arc[e] + W(e + 1) is the envelope's
        piece F_e(x): the unit cost's constant, c times the mean demand
        before the horizon's last cycle, is 0 for the single cycle 1..T.
        Every cycle 1..e's kinks are a prefix of cycle 1..T's: the hinge
        max(x - kink, 0) is formed once, and each arc dots its prefix with
        the cycle's deltas, the numbers that ConvexPWL.__call__ sums, in
        its order. Cycle 1..e's level bounds are [inv_lo + D(1..e),
        inv_hi + D(1..1)]."""
        first = self.records(1)
        hinge = np.maximum(x - first[-1][0].kinks, 0.0)
        inv_lo, y_hi = self.inv_lo, self.inv_hi + first[0][1]
        arc = [math.inf] * (self.T + 1)
        for e, (f, mean) in enumerate(first, start=1):
            if inv_lo + mean - 1e-9 <= x <= y_hi + 1e-9:
                arc[e] = (f.slope * x + f.const
                          + float(hinge[:len(f.deltas)].dot(f.deltas)))
        return arc

    def _first_row(self, x: float) -> tuple:
        """_row of the first cycle pinned at x: its reach[2] is R(x)."""
        return self._row(1, self._first_arc(x), self.tails[0])

    def enumerate(self, pinned_i0: float | None):
        """Global optimum over all order patterns, by the branch and bound
        of the module docstring. Ties keep the lexicographically smallest
        pattern. Returns ((cost, deltas, y_levels) | None, nodes),
        nodes counting the distinct patterns passed to solve_pattern.
        """
        if pinned_i0 is None:
            return self._search(self._row(1, self._arcs(1)[0], self.tails[0]), None)
        return self._search(self._first_row(pinned_i0), pinned_i0)

    def _search(self, first: tuple, pinned_i0: float | None):
        """enumerate from the (pinned) first row `first`: a depth-first walk
        with delta_t = 0 before 1, on an explicit stack."""
        T = self.T
        rows = [None, first] + self._rows[2:]
        _, reach, end = first
        if reach[2] == math.inf:
            return None, 0  # every pattern holds a cycle with no feasible level

        # the first row's end, completed by its tail, seeds the incumbent
        seed_pattern = self.tails[2][end][0]
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
        no pattern is feasible; solved on the first call only."""
        if self._free is None:
            self._free = self._solve_free()
            if self._free[0] is not None:
                self._free[0][2].flags.writeable = False
        return self._free[0]

    def _solve_free(self) -> tuple:
        """(free optimum or None, its cost as a tail's W sums it, exact):
        the piece pass of the module docstring, or the branch and bound
        where it is not exact."""
        W, limits, completions = self.tails
        arc, levels = self._arcs(1)
        values = [a + w for a, w in zip(arc, W[1:])]  # piece e's at e
        low = min(values[1:])
        near = [e for e in range(1, self.T + 1)
                if values[e] - low <= 1e-9 * max(1.0, abs(low))]
        if low < math.inf and len(near) == 1:
            e, = near
            if levels[e] <= limits[e] and (e == self.T or self.later[e - 1]._free[2]):
                pattern = completions[e][0]
                solved = self.solve_pattern(pattern, None)
                self.nodes += 1
                if solved is not None:
                    return ((solved[0], pattern, solved[1]),
                            (arc[e] + self.K) + W[e + 1], True)
        best, nodes = self.enumerate(pinned_i0=None)
        self.nodes += nodes
        return best, math.inf if best is None else self.K + best[0], False

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
        best, nodes = self._search(self._row(1, arc, self.tails[0]), x)
        self.nodes += nodes
        if best is None:
            raise SolverError(f"no feasible pattern at initial level {x}")
        return best

    def _certified(self, x: float, arc: list):
        """cost_at(x) from the first cycle's arcs at x, or None where no
        certified end attains R(x) = min_e F_e(x). End e is certified at
        x <= U_e: its completion then costs F_e(x) = arc[e] + W(e + 1) in
        solve_pattern, so g(x) <= F_e(x) = R(x) <= g(x). The smallest such
        e answers. R(x) is the first row's reach[2]: the same running
        minimum from e = T down, so the same bits."""
        W, limits, completions = self.tails
        low, chosen = math.inf, None
        for e in range(self.T, 0, -1):
            value = arc[e] + W[e + 1]
            if value < low:
                low, chosen = value, e if x <= limits[e] else None
            elif value == low and x <= limits[e]:
                chosen = e
        if chosen is None or low == math.inf:
            return None
        pattern, levels = completions[chosen]
        return float(low), pattern, np.concatenate(([x], levels))

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
        W, limits, _ = self.tails
        first = self.records(1)
        x = hi
        moved = True
        while moved:
            moved = False
            for e in range(1, self.T + 1):
                const = W[e + 1]  # piece e's constant
                value = arc[e] + const
                if x <= limits[e] and value < target:
                    f, mean = first[e - 1]
                    left = max(f.left_crossing(target - const, x, value - const),
                               self.inv_lo + mean - 1e-9)
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


def _engine_for(model: MilpModel) -> _SubmodelEngine:
    """A private no-order engine over the model's instance, segments and
    level bounds."""
    return CycleTable(model.instance, model.segments,
                      level_bounds(model.instance, model.big_m)).engine(1)


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
        _put_joint(x, model, [model.columns],
                   np.array([[index["C_S"], index["G_s"]]]), [joint_answer(engine)])
    else:
        if kind == "S":
            best = _forced(engine, best)
        _put_sides(x, model, [(model.columns[kind], *best[1:])])
        engine_cost = best[0]
    obj = model.objective_value(x)
    _self_check(model, x, obj, engine_cost)
    return SolveResult(obj, x, model.index, "optimal", engine.nodes,
                       time.perf_counter() - start)


def _put_sides(x: np.ndarray, model: MilpModel, sides: list) -> None:
    """Write solved submodel sides into the column vector x, one array pass
    over the periods of all of them. A side is (Columns, deltas, y-levels)
    of its pattern, one level per cycle: a cycle opens at period 1 and at
    every order. Each period gets delta_t, the selector P_jt of its cycle
    (its other P stay 0), I0 and I_t = y - mean_t at its cycle's level y,
    and H_t and B_t = H_t - I_t from the model's Segments row of the
    selected rule, the max-of-lines form that verify_assignment checks."""
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

    pw, segs = model.piecewise, model.segments
    rules = at("rules") + starts
    piece = pw.piece[rules]
    shift = segs.means[piece]
    inv = levels - shift
    hold = ((inv + shift)[:, None] * segs.slopes[piece]
            + segs.lines[piece]).max(axis=1)
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


def _put_joint(x: np.ndarray, model: MilpModel, columns: Sequence,
               linked: np.ndarray, answers: list) -> None:
    """Write joint answers into x: each with its (label -> Columns) and
    (C_S, G_s) columns. The no-order side's initial level is its root."""
    sides = []
    for cols, (forced, _, pinned) in zip(columns, answers):
        sides += [(cols["S"], *forced[1:]), (cols["s"], *pinned[1:])]
    _put_sides(x, model, sides)
    x[[cols["s"].initial for cols in columns]] = [root for _, root, _ in answers]
    x[linked] = [(forced[0], pinned[0]) for forced, _, pinned in answers]


def check_joint_answers(table: CycleTable, answers: list) -> None:
    """Check the joint answers of suffixes 1..m of a table's instance at
    once: answers[k - 1] is joint_answer of table.engine(k). Fills the
    instance's JointStack of m blocks from the table's segments, every
    block's levels bounded as the table's engines', writes every answer
    into one column vector and verifies it; a violation names its suffix
    and row."""
    instance, segments = table.instance, table.segments
    stack = JointStack.of(instance.horizon, segments.slopes.shape[1], len(answers))
    model = stack.fill(instance, segments, table.bounds)
    x = np.zeros(len(model.names))
    _put_joint(x, model, stack.columns, stack.linked, answers)
    _self_check(model, x, None, None, stack)


def _self_check(model: MilpModel, x: np.ndarray, obj: float | None,
                engine_cost: float | None, stack: JointStack | None = None) -> None:
    """Verify a solve's own column vector against the model, a JointStack's
    filled `stack` by its suffixes; names are built only for a failure."""
    bad = (verify_assignment(model, x) if stack is None
           else stack.verify(model, x))
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
    bad = verify_assignment(model, assignment)
    if bad:
        name, amount = bad[0]
        raise SolverError(
            f"imported solution violates {name} by {amount:.3e} "
            f"({len(bad)} rows beyond tolerance)")
    x = model.vector(assignment)
    obj = model.objective_value(x)
    return SolveResult(obj, x, model.index, "optimal", 0,
                       time.perf_counter() - start)
